"""Class-conditional synthetic image generator.

Each of the ``num_classes`` classes has a fixed *prototype image* built
from low-spatial-frequency random structure (so classes are separable but
not trivially so, like real image classes), and samples are

    x = clip(prototype_c + noise · ε + deformation, 0, 1),

where ε is i.i.d. Gaussian pixel noise and the deformation is a random
per-sample global intensity/contrast jitter.  Labels are the class index.

Difficulty is controlled by ``noise``: at 0 the task is trivially
separable; around 0.3–0.5 a small MLP takes a few hundred SGD steps to
reach high accuracy, matching the training-dynamics role FMNIST/CIFAR play
in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = ["Dataset", "ClassConditionalGenerator"]


@dataclass(frozen=True)
class Dataset:
    """A bag of examples: features ``x`` (N, D) and integer labels ``y`` (N,)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=np.int64)
        if x.ndim != 2:
            raise ValueError("x must be 2-D (N, D)")
        if y.shape != (x.shape[0],):
            raise ValueError("y must have shape (N,)")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def num_features(self) -> int:
        return self.x.shape[1]

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(x=self.x[idx], y=self.y[idx])

    def concat(self, other: "Dataset") -> "Dataset":
        if other.num_features != self.num_features:
            raise ValueError("feature dimensions differ")
        return Dataset(
            x=np.concatenate([self.x, other.x], axis=0),
            y=np.concatenate([self.y, other.y], axis=0),
        )


def _smooth_field(
    rng: np.random.Generator, height: int, width: int, cutoff: int
) -> np.ndarray:
    """Low-frequency random field in [0, 1] via truncated random Fourier sum."""
    yy, xx = np.meshgrid(
        np.linspace(0.0, 1.0, height), np.linspace(0.0, 1.0, width), indexing="ij"
    )
    field = np.zeros((height, width))
    for fy in range(cutoff):
        for fx in range(cutoff):
            if fy == 0 and fx == 0:
                continue
            amp = rng.normal() / (1.0 + fy + fx)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            field += amp * np.cos(2.0 * np.pi * (fy * yy + fx * xx) + phase)
    lo, hi = field.min(), field.max()
    if hi - lo < 1e-12:
        return np.full_like(field, 0.5)
    return (field - lo) / (hi - lo)


class ClassConditionalGenerator:
    """Samples labelled images on demand from fixed class prototypes."""

    def __init__(
        self,
        image_shape: Tuple[int, int, int],
        num_classes: int,
        rng: np.random.Generator,
        noise: float = 0.35,
        frequency_cutoff: int = 4,
    ) -> None:
        h, w, c = image_shape
        if h < 2 or w < 2 or c < 1:
            raise ValueError("image_shape must be (H>=2, W>=2, C>=1)")
        if num_classes < 2:
            raise ValueError("need at least two classes")
        if noise < 0:
            raise ValueError("noise must be nonnegative")
        self.image_shape = (h, w, c)
        self.num_classes = num_classes
        self.noise = noise
        self.rng = rng
        # One smooth prototype per (class, channel).
        self.prototypes = np.stack(
            [
                np.stack(
                    [_smooth_field(rng, h, w, frequency_cutoff) for _ in range(c)],
                    axis=-1,
                )
                for _ in range(num_classes)
            ],
            axis=0,
        )  # (num_classes, H, W, C)

    @property
    def num_features(self) -> int:
        h, w, c = self.image_shape
        return h * w * c

    def label_cdf(self, class_probs: Optional[np.ndarray] = None) -> np.ndarray:
        """The validated label distribution (uniform default), as the cdf
        ``Generator.choice(p=...)`` would build from it."""
        if class_probs is None:
            probs = np.full(self.num_classes, 1.0 / self.num_classes)
        else:
            probs = np.asarray(class_probs, dtype=float)
            if probs.shape != (self.num_classes,):
                raise ValueError("class_probs must have shape (num_classes,)")
            if (
                not np.all(np.isfinite(probs))
                or np.any(probs < 0)
                or probs.sum() <= 0
            ):
                raise ValueError("class_probs must be a nonnegative distribution")
            probs = probs / probs.sum()
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        return cdf

    def sample(
        self,
        n: int,
        class_probs: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
        flatten: bool = True,
    ) -> Dataset:
        """Draw ``n`` samples with labels ~ ``class_probs`` (uniform default)."""
        return self.sample_from_cdf(
            n, self.label_cdf(class_probs), rng if rng is not None else self.rng, flatten
        )

    def sample_from_cdf(
        self,
        n: int,
        cdf: np.ndarray,
        gen: np.random.Generator,
        flatten: bool = True,
        out: Optional[np.ndarray] = None,
    ) -> Dataset:
        """:meth:`sample` for a caller that keeps its :meth:`label_cdf`.

        ``out`` (C-contiguous float64, ``(n, num_features)``) receives the
        features instead of a fresh array; the draws and the bytes are the
        same either way.  Rows are always flat (``flatten`` is kept for
        :meth:`sample`'s signature).
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        h, w, c = self.image_shape
        if out is None:
            out = np.empty((n, h * w * c))
        elif (
            out.shape != (n, h * w * c)
            or out.dtype != np.float64
            or not out.flags.c_contiguous
        ):
            raise ValueError("out must be a C-contiguous (n, num_features) array")
        # Inverse-cdf labels: the draw ``gen.choice(num_classes, size=n, p=probs)``
        # makes, without its per-call validation and cumsum of ``p``.
        labels = cdf.searchsorted(gen.random(n), side="right")
        # ε straight into the result: numpy's ``normal(0, σ)`` is
        # ``0.0 + σ·z``, which differs from σ·z only in the sign of a zero
        # (at σ = 0 a negative z gives −0.0).  Adding ``base`` below clears
        # that sign too: ``base`` is never −0.0, because ``bias`` is not
        # and an exact zero sum rounds to +0.0.
        eps = out.reshape(n, h, w, c)
        gen.standard_normal(out=eps)
        eps *= self.noise
        # Per-sample intensity/contrast jitter (broadcast over pixels).
        gain = gen.uniform(0.85, 1.15, size=(n, 1, 1, 1))
        bias = gen.uniform(-0.05, 0.05, size=(n, 1, 1, 1))
        # ((base·gain) + bias) + eps, clipped: the same IEEE operations as
        # adding ε to the jittered prototypes (a sum commutes exactly).
        base = self.prototypes[labels]  # (n, H, W, C), a fresh copy
        np.multiply(base, gain, out=base)
        base += bias
        eps += base
        np.clip(eps, 0.0, 1.0, out=eps)
        return Dataset(x=out, y=labels)

    def test_set(self, n: int, rng: Optional[np.random.Generator] = None) -> Dataset:
        """A balanced held-out set (n // num_classes per class, at least 1)."""
        per = max(1, n // self.num_classes)
        gen = rng if rng is not None else self.rng
        parts = []
        for cls in range(self.num_classes):
            probs = np.zeros(self.num_classes)
            probs[cls] = 1.0
            parts.append(self.sample(per, class_probs=probs, rng=gen))
        out = parts[0]
        for p in parts[1:]:
            out = out.concat(p)
        return out
