"""Per-epoch online client data streams.

The paper makes training data time-varying: "all data are then transformed
into online data followed by Poisson distribution".  A
:class:`ClientDataStream` couples a client's class distribution with the
shared generator; each epoch it yields a fresh local dataset whose size is
supplied by :class:`repro.env.dynamics.DataVolumeProcess`.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.datasets.synthetic import ClassConditionalGenerator, Dataset

__all__ = ["ClientDataStream", "build_client_streams"]


class ClientDataStream:
    """On-demand sampler of one client's per-epoch local dataset."""

    def __init__(
        self,
        generator: ClassConditionalGenerator,
        class_probs: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        probs = np.asarray(class_probs, dtype=float)
        if probs.shape != (generator.num_classes,):
            raise ValueError("class_probs shape mismatch")
        if np.any(probs < 0) or probs.sum() <= 0:
            raise ValueError("class_probs must be a nonnegative distribution")
        self.generator = generator
        self.class_probs = probs / probs.sum()
        self._label_cdf: Optional[np.ndarray] = None  # built by the first draw
        self._rng = rng  # a Generator, or RngFactory.defer(key) until first read

    @property
    def rng(self) -> np.random.Generator:
        """This stream's generator; a deferred one is created by the first read."""
        if not isinstance(self._rng, np.random.Generator):
            self._rng = self._rng()
        return self._rng

    def draw(self, num_samples: int) -> Dataset:
        """Sample this epoch's local dataset (``num_samples`` examples)."""
        if self._label_cdf is None:
            # What ``generator.sample(class_probs=self.class_probs)`` would
            # validate, re-normalise and accumulate on every call.
            self._label_cdf = self.generator.label_cdf(self.class_probs)
        return self.generator.sample_from_cdf(
            num_samples, self._label_cdf, self.rng
        )


def build_client_streams(
    generator: ClassConditionalGenerator,
    class_distributions: np.ndarray,
    rng_factory,
) -> List[ClientDataStream]:
    """One stream per client, each with an independent RNG stream.

    ``rng_factory`` is a :class:`repro.rng.RngFactory`; streams are keyed
    ``data.client.<k>`` so adding clients never perturbs existing streams,
    and deferred so a client that never draws never creates one.
    """
    dists = np.asarray(class_distributions, dtype=float)
    if dists.ndim != 2 or dists.shape[1] != generator.num_classes:
        raise ValueError("class_distributions must be (M, num_classes)")
    return [
        ClientDataStream(
            generator=generator,
            class_probs=dists[k],
            rng=rng_factory.defer(f"data.client.{k}"),
        )
        for k in range(dists.shape[0])
    ]
