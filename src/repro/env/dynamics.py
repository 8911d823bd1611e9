"""Time-varying environment processes: rental prices and data volumes.

* **Prices** — the paper rents clients at costs "uniformly distributed in
  [0.1, 12] based on the dynamic price of Amazon".  We model each client's
  price as a mean-reverting AR(1) process around its base price, clipped to
  the paper's range: this is the closest synthetic equivalent of a spot
  price trace (documented substitution; see DESIGN.md §2).
* **Data volumes** — "all data are then transformed into online data
  followed by Poisson distribution": each epoch, client k holds
  ``D_{t,k} ~ Poisson(mean_samples)`` fresh samples (floored at 1 so the
  loss is always defined).
"""

from __future__ import annotations

import numpy as np

__all__ = ["PriceProcess", "DataVolumeProcess"]


class PriceProcess:
    """Mean-reverting AR(1) rental prices, clipped to [lo, hi].

    ``c_{t+1,k} = c̄_k + φ (c_{t,k} − c̄_k) + σ_k ε``, with
    ``σ_k = volatility · c̄_k`` so expensive clients fluctuate more in
    absolute terms (as spot markets do).
    """

    def __init__(
        self,
        base_cost: np.ndarray,
        rng: np.random.Generator,
        volatility: float = 0.15,
        mean_reversion: float = 0.7,
        clip_range: tuple[float, float] = (0.1, 12.0),
    ) -> None:
        base = np.asarray(base_cost, dtype=float)
        if np.any(base <= 0):
            raise ValueError("base costs must be positive")
        if not (0.0 <= mean_reversion <= 1.0):
            raise ValueError("mean_reversion must be in [0, 1]")
        if volatility < 0:
            raise ValueError("volatility must be nonnegative")
        lo, hi = clip_range
        if not (0 < lo <= hi):
            raise ValueError("clip_range must satisfy 0 < lo <= hi")
        self.base = base
        self.rng = rng
        self.volatility = volatility
        self.phi = mean_reversion
        self.clip_range = (lo, hi)
        self._current = np.clip(base.copy(), lo, hi)
        # Preallocated buffers for the allocation-free step_into path
        # (lazy: only runs that call step_into pay for them).
        self._vol_base: np.ndarray | None = None
        self._step_buf: np.ndarray | None = None
        self._noise_buf: np.ndarray | None = None

    @property
    def current(self) -> np.ndarray:
        """Current prices (read-only view)."""
        out = self._current.view()
        out.flags.writeable = False
        return out

    def step(self) -> np.ndarray:
        """Advance one epoch and return the new price vector (a copy)."""
        lo, hi = self.clip_range
        noise = self.rng.normal(0.0, 1.0, size=self.base.shape)
        self._current = np.clip(
            self.base
            + self.phi * (self._current - self.base)
            + self.volatility * self.base * noise,
            lo,
            hi,
        )
        return self._current.copy()

    def step_into(self, out: np.ndarray) -> np.ndarray:
        """Allocation-free :meth:`step`: advance and write into ``out``.

        Bit-identical to ``step`` (verified in tests): the elementwise
        operations are reassociated only where IEEE-754 results cannot
        change (commuted additions; ``volatility · base`` hoisted to a
        constant buffer), and ``standard_normal(out=...)`` draws the same
        deviates ``normal(0, 1, size)`` would.
        """
        if self._vol_base is None:
            self._vol_base = self.volatility * self.base
            self._step_buf = np.empty_like(self.base)
            self._noise_buf = np.empty_like(self.base)
        lo, hi = self.clip_range
        buf, noise = self._step_buf, self._noise_buf
        self.rng.standard_normal(out=noise)
        # base + phi·(cur − base) + (vol·base)·noise, term by term in place.
        np.subtract(self._current, self.base, out=buf)
        buf *= self.phi
        buf += self.base
        noise *= self._vol_base
        buf += noise
        np.clip(buf, lo, hi, out=self._current)
        np.copyto(out, self._current)
        return out


class DataVolumeProcess:
    """Poisson per-epoch local dataset sizes, floored at ``min_samples``."""

    def __init__(
        self,
        num_clients: int,
        mean_samples: float,
        rng: np.random.Generator,
        min_samples: int = 1,
    ) -> None:
        if num_clients < 1:
            raise ValueError("need at least one client")
        if mean_samples <= 0:
            raise ValueError("mean_samples must be positive")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        self.num_clients = num_clients
        self.rng = rng
        self.min_samples = min_samples
        # Client-specific means spread around the target (0.5x .. 1.5x),
        # giving persistent data-volume heterogeneity on top of the
        # epoch-to-epoch Poisson noise.
        self.means = mean_samples * rng.uniform(0.5, 1.5, size=num_clients)

    def sample(self) -> np.ndarray:
        """Draw one epoch's per-client sample counts, dtype int64."""
        counts = self.rng.poisson(self.means)
        return np.maximum(counts, self.min_samples).astype(np.int64)

    def sample_into(self, out: np.ndarray) -> np.ndarray:
        """:meth:`sample` writing into a preallocated int64 ``out``
        (bit-identical draws; only the floor+cast copy is saved — the
        Poisson draw itself has no output-buffer API)."""
        counts = self.rng.poisson(self.means)
        np.maximum(counts, self.min_samples, out=out)
        return out
