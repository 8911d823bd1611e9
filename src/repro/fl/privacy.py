"""Differential privacy for uploads (related work [29] concerns).

The paper motivates FL partly by privacy, and its related work ([29],
Wang et al.) shows user-level leakage from plain updates.  The standard
mitigation is the Gaussian mechanism per upload:

1. clip the update to an L2 bound ``Δ`` (the sensitivity),
2. add isotropic Gaussian noise ``N(0, σ²Δ²I)``.

Accounting uses zero-concentrated DP (zCDP): one release of the Gaussian
mechanism with noise multiplier σ is ``ρ = 1/(2σ²)``-zCDP; ρ composes
additively, and converts to (ε, δ)-DP via

    ε(δ) = ρ + 2·sqrt(ρ · ln(1/δ)).

:class:`PrivacyAccountant` tracks a client's cumulative ρ over the run
and reports the (ε, δ) spent — the bookkeeping an FL deployment needs to
enforce a privacy budget the same way FedL enforces the monetary one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

__all__ = ["clip_update", "gaussian_mechanism", "PrivacyAccountant", "DPSpec"]


@dataclass(frozen=True)
class DPSpec:
    """Per-upload privacy parameters."""

    clip_norm: float = 1.0        # Δ, the L2 sensitivity after clipping
    noise_multiplier: float = 1.0  # σ (noise std = σ·Δ)

    def __post_init__(self) -> None:
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        if self.noise_multiplier <= 0:
            raise ValueError("noise_multiplier must be positive")

    @property
    def rho_per_release(self) -> float:
        """zCDP cost of one Gaussian-mechanism release."""
        return 1.0 / (2.0 * self.noise_multiplier**2)


def clip_update(d: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale ``d`` down (never up) so its L2 norm is at most ``clip_norm``."""
    if clip_norm <= 0:
        raise ValueError("clip_norm must be positive")
    d = np.asarray(d, dtype=float)
    norm = float(np.linalg.norm(d))
    if norm <= clip_norm or norm == 0.0:
        return d.copy()
    return d * (clip_norm / norm)


def gaussian_mechanism(
    d: np.ndarray,
    spec: DPSpec,
    rng: np.random.Generator,
) -> np.ndarray:
    """Clip to ``spec.clip_norm`` and add ``N(0, (σΔ)² I)`` noise."""
    clipped = clip_update(d, spec.clip_norm)
    noise = rng.normal(
        0.0, spec.noise_multiplier * spec.clip_norm, size=clipped.shape
    )
    return clipped + noise


class PrivacyAccountant:
    """Additive zCDP accounting with (ε, δ) conversion."""

    def __init__(self) -> None:
        self._rho = 0.0
        self._releases = 0

    @property
    def rho(self) -> float:
        return self._rho

    @property
    def releases(self) -> int:
        return self._releases

    def spend(self, spec: DPSpec, count: int = 1) -> None:
        """Record ``count`` releases under ``spec``."""
        if count < 1:
            raise ValueError("count must be >= 1")
        self._rho += count * spec.rho_per_release
        self._releases += count

    def epsilon(self, delta: float = 1e-5) -> float:
        """(ε, δ) guarantee implied by the accumulated ρ-zCDP."""
        if not (0.0 < delta < 1.0):
            raise ValueError("delta must be in (0, 1)")
        if self._rho == 0.0:
            return 0.0
        return self._rho + 2.0 * math.sqrt(self._rho * math.log(1.0 / delta))
