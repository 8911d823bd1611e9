"""Convergence accounting: local accuracy η and the iteration map l_t.

The paper links the decision variable ``η_t`` (the worst local convergence
accuracy tolerated this epoch) to the number of global iterations via

    l_t(η_t, θ0) = O(log(1/θ0)) / (1 − η_t),

normalized in Sec. 4.2 to ``l_t(η_t) = 1 / (1 − η_t) = ρ_t``.  The change of
variables ``ρ = 1/(1−η)`` (so ``η = 1 − 1/ρ``) is what makes the relaxed
problem convex in ``ρ``.

The local convergence accuracy achieved by the inner solver,

    G(d_final) − G* ≤ η̂ · (G(0) − G*),

cannot be computed exactly (G* is unknown); :func:`estimate_local_accuracy`
estimates it from the surrogate-value trajectory by using the best value
reached as a stand-in for G* with a geometric-tail correction.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = [
    "rho_to_eta",
    "eta_to_rho",
    "iterations_for_accuracy",
    "estimate_local_accuracy",
]

#: η̂ is clipped below 1 so ρ = 1/(1−η) stays finite.
ETA_CAP = 0.995


def rho_to_eta(rho: float) -> float:
    """``η = 1 − 1/ρ`` for ``ρ >= 1``."""
    if rho < 1.0:
        raise ValueError("rho must be >= 1")
    return 1.0 - 1.0 / rho


def eta_to_rho(eta: float) -> float:
    """``ρ = 1/(1−η)`` for ``η ∈ [0, 1)``."""
    if not (0.0 <= eta < 1.0):
        raise ValueError("eta must be in [0, 1)")
    return 1.0 / (1.0 - eta)


def iterations_for_accuracy(eta: float, theta0: float = 0.1) -> int:
    """``l_t(η, θ0) = ceil(log(1/θ0)/(1−η))`` — the un-normalized paper map.

    ``θ0`` is the target global convergence accuracy; the paper normalizes
    ``O(log(1/θ0))`` to 1, which corresponds to ``theta0 = 1/e`` here.
    """
    if not (0.0 < theta0 < 1.0):
        raise ValueError("theta0 must be in (0, 1)")
    if not (0.0 <= eta < 1.0):
        raise ValueError("eta must be in [0, 1)")
    return max(1, math.ceil(math.log(1.0 / theta0) / (1.0 - eta)))


def estimate_local_accuracy(surrogate_values: Sequence[float]) -> float:
    """Estimate η̂ = (G_J − G*)/(G_0 − G*) from the inner trajectory.

    Uses ``G* ≈ G_best − gap`` where the residual ``gap`` extrapolates the
    geometric tail of the decrease sequence: if the last decrement is
    ``δ = G_{J−1} − G_J`` and the per-step contraction is ``q``, then the
    remaining suboptimality is about ``δ·q/(1−q)``.  Falls back to treating
    the best seen value as G* when the trajectory is too short or not
    decreasing.

    Returns a value in ``[0, ETA_CAP]``; 0 means the inner solve converged
    essentially exactly, values near 1 mean it barely improved.
    """
    vals = [float(v) for v in surrogate_values]
    if not vals:
        raise ValueError("need at least one surrogate value")
    if any(v != v for v in vals):
        # A diverged trajectory has no accuracy: NaN, as when ``np.min``
        # carried it into every quantity below (``min`` would skip it).
        return math.nan
    g0 = vals[0]
    g_best = min(vals)
    g_final = vals[-1]
    denom = g0 - g_best
    if denom <= 1e-15:
        # No progress at all → worst-case accuracy.
        return ETA_CAP
    gap = 0.0
    if len(vals) >= 3:
        d1 = vals[-2] - vals[-1]
        d2 = vals[-3] - vals[-2]
        if d2 > 1e-15 and 0.0 < d1 < d2:
            q = d1 / d2
            gap = max(0.0, d1 * q / (1.0 - q))
    g_star = g_best - gap
    eta = (g_final - g_star) / max(g0 - g_star, 1e-15)
    # eta first: an inf − inf NaN passes through both comparisons.
    return min(max(eta, 0.0), ETA_CAP)
