"""FDMA uplink rate (paper Sec. 3.2).

The achievable rate of client ``k`` with bandwidth ``b_{t,k}`` is

    r_{t,k} = b_{t,k} · log2(1 + h_k p_k / (N0 b_{t,k})),

with the cell-wide constraint ``Σ_k b_{t,k} = B``.  A run splits the band
equally among the round's uploaders, ``b = B / num_sharing``
(:meth:`repro.experiments.runner.Simulation.realized_tau_components`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["achievable_rate"]


def achievable_rate(
    bandwidth_hz: np.ndarray | float,
    snr_per_hz: np.ndarray | float,
) -> np.ndarray | float:
    """Shannon FDMA rate ``b · log2(1 + snr_hz / b)`` in bits/s.

    ``snr_per_hz = h p / N0`` has units of Hz.  The expression is concave
    and increasing in ``b`` and tends to ``snr_per_hz / ln 2`` as b → ∞.
    Zero bandwidth yields zero rate (the b → 0 limit).
    """
    b = np.asarray(bandwidth_hz, dtype=float)
    s = np.asarray(snr_per_hz, dtype=float)
    if np.any(b < 0):
        raise ValueError("bandwidth must be nonnegative")
    if np.any(s < 0):
        raise ValueError("snr must be nonnegative")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(b > 0, b * np.log2(1.0 + np.divide(
            s, np.where(b > 0, b, 1.0))), 0.0)
    if np.isscalar(bandwidth_hz) and np.isscalar(snr_per_hz):
        return float(out)
    return out
