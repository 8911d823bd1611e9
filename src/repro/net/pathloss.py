"""Path-loss model and dB/linear unit conversions.

The paper (Sec. 6.1, following [24]) models path loss as
``PL(d) = 128.1 + 37.6 log10(d)`` dB with ``d`` in kilometres — the standard
3GPP macro-cell urban model — plus log-normal shadow fading with an 8 dB
standard deviation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pathloss_db", "db_to_linear", "dbm_to_watt"]

#: 3GPP urban-macro intercept (dB) at 1 km.
PATHLOSS_INTERCEPT_DB = 128.1
#: 3GPP urban-macro slope (dB per decade of distance).
PATHLOSS_SLOPE_DB = 37.6


def pathloss_db(distance_m: np.ndarray | float) -> np.ndarray | float:
    """Deterministic path loss in dB at ``distance_m`` metres.

    ``PL = 128.1 + 37.6 log10(d_km)``.  Distances must be positive; callers
    should clamp to a minimum distance (the config's ``min_distance_m``)
    before calling.
    """
    d = np.asarray(distance_m, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distance must be positive")
    out = PATHLOSS_INTERCEPT_DB + PATHLOSS_SLOPE_DB * np.log10(d / 1000.0)
    return float(out) if np.isscalar(distance_m) else out


def db_to_linear(db: np.ndarray | float) -> np.ndarray | float:
    """Convert a dB power ratio to linear scale."""
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


def dbm_to_watt(dbm: np.ndarray | float) -> np.ndarray | float:
    """Convert dBm to watts (0 dBm = 1 mW)."""
    return 10.0 ** ((np.asarray(dbm, dtype=float) - 30.0) / 10.0)
