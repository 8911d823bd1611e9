"""Multi-seed aggregation of experiment results.

Published FL curves are averages over repetitions; this module
aggregates a policy's traces over seeds (e.g.
:func:`~repro.experiments.figures.policy_traces` of a multi-seed
:func:`~repro.experiments.figures.paper_grid`) into mean ± std bands on a
common grid, for both the time axis and the round axis.
:func:`mean_std` is the same summary for one number per seed, which the
tournament's cells use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.experiments.metrics import Trace

__all__ = [
    "Band",
    "mean_std",
    "aggregate_on_rounds",
    "aggregate_on_times",
]


@dataclass(frozen=True)
class Band:
    """A mean ± std series on a common x grid."""

    x: np.ndarray
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        for name in ("x", "mean", "std"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (self.x.shape == self.mean.shape == self.std.shape):
            raise ValueError("band arrays must share a shape")


def mean_std(values: Sequence[float]) -> Dict[str, float]:
    """Mean and population standard deviation of one number per seed."""
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return {"mean": mean, "std": var ** 0.5}


def aggregate_on_rounds(traces: Sequence[Trace], metric: str = "test_accuracy") -> Band:
    """Per-round mean ± std across traces (truncated to the shortest run)."""
    if not traces:
        raise ValueError("need at least one trace")
    horizon = min(len(tr) for tr in traces)
    if horizon == 0:
        raise ValueError("traces must be nonempty")
    stacked = np.stack([tr.column(metric)[:horizon] for tr in traces])
    return Band(
        x=np.arange(1, horizon + 1, dtype=float),
        mean=stacked.mean(axis=0),
        std=stacked.std(axis=0),
    )


def aggregate_on_times(
    traces: Sequence[Trace],
    num_points: int = 20,
    metric: str = "test_accuracy",
) -> Band:
    """Mean ± std of the step-function metric-vs-time curves on a shared
    time grid spanning the shortest run (so every trace covers the grid)."""
    if not traces:
        raise ValueError("need at least one trace")
    if num_points < 2:
        raise ValueError("need at least two grid points")
    t_end = min(float(tr.times[-1]) for tr in traces if len(tr) > 0)
    grid = np.linspace(0.0, t_end, num_points)
    rows = []
    for tr in traces:
        times = tr.times
        vals = tr.column(metric)
        idx = np.searchsorted(times, grid, side="right") - 1
        rows.append(np.where(idx >= 0, vals[np.maximum(idx, 0)], 0.0))
    stacked = np.stack(rows)
    return Band(x=grid, mean=stacked.mean(axis=0), std=stacked.std(axis=0))
