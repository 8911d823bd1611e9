"""The paper's Sec. 6 grid and the figure series reported over it.

:func:`paper_grid` is FedL and its three baselines (FedAvg, FedCS, Pow-d)
× budgets × seeds on one :func:`~repro.experiments.scenarios.experiment_config`
setting, a :class:`~repro.experiments.sweep.Grid` that
:func:`~repro.experiments.sweep.run_grid` runs.  The reports:

* :func:`suite_traces` / :func:`policy_traces` — each policy's trace(s);
* :func:`accuracy_vs_time` (Figs. 2-3) and :func:`accuracy_vs_round`
  (Figs. 4-5) — the plotted series of those traces;
* :func:`loss_vs_budget` (Figs. 6-7) — final loss per budget.

The benchmark files under ``benchmarks/`` print these series with
:func:`repro.experiments.reporting.format_series`, so every paper figure
has a regenerating target (DESIGN.md §4).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.metrics import Trace
from repro.experiments.scenarios import POLICY_NAMES, experiment_config
from repro.experiments.sweep import Grid, GridResults

__all__ = [
    "paper_grid",
    "policy_traces",
    "suite_traces",
    "accuracy_vs_time",
    "accuracy_vs_round",
    "loss_vs_budget",
]

Series = Dict[str, List[Tuple[float, float]]]


def paper_grid(
    budgets: Optional[Sequence[float]] = None,
    seeds: Optional[Sequence[int]] = None,
    policies: Sequence[str] = POLICY_NAMES,
    **setting,
) -> Grid:
    """``policies`` × ``budgets`` × ``seeds`` on ``experiment_config(**setting)``
    (``budgets``/``seeds`` default to the setting's one budget and seed)."""
    return Grid.over_budgets(experiment_config(**setting), policies, budgets, seeds)


def policy_traces(cells: GridResults) -> Dict[str, List[Trace]]:
    """Each policy's traces, in seed order, from a one-scenario grid."""
    return {policy: [r.trace for r in results] for (_, policy), results in cells.items()}


def suite_traces(cells: GridResults) -> Dict[str, Trace]:
    """Each policy's trace from a one-scenario, one-seed grid."""
    return {policy: traces[0] for policy, traces in policy_traces(cells).items()}


def accuracy_vs_time(traces: Dict[str, Trace]) -> Series:
    """Figs. 2-3 series: (cumulative seconds, test accuracy)."""
    return {
        name: list(zip(tr.times.tolist(), tr.accuracy.tolist()))
        for name, tr in traces.items()
    }


def accuracy_vs_round(traces: Dict[str, Trace]) -> Series:
    """Figs. 4-5 series: (federated round, test accuracy)."""
    return {
        name: list(zip((tr.rounds + 1).tolist(), tr.accuracy.tolist()))
        for name, tr in traces.items()
    }


def loss_vs_budget(cells: GridResults) -> Series:
    """Figs. 6-7 series: (budget, final test loss averaged over seeds) per
    policy, in budget order, from a grid whose scenarios are budgets."""
    losses: Dict[str, Dict[float, float]] = {}
    for (_, policy), results in cells.items():
        losses.setdefault(policy, {})[results[0].config.budget] = float(
            np.mean([r.trace.final_loss for r in results])
        )
    return {policy: sorted(by_budget.items()) for policy, by_budget in losses.items()}
