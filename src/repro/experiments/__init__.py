"""Experiment harness: paper scenarios, the online FL loop, the experiment
grid and the figure/table reports over it (see DESIGN.md §4 for the
index).  The names below are the everyday entry points; everything else
is imported from its module (``repro.experiments.sweep``, ``.figures``,
``.tournament``, ``.persistence``, ...).
"""

from repro.experiments.metrics import EpochRecord, Trace
from repro.experiments.runner import ExperimentResult, Simulation, run_experiment
from repro.experiments.scenarios import (
    experiment_config,
    make_policy,
    POLICY_NAMES,
)
from repro.experiments.tables import (
    time_to_accuracy,
    accuracy_at_time,
    headline_claims,
)
from repro.experiments.reporting import format_table, format_series
from repro.experiments.sweep import Grid, PolicySpec, SweepCache, run_grid

__all__ = [
    "EpochRecord",
    "Trace",
    "ExperimentResult",
    "Simulation",
    "run_experiment",
    "experiment_config",
    "make_policy",
    "POLICY_NAMES",
    "time_to_accuracy",
    "accuracy_at_time",
    "headline_claims",
    "format_table",
    "format_series",
    "Grid",
    "PolicySpec",
    "SweepCache",
    "run_grid",
]
