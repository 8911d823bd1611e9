"""Shared infrastructure for the benchmark harness.

Figures 2 & 4 (and 3 & 5) are different views of the same runs, so the
policy-suite results are cached per (dataset, iid) for the session; the
first bench that needs a suite pays for it.

Benchmark scale: the paper runs M = 100 clients with real CNN training for
thousands of seconds of GPU time; the benches run the same pipeline at
M = 20 / 60 epochs so the full harness finishes in minutes.  The *shape*
comparisons (who wins, crossovers) are what is asserted; see
EXPERIMENTS.md for the measured-vs-paper discussion.
"""

from __future__ import annotations

import os
from typing import Dict

import pytest

from repro.experiments.figures import run_policy_suite
from repro.experiments.metrics import Trace
from repro.host import usable_cpus

BENCH_CLIENTS = 20
BENCH_EPOCHS = 60
BENCH_BUDGET = 1200.0

# Worker processes for the sweep-engine benches (multi-seed bands, budget
# sweeps).  Results are bit-identical at any worker count; override with
# REPRO_SWEEP_WORKERS to pin serial (1) or oversubscribe.
SWEEP_WORKERS = int(os.environ.get("REPRO_SWEEP_WORKERS", usable_cpus()))

_suite_cache: Dict[tuple, Dict[str, Trace]] = {}


def cached_suite(dataset: str, iid: bool, budget: float = BENCH_BUDGET) -> Dict[str, Trace]:
    """Run (or reuse) the four-policy suite for a scenario."""
    key = (dataset, iid, budget)
    if key not in _suite_cache:
        _suite_cache[key] = run_policy_suite(
            dataset,
            iid,
            budget=budget,
            num_clients=BENCH_CLIENTS,
            max_epochs=BENCH_EPOCHS,
            workers=SWEEP_WORKERS,
        )
    return _suite_cache[key]


@pytest.fixture
def emit(capsys):
    """Print straight to the terminal, bypassing pytest capture."""

    def _emit(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)

    return _emit
