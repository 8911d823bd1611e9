"""Tests for the paper grid and its figure-series reports (small scale)."""

import numpy as np
import pytest

from repro.experiments.figures import (
    accuracy_vs_round,
    accuracy_vs_time,
    loss_vs_budget,
    paper_grid,
    suite_traces,
)
from repro.experiments.sweep import run_grid


def run_suite(**setting):
    return suite_traces(run_grid(paper_grid(**setting), workers=1))


@pytest.fixture(scope="module")
def tiny_suite():
    return run_suite(
        dataset="fmnist",
        iid=True,
        budget=80.0,
        num_clients=8,
        max_epochs=5,
        policies=("FedL", "FedAvg"),
    )


class TestSuiteRunner:
    def test_runs_requested_policies_only(self, tiny_suite):
        assert set(tiny_suite) == {"FedL", "FedAvg"}

    def test_traces_nonempty(self, tiny_suite):
        for tr in tiny_suite.values():
            assert len(tr) >= 1

    def test_same_seed_shares_environment(self):
        """Two policies see the same channel/availability trajectory: the
        FIRST-epoch available count matches across policies (decisions
        cannot have diverged before the first selection)."""
        suite = run_suite(
            dataset="fmnist", iid=True, budget=80.0, num_clients=8, max_epochs=2,
            policies=("FedAvg", "Pow-d"),
        )
        a = suite["FedAvg"].records[0].num_available
        b = suite["Pow-d"].records[0].num_available
        assert a == b


class TestSeriesShapes:
    def test_accuracy_vs_time_series(self, tiny_suite):
        series = accuracy_vs_time(tiny_suite)
        for name, pts in series.items():
            assert len(pts) == len(tiny_suite[name])
            xs = [p[0] for p in pts]
            assert xs == sorted(xs)  # time increases
            assert all(0.0 <= p[1] <= 1.0 for p in pts)

    def test_accuracy_vs_round_series(self, tiny_suite):
        series = accuracy_vs_round(tiny_suite)
        for pts in series.values():
            assert [p[0] for p in pts] == list(range(1, len(pts) + 1))

    def test_budget_sweep_series(self):
        grid = paper_grid(
            (80.0, 40.0), dataset="fmnist", iid=True,
            num_clients=8, max_epochs=4, policies=("FedAvg",),
        )
        series = loss_vs_budget(run_grid(grid, workers=1))
        pts = series["FedAvg"]
        assert [p[0] for p in pts] == [40.0, 80.0]
        assert all(np.isfinite(p[1]) for p in pts)
