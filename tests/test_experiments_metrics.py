"""Tests for trace recording, tables, and reporting."""

import numpy as np
import pytest

from repro.experiments.metrics import EpochRecord, Trace
from repro.experiments.reporting import format_series, format_table
from repro.experiments.tables import (
    accuracy_at_time,
    headline_claims,
    time_to_accuracy,
)


def record(t, acc, cum_time, **kw):
    defaults = dict(
        t=t,
        test_accuracy=acc,
        test_loss=1.0 - acc,
        population_loss=1.0 - acc,
        epoch_latency=1.0,
        cumulative_time=cum_time,
        cost_spent=10.0,
        remaining_budget=100.0,
        num_selected=5,
        num_available=20,
        iterations=2,
        rho=float("nan"),
        eta_max=0.5,
    )
    defaults.update(kw)
    return EpochRecord(**defaults)


def make_trace(name="X", accs=(0.2, 0.5, 0.8), dt=1.0):
    tr = Trace(policy_name=name)
    for i, a in enumerate(accs):
        tr.append(record(i, a, (i + 1) * dt))
    return tr


class TestTrace:
    def test_column_extraction(self):
        tr = make_trace()
        np.testing.assert_allclose(tr.accuracy, [0.2, 0.5, 0.8])
        np.testing.assert_allclose(tr.times, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(tr.rounds, [0, 1, 2])

    def test_monotone_epochs_enforced(self):
        tr = make_trace()
        with pytest.raises(ValueError):
            tr.append(record(1, 0.9, 9.0))

    def test_final_and_best(self):
        tr = make_trace(accs=(0.2, 0.9, 0.8))
        assert tr.final_accuracy == 0.8
        assert tr.best_accuracy() == 0.9

    def test_empty_trace_raises(self):
        tr = Trace(policy_name="E")
        with pytest.raises(ValueError):
            _ = tr.final_accuracy
        assert tr.column("test_accuracy").size == 0

    def test_time_to_accuracy(self):
        tr = make_trace()
        assert tr.time_to_accuracy(0.5) == 2.0
        assert tr.time_to_accuracy(0.95) is None

    def test_rounds_to_accuracy(self):
        tr = make_trace()
        assert tr.rounds_to_accuracy(0.5) == 2  # 1-based

    def test_accuracy_at_time(self):
        tr = make_trace()
        assert tr.accuracy_at_time(0.5) == 0.0      # nothing finished yet
        assert tr.accuracy_at_time(2.5) == 0.5
        assert tr.accuracy_at_time(100.0) == 0.8

    def test_total_spend(self):
        assert make_trace().total_spend == pytest.approx(30.0)


class TestTables:
    def test_time_to_accuracy_per_policy(self):
        traces = {"A": make_trace(accs=(0.5, 0.9)), "B": make_trace(accs=(0.1, 0.2))}
        out = time_to_accuracy(traces, 0.85)
        assert out["A"] == 2.0
        assert out["B"] is None

    def test_accuracy_at_time_table(self):
        traces = {"A": make_trace()}
        assert accuracy_at_time(traces, 2.0)["A"] == 0.5

    def test_headline_claims_structure(self):
        traces = {
            "FedL": make_trace("FedL", accs=(0.5, 0.9), dt=1.0),
            "FedAvg": make_trace("FedAvg", accs=(0.3, 0.9), dt=2.0),
        }
        out = headline_claims(traces, target=0.85)
        assert out["fedl_time"] == 2.0
        assert out["best_baseline_time"] == 4.0
        assert out["time_saving_pct"] == pytest.approx(50.0)

    def test_headline_requires_fedl(self):
        with pytest.raises(KeyError):
            headline_claims({"A": make_trace()}, target=0.5)

    def test_headline_unreached_target(self):
        traces = {
            "FedL": make_trace("FedL", accs=(0.5, 0.9)),
            "FedAvg": make_trace("FedAvg", accs=(0.1, 0.2)),
        }
        out = headline_claims(traces, target=0.85)
        assert out["best_baseline_time"] == float("inf")


class TestReporting:
    def test_format_table_alignment(self):
        rows = {"FedL": {"t80": 2.0, "acc": 0.93}, "FedAvg": {"t80": None, "acc": 0.9}}
        out = format_table(rows, title="demo")
        lines = out.splitlines()
        assert lines[0] == "demo"
        assert "FedL" in out and "--" in out  # None renders as --

    def test_format_table_empty(self):
        assert "empty" in format_table({})

    def test_format_table_label_and_alignment(self):
        # Repeated labels as pairs; numeric columns (numbers or strings
        # that start like one) right-aligned, text columns left-aligned.
        rows = [("none", {"agg": "sync", "lat": "1.5ms", "n": 3}),
                ("none", {"agg": "async", "lat": "12.25ms", "n": 10})]
        lines = format_table(rows, label="profile").splitlines()
        assert lines[0].split() == ["profile", "agg", "lat", "n"]
        assert lines[2] == "none     sync     1.5ms   3"
        assert lines[3] == "none     async  12.25ms  10"

    def test_format_series_subsamples(self):
        series = {"A": [(float(i), float(i)) for i in range(100)]}
        out = format_series(series, "x", "y", max_points=5)
        assert out.count("(") == 5

    def test_format_series_title(self):
        out = format_series({"A": [(1.0, 2.0)]}, "t", "acc", title="fig")
        assert out.startswith("fig")
