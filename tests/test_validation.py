"""Tests for the trace invariant checker — and, through it, a sweep of
well-formedness checks over every policy and environment variant."""

import dataclasses

import numpy as np
import pytest

from repro.experiments.metrics import EpochRecord, Trace
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import experiment_config, make_policy
from repro.experiments.validation import validate_trace
from repro.rng import RngFactory

ALL_POLICIES = ("FedL", "FedAvg", "FedCS", "Pow-d", "Fair-FedL", "UCB", "Oracle")


def record(**overrides):
    base = dict(
        t=0, test_accuracy=0.5, test_loss=1.0, population_loss=1.0,
        epoch_latency=1.0, cumulative_time=1.0, cost_spent=10.0,
        remaining_budget=90.0, num_selected=3, num_available=8,
        iterations=2, rho=2.0, eta_max=0.5, num_failed=0,
    )
    base.update(overrides)
    return EpochRecord(**base)


def one_record_trace(cfg_budget=100.0, **overrides):
    tr = Trace(policy_name="X")
    tr.append(record(**overrides))
    return tr


class TestDetectsViolations:
    def _cfg(self):
        return experiment_config(budget=100.0, num_clients=8, min_participants=3)

    def test_clean_trace_passes(self):
        assert validate_trace(one_record_trace(), self._cfg()) == []

    def test_overspend_detected(self):
        tr = one_record_trace(cost_spent=200.0, remaining_budget=-100.0)
        problems = validate_trace(tr, self._cfg())
        assert any("I1" in p for p in problems)

    def test_bad_running_budget_detected(self):
        tr = one_record_trace(remaining_budget=50.0)  # should be 90
        assert any("I1" in p for p in validate_trace(tr, self._cfg()))

    def test_time_mismatch_detected(self):
        tr = one_record_trace(cumulative_time=5.0)  # != epoch_latency 1.0
        assert any("I2" in p for p in validate_trace(tr, self._cfg()))

    def test_participation_floor_detected(self):
        tr = one_record_trace(num_selected=1)
        assert any("I3" in p for p in validate_trace(tr, self._cfg()))

    def test_over_selection_detected(self):
        tr = one_record_trace(num_selected=9)
        assert any("I3" in p for p in validate_trace(tr, self._cfg()))

    def test_rho_iteration_mismatch_detected(self):
        tr = one_record_trace(rho=3.4, iterations=2)
        assert any("I4" in p for p in validate_trace(tr, self._cfg()))

    def test_accuracy_range_detected(self):
        tr = one_record_trace(test_accuracy=1.5)
        assert any("I5" in p for p in validate_trace(tr, self._cfg()))

    def test_failed_count_detected(self):
        tr = one_record_trace(num_failed=5, num_selected=3)
        assert any("I5" in p for p in validate_trace(tr, self._cfg()))

    def test_empty_trace_ok(self):
        assert validate_trace(Trace(policy_name="E"), self._cfg()) == []


class TestAllPoliciesProduceValidTraces:
    @pytest.mark.parametrize("name", ALL_POLICIES)
    def test_policy_trace_is_well_formed(self, name):
        cfg = experiment_config(
            budget=150.0, num_clients=10, min_participants=3, max_epochs=8
        )
        pol = make_policy(name, cfg, RngFactory(7).get(f"p.{name}"))
        res = run_experiment(pol, cfg)
        assert validate_trace(res.trace, cfg) == []

    def test_with_failures_and_compression(self):
        cfg = experiment_config(
            budget=150.0, num_clients=10, min_participants=3, max_epochs=8
        )
        cfg = cfg.replace(
            population=dataclasses.replace(cfg.population, failure_prob=0.3),
            training=dataclasses.replace(cfg.training, compression="quantize"),
        )
        pol = make_policy("FedL", cfg, RngFactory(8).get("p"))
        res = run_experiment(pol, cfg)
        assert validate_trace(res.trace, cfg) == []

    def test_with_markov_availability(self):
        cfg = experiment_config(
            budget=150.0, num_clients=10, min_participants=3, max_epochs=8
        )
        cfg = cfg.replace(
            population=dataclasses.replace(
                cfg.population, availability_model="markov", availability_prob=0.7
            ),
        )
        pol = make_policy("FedAvg", cfg, RngFactory(9).get("p"))
        res = run_experiment(pol, cfg)
        assert validate_trace(res.trace, cfg) == []
