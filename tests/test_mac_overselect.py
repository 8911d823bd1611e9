"""Tests for the over-selection quorum semantics."""

import dataclasses

import numpy as np
import pytest

from repro.strategies import StrategyParamError
from repro.strategies.base import Decision
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import experiment_config, make_policy
from repro.rng import RngFactory


class TestOverSelection:
    def test_wrapper_adds_extras_and_sets_quorum(self, rng):
        from tests.test_baselines import build, make_ctx

        wrapped = build("OverSelect", rng, extra=2)
        ctx = make_ctx(n=3, budget=1e6)
        d = wrapped.select(ctx)
        assert d.quorum == 3
        assert d.selected.sum() == 5
        assert wrapped.name == "FedAvg+over2"

    def test_extras_are_fastest_estimated(self, rng):
        from tests.test_baselines import build, make_ctx

        tau = np.arange(1.0, 11.0)
        ctx = make_ctx(n=2, budget=1e6, tau_last=tau)
        wrapped = build("OverSelect", rng, extra=3)
        d = wrapped.select(ctx)
        extras = d.selected.copy()
        # The base picked 2; extras are the fastest remaining.
        assert d.selected.sum() == 5

    def test_budget_respected_when_adding(self, rng):
        from tests.test_baselines import build, make_ctx

        costs = np.full(10, 10.0)
        ctx = make_ctx(n=2, budget=21.0, costs=costs)
        wrapped = build("OverSelect", rng, extra=5)
        d = wrapped.select(ctx)
        assert float(costs[d.selected].sum()) <= 21.0 + 1e-9

    def test_validation(self, rng):
        from tests.test_baselines import build

        with pytest.raises(StrategyParamError):
            build("OverSelect", rng, extra=0)
        with pytest.raises(ValueError):
            Decision(selected=np.array([True]), iterations=1, quorum=0)

    def test_quorum_cuts_epoch_latency(self):
        """With quorum semantics, renting extras lowers epoch latency:
        the straggler tail is cut at the quorum-th fastest."""
        cfg = experiment_config(
            budget=600.0, num_clients=12, min_participants=4, max_epochs=10, seed=5
        )

        def run(wrap: bool):
            # The wrapper draws its FedAvg base from the same generator.
            rng = RngFactory(5).get("p")
            pol = (
                make_policy("OverSelect", cfg, rng, params={"extra": 3})
                if wrap else make_policy("FedAvg", cfg, rng)
            )
            return run_experiment(pol, cfg).trace

        plain = run(False)
        over = run(True)
        horizon = min(len(plain), len(over))
        lat_plain = plain.column("epoch_latency")[:horizon].mean()
        lat_over = over.column("epoch_latency")[:horizon].mean()
        assert lat_over <= lat_plain * 1.05

    def test_quorum_with_failures_keeps_training(self):
        cfg = experiment_config(
            budget=300.0, num_clients=12, min_participants=4, max_epochs=8, seed=6
        )
        cfg = cfg.replace(
            population=dataclasses.replace(cfg.population, failure_prob=0.3)
        )
        pol = make_policy(
            "OverSelect", cfg, RngFactory(6).get("p"), params={"extra": 3}
        )
        res = run_experiment(pol, cfg)
        assert len(res.trace) >= 3
