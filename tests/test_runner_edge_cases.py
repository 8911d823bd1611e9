"""Edge-case tests for the experiment runner's control flow."""

import dataclasses

import numpy as np
import pytest

from repro.strategies.base import Decision, EpochContext, RoundFeedback
from repro.experiments.runner import Simulation, run_experiment
from repro.experiments.scenarios import experiment_config, make_policy
from repro.rng import RngFactory


class SelectUnavailablePolicy:
    """Misbehaving policy: always picks client 0 whether available or not."""

    name = "Misbehaving"

    def select(self, ctx: EpochContext) -> Decision:
        mask = np.zeros(ctx.num_clients, dtype=bool)
        mask[0] = True
        return Decision(selected=mask, iterations=1)

    def update(self, feedback: RoundFeedback) -> None:
        pass


class OverspendPolicy:
    """Selects everyone every epoch, ignoring the budget."""

    name = "Overspender"

    def select(self, ctx: EpochContext) -> Decision:
        return Decision(selected=ctx.available.copy(), iterations=1)

    def update(self, feedback: RoundFeedback) -> None:
        pass


class TestStopConditions:
    def test_no_selection_stop(self):
        """If the decision intersects availability to nothing, the run
        stops with 'no_selection' instead of crashing."""
        cfg = experiment_config(budget=100.0, num_clients=6, min_participants=1,
                                max_epochs=10)
        # Force client 0 unavailable by monkeypatching the availability
        # process with a fixed mask.
        sim = Simulation(cfg)

        class FixedAvailability:
            def sample(self_inner):
                mask = np.ones(6, dtype=bool)
                mask[0] = False
                return mask

        sim.availability = FixedAvailability()
        res = run_experiment(SelectUnavailablePolicy(), cfg, simulation=sim)
        assert res.stop_reason == "no_selection"
        assert len(res.trace) == 0

    def test_overspend_never_breaks_accounting(self):
        cfg = experiment_config(budget=100.0, num_clients=10, min_participants=2,
                                max_epochs=20)
        res = run_experiment(OverspendPolicy(), cfg)
        assert res.trace.total_spend <= 100.0 + 1e-6
        assert res.stop_reason == "budget_exhausted"

    def test_max_epochs_stop(self):
        cfg = experiment_config(budget=1e9, num_clients=8, min_participants=2,
                                max_epochs=3)
        pol = make_policy("FedAvg", cfg, RngFactory(0).get("p"))
        res = run_experiment(pol, cfg)
        assert res.stop_reason == "max_epochs"
        assert len(res.trace) == 3

    def test_final_w_matches_server(self):
        cfg = experiment_config(budget=100.0, num_clients=8, min_participants=2,
                                max_epochs=3)
        sim = Simulation(cfg)
        pol = make_policy("FedAvg", cfg, RngFactory(0).get("p"))
        res = run_experiment(pol, cfg, simulation=sim)
        np.testing.assert_array_equal(res.final_w, sim.server.w)


class TestSimulationWiring:
    def test_compression_spec_built_from_config(self):
        cfg = experiment_config(budget=100.0, num_clients=6, max_epochs=2)
        cfg = cfg.replace(
            training=dataclasses.replace(cfg.training, compression="topk")
        )
        sim = Simulation(cfg)
        assert sim.compression is not None
        assert sim.compression.scheme == "topk"

    def test_no_compression_spec_by_default(self):
        sim = Simulation(experiment_config(budget=100.0, num_clients=6, max_epochs=2))
        assert sim.compression is None

    def test_tau_oracle_passed_to_context(self):
        """The oracle policy requires tau_oracle; a completed oracle run
        proves the runner wires it."""
        cfg = experiment_config(budget=100.0, num_clients=8, min_participants=2,
                                max_epochs=3)
        pol = make_policy("Oracle", cfg, RngFactory(0).get("p"))
        res = run_experiment(pol, cfg)
        assert len(res.trace) >= 1

    @pytest.mark.parametrize("name, sees_tau", [("FedAvg", False), ("FedL", False), ("Oracle", True)])
    def test_only_an_oracle_policy_gets_tau_oracle(self, name, sees_tau):
        """0-lookahead by construction: the runner builds this epoch's true
        τ only for a ``needs_oracle`` policy, asked through a wrapper that
        forwards attributes."""
        cfg = experiment_config(budget=100.0, num_clients=8, min_participants=2,
                                max_epochs=3)
        seen = []

        class Spy:
            def __init__(self, inner):
                self.inner = inner

            def __getattr__(self, attr):
                if attr == "inner":
                    raise AttributeError(attr)
                return getattr(self.inner, attr)

            def select(self, ctx):
                seen.append(ctx.tau_oracle)
                return self.inner.select(ctx)

        run_experiment(Spy(make_policy(name, cfg, RngFactory(0).get("p"))), cfg)
        assert seen
        assert all((tau is not None) == sees_tau for tau in seen)

    def test_trace_epoch_indices_contiguous(self):
        cfg = experiment_config(budget=200.0, num_clients=8, min_participants=2,
                                max_epochs=6)
        pol = make_policy("FedAvg", cfg, RngFactory(0).get("p"))
        res = run_experiment(pol, cfg)
        np.testing.assert_array_equal(
            res.trace.rounds, np.arange(len(res.trace))
        )
