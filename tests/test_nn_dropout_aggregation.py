"""Tests for sample-weighted aggregation."""

import dataclasses

import numpy as np
import pytest

from repro.datasets.synthetic import ClassConditionalGenerator
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import experiment_config, make_policy
from repro.fl.client import FLClient, LocalSolveSpec
from repro.fl.round_runner import run_federated_round
from repro.fl.server import FLServer
from repro.nn.models import build_model
from repro.rng import RngFactory


class TestWeightedAggregation:
    def _server(self, rng_factory):
        gen = ClassConditionalGenerator((5, 5, 1), 3, rng_factory.get("g"), noise=0.3)
        model = build_model("mlp", 25, 3, rng_factory.get("m"), hidden=(6,))
        test = gen.test_set(60, rng=rng_factory.get("t"))
        return gen, model, FLServer(model, model.get_params(), test)

    def test_weighted_average_formula(self, rng_factory):
        gen, model, server = self._server(rng_factory)
        w0 = server.w.copy()
        ones = np.ones_like(w0)
        server.aggregate_updates([ones, 3 * ones], num_available=5,
                                 sample_counts=[10, 30])
        # weights 0.25/0.75 → 0.25·1 + 0.75·3 = 2.5
        np.testing.assert_allclose(server.w, w0 + 2.5 * ones)

    def test_equal_counts_match_uniform(self, rng_factory):
        gen, model, server = self._server(rng_factory)
        w0 = server.w.copy()
        ones = np.ones_like(w0)
        server.aggregate_updates([ones, 3 * ones], num_available=5,
                                 sample_counts=[7, 7])
        np.testing.assert_allclose(server.w, w0 + 2.0 * ones)

    def test_validation(self, rng_factory):
        gen, model, server = self._server(rng_factory)
        ones = np.ones_like(server.w)
        with pytest.raises(ValueError):
            server.aggregate_updates([ones], num_available=2, sample_counts=[1, 2])
        with pytest.raises(ValueError):
            server.aggregate_updates([ones], num_available=2, sample_counts=[0])

    def test_round_runner_weighted_mode(self, rng_factory):
        gen, model, server = self._server(rng_factory)
        clients = [
            FLClient(k, model, rng_factory.get(f"c{k}"), LocalSolveSpec(sgd_steps=3))
            for k in range(4)
        ]
        for k, c in enumerate(clients):
            c.set_data(gen.sample(10 * (k + 1), rng=rng_factory.get(f"d{k}")))
        sel = np.array([True, True, True, False])
        res = run_federated_round(
            server, clients, sel, np.ones(4, bool), iterations=2,
            aggregation="weighted",
        )
        assert np.isfinite(res.test_loss)

    def test_round_runner_rejects_unknown(self, rng_factory):
        gen, model, server = self._server(rng_factory)
        clients = [FLClient(0, model, rng_factory.get("c"))]
        clients[0].set_data(gen.sample(10))
        with pytest.raises(ValueError):
            run_federated_round(
                server, clients, np.array([True]), np.array([True]),
                iterations=1, aggregation="median",
            )

    def test_experiment_with_weighted_aggregation(self):
        cfg = experiment_config(budget=120.0, num_clients=10, max_epochs=5)
        cfg = cfg.replace(
            training=dataclasses.replace(cfg.training, aggregation="weighted")
        )
        pol = make_policy("FedAvg", cfg, RngFactory(0).get("p"))
        res = run_experiment(pol, cfg)
        assert len(res.trace) >= 1

    def test_config_validation(self):
        from repro.config import TrainingConfig

        with pytest.raises(ValueError):
            TrainingConfig(aggregation="median")
