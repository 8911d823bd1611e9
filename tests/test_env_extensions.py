"""Tests for the environment extensions: Markov availability and the
Dirichlet partition option in the experiment runner."""

import dataclasses

import numpy as np
import pytest

from repro.config import DataConfig, PopulationConfig
from repro.env.availability import MarkovAvailabilityProcess
from repro.experiments.runner import Simulation, run_experiment
from repro.experiments.scenarios import experiment_config, make_policy
from repro.rng import RngFactory


class TestMarkovAvailability:
    def test_stationary_mean(self, rng):
        p = MarkovAvailabilityProcess(2000, 0.7, rng, mean_on_epochs=5.0)
        fractions = [p.sample().mean() for _ in range(200)]
        assert np.mean(fractions[50:]) == pytest.approx(0.7, abs=0.05)

    def test_burstiness_positive_autocorrelation(self, rng):
        p = MarkovAvailabilityProcess(500, 0.5, rng, mean_on_epochs=10.0)
        m1 = p.sample().astype(float)
        m2 = p.sample().astype(float)
        corr = np.corrcoef(m1, m2)[0, 1]
        assert corr > 0.5  # long sojourns → strongly correlated epochs

    def test_iid_sojourn_uncorrelated(self, rng):
        # mean_on = 1/(1-p) = 2 at p = 0.5 → exactly i.i.d. Bernoulli.
        p = MarkovAvailabilityProcess(500, 0.5, rng, mean_on_epochs=2.0)
        m1 = p.sample().astype(float)
        m2 = p.sample().astype(float)
        corr = np.corrcoef(m1, m2)[0, 1]
        assert abs(corr) < 0.25

    def test_floor_enforced(self, rng):
        p = MarkovAvailabilityProcess(10, 0.3, rng, min_available=4)
        for _ in range(50):
            assert p.sample().sum() >= 4

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            MarkovAvailabilityProcess(0, 0.5, rng)
        with pytest.raises(ValueError):
            MarkovAvailabilityProcess(5, 1.0, rng)
        with pytest.raises(ValueError):
            MarkovAvailabilityProcess(5, 0.5, rng, mean_on_epochs=0.5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PopulationConfig(availability_model="lognormal")
        with pytest.raises(ValueError):
            PopulationConfig(availability_model="markov", availability_prob=1.0)
        with pytest.raises(ValueError):
            PopulationConfig(availability_sojourn=0.5)

    def test_runner_uses_markov_model(self):
        cfg = experiment_config(budget=120.0, num_clients=10, max_epochs=4)
        cfg = cfg.replace(
            population=dataclasses.replace(
                cfg.population, availability_model="markov", availability_prob=0.7
            )
        )
        sim = Simulation(cfg)
        assert isinstance(sim.availability, MarkovAvailabilityProcess)
        pol = make_policy("FedAvg", cfg, RngFactory(0).get("p"))
        res = run_experiment(pol, cfg, simulation=sim)
        assert len(res.trace) >= 1


class TestDirichletPartitionOption:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            DataConfig(partition="shards")
        with pytest.raises(ValueError):
            DataConfig(dirichlet_alpha=0.0)

    def test_runner_uses_dirichlet(self):
        cfg = experiment_config(budget=120.0, num_clients=10, max_epochs=3)
        cfg = cfg.replace(
            data=dataclasses.replace(
                cfg.data, iid=False, partition="dirichlet", dirichlet_alpha=0.2
            )
        )
        sim = Simulation(cfg)
        dists = np.diff(sim.streams.label_cdf, axis=1, prepend=0.0)
        # Low-alpha Dirichlet rows are highly skewed.
        assert np.sort(dists, axis=1)[:, -1].mean() > 0.4
        np.testing.assert_allclose(dists.sum(axis=1), 1.0)

    def test_paper_partition_unchanged_default(self):
        cfg = experiment_config(budget=120.0, num_clients=10, max_epochs=3, iid=False)
        sim = Simulation(cfg)
        dists = np.diff(sim.streams.label_cdf, axis=1, prepend=0.0)
        # Paper scheme: top-2 classes hold exactly principal_frac.
        top2 = np.sort(dists, axis=1)[:, -2:].sum(axis=1)
        np.testing.assert_allclose(top2, cfg.data.non_iid_principal_frac)
