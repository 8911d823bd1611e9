"""Tests for scenario builders, including paper-scale and CNN runs."""

import dataclasses

import numpy as np
import pytest

from repro.config import TrainingConfig
from repro.experiments.runner import Simulation, run_experiment
from repro.experiments.scenarios import (
    POLICY_NAMES,
    experiment_config,
    make_policy,
    PAPER_SCALE,
)
from repro.rng import RngFactory


class TestExperimentConfig:
    def test_dataset_difficulty_ordering(self):
        fm = experiment_config(dataset="fmnist")
        cf = experiment_config(dataset="cifar10")
        assert cf.data.feature_noise > fm.data.feature_noise

    def test_policy_names_cover_paper(self):
        assert set(POLICY_NAMES) == {"FedL", "FedAvg", "FedCS", "Pow-d"}

    def test_extended_policies_constructible(self):
        cfg = experiment_config(num_clients=10)
        for name in POLICY_NAMES + ("Fair-FedL", "UCB", "Oracle"):
            pol = make_policy(name, cfg, RngFactory(0).get(f"p.{name}"))
            assert pol.name == name


def paper_scale_config(dataset="fmnist"):
    return experiment_config(dataset=dataset, budget=20_000.0).override(PAPER_SCALE)


class TestPaperScaleConfig:
    def test_matches_paper_section_61(self):
        cfg = paper_scale_config()
        assert cfg.population.num_clients == 100
        assert cfg.data.downscale == 1
        assert cfg.training.model == "cnn"
        assert cfg.network.bandwidth_hz == 20e6
        assert cfg.population.cost_range == (0.1, 12.0)

    def test_simulation_builds_full_resolution(self):
        # Building (not running) the paper-scale sim is fast and validates
        # the full-size CNN wiring end to end.
        cfg = paper_scale_config()
        sim = Simulation(cfg)
        assert sim.generator.num_features == 784
        assert len(sim.clients) == 100
        # One forward pass through the full CNN works.
        acc = sim.server.test_accuracy()
        assert 0.0 <= acc <= 1.0

    def test_cifar_variant(self):
        cfg = paper_scale_config(dataset="cifar10")
        sim = Simulation(cfg)
        assert sim.generator.num_features == 32 * 32 * 3


class TestCnnExperiment:
    def test_small_cnn_run_learns(self):
        """A short end-to-end run with the CNN model family."""
        cfg = experiment_config(
            budget=150.0, num_clients=8, min_participants=3,
            max_epochs=8, model="cnn",
        )
        pol = make_policy("FedAvg", cfg, RngFactory(1).get("p"))
        res = run_experiment(pol, cfg)
        tr = res.trace
        assert len(tr) >= 3
        assert tr.best_accuracy() > tr.accuracy[0]

    def test_logreg_run(self):
        cfg = experiment_config(
            budget=100.0, num_clients=8, min_participants=3,
            max_epochs=5, model="logreg",
        )
        pol = make_policy("FedAvg", cfg, RngFactory(1).get("p"))
        res = run_experiment(pol, cfg)
        assert len(res.trace) >= 1
