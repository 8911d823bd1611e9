"""Tests for the differential-privacy upload machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.privacy import DPSpec, PrivacyAccountant, clip_update, gaussian_mechanism


class TestClipping:
    def test_small_update_unchanged(self):
        d = np.array([0.3, 0.4])  # norm 0.5
        np.testing.assert_array_equal(clip_update(d, 1.0), d)

    def test_large_update_scaled_to_bound(self):
        d = np.array([3.0, 4.0])  # norm 5
        out = clip_update(d, 1.0)
        assert np.linalg.norm(out) == pytest.approx(1.0)
        # Direction preserved.
        np.testing.assert_allclose(out / np.linalg.norm(out), d / 5.0)

    def test_zero_vector(self):
        np.testing.assert_array_equal(clip_update(np.zeros(3), 1.0), np.zeros(3))

    def test_validation(self):
        with pytest.raises(ValueError):
            clip_update(np.ones(2), 0.0)

    @given(st.integers(0, 1000), st.floats(0.1, 5.0))
    @settings(max_examples=50)
    def test_norm_never_exceeds_bound(self, seed, bound):
        d = np.random.default_rng(seed).normal(size=10) * 10
        assert np.linalg.norm(clip_update(d, bound)) <= bound + 1e-9


class TestGaussianMechanism:
    def test_noise_scale(self, rng):
        spec = DPSpec(clip_norm=1.0, noise_multiplier=2.0)
        d = np.zeros(20_000)
        out = gaussian_mechanism(d, spec, rng)
        assert out.std() == pytest.approx(2.0, rel=0.05)

    def test_unbiased(self, rng):
        spec = DPSpec(clip_norm=10.0, noise_multiplier=0.5)
        d = np.full(50_000, 0.01)
        out = gaussian_mechanism(d, spec, rng)
        assert out.mean() == pytest.approx(0.01, abs=0.1)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DPSpec(clip_norm=0.0)
        with pytest.raises(ValueError):
            DPSpec(noise_multiplier=0.0)


class TestAccountant:
    def test_rho_additive(self):
        acc = PrivacyAccountant()
        spec = DPSpec(noise_multiplier=1.0)   # ρ = 0.5 per release
        acc.spend(spec, count=4)
        assert acc.rho == pytest.approx(2.0)
        assert acc.releases == 4

    def test_epsilon_formula(self):
        acc = PrivacyAccountant()
        acc.spend(DPSpec(noise_multiplier=1.0))   # ρ = 0.5
        delta = 1e-5
        expected = 0.5 + 2 * math.sqrt(0.5 * math.log(1 / delta))
        assert acc.epsilon(delta) == pytest.approx(expected)

    def test_zero_spend_zero_epsilon(self):
        assert PrivacyAccountant().epsilon() == 0.0

    def test_more_noise_less_epsilon(self):
        a, b = PrivacyAccountant(), PrivacyAccountant()
        a.spend(DPSpec(noise_multiplier=0.5))
        b.spend(DPSpec(noise_multiplier=4.0))
        assert b.epsilon() < a.epsilon()

    def test_validation(self):
        acc = PrivacyAccountant()
        with pytest.raises(ValueError):
            acc.spend(DPSpec(), count=0)
        with pytest.raises(ValueError):
            acc.epsilon(delta=0.0)


class TestDPTraining:
    def test_noisy_aggregation_still_learns_with_mild_noise(self, rng_factory):
        """A miniature DP-FL loop: clip+noise each update before the mean.
        With mild noise the model still learns."""
        from repro.datasets.synthetic import ClassConditionalGenerator
        from repro.nn.models import build_model

        gen = ClassConditionalGenerator((5, 5, 1), 3, rng_factory.get("g"), noise=0.3)
        model = build_model("logreg", 25, 3, rng_factory.get("m"), l2_reg=1e-3)
        data = [gen.sample(40, rng=rng_factory.get(f"d{i}")) for i in range(4)]
        test = gen.test_set(120, rng=rng_factory.get("t"))
        spec = DPSpec(clip_norm=1.0, noise_multiplier=0.05)
        acc = PrivacyAccountant()
        noise_rng = rng_factory.get("dp")
        w = model.get_params()
        start = model.accuracy(w, test.x, test.y)
        for _ in range(30):
            updates = []
            for ds in data:
                _, g = model.loss_and_grad(w, ds.x, ds.y)
                d = -0.3 * g
                updates.append(gaussian_mechanism(d, spec, noise_rng))
                acc.spend(spec)
            w = w + np.mean(np.stack(updates), axis=0)
        assert model.accuracy(w, test.x, test.y) > start + 0.1
        assert acc.releases == 120
        assert acc.epsilon(1e-5) > 0


class TestDPInRunner:
    def test_experiment_with_dp_runs_and_accounts(self):
        import dataclasses

        from repro.experiments.runner import Simulation, run_experiment
        from repro.experiments.scenarios import experiment_config, make_policy
        from repro.rng import RngFactory

        cfg = experiment_config(budget=120.0, num_clients=10, max_epochs=5)
        cfg = cfg.replace(
            training=dataclasses.replace(
                cfg.training, dp_noise_multiplier=0.05, dp_clip_norm=5.0
            )
        )
        sim = Simulation(cfg)
        pol = make_policy("FedAvg", cfg, RngFactory(0).get("p"))
        res = run_experiment(pol, cfg, simulation=sim)
        # Every upload was accounted: Σ selected × iterations.
        expected = int(
            (res.trace.column("num_selected") - res.trace.column("num_failed"))
            @ res.trace.column("iterations")
        )
        assert sim.dp_accountant.releases == expected
        assert sim.dp_accountant.epsilon(1e-5) > 0
        # Mild noise: training still progresses.
        assert res.trace.final_accuracy >= res.trace.accuracy[0] - 0.05

    def test_no_dp_by_default(self):
        from repro.experiments.runner import Simulation
        from repro.experiments.scenarios import experiment_config

        sim = Simulation(experiment_config(budget=100.0, num_clients=6, max_epochs=2))
        assert sim.dp_spec is None
        assert sim.dp_accountant.releases == 0

    def test_config_validation(self):
        import pytest as _pytest

        from repro.config import TrainingConfig

        with _pytest.raises(ValueError):
            TrainingConfig(dp_noise_multiplier=0.0)
        with _pytest.raises(ValueError):
            TrainingConfig(dp_clip_norm=0.0)
