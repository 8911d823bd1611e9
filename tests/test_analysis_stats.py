"""Tests for the assumption-verification and multi-seed aggregation tools."""

import numpy as np
import pytest

from benchmarks.test_theory_assumptions import assumption1_constants, estimate_curvature
from repro.core.problem import EpochInputs, FedLProblem
from repro.datasets.synthetic import ClassConditionalGenerator
from repro.experiments.figures import paper_grid, policy_traces
from repro.experiments.metrics import EpochRecord, Trace
from repro.experiments.stats import Band, aggregate_on_rounds, aggregate_on_times
from repro.experiments.sweep import run_grid
from repro.nn.models import build_model


def make_trace(name, accs, dt=1.0):
    tr = Trace(policy_name=name)
    for i, a in enumerate(accs):
        tr.append(
            EpochRecord(
                t=i, test_accuracy=a, test_loss=1 - a, population_loss=1 - a,
                epoch_latency=dt, cumulative_time=dt * (i + 1), cost_spent=1.0,
                remaining_budget=10.0, num_selected=3, num_available=8,
                iterations=2, rho=2.0, eta_max=0.5,
            )
        )
    return tr


class TestCurvature:
    @pytest.fixture
    def logreg_setup(self, rng_factory):
        gen = ClassConditionalGenerator((5, 5, 1), 3, rng_factory.get("g"), noise=0.3)
        reg = 0.05
        model = build_model("logreg", 25, 3, rng_factory.get("m"), l2_reg=reg)
        data = gen.sample(60, rng=rng_factory.get("d"))
        return model, data, reg

    def test_logreg_strong_convexity_at_least_l2(self, logreg_setup, rng):
        """With L2 reg, the objective is γ-strongly convex with γ >= reg;
        sampled curvature must respect that floor."""
        model, data, reg = logreg_setup
        est = estimate_curvature(model, data, model.get_params(), rng)
        assert est.strong_convexity >= reg - 1e-6

    def test_smoothness_at_least_gamma(self, logreg_setup, rng):
        model, data, reg = logreg_setup
        est = estimate_curvature(model, data, model.get_params(), rng)
        assert est.smoothness >= est.strong_convexity > 0
        assert np.isfinite(est.condition_number)

    def test_validation(self, logreg_setup, rng):
        model, data, _ = logreg_setup
        with pytest.raises(ValueError):
            estimate_curvature(model, data, model.get_params(), rng, num_pairs=0)
        with pytest.raises(ValueError):
            estimate_curvature(model, data, model.get_params(), rng, radius=0.0)


class TestAssumption1:
    def test_constants_positive_and_consistent(self, rng):
        m = 6
        gen = np.random.default_rng(0)
        prob = FedLProblem(
            EpochInputs(
                tau=gen.uniform(0.1, 2.0, m),
                costs=gen.uniform(0.5, 3.0, m),
                available=np.ones(m, bool),
                eta_hat=gen.uniform(0.1, 0.8, m),
                loss_gap=0.3,
                loss_sensitivity=np.full(m, -0.1),
                remaining_budget=50.0,
                min_participants=2,
            ),
            rho_max=6.0,
        )
        g_f, g_h, radius = assumption1_constants(prob, rng)
        assert g_f > 0 and g_h > 0 and radius > 0
        # R is half the box diagonal: sqrt(m·1 + (ρmax−1)²)/2.
        expected_r = 0.5 * np.sqrt(m + (6.0 - 1.0) ** 2)
        assert radius == pytest.approx(expected_r)
        # The sampled gradient bound is at least the ρ-direction component
        # at some sampled point: f's ∂ρ = Σ x τ <= Σ τ.
        assert g_f <= 6.0 * np.sqrt(prob.inputs.tau @ prob.inputs.tau) * np.sqrt(m + 1)


class TestBands:
    def test_round_aggregation(self):
        traces = [make_trace("A", [0.1, 0.2, 0.3]), make_trace("A", [0.3, 0.4, 0.5, 0.6])]
        band = aggregate_on_rounds(traces)
        np.testing.assert_allclose(band.x, [1, 2, 3])        # shortest horizon
        np.testing.assert_allclose(band.mean, [0.2, 0.3, 0.4])
        assert np.all(band.std > 0)

    def test_time_aggregation_step_function(self):
        traces = [make_trace("A", [0.5, 1.0], dt=1.0)]
        band = aggregate_on_times(traces, num_points=5)
        # grid [0, .5, 1, 1.5, 2]; nothing finished before t=1.
        np.testing.assert_allclose(band.mean, [0.0, 0.0, 0.5, 0.5, 1.0])

    def test_band_validation(self):
        with pytest.raises(ValueError):
            Band(x=np.zeros(3), mean=np.zeros(2), std=np.zeros(3))
        with pytest.raises(ValueError):
            aggregate_on_rounds([])
        with pytest.raises(ValueError):
            aggregate_on_times([make_trace("A", [0.1])], num_points=1)


def multi_seed(**axes):
    grid = paper_grid(budget=60.0, num_clients=8, max_epochs=3, **axes)
    return policy_traces(run_grid(grid, workers=1))


class TestMultiSeed:
    def test_groups_by_policy(self):
        out = multi_seed(seeds=(0, 1), policies=("FedAvg",))
        assert set(out) == {"FedAvg"}
        assert len(out["FedAvg"]) == 2

    def test_seeds_produce_different_traces(self):
        out = multi_seed(seeds=(0, 1), policies=("FedAvg",))
        a, b = out["FedAvg"]
        assert not np.array_equal(a.accuracy, b.accuracy)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError, match="need at least one seed"):
            paper_grid(seeds=())
