"""Tests for the federated-learning substrate (DANE, client, server, round)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import ClassConditionalGenerator, Dataset
from repro.fl.client import FLClient, LocalSolveSpec
from repro.fl.convergence import (
    estimate_local_accuracy,
    eta_to_rho,
    iterations_for_accuracy,
    rho_to_eta,
)
from repro.fl.dane import DaneWorkspace, dane_local_step, dane_surrogate_value
from repro.fl.round_runner import run_federated_round
from repro.fl.server import FLServer
from repro.nn.models import build_model
from repro.rng import RngFactory
from tests.oracle import assert_matches_oracle


@pytest.fixture
def setup(rng_factory):
    gen = ClassConditionalGenerator((6, 6, 1), 4, rng_factory.get("gen"), noise=0.3)
    model = build_model("mlp", 36, 4, rng_factory.get("model"), hidden=(8,))
    clients = [
        FLClient(k, model, rng_factory.get(f"c{k}"), LocalSolveSpec(sgd_steps=4, sgd_lr=0.1))
        for k in range(6)
    ]
    for c in clients:
        c.set_data(gen.sample(20, rng=rng_factory.get(f"d{c.client_id}")))
    test = gen.test_set(80, rng=rng_factory.get("test"))
    server = FLServer(model, model.get_params(), test)
    return gen, model, clients, server


class TestConvergenceMaps:
    def test_rho_eta_inverse(self):
        for rho in (1.0, 2.0, 5.0):
            assert eta_to_rho(rho_to_eta(rho)) == pytest.approx(rho)

    def test_eta_zero_one_iteration(self):
        assert eta_to_rho(0.0) == 1.0

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            rho_to_eta(0.5)
        with pytest.raises(ValueError):
            eta_to_rho(1.0)

    def test_iterations_monotone_in_eta(self):
        assert iterations_for_accuracy(0.9) > iterations_for_accuracy(0.1)

    def test_iterations_monotone_in_theta0(self):
        assert iterations_for_accuracy(0.5, theta0=0.01) >= iterations_for_accuracy(
            0.5, theta0=0.5
        )

    def test_iterations_validation(self):
        with pytest.raises(ValueError):
            iterations_for_accuracy(1.0)
        with pytest.raises(ValueError):
            iterations_for_accuracy(0.5, theta0=1.5)


class TestAccuracyEstimator:
    def test_no_progress_worst_case(self):
        assert estimate_local_accuracy([1.0, 1.0, 1.0]) > 0.9

    def test_full_convergence_near_zero(self):
        # Geometric decay to a clear floor: final value equals the best.
        vals = [1.0, 0.1, 0.01, 0.001, 0.0001, 0.0001, 0.0001]
        assert estimate_local_accuracy(vals) < 0.1

    def test_partial_progress_intermediate(self):
        est = estimate_local_accuracy([1.0, 0.7, 0.5])
        assert 0.0 < est < 1.0

    def test_in_unit_interval(self, rng):
        for _ in range(20):
            vals = np.cumsum(rng.normal(size=6))[::-1]
            est = estimate_local_accuracy(vals.tolist())
            assert 0.0 <= est <= 0.995

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            estimate_local_accuracy([])

    def test_diverged_trajectory_is_nan(self):
        """A NaN anywhere must surface, not be skipped: ``min([1.0, nan,
        0.5])`` is ``0.5``, ``np.min`` of the same is NaN."""
        for vals in ([1.0, float("nan"), 0.5], [float("nan"), 1.0], [1.0, 0.5, float("nan")]):
            assert np.isnan(estimate_local_accuracy(vals))

    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.floats(-2.0, 2.0),
                st.sampled_from([0.0, -0.0, 1.0, 0.5, 0.25, 1e-15, 2e-15]),  # ties
            ),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from([list, tuple, np.asarray]),
    )
    @settings(max_examples=500, deadline=None)
    def test_same_value_and_type_as_numpy_original(self, vals, container):
        with np.errstate(all="ignore"):  # the original's inf − inf warns
            assert_matches_oracle(
                estimate_local_accuracy_oracle,
                estimate_local_accuracy,
                lambda: (container(vals),),
            )


def estimate_local_accuracy_oracle(surrogate_values):
    """``estimate_local_accuracy`` as shipped before it moved to Python
    floats, verbatim: an array, ``np.min`` and ``np.clip`` per call."""
    ETA_CAP = 0.995
    vals = np.asarray(list(surrogate_values), dtype=float)
    if vals.size == 0:
        raise ValueError("need at least one surrogate value")
    g0 = float(vals[0])
    g_best = float(np.min(vals))
    g_final = float(vals[-1])
    denom = g0 - g_best
    if denom <= 1e-15:
        # No progress at all → worst-case accuracy.
        return ETA_CAP
    gap = 0.0
    if vals.size >= 3:
        d1 = vals[-2] - vals[-1]
        d2 = vals[-3] - vals[-2]
        if d2 > 1e-15 and 0.0 < d1 < d2:
            q = d1 / d2
            gap = max(0.0, d1 * q / (1.0 - q))
    g_star = g_best - gap
    eta = (g_final - g_star) / max(g0 - g_star, 1e-15)
    return float(np.clip(eta, 0.0, ETA_CAP))


class TestDane:
    def test_workspace_validation(self):
        with pytest.raises(ValueError):
            DaneWorkspace(
                w_global=np.zeros(3),
                local_grad_at_w=np.zeros(2),
                global_grad=np.zeros(3),
                sigma1=1.0,
                sigma2=1.0,
            )
        with pytest.raises(ValueError):
            DaneWorkspace(
                w_global=np.zeros(3),
                local_grad_at_w=np.zeros(3),
                global_grad=np.zeros(3),
                sigma1=-1.0,
                sigma2=1.0,
            )

    def test_surrogate_at_zero_equals_local_loss(self, setup):
        gen, model, clients, server = setup
        c = clients[0]
        w = model.get_params()
        ws = DaneWorkspace(
            w_global=w,
            local_grad_at_w=c.local_grad(w),
            global_grad=c.local_grad(w),
            sigma1=1.0,
            sigma2=1.0,
        )
        g0 = dane_surrogate_value(model, ws, np.zeros_like(w), c.data)
        assert g0 == pytest.approx(c.local_loss(w))

    def test_inner_sgd_decreases_surrogate(self, setup):
        gen, model, clients, server = setup
        c = clients[0]
        w = model.get_params()
        g = c.local_grad(w)
        ws = DaneWorkspace(w, g, g, sigma1=1.0, sigma2=1.0)
        d, traj = dane_local_step(
            model, ws, c.data, max_steps=8, lr=0.1, batch_size=64,
            rng=np.random.default_rng(0),
        )
        assert traj[-1] < traj[0]

    def test_target_eta_early_stops(self, setup):
        gen, model, clients, server = setup
        c = clients[0]
        w = model.get_params()
        g = c.local_grad(w)
        ws = DaneWorkspace(w, g, g, sigma1=1.0, sigma2=1.0)
        _, loose = dane_local_step(
            model, ws, c.data, max_steps=20, lr=0.1, batch_size=64,
            rng=np.random.default_rng(0), target_eta=0.9,
        )
        _, tight = dane_local_step(
            model, ws, c.data, max_steps=20, lr=0.1, batch_size=64,
            rng=np.random.default_rng(0), target_eta=0.05,
        )
        assert len(loose) <= len(tight)

    def test_dane_validation(self, setup):
        gen, model, clients, server = setup
        c = clients[0]
        w = model.get_params()
        g = c.local_grad(w)
        ws = DaneWorkspace(w, g, g, sigma1=1.0, sigma2=1.0)
        with pytest.raises(ValueError):
            dane_local_step(model, ws, c.data, max_steps=0, lr=0.1,
                            batch_size=8, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            dane_local_step(model, ws, c.data, max_steps=5, lr=0.1,
                            batch_size=8, rng=np.random.default_rng(0),
                            target_eta=1.0)


class TestFLClient:
    def test_requires_data(self, setup):
        gen, model, clients, server = setup
        fresh = FLClient(99, model, np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            fresh.local_loss(model.get_params())

    def test_rejects_empty_data(self, setup):
        gen, model, clients, server = setup
        with pytest.raises(ValueError):
            clients[0].set_data(Dataset(x=np.zeros((0, 36)), y=np.zeros(0, dtype=int)))

    def test_train_iteration_returns_eta_in_range(self, setup):
        gen, model, clients, server = setup
        w = model.get_params()
        g = clients[0].local_grad(w)
        d, eta, traj = clients[0].train_iteration(w, g)
        assert d.shape == w.shape
        assert 0.0 <= eta <= 0.995
        assert len(traj) >= 2

    def test_validation(self, setup):
        gen, model, clients, server = setup
        with pytest.raises(ValueError):
            FLClient(0, model, np.random.default_rng(0), LocalSolveSpec(sgd_steps=0))
        with pytest.raises(ValueError):
            FLClient(0, model, np.random.default_rng(0), LocalSolveSpec(sgd_lr=0.0))


class TestFLServer:
    def test_aggregate_updates_mean(self, setup):
        gen, model, clients, server = setup
        w0 = server.w.copy()
        ones = np.ones_like(w0)
        server.aggregate_updates([ones, 3 * ones])
        np.testing.assert_allclose(server.w, w0 + 2 * ones)

    def test_aggregate_empty_noop(self, setup):
        gen, model, clients, server = setup
        w0 = server.w.copy()
        server.aggregate_updates([])
        np.testing.assert_array_equal(server.w, w0)

    def test_aggregate_gradients_mean(self):
        g = FLServer.aggregate_gradients([np.array([1.0, 0.0]), np.array([3.0, 2.0])])
        np.testing.assert_allclose(g, [2.0, 1.0])

    def test_aggregate_gradients_empty_raises(self):
        with pytest.raises(ValueError):
            FLServer.aggregate_gradients([])

    def test_a_vector_of_another_shape_is_refused_not_broadcast(self, setup):
        gen, model, clients, server = setup
        with pytest.raises(ValueError, match="shape mismatch"):
            FLServer.aggregate_gradients([np.ones(3), np.ones(1)])
        with pytest.raises(ValueError, match="shape mismatch"):
            server.aggregate_updates([np.ones_like(server.w), np.ones(1)])

    def test_test_metrics_share_one_forward_per_model(self, setup, monkeypatch):
        """``test_accuracy`` and ``test_loss`` at one ``w`` cost a single
        pass over the test set, return what two separate passes return, and
        every way the server moves ``w`` is seen by the next evaluation."""
        gen, model, clients, server = setup
        forwards = []
        original = model.logits
        monkeypatch.setattr(
            model, "logits", lambda w, x: forwards.append(len(x)) or original(w, x)
        )
        x, y = server.test_set.x, server.test_set.y
        step = 0.01 * np.ones_like(server.w)
        moves = (
            lambda: None,
            lambda: server.aggregate_updates([step, 3 * step]),
            lambda: server.apply_delta(-step),
            lambda: setattr(server, "w", server.w + step),
        )
        for move in moves:
            move()
            forwards.clear()
            assert server.test_accuracy() == server.test_accuracy()
            assert server.test_loss() == server.test_loss()
            assert forwards == [len(x)]
            forwards.clear()
            assert server.test_accuracy() == model.accuracy(server.w, x, y)
            assert server.test_loss() == model.loss(server.w, x, y)
            assert forwards == [len(x)] * 2  # the two reference passes only


class TestRoundRunner:
    def test_round_improves_loss(self, setup):
        gen, model, clients, server = setup
        sel = np.array([True] * 4 + [False] * 2)
        avail = np.ones(6, bool)
        first = run_federated_round(server, clients, sel, avail, iterations=2)
        for _ in range(4):
            res = run_federated_round(server, clients, sel, avail, iterations=2)
        assert res.test_loss < first.test_loss

    def test_etas_nan_for_nonparticipants(self, setup):
        gen, model, clients, server = setup
        sel = np.array([True, True, False, False, False, False])
        avail = np.ones(6, bool)
        res = run_federated_round(server, clients, sel, avail, iterations=1)
        assert np.isfinite(res.local_etas[:2]).all()
        assert np.isnan(res.local_etas[2:]).all()
        assert res.eta_max == pytest.approx(np.nanmax(res.local_etas))

    def test_cannot_select_unavailable(self, setup):
        gen, model, clients, server = setup
        sel = np.ones(6, bool)
        avail = np.array([True] * 5 + [False])
        with pytest.raises(ValueError):
            run_federated_round(server, clients, sel, avail, iterations=1)

    def test_needs_at_least_one_participant(self, setup):
        gen, model, clients, server = setup
        with pytest.raises(ValueError):
            run_federated_round(
                server, clients, np.zeros(6, bool), np.ones(6, bool), iterations=1
            )

    def test_iterations_validation(self, setup):
        gen, model, clients, server = setup
        sel = np.array([True] + [False] * 5)
        with pytest.raises(ValueError):
            run_federated_round(server, clients, sel, np.ones(6, bool), iterations=0)

    def test_population_loss_is_data_weighted(self, setup):
        """F_t(w) = Σ ϑ_k F_{t,k}(w) over the available clients, with
        ϑ_k = D_{t,k} / Σ D (paper Sec. 3.1 part 1)."""
        gen, model, clients, server = setup
        sel = np.array([True, False, False, False, False, False])
        avail = np.array([True, True, False, False, False, False])
        res = run_federated_round(server, clients, sel, avail, iterations=1)
        l0, l1 = (c.local_loss(server.w) for c in clients[:2])
        n0, n1 = clients[0].num_samples, clients[1].num_samples
        assert res.population_loss == pytest.approx((n0 * l0 + n1 * l1) / (n0 + n1))

    def test_result_w_matches_server(self, setup):
        gen, model, clients, server = setup
        sel = np.array([True, True, True, False, False, False])
        res = run_federated_round(server, clients, sel, np.ones(6, bool), iterations=1)
        np.testing.assert_array_equal(res.w, server.w)
