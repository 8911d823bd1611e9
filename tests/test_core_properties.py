"""Property-based tests (hypothesis) on the core decision machinery.

Invariants exercised over randomized instances:

* the descent step always lands in the feasible set X̃,
* the dual state is always elementwise nonnegative,
* FedLProblem.project returns feasible points and is idempotent,
* Theorem 1's h-algebra holds for random (η̂, x, ρ),
* the rounded FedL decision is always feasible in the full policy loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.strategies.base import EpochContext, RoundFeedback
from repro.core.fedl import FedLPolicy
from repro.core.online_learner import OnlineLearner
from repro.core.phi import Phi
from repro.core.problem import EpochInputs, FedLProblem


def inputs_from_seed(seed: int, m: int = 8, n: int = 2) -> EpochInputs:
    rng = np.random.default_rng(seed)
    avail = rng.random(m) < 0.8
    # Guarantee n available.
    if avail.sum() < n:
        avail[rng.choice(m, size=n, replace=False)] = True
    return EpochInputs(
        tau=rng.uniform(0.05, 3.0, m),
        costs=rng.uniform(0.2, 5.0, m),
        available=avail,
        eta_hat=rng.uniform(0.0, 0.95, m),
        loss_gap=rng.uniform(-0.5, 1.0),
        loss_sensitivity=-rng.uniform(0.0, 0.2, m),
        remaining_budget=rng.uniform(n * 5.0, 100.0),
        min_participants=n,
    )


def assert_feasible(inputs: EpochInputs, v: np.ndarray, rho_max: float) -> None:
    m = inputs.num_clients
    x, rho = v[:m], v[m]
    assert np.all(x >= -1e-7) and np.all(x <= 1 + 1e-7)
    assert np.all(x[~inputs.available] <= 1e-7)
    assert 1.0 - 1e-7 <= rho <= rho_max + 1e-7
    assert float(inputs.costs @ x) <= inputs.remaining_budget + 1e-5
    assert x[inputs.available].sum() >= inputs.min_participants - 1e-5


class TestProjectProperties:
    @given(st.integers(0, 10_000), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_projection_feasible_and_idempotent(self, seed, vseed):
        inputs = inputs_from_seed(seed)
        prob = FedLProblem(inputs, rho_max=6.0)
        rng = np.random.default_rng(vseed)
        v = np.concatenate([rng.uniform(-1, 2, inputs.num_clients),
                            [rng.uniform(-2, 12)]])
        p1 = prob.project(v)
        assert_feasible(inputs, p1, rho_max=6.0)
        p2 = prob.project(p1)
        np.testing.assert_allclose(p1, p2, atol=1e-5)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_projection_of_feasible_is_identity(self, seed):
        inputs = inputs_from_seed(seed)
        prob = FedLProblem(inputs, rho_max=6.0)
        # Interior points are fixed points of the projection.
        v = prob.interior_point()
        if v is None:
            return
        np.testing.assert_allclose(prob.project(v), v, atol=1e-6)


class TestLearnerProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_descent_step_always_feasible(self, seed):
        inputs = inputs_from_seed(seed)
        learner = OnlineLearner(
            inputs.num_clients, beta=0.4, delta=0.4, rho_max=6.0
        )
        # Random dual pressure.
        rng = np.random.default_rng(seed + 1)
        learner.state.mu = np.abs(rng.normal(size=inputs.num_clients + 1))
        phi = learner.descent_step(inputs)
        assert_feasible(inputs, phi.to_vector(), rho_max=6.0)

    @given(st.integers(0, 10_000), st.integers(1, 30))
    @settings(max_examples=30, deadline=None)
    def test_duals_stay_nonnegative(self, seed, steps):
        rng = np.random.default_rng(seed)
        learner = OnlineLearner(5, beta=0.3, delta=0.5)
        for _ in range(steps):
            learner.dual_ascent(rng.normal(scale=3.0, size=6))
        assert np.all(learner.mu >= 0)


class TestTheorem1Algebra:
    @given(
        st.floats(0.0, 0.99),
        st.floats(0.0, 1.0),
        st.floats(1.0001, 8.0),
    )
    @settings(max_examples=200)
    def test_hk_sign_equivalence(self, eta_hat, x, rho):
        """h_k <= 0  ⇔  η̂ x <= 1 − 1/ρ  (Theorem 1's key step)."""
        hk = eta_hat * x * rho - rho + 1.0
        eta_t = 1.0 - 1.0 / rho
        lhs = hk <= 1e-12
        rhs = eta_hat * x <= eta_t + 1e-12
        assert lhs == rhs


class TestPolicyLoopProperties:
    @given(st.integers(0, 2_000))
    @settings(max_examples=20, deadline=None)
    def test_fedl_decision_always_feasible(self, seed):
        m, n = 8, 2
        rng = np.random.default_rng(seed)
        pol = FedLPolicy(
            num_clients=m, budget=100.0, min_participants=n, theta=0.5,
            rng=np.random.default_rng(seed + 7),
        )
        for t in range(3):
            inputs = inputs_from_seed(seed + 13 * t, m=m, n=n)
            ctx = EpochContext(
                t=t,
                available=inputs.available,
                costs=inputs.costs,
                remaining_budget=inputs.remaining_budget,
                min_participants=n,
                tau_last=inputs.tau,
                local_losses=np.full(m, 1.0),
            )
            d = pol.select(ctx)
            sel = d.selected
            assert not sel[~inputs.available].any()
            assert sel.sum() >= min(n, int(inputs.available.sum()))
            tau_fb = inputs.tau
            pol.update(
                RoundFeedback(
                    t=t,
                    selected=sel,
                    tau_realized=tau_fb,
                    local_etas=np.where(sel, 0.6, np.nan),
                    local_losses=np.full(m, 0.9),
                    population_loss=0.9,
                    cost_spent=float(inputs.costs[sel].sum()),
                    epoch_latency=float(tau_fb[sel].max()) * d.iterations,
                )
            )
