"""Property-based tests (hypothesis) on the core decision machinery.

Invariants exercised over randomized instances:

* the descent step always lands in the feasible set X̃,
* the dual state is always elementwise nonnegative,
* FedLProblem.project returns feasible points, is idempotent, and returns
  the *nearest* feasible point (Dykstra reference in tests/oracle.py),
* Theorem 1's h-algebra holds for random (η̂, x, ρ),
* the rounded FedL decision is always feasible in the full policy loop.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.strategies.base import EpochContext, RoundFeedback
from repro.core.fedl import FedLPolicy
from repro.core.online_learner import OnlineLearner
from repro.core.phi import Phi
from repro.core.problem import EpochInputs, FedLProblem
from tests.oracle import feasible_set_projection


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



def projection_case(seed: int, m: int):
    """A K=m feasible set and a point to project onto it.

    The budget is drawn from just below the n cheapest available clients
    (an empty budget ∩ participation set) up to all of them, and ``v`` is
    tilted along the standardised costs, so the clipped point can satisfy
    both halfspaces, violate one, or be pulled into both at once.
    """
    rng = np.random.default_rng(seed)
    avail = rng.random(m) < 0.9
    if not avail.any():
        avail[rng.integers(m)] = True
    n = int(rng.integers(1, avail.sum() + 1))
    costs = rng.uniform(0.2, 5.0, m)
    avail_costs = np.sort(costs[avail])
    budget = rng.uniform(0.95 * avail_costs[:n].sum(), avail_costs.sum())
    z = (costs - costs.mean()) / (costs.std() + 1e-12)
    x = rng.uniform(-0.5, 1.5, m) + rng.uniform(-1.0, 1.0) + rng.uniform(-1.0, 1.0) * z
    inputs = EpochInputs(
        tau=rng.uniform(0.05, 3.0, m),
        costs=costs,
        available=avail,
        eta_hat=np.zeros(m),
        loss_gap=0.0,
        loss_sensitivity=np.zeros(m),
        remaining_budget=budget,
        min_participants=n,
    )
    prob = FedLProblem(inputs, rho_max=6.0)
    return prob, np.concatenate([x, [rng.uniform(-2.0, 12.0)]]), rng


def disabled(*stages: str):
    """Patch the named ``FedLProblem.project`` stages to give up (None)."""
    if not stages:
        return contextlib.nullcontext()
    return mock.patch.multiple(FedLProblem, **{s: lambda self, v: None for s in stages})


def spy(stage: str):
    """Wrap a ``FedLProblem`` stage so a test can see whether it ran."""
    return mock.patch.object(
        FedLProblem, stage, autospec=True, side_effect=getattr(FedLProblem, stage)
    )


#: ``project``'s exact stages, each reached by disabling the ones before it.
EXACT_STAGES = {
    "dual-newton": (),
    "parametric-root": ("_project_dual_newton",),
}


class TestProjectIsNearest:
    """``project`` is the Euclidean projection, not just a feasible point:
    it matches a converged Dykstra and satisfies the variational
    inequality ``(v − p)ᵀ(q − p) <= 0`` for feasible ``q``."""

    @pytest.mark.parametrize("stage", sorted(EXACT_STAGES))
    @given(st.integers(0, 2**32 - 1), st.integers(2, 500))
    @settings(max_examples=40, deadline=None)
    def test_project_matches_converged_dykstra(self, stage, seed, m):
        prob, v, rng = projection_case(seed, m)
        with disabled(*EXACT_STAGES[stage]):
            p = prob.project(v)
            # Feasible points from the same projection, plus the interior.
            qs = [prob.project(v + rng.normal(0.0, 1.0, v.size)) for _ in range(4)]
        if not prob._intersection_feasible:
            return                      # no projection exists
        assert_feasible(prob.inputs, p, rho_max=6.0)
        # Dykstra converges slowly on some draws (~1% need > 2e4 sweeps);
        # the inequality below still covers those.
        ref, sweeps = feasible_set_projection(prob, v, tol=1e-13, max_iters=20_000)
        if sweeps < 20_000:
            assert np.max(np.abs(p - ref)) <= 1e-6
        interior = prob.interior_point()
        for q in qs + ([] if interior is None else [interior]):
            assert float((v - p) @ (q - p)) <= 1e-8

    def test_draws_reach_every_branch(self):
        """The draws above exercise the clip-only return, a single
        halfspace's line root, the coupled solve and the empty set."""
        seen = set()
        for seed in range(60):
            prob, v, _ = projection_case(seed, 2 + seed * 97 % 499)  # K in 2..500
            with spy("_clip_line_root") as line, spy("_project_dual_newton") as both:
                prob.project(v)
            if not prob._intersection_feasible:
                seen.add("empty")
            else:
                seen.add("both" if both.called else "line" if line.called else "clip")
        assert seen == {"clip", "line", "both", "empty"}

    @given(st.integers(0, 2**32 - 1), st.integers(2, 500))
    @settings(max_examples=30, deadline=None)
    def test_last_resort_is_the_reference_dykstra(self, seed, m):
        """With both exact stages disabled, a coupled (or empty) case ends
        in the fused Dykstra, which runs the reference loop's operations."""
        prob, v, _ = projection_case(seed, m)
        with disabled("_project_dual_newton", "_dual_parametric_root"), \
                spy("_dykstra") as dykstra:
            p = prob.project(v)
        if dykstra.called:
            expected, _ = feasible_set_projection(prob, v, **dykstra.call_args.kwargs)
            np.testing.assert_array_equal(p, expected)

    @pytest.mark.xfail(strict=True, reason=(
        "the last-resort Dykstra stops after 500 sweeps; on these coupled "
        "draws it ends 0.06 to 0.66 from the projection (1e-6 takes ~5e4)"
    ))
    @pytest.mark.parametrize("seed,m", [(126, 295), (265, 242), (199, 41)])
    def test_last_resort_dykstra_is_not_yet_nearest(self, seed, m):
        prob, v, _ = projection_case(seed, m)
        with disabled("_project_dual_newton", "_dual_parametric_root"):
            p = prob.project(v)
        # The exact stages' answer, which the property above holds to 1e-6.
        assert np.max(np.abs(p - prob.project(v))) <= 1e-6


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
