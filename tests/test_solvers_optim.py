"""Cross-checked tests for projected gradient, interior point, and box QP.

Strategy: three independent solvers must agree on random strongly convex
QPs — collusion on wrong answers across three algorithms is implausible.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.solvers.interior_point import solve_interior_point
from repro.solvers.projected_gradient import projected_gradient
from tests.qp import solve_box_qp


def random_qp(rng: np.random.Generator, n: int):
    """A strongly convex quadratic 0.5 xᵀQx + cᵀx."""
    A = rng.normal(size=(n, n))
    Q = A @ A.T + n * np.eye(n)
    c = rng.normal(size=n)
    return Q, c


def box_constraints(n: int, lo=0.0, hi=1.0):
    A = np.vstack([np.eye(n), -np.eye(n)])
    b = np.concatenate([np.full(n, hi), -np.full(n, lo)])
    return A, b


class TestBoxQP:
    def test_unconstrained_interior_solution(self):
        Q = np.diag([2.0, 2.0])
        c = np.array([-1.0, -1.0])   # optimum (0.5, 0.5)
        x = solve_box_qp(Q, c, 0.0, 1.0)
        np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-8)

    def test_clipped_solution(self):
        Q = np.eye(1)
        c = np.array([-10.0])        # unconstrained optimum 10 → clipped to 1
        x = solve_box_qp(Q, c, 0.0, 1.0)
        np.testing.assert_allclose(x, [1.0])

    def test_rejects_zero_diagonal(self):
        with pytest.raises(ValueError):
            solve_box_qp(np.zeros((2, 2)), np.ones(2), 0.0, 1.0)


class TestProjectedGradient:
    def test_simple_quadratic(self):
        Q = np.diag([1.0, 4.0])
        c = np.array([-1.0, -4.0])
        res = projected_gradient(
            lambda x: 0.5 * x @ Q @ x + c @ x,
            lambda x: Q @ x + c,
            lambda x: np.clip(x, 0.0, 2.0),
            x0=np.zeros(2),
        )
        assert res.converged
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-5)

    def test_active_box_constraint(self):
        res = projected_gradient(
            lambda x: float((x - 5.0) @ (x - 5.0)),
            lambda x: 2 * (x - 5.0),
            lambda x: np.clip(x, 0.0, 1.0),
            x0=np.zeros(3),
        )
        np.testing.assert_allclose(res.x, np.ones(3), atol=1e-8)

    #: Every drawn ``(n, seed)`` the solver is known to get wrong (below).  The
    #: property skips all of them, so that tier-1 does not depend on whether a
    #: local example database holds one, and the strict xfail asserts each.
    KNOWN_DEFECTS = ((3, 256), (3, 604), (4, 883), (6, 1084))

    @staticmethod
    def check_against_box_qp(n, seed):
        rng = np.random.default_rng(seed)
        Q, c = random_qp(rng, n)
        ref = solve_box_qp(Q, c, 0.0, 1.0)
        res = projected_gradient(
            lambda x: 0.5 * x @ Q @ x + c @ x,
            lambda x: Q @ x + c,
            lambda x: np.clip(x, 0.0, 1.0),
            x0=np.full(n, 0.5),
            max_iters=2000,
            tol=1e-12,
        )
        f_ref = 0.5 * ref @ Q @ ref + c @ ref
        f_pg = res.fun
        assert f_pg <= f_ref + 1e-5 * (1 + abs(f_ref))

    @given(st.integers(min_value=2, max_value=6), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_box_qp(self, n, seed):
        assume((n, seed) not in self.KNOWN_DEFECTS)
        self.check_against_box_qp(n, seed)

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "known defect, pinned not fixed: e.g. on (n=3, seed=256) "
            "projected_gradient returns x = 0, fun = 0.0, converged=True with "
            "grad_norm = 0.117 where the box-QP optimum is -6.89e-4 at x3 = 0.0118 "
            "- the step from an infeasible extrapolated y projects back onto x, "
            "the displacement test reads 0 and declares convergence.  Repairing it "
            "moves eq. 8 solves (solvers.pg_iters 1380 -> 1384 on train_k100, "
            "2844 -> 2891 on select_k10000) and both digests, so it needs its own "
            "change."
        ),
    )
    @pytest.mark.parametrize("n, seed", KNOWN_DEFECTS)
    def test_premature_convergence_from_an_infeasible_extrapolation(self, n, seed):
        self.check_against_box_qp(n, seed)


class TestInteriorPoint:
    def test_simple_quadratic_in_box(self):
        Q = np.diag([2.0, 2.0])
        c = np.array([-1.0, -1.0])
        A, b = box_constraints(2)
        res = solve_interior_point(
            lambda x: 0.5 * x @ Q @ x + c @ x,
            lambda x: Q @ x + c,
            lambda x: Q,
            A,
            b,
            x0=np.full(2, 0.5),
        )
        assert res.converged
        np.testing.assert_allclose(res.x, [0.5, 0.5], atol=1e-4)

    def test_active_constraint_solution(self):
        # min (x-5)² over [0,1] → x = 1
        A, b = box_constraints(1)
        res = solve_interior_point(
            lambda x: float((x - 5) @ (x - 5)),
            lambda x: 2 * (x - 5),
            lambda x: 2 * np.eye(1),
            A,
            b,
            x0=np.array([0.5]),
        )
        np.testing.assert_allclose(res.x, [1.0], atol=1e-3)

    def test_repairs_infeasible_start(self):
        A, b = box_constraints(2)
        res = solve_interior_point(
            lambda x: float(x @ x),
            lambda x: 2 * x,
            lambda x: 2 * np.eye(2),
            A,
            b,
            x0=np.array([5.0, -3.0]),   # far outside the box
        )
        assert res.converged
        np.testing.assert_allclose(res.x, [0.0, 0.0], atol=1e-3)

    def test_uses_fallback_interior_point(self):
        # Start on a vertex (not strictly feasible) with a provided interior.
        A, b = box_constraints(2)
        res = solve_interior_point(
            lambda x: float(x @ x),
            lambda x: 2 * x,
            lambda x: 2 * np.eye(2),
            A,
            b,
            x0=np.array([0.0, 0.0]),
            x_interior=np.array([0.5, 0.5]),
        )
        assert np.all(res.x >= -1e-6)

    def test_reports_failure_without_interior(self):
        # Empty feasible set: x <= 0 and -x <= -1 (i.e. x >= 1).
        A = np.array([[1.0], [-1.0]])
        b = np.array([0.0, -1.0])
        res = solve_interior_point(
            lambda x: float(x @ x),
            lambda x: 2 * x,
            lambda x: 2 * np.eye(1),
            A,
            b,
            x0=np.array([0.5]),
        )
        assert not res.converged

    def test_inequality_constraint_general(self):
        # min x+y st x+y >= 1, box [0, 2]²  → optimum on x+y=1.
        A = np.vstack([np.eye(2), -np.eye(2), -np.ones((1, 2))])
        b = np.concatenate([np.full(2, 2.0), np.zeros(2), [-1.0]])
        res = solve_interior_point(
            lambda x: float(x.sum()),
            lambda x: np.ones(2),
            lambda x: np.zeros((2, 2)),
            A,
            b,
            x0=np.full(2, 1.0),
        )
        assert np.isclose(res.x.sum(), 1.0, atol=1e-3)

    @given(st.integers(min_value=2, max_value=5), st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_agrees_with_box_qp(self, n, seed):
        rng = np.random.default_rng(seed)
        Q, c = random_qp(rng, n)
        ref = solve_box_qp(Q, c, 0.0, 1.0)
        A, b = box_constraints(n)
        res = solve_interior_point(
            lambda x: 0.5 * x @ Q @ x + c @ x,
            lambda x: Q @ x + c,
            lambda x: Q,
            A,
            b,
            x0=np.full(n, 0.5),
            tol=1e-10,
        )
        f_ref = 0.5 * ref @ Q @ ref + c @ ref
        assert res.fun <= f_ref + 1e-4 * (1 + abs(f_ref))
