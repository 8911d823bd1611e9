"""Log-barrier interior-point method with an Armijo line search.

Solves smooth convex programs of the form::

    minimize    f(x)
    subject to  A x <= b          (all inequality constraints, box included)

which is exactly the shape of FedL's per-epoch descent step (paper eq. 8)
after the bilinear ``μᵀh_t`` term is folded into the objective.  This is the
same algorithm family as the paper's solver reference [26] (Wächter &
Biegler's interior-point filter line-search method, IPOPT), implemented
from scratch:

* outer loop on the barrier parameter ``μ_b`` (geometric decrease),
* inner (damped, regularized) Newton iterations on the barrier function
  ``f(x) − μ_b Σ log(b − Ax)``,
* fraction-to-boundary rule keeping iterates strictly interior,
* Armijo sufficient-decrease acceptance on the barrier function.  (In
  Wächter & Biegler the filter coordinates are (equality-constraint
  violation, objective); with inequality-only problems kept strictly
  feasible the violation coordinate is identically zero and the filter
  acceptance reduces to exactly this Armijo test.)

Intended for the small dense problems that arise here (tens of variables,
up to a few hundred constraints); everything is plain vectorized NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = ["InteriorPointResult", "solve_interior_point"]


@dataclass(frozen=True)
class InteriorPointResult:
    """Outcome of an interior-point solve."""

    x: np.ndarray
    fun: float
    iterations: int
    converged: bool
    barrier_mu: float
    message: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))


def _strictly_feasible_start(
    A: np.ndarray, b: np.ndarray, x0: np.ndarray, margin: float = 1e-9
) -> Optional[np.ndarray]:
    """Nudge ``x0`` strictly inside ``{Ax < b}`` if it is close; else None.

    Runs a few rounds of most-violated-constraint corrections; good enough
    for the well-conditioned polytopes FedL produces (box ∩ two halfspaces
    with a known nonempty interior).
    """
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(200):
        slack = b - A @ x
        worst = float(np.min(slack))
        if worst > margin:
            return x
        i = int(np.argmin(slack))
        a_i = A[i]
        nrm2 = float(a_i @ a_i)
        if nrm2 == 0.0:
            return None
        # Step past the violated hyperplane with a small margin.
        x = x - ((float(a_i @ x) - float(b[i]) + 10.0 * margin) / nrm2) * a_i
    slack = b - A @ x
    return x if float(np.min(slack)) > margin else None


def solve_interior_point(
    objective: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray],
    hessian: Callable[[np.ndarray], np.ndarray],
    A: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray,
    x_interior: Optional[np.ndarray] = None,
    mu0: float = 1.0,
    mu_shrink: float = 0.2,
    tol: float = 1e-8,
    max_outer: int = 30,
    max_inner: int = 50,
    ftb_tau: float = 0.995,
) -> InteriorPointResult:
    """Minimize ``objective`` subject to ``A x <= b``.

    Parameters
    ----------
    objective, gradient, hessian:
        The smooth objective and its derivatives.  The Hessian may be any
        symmetric matrix; it is regularized if not positive definite.
    A, b:
        Inequality constraints (rows of ``A`` with matching ``b``).
    x0:
        Warm start.  If not strictly feasible it is repaired; if repair
        fails, ``x_interior`` is used.
    x_interior:
        A known strictly interior point (fallback start).
    ftb_tau:
        Fraction-to-boundary coefficient: the step keeps at least
        ``(1 − ftb_tau)`` of each slack.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = np.asarray(x0).size
    if A.ndim != 2 or A.shape[1] != n or b.shape != (A.shape[0],):
        raise ValueError("inconsistent constraint shapes")

    x = _strictly_feasible_start(A, b, np.asarray(x0, dtype=float))
    if x is None and x_interior is not None:
        cand = np.asarray(x_interior, dtype=float)
        if float(np.min(b - A @ cand)) > 0:
            x = cand.copy()
    if x is not None and x_interior is not None:
        # A start hugging the boundary stalls Newton (the barrier gradient
        # explodes); blend toward the known interior point until every
        # slack is healthy.  Newton recovers any lost warm-start quality.
        interior = np.asarray(x_interior, dtype=float)
        interior_slack = float(np.min(b - A @ interior))
        if interior_slack > 0:
            target = min(1e-3, 0.1 * interior_slack)
            for blend in (0.0, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0):
                cand = (1.0 - blend) * x + blend * interior
                if float(np.min(b - A @ cand)) >= target:
                    x = cand
                    break
    if x is None:
        return InteriorPointResult(
            x=np.asarray(x0, dtype=float),
            fun=float("inf"),
            iterations=0,
            converged=False,
            barrier_mu=mu0,
            message="no strictly feasible start found",
        )

    def barrier(xv: np.ndarray, mu_b: float) -> float:
        slack = b - A @ xv
        if np.any(slack <= 0):
            return float("inf")
        return objective(xv) - mu_b * float(np.sum(np.log(slack)))

    total_iters = 0
    mu_b = mu0
    m = A.shape[0]
    for _outer in range(max_outer):
        for _inner in range(max_inner):
            total_iters += 1
            slack = b - A @ x
            inv_s = 1.0 / slack
            g = gradient(x) + mu_b * (A.T @ inv_s)
            H = hessian(x) + mu_b * (A.T * (inv_s**2)) @ A
            # Regularized Newton solve.
            reg = 0.0
            for _ in range(12):
                try:
                    step = np.linalg.solve(
                        H + reg * np.eye(n), -g
                    )
                    # Require a descent direction for the barrier.
                    if float(g @ step) < 0:
                        break
                except np.linalg.LinAlgError:
                    pass
                reg = max(2.0 * reg, 1e-10)
            else:
                step = -g  # steepest descent fallback

            # Fraction-to-boundary: largest t with slack(x + t step) >= (1-tau) slack.
            As = A @ step
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(As > 0, ftb_tau * slack / As, np.inf)
            t_max = float(min(1.0, np.min(ratios))) if m else 1.0

            # Armijo acceptance on the barrier function.
            bx = barrier(x, mu_b)
            slope = float(g @ step)
            t = t_max
            accepted = False
            for _ in range(40):
                x_trial = x + t * step
                b_trial = barrier(x_trial, mu_b)
                if np.isfinite(b_trial) and b_trial <= bx + 1e-4 * t * slope + 1e-14:
                    accepted = True
                    break
                t *= 0.5
            if not accepted:
                break  # inner loop stalled; shrink barrier
            x = x + t * step
            # Newton decrement as the inner stationarity certificate; only
            # trust it when the step was not truncated by the boundary.
            newton_dec = float(np.sqrt(max(0.0, -slope)))
            if newton_dec <= np.sqrt(tol) and t >= 0.5 * t_max:
                break
        # Outer convergence: duality-gap proxy m * mu_b.
        if m * mu_b <= tol:
            return InteriorPointResult(
                x=x,
                fun=objective(x),
                iterations=total_iters,
                converged=True,
                barrier_mu=mu_b,
                message="converged: barrier gap below tolerance",
            )
        mu_b *= mu_shrink
    return InteriorPointResult(
        x=x,
        fun=objective(x),
        iterations=total_iters,
        converged=m * mu_b <= 10 * tol,
        barrier_mu=mu_b,
        message="max outer iterations reached",
    )
