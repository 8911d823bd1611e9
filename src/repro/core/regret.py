"""Dynamic regret and dynamic fit (paper Sec. 5 definitions).

For a trajectory of per-epoch problems ``{(f_t, h_t, X̃_t)}`` and online
decisions ``{Φ_t}``::

    Reg_o  = Σ_t f_t(Φ_t) − Σ_t f_t(Φ*_t),     Φ*_t ∈ argmin_{X̃_t, h_t<=0} f_t
    Fit_o  = ‖ [ Σ_t h_t(Φ_t) ]⁺ ‖.

The comparator is the *per-slot* (dynamic) optimum — the strongest
benchmark in online convex optimization.  :func:`solve_per_slot_optimum`
computes it with the projected-gradient solver over the slot's feasible
set intersected with ``h_t(Φ) <= 0`` (handled by an exact penalty with
verification, falling back to the interior-point solver when the penalty
solution is not h-feasible).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.phi import Phi
from repro.core.problem import EpochInputs, FedLProblem
from repro.solvers.projected_gradient import projected_gradient

__all__ = [
    "solve_per_slot_optimum",
    "dynamic_regret",
    "dynamic_fit",
    "drifting_problem_stream",
]


def solve_per_slot_optimum(
    problem: FedLProblem,
    penalty: float = 200.0,
    max_iters: int = 200,
    tol: float = 1e-8,
    x0: np.ndarray | None = None,
) -> Phi:
    """``Φ*_t = argmin f_t over X̃_t ∩ {h_t <= 0}`` (fractional domain).

    Uses a smooth quadratic exact-penalty on ``[h_t]⁺`` inside the
    projected-gradient solver; the penalty weight is doubled until the
    violation is negligible (or the constraint set is certified
    empty-ish, in which case the least-violating point is returned —
    matching how the paper's fit definition measures residual violation).
    """
    pen = penalty
    best: Tuple[float, Phi] | None = None
    lo, hi = problem.box_bounds()
    if x0 is not None:
        v0 = np.clip(np.asarray(x0, dtype=float), lo, hi)
    else:
        v0 = 0.5 * (lo + np.where(np.isfinite(hi), hi, lo + 1.0))
    for _ in range(4):

        def objective(v: np.ndarray) -> float:
            phi = Phi.from_vector(np.clip(v, lo, hi))
            viol = np.maximum(problem.h(phi), 0.0)
            return problem.f(phi) + 0.5 * pen * float(viol @ viol)

        def gradient(v: np.ndarray) -> np.ndarray:
            phi = Phi.from_vector(np.clip(v, lo, hi))
            g = problem.grad_f(phi)
            viol = np.maximum(problem.h(phi), 0.0)
            # ∇(0.5‖[h]⁺‖²) = Σ_i [h_i]⁺ ∇h_i  — reuse grad_mu_h with μ=[h]⁺.
            g = g + pen * problem.grad_mu_h(phi, viol)
            return g

        res = projected_gradient(
            objective, gradient, problem.project, x0=v0, max_iters=max_iters, tol=tol
        )
        phi = Phi.from_vector(np.clip(res.x, lo, hi))
        violation = float(np.linalg.norm(np.maximum(problem.h(phi), 0.0)))
        if best is None or violation < best[0]:
            best = (violation, phi)
        if violation <= 1e-6:
            return phi
        pen *= 6.0
        v0 = res.x
    assert best is not None
    return best[1]


def dynamic_regret(
    problems: Sequence[FedLProblem],
    decisions: Sequence[Phi],
    optima: Sequence[Phi] | None = None,
) -> Tuple[float, List[Phi]]:
    """``(Reg, [Φ*_t])`` for the trajectory; computes optima if not given."""
    if len(problems) != len(decisions):
        raise ValueError("trajectory lengths differ")
    if optima is not None:
        opts = list(optima)
    else:
        # Warm-start each slot's solve at the previous slot's optimum —
        # the stream has bounded variation (that is what the path-length
        # term in Theorem 2 measures), so successive optima are close.
        opts = []
        prev: np.ndarray | None = None
        for p in problems:
            star = solve_per_slot_optimum(p, x0=prev)
            opts.append(star)
            prev = star.to_vector()
    reg = 0.0
    for prob, phi, phi_star in zip(problems, decisions, opts):
        reg += prob.f(phi) - prob.f(phi_star)
    return reg, opts


def dynamic_fit(
    problems: Sequence[FedLProblem],
    decisions: Sequence[Phi],
) -> float:
    """``‖[Σ_t h_t(Φ_t)]⁺‖`` — accumulated constraint violation."""
    if len(problems) != len(decisions):
        raise ValueError("trajectory lengths differ")
    if not problems:
        return 0.0
    acc = np.zeros(problems[0].inputs.num_clients + 1)
    for prob, phi in zip(problems, decisions):
        acc += prob.h(phi)
    return float(np.linalg.norm(np.maximum(acc, 0.0)))


def drifting_problem_stream(
    m: int, horizon: int, rng: np.random.Generator
) -> List[FedLProblem]:
    """``horizon`` eq. 8 problems over ``m`` clients with bounded variation.

    Latencies and local accuracies drift sinusoidally around per-client
    bases drawn once; prices are redrawn every epoch; the budget is large
    enough to isolate the learning dynamics.  The synthetic stream behind
    ``repro regret``, the regret benchmark and example, and the solver
    layer of the telemetry overhead test.
    """
    base_tau = rng.uniform(0.2, 2.0, m)
    base_eta = rng.uniform(0.2, 0.7, m)
    problems = []
    for t in range(horizon):
        drift = 0.2 * np.sin(2 * np.pi * t / 40.0 + np.arange(m))
        inputs = EpochInputs(
            tau=np.clip(base_tau + drift, 0.05, None),
            costs=rng.uniform(0.5, 3.0, m),
            available=np.ones(m, bool),
            eta_hat=np.clip(base_eta + 0.1 * drift, 0.0, 0.9),
            loss_gap=0.3,
            loss_sensitivity=np.full(m, -0.12),
            remaining_budget=1e6,
            min_participants=3,
        )
        problems.append(FedLProblem(inputs, rho_max=6.0))
    return problems
