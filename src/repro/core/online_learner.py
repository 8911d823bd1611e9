"""The online saddle-point learner (paper Sec. 4.3, eqs. 8-9).

State: the fractional decision ``Φ̃_t`` and the Lagrange multiplier
``μ_t ∈ R^{M+1}_{>=0}`` (one dual per row of ``h_t``).  Per epoch:

* **Dual ascent** (eq. 9), using the *realized* constraint values:
  ``μ_{t+1} = [μ_t + δ h_t(Φ̃_t)]⁺``.
* **Modified descent** (eq. 8): with the newest observable surrogate of
  ``f_t, h_t``, solve

      min_Φ  ∇f_t(Φ̃_t)ᵀ(Φ − Φ̃_t) + μ_{t+1}ᵀ h_t(Φ) + ‖Φ − Φ̃_t‖²/(2β)

  over the relaxed feasible set X̃ (box ∩ budget ∩ participation).  Two
  interchangeable solvers: projected gradient (default, over
  :meth:`FedLProblem.project`) and the from-scratch interior-point
  filter line-search method (the paper's reference [26]); tests assert
  they agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.phi import Phi
from repro.core.problem import EpochInputs, FedLProblem
from repro.obs import get_telemetry
from repro.solvers.interior_point import solve_interior_point
from repro.solvers.projected_gradient import (
    ProjectedGradientState,
    projected_gradient,
)

__all__ = ["LearnerState", "OnlineLearner"]


@dataclass
class LearnerState:
    """Mutable learner state carried across epochs."""

    phi: Phi
    mu: np.ndarray            # (M+1,) nonnegative duals

    def __post_init__(self) -> None:
        self.mu = np.asarray(self.mu, dtype=float)
        if self.mu.shape != (self.phi.num_clients + 1,):
            raise ValueError("mu must have M+1 entries")
        if np.any(self.mu < 0):
            raise ValueError("duals must be nonnegative")


class OnlineLearner:
    """Implements the alternating descent/ascent updates."""

    def __init__(
        self,
        num_clients: int,
        beta: float,
        delta: float,
        rho_max: float = 8.0,
        solver: str = "projected_gradient",
        solver_max_iters: int = 200,
        solver_tol: float = 1e-7,
        x_init: float = 0.5,
        objective: str = "sum",
        warm_start: bool = False,
    ) -> None:
        if beta <= 0 or delta <= 0:
            raise ValueError("step sizes must be positive")
        if solver not in ("projected_gradient", "interior_point"):
            raise ValueError(f"unknown solver {solver!r}")
        self.beta = beta
        self.delta = delta
        self.rho_max = float(rho_max)
        self.solver = solver
        self.solver_max_iters = solver_max_iters
        self.solver_tol = solver_tol
        self.objective = objective
        # Consecutive epoch subproblems are O(β) perturbations of each
        # other, so (optionally) carry the projected-gradient step-size /
        # residual state across epochs.  Off by default: a cold learner is
        # the bit-exact reference the equivalence tests compare against.
        self.warm_start = bool(warm_start)
        self._pg_state: ProjectedGradientState | None = None
        self._first_solve_iters: int | None = None
        # μ_1 = 0 (Lemma 2's initialization).  Φ starts with moderate
        # selection fractions and a conservative iteration level (ρ = 2,
        # the baselines' fixed value) rather than mid-box: the descent step
        # only moves O(β) per epoch, so the starting point is the behaviour
        # for the first ~1/β epochs.
        rho0 = float(np.clip(2.0, 1.0, rho_max))
        if not (0.0 <= x_init <= 1.0):
            raise ValueError("x_init must be in [0, 1]")
        self.state = LearnerState(
            phi=Phi(x=np.full(num_clients, x_init), rho=rho0),
            mu=np.zeros(num_clients + 1),
        )

    # -- eq. (9): dual ascent on realized constraint values -------------------------

    def dual_ascent(self, h_realized: np.ndarray) -> np.ndarray:
        """``μ ← [μ + δ h]⁺`` with the realized h_t(Φ̃_t)."""
        h = np.asarray(h_realized, dtype=float)
        if h.shape != self.state.mu.shape:
            raise ValueError("h must have M+1 entries")
        self.state.mu = np.maximum(self.state.mu + self.delta * h, 0.0)
        tel = get_telemetry()
        if tel.enabled:
            tel.emit(
                "learner.ascent",
                data={
                    "mu": self.state.mu,
                    "h": h,
                    "mu_max": float(self.state.mu.max()),
                    "fit_increment": float(np.maximum(h, 0.0).sum()),
                },
            )
        return self.state.mu

    # -- eq. (8): modified descent step --------------------------------------------

    def descent_step(self, inputs: EpochInputs) -> Phi:
        """Solve the per-epoch subproblem; updates and returns Φ̃_{t+1}."""
        problem = FedLProblem(inputs, rho_max=self.rho_max, objective=self.objective)
        phi_prev = self.state.phi
        # If the fleet size changed (it cannot in this simulator) we would
        # re-dimension here; assert instead.
        if phi_prev.num_clients != inputs.num_clients:
            raise ValueError("client count changed mid-run")
        v_prev = phi_prev.to_vector()
        grad_f_prev = problem.grad_f(phi_prev)
        mu = self.state.mu
        # μᵀh(Φ) expanded once: h is bilinear in (x, ρ), so the penalty is
        # mu0·(gap + sᵀx) + ρ·(w1ᵀx) − ρ·Σw + Σw with w = μ_k·η̂_k over
        # available clients.  The closures below run hundreds of times per
        # epoch inside the solver, so no Phi objects, no concatenations.
        m_clients = inputs.num_clients
        mu0 = float(mu[0])
        w1 = np.where(problem._avail, mu[1:] * inputs.eta_hat, 0.0)
        w_sum = float(w1.sum())
        sens = inputs.loss_sensitivity
        gap = float(inputs.loss_gap)
        inv_beta = 1.0 / self.beta
        floor = np.zeros(m_clients + 1)
        floor[m_clients] = 1.0

        def objective(v: np.ndarray) -> float:
            dv = v - v_prev
            vf = np.maximum(v, floor)          # penalty sees the floored point
            x, rho = vf[:m_clients], float(vf[m_clients])
            lin = float(grad_f_prev @ dv)
            pen = (
                mu0 * (gap + float(sens @ x))
                + rho * float(w1 @ x)
                + (1.0 - rho) * w_sum
            )
            prox = float(dv @ dv) * (0.5 * inv_beta)
            return lin + pen + prox

        def gradient(v: np.ndarray) -> np.ndarray:
            vf = np.maximum(v, floor)
            x, rho = vf[:m_clients], float(vf[m_clients])
            g = grad_f_prev + (v - v_prev) * inv_beta
            g[:m_clients] += mu0 * sens + rho * w1
            g[m_clients] += float(w1 @ x) - w_sum
            return g

        tel = get_telemetry()
        warm_hit = False
        iterations_saved = 0
        with tel.timer(f"solver.{self.solver}") as solve_timer:
            if self.solver == "projected_gradient":
                carried = self._pg_state if self.warm_start else None
                warm_hit = carried is not None
                res = projected_gradient(
                    objective,
                    gradient,
                    problem.project,
                    x0=v_prev,
                    max_iters=self.solver_max_iters,
                    tol=self.solver_tol,
                    state=carried,
                )
                v_new = res.x
                if self.warm_start:
                    self._pg_state = ProjectedGradientState.from_result(res)
                    if self._first_solve_iters is None:
                        self._first_solve_iters = int(res.iterations)
                    elif warm_hit:
                        # Iterations saved relative to this run's cold first
                        # solve — the observable the trace report aggregates.
                        iterations_saved = max(
                            0, self._first_solve_iters - int(res.iterations)
                        )
            else:
                A, b = problem.constraint_matrix()

                def hessian(v: np.ndarray) -> np.ndarray:
                    return problem.hess_mu_h(mu) + np.eye(v.size) / self.beta

                res = solve_interior_point(
                    objective,
                    gradient,
                    hessian,
                    A,
                    b,
                    x0=v_prev,
                    x_interior=problem.interior_point(),
                    tol=self.solver_tol,
                    max_outer=20,
                )
                v_new = res.x
            # Numerical guard: snap into the box.
            lo, hi = problem.box_bounds()
            v_new = np.clip(v_new, lo, hi)
            self.state.phi = Phi.from_vector(v_new)
        if tel.enabled:
            residual = (
                res.grad_norm if self.solver == "projected_gradient" else res.barrier_mu
            )
            tel.counter("solver.iterations", int(res.iterations))
            if warm_hit:
                tel.counter("solver.warm_start_hits", 1)
                tel.counter("solver.iterations_saved", iterations_saved)
            tel.emit(
                "learner.descent",
                data={
                    "solver": self.solver,
                    "iterations": int(res.iterations),
                    "converged": bool(res.converged),
                    "residual": float(residual),
                    "objective": problem.f(self.state.phi),
                    "rho": self.state.phi.rho,
                    "x_sum": float(self.state.phi.x.sum()),
                    "budget_headroom": float(inputs.remaining_budget),
                    "warm_start": self.warm_start,
                    "warm_start_hit": warm_hit,
                    "iterations_saved": iterations_saved,
                },
                dur=solve_timer.seconds,
            )
        return self.state.phi

    # -- checkpointing -----------------------------------------------------------

    def state_dict(self) -> dict:
        """All mutable learner state as JSON-ready plain types.

        Covers the primal/dual iterates *and* the solver carry-over (the
        FISTA warm-start step/residual plus the cold-solve iteration
        reference), so a learner restored mid-run re-solves the next
        epoch's subproblem bit-identically to one that never stopped.
        """
        pg = self._pg_state
        return {
            "x": [float(v) for v in self.state.phi.x],
            "rho": float(self.state.phi.rho),
            "mu": [float(v) for v in self.state.mu],
            "pg_state": (
                None
                if pg is None
                else {
                    "step": float(pg.step),
                    "residual": float(pg.residual),
                    "iterations": int(pg.iterations),
                }
            ),
            "first_solve_iters": (
                None
                if self._first_solve_iters is None
                else int(self._first_solve_iters)
            ),
        }

    def load_state(self, payload: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        x = np.asarray(payload["x"], dtype=float)
        if x.shape != self.state.phi.x.shape:
            raise ValueError("client count changed since checkpoint")
        self.state = LearnerState(
            phi=Phi(x=x, rho=float(payload["rho"])),
            mu=np.asarray(payload["mu"], dtype=float),
        )
        pg = payload.get("pg_state")
        self._pg_state = (
            None
            if pg is None
            else ProjectedGradientState(
                step=float(pg["step"]),
                residual=float(pg["residual"]),
                iterations=int(pg["iterations"]),
            )
        )
        first = payload.get("first_solve_iters")
        self._first_solve_iters = None if first is None else int(first)

    # -- accessors ---------------------------------------------------------------

    @property
    def phi(self) -> Phi:
        return self.state.phi

    @property
    def mu(self) -> np.ndarray:
        return self.state.mu.copy()

    def reset_phi(self, phi: Phi) -> None:
        """Override the primal state (used after infeasible-epoch repairs)."""
        if phi.num_clients != self.state.phi.num_clients:
            raise ValueError("dimension mismatch")
        self.state.phi = phi
