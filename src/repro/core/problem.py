"""The reformulated per-epoch problem (paper Sec. 4.2).

With ``Φ_t = [x, ρ]`` the paper defines::

    f_t(Φ)  = Σ_k ρ x_k (τ_loc + τ_cm)          (objective; eq. 4 relaxation)
    p(Φ)    = Σ_k c_k x_k − C_remaining ≤ 0      (budget, constraint 5a per slot)
    q(Φ)    = n − Σ_k x_k ≤ 0                    (participation, 5b)
    h_t(Φ)  = [h0, h1, …, hM]                    (convergence, 5c)

    h0(Φ)  = F_t(w + avg_k x_k d_k) − θ          — linearized around the
              last observation:  loss_gap + sᵀx, where s_k estimates the
              marginal loss effect of selecting client k,
    hk(Φ)  = η̂_k x_k ρ − ρ + 1                  — with η̂_k the OBSERVED
              local accuracy of client k (Theorem 1: hk ≤ 0 ⇔
              η̂_k x_k ≤ 1 − 1/ρ = η_t, i.e. constraint 3c).

``f_t`` and ``p, q`` are exact; ``h_t`` is the observable surrogate (the
true quantities are revealed only after acting — the paper's 0-lookahead
setting, which is precisely why the dual ascent uses *realized* h values
while the descent step uses the surrogate).

All quantities for unavailable clients are masked out: ``x_k`` is pinned
to 0 by the box and their ``h_k`` rows are identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.phi import Phi

__all__ = ["EpochInputs", "FedLProblem"]

#: Interleaved ``+e_i, -e_i`` box-constraint rows per dimension.  These are
#: dimension-only constants rebuilt identically every epoch by the
#: interior-point path, so share them process-wide (read-only).
_BOX_ROWS_CACHE: Dict[int, np.ndarray] = {}


def _box_constraint_rows(dim: int) -> np.ndarray:
    rows = _BOX_ROWS_CACHE.get(dim)
    if rows is None:
        eye = np.eye(dim)
        rows = np.empty((2 * dim, dim))
        rows[0::2] = eye
        rows[1::2] = -eye
        rows.setflags(write=False)
        _BOX_ROWS_CACHE[dim] = rows
    return rows


@dataclass(frozen=True)
class EpochInputs:
    """Observable inputs the learner holds when deciding epoch ``t``.

    At decision time these are *previous-epoch* realizations (0-lookahead);
    for the dual ascent the runner builds one from the realized values.
    """

    tau: np.ndarray            # (M,) per-iteration latency estimate
    costs: np.ndarray          # (M,) rental prices
    available: np.ndarray      # (M,) bool — E_t IS known at decision time
    eta_hat: np.ndarray        # (M,) observed/prior local accuracies, in [0,1)
    loss_gap: float            # F_t(w) − θ at the last observation
    loss_sensitivity: np.ndarray  # (M,) ∂(loss)/∂x_k estimate (<= 0 helps)
    remaining_budget: float
    min_participants: int

    def __post_init__(self) -> None:
        m = np.asarray(self.tau).size
        for name in ("tau", "costs", "eta_hat", "loss_sensitivity"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (m,):
                raise ValueError(f"{name} must have shape ({m},)")
            object.__setattr__(self, name, arr)
        avail = np.asarray(self.available, dtype=bool)
        if avail.shape != (m,):
            raise ValueError("available mask shape mismatch")
        object.__setattr__(self, "available", avail)
        if np.any(self.tau < 0):
            raise ValueError("latencies must be nonnegative")
        if np.any(self.costs < 0):
            raise ValueError("costs must be nonnegative")
        if np.any((self.eta_hat < 0) | (self.eta_hat >= 1)):
            raise ValueError("eta_hat must lie in [0, 1)")
        if self.min_participants < 1:
            raise ValueError("min_participants must be >= 1")
        if self.min_participants > int(avail.sum()):
            raise ValueError("fewer available clients than min_participants")

    @property
    def num_clients(self) -> int:
        return self.tau.size


class FedLProblem:
    """Callable pieces of the reformulated problem for one epoch.

    ``objective`` selects the latency surrogate:

    * ``"sum"`` (paper, eq. 4): ``f = ρ Σ_k x_k τ_k`` — the convex upper
      bound the paper optimizes.
    * ``"softmax"`` (ablation): ``f = ρ · (1/α) log(Σ_k x_k e^{α τ_k} + 1)``
      — a smooth surrogate of the true epoch latency ``ρ max_{sel} τ``
      (tight as α → ∞; the +1 keeps it defined at x = 0, contributing a
      latency floor of 0 since log 1 = 0).
    """

    def __init__(
        self,
        inputs: EpochInputs,
        rho_max: float = 8.0,
        objective: str = "sum",
        softmax_alpha: float = 4.0,
    ) -> None:
        if rho_max < 1:
            raise ValueError("rho_max must be >= 1")
        if objective not in ("sum", "softmax"):
            raise ValueError(f"unknown objective {objective!r}")
        if softmax_alpha <= 0:
            raise ValueError("softmax_alpha must be positive")
        self.inputs = inputs
        self.rho_max = float(rho_max)
        self.objective = objective
        self.softmax_alpha = float(softmax_alpha)
        self._avail = inputs.available
        # Effective per-client latency: zero for unavailable clients (they
        # cannot be selected; keeps f and its gradient well-defined).
        self._tau_eff = np.where(self._avail, inputs.tau, 0.0)
        if objective == "softmax":
            # e^{ατ} per client, 0 for unavailable (they never contribute).
            self._exp_tau = np.where(
                self._avail, np.exp(self.softmax_alpha * self._tau_eff), 0.0
            )
        # Feasible-set geometry, precomputed once: project() is the hot
        # call of the projected-gradient solver (hundreds of evaluations
        # per epoch), so none of these should be rebuilt per call.
        m = inputs.num_clients
        lo = np.zeros(m + 1)
        lo[m] = 1.0
        hi = np.concatenate([self._avail.astype(float), [self.rho_max]])
        self._lo = lo
        self._hi = hi
        self._costs_ext = np.concatenate([inputs.costs, [0.0]])
        self._part = self._avail.astype(float)
        self._part_ext = np.concatenate([self._part, [0.0]])
        self._neg_part_ext = -self._part_ext
        self._costs_nrm2 = float(self._costs_ext @ self._costs_ext)
        self._part_nrm2 = float(self._neg_part_ext @ self._neg_part_ext)
        self._constraints: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # Can budget and participation hold simultaneously?  When the n
        # cheapest available clients already exceed the remaining budget
        # the intersection is empty: no point running a projection to
        # convergence — Dykstra just cycles between the inconsistent sets.
        avail_costs = np.sort(inputs.costs[self._avail], kind="stable")
        n_req = inputs.min_participants
        min_cost = float(avail_costs[:n_req].sum())
        self._intersection_feasible = min_cost <= inputs.remaining_budget + 1e-9

    # -- objective -----------------------------------------------------------

    def f(self, phi: Phi) -> float:
        """Latency surrogate at Φ (see class docstring)."""
        if self.objective == "sum":
            return float(phi.rho * (phi.x @ self._tau_eff))
        z = float(np.clip(phi.x, 0.0, None) @ self._exp_tau) + 1.0
        return float(phi.rho * np.log(z) / self.softmax_alpha)

    def grad_f(self, phi: Phi) -> np.ndarray:
        """Gradient of ``f_t`` in the flat [x..., ρ] representation."""
        if self.objective == "sum":
            gx = phi.rho * self._tau_eff
            grho = float(phi.x @ self._tau_eff)
            return np.concatenate([gx, [grho]])
        z = float(np.clip(phi.x, 0.0, None) @ self._exp_tau) + 1.0
        smax = np.log(z) / self.softmax_alpha
        gx = phi.rho * self._exp_tau / (self.softmax_alpha * z)
        return np.concatenate([gx, [smax]])

    # -- long-term constraint vector h_t ----------------------------------------

    def h(self, phi: Phi) -> np.ndarray:
        """``h_t(Φ) ∈ R^{M+1}``: [global-loss row, per-client rows]."""
        inp = self.inputs
        h0 = inp.loss_gap + float(inp.loss_sensitivity @ phi.x)
        hk = np.where(
            self._avail,
            inp.eta_hat * phi.x * phi.rho - phi.rho + 1.0,
            0.0,
        )
        return np.concatenate([[h0], hk])

    def grad_mu_h(self, phi: Phi, mu: np.ndarray) -> np.ndarray:
        """∇_Φ (μᵀ h_t(Φ)) in the flat representation."""
        mu = np.asarray(mu, dtype=float)
        if mu.shape != (self.inputs.num_clients + 1,):
            raise ValueError("mu must have M+1 entries")
        mu0, muk = mu[0], mu[1:]
        mk = np.where(self._avail, muk, 0.0)
        gx = mu0 * self.inputs.loss_sensitivity + mk * self.inputs.eta_hat * phi.rho
        grho = float(mk @ (self.inputs.eta_hat * phi.x - 1.0))
        return np.concatenate([gx, [grho]])

    def hess_mu_h(self, mu: np.ndarray) -> np.ndarray:
        """Hessian of μᵀh (constant in Φ): only x_k–ρ cross terms."""
        m = self.inputs.num_clients
        mu = np.asarray(mu, dtype=float)
        mk = np.where(self._avail, mu[1:], 0.0)
        H = np.zeros((m + 1, m + 1))
        cross = mk * self.inputs.eta_hat
        H[:m, m] = cross
        H[m, :m] = cross
        return H

    # -- feasible set X̃ (box ∩ budget ∩ participation) ---------------------------

    def box_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Elementwise bounds on [x..., ρ]: unavailable clients pinned to 0."""
        return self._lo.copy(), self._hi.copy()

    def project(self, v: np.ndarray) -> np.ndarray:
        """Euclidean projection onto X̃ in the flat representation.

        Fast path: clip to the box; if exactly one of the two halfspaces
        (budget cᵀx <= C, participation Σx >= n) is violated, the KKT
        solution is ``clip(v ∓ λ·normal)`` with λ found by bisection (the
        clipped sum is monotone in λ).  Only when both bind simultaneously
        — rare in practice — fall back to Dykstra over all three sets.
        """
        lo, hi = self._lo, self._hi
        costs = self._costs_ext
        part = self._part
        n = float(self.inputs.min_participants)
        budget = self.inputs.remaining_budget
        v = np.asarray(v, dtype=float)

        def budget_ok(u: np.ndarray) -> bool:
            return float(costs @ u) <= budget + 1e-10

        def part_ok(u: np.ndarray) -> bool:
            return float(part @ u[:-1]) >= n - 1e-10

        x0 = np.clip(v, lo, hi)
        if budget_ok(x0) and part_ok(x0):
            return x0
        if not part_ok(x0) and budget_ok(x0):
            # Raise availability coordinates: x(λ) = clip(v + λ·1_avail).
            res = self._clip_line_root(v, self._part_ext, self._part_ext, n, True)
            if res is not None and budget_ok(res[0]):
                return res[0]
        elif not budget_ok(x0) and part_ok(x0):
            # Lower along the cost vector: x(λ) = clip(v − λ·c).
            res = self._clip_line_root(v, -costs, costs, budget, False)
            if res is not None and part_ok(res[0]):
                return res[0]
        # Both halfspaces interact.
        if not self._intersection_feasible:
            # Empty intersection: no projection exists.  Return Dykstra's
            # bounded compromise between the sets (the historical behavior,
            # minus the hundreds of sweeps that can never converge).
            return self._dykstra(v, max_iters=80)
        # Newton on the two-multiplier dual; parametric scalar root when
        # Newton stalls on a kink; Dykstra as the last resort.
        x = self._project_dual_newton(v)
        if x is None:
            x = self._dual_parametric_root(v)
        return x if x is not None else self._dykstra(v)

    def _clip_line_root(
        self,
        v: np.ndarray,
        direction: np.ndarray,
        weights: np.ndarray,
        target: float,
        increasing: bool,
    ) -> Optional[Tuple[np.ndarray, float]]:
        """Exact smallest ``λ >= 0`` with ``wᵀ clip(v + λd, lo, hi) = target``.

        ``g(λ) = wᵀ clip(v + λd)`` is piecewise linear and monotone along
        the line, with kinks only where a coordinate enters/leaves its
        bounds.  Evaluating g at every kink in one broadcast clip and
        interpolating inside the crossing segment replaces the former
        50-step bisection (hundreds of thousands of ``np.clip`` calls per
        experiment) with ~6 vector ops.  Returns ``(x(λ*), λ*)``, or None
        when g never reaches ``target`` (caller falls through to the
        coupled-constraint path).
        """
        lo, hi = self._lo, self._hi
        act = direction != 0.0
        va, da = v[act], direction[act]
        wa = weights[act]
        # Free interval of coordinate i along the ray: (enter_i, exit_i).
        rising = da > 0.0
        enter = (np.where(rising, lo[act], hi[act]) - va) / da
        exit_ = (np.where(rising, hi[act], lo[act]) - va) / da
        wd = wa * da
        g0 = float(weights @ np.clip(v, lo, hi))
        s0 = float(wd[(enter <= 0.0) & (exit_ > 0.0)].sum())
        # Slope-change events at positive λ, swept with prefix sums.
        em, xm = enter > 0.0, exit_ > 0.0
        ev_lam = np.concatenate([enter[em], exit_[xm]])
        ev_dw = np.concatenate([wd[em], -wd[xm]])
        order = np.argsort(ev_lam, kind="stable")
        seg_start = np.concatenate([[0.0], ev_lam[order]])
        seg_slope = np.concatenate([[s0], s0 + np.cumsum(ev_dw[order])])
        g_start = np.empty(seg_start.size)
        g_start[0] = g0
        g_start[1:] = g0 + np.cumsum(seg_slope[:-1] * np.diff(seg_start))
        ok = g_start >= target if increasing else g_start <= target
        if not ok.any():
            return None                       # g saturates before target
        idx = int(np.argmax(ok))
        if idx == 0:
            return np.clip(v, lo, hi), 0.0
        ll = float(seg_start[idx - 1])
        sl = float(seg_slope[idx - 1])
        lam_star = ll + (target - float(g_start[idx - 1])) / sl if sl != 0.0 else float(seg_start[idx])
        if not (ll <= lam_star <= float(seg_start[idx])):
            lam_star = float(seg_start[idx])
        x = np.clip(v + lam_star * direction, lo, hi)
        # g is exactly linear on the segment, so x misses target only by
        # rounding; if that rounding lands on the infeasible side, return
        # the feasible kink endpoint instead.
        gx = float(weights @ x)
        if (gx < target - 1e-10) if increasing else (gx > target + 1e-10):
            lam_star = float(seg_start[idx])
            return np.clip(v + lam_star * direction, lo, hi), lam_star
        return x, lam_star

    def _dual_parametric_root(self, v: np.ndarray) -> Optional[np.ndarray]:
        """Coupled-case projection as a scalar root problem in λ.

        For a pinned budget multiplier λ, the optimal participation
        multiplier ``ν*(λ)`` (exact inner solve via
        :meth:`_clip_line_root`) keeps the participation row feasible with
        complementarity by construction.  What remains is the monotone
        piecewise-linear scalar equation ``GB(λ) = cᵀx(λ, ν*(λ)) − C = 0``,
        bracketed and solved by Illinois regula falsi — robust where
        semismooth Newton stalls on a kink, and immune to the zigzag of
        2-block dual coordinate ascent.  Returns None when the root cannot
        be certified (caller falls back to Dykstra).
        """
        c = self._costs_ext
        p = self._part_ext
        budget = float(self.inputs.remaining_budget)
        n = float(self.inputs.min_participants)
        scale_b = 1.0 + abs(budget)
        lo, hi = self._lo, self._hi

        def eval_lam(lam: float):
            """(x, GB) at (λ, ν*(λ)); None if the inner solve fails."""
            base = v - lam * c
            xb = np.clip(base, lo, hi)
            if float(p @ xb) >= n:            # participation slack: ν* = 0
                x = xb
            else:
                res = self._clip_line_root(base, p, p, n, True)
                if res is None:
                    return None
                x = res[0]
            return x, float(c @ x) - budget

        r = eval_lam(0.0)
        if r is None:
            return None
        x_lo, gb_lo = r
        if gb_lo <= 1e-10 * scale_b:          # budget slack at λ = 0
            return x_lo
        lam_lo, lam_hi = 0.0, 1.0
        for _ in range(60):                   # bracket: double until GB <= 0
            r = eval_lam(lam_hi)
            if r is None:
                return None
            x_hi, gb_hi = r
            if gb_hi <= 0.0:
                break
            lam_lo, x_lo, gb_lo = lam_hi, x_hi, gb_hi
            lam_hi *= 2.0
        else:
            return None
        side = 0
        for _ in range(100):
            if gb_hi == gb_lo:
                break
            lam_m = (lam_lo * gb_hi - lam_hi * gb_lo) / (gb_hi - gb_lo)
            if not (lam_lo < lam_m < lam_hi):
                lam_m = 0.5 * (lam_lo + lam_hi)
            r = eval_lam(lam_m)
            if r is None:
                return None
            x_m, gb_m = r
            if abs(gb_m) <= 1e-10 * scale_b:
                return x_m
            if gb_m > 0.0:
                lam_lo, x_lo, gb_lo = lam_m, x_m, gb_m
                if side == 1:
                    gb_hi *= 0.5              # Illinois anti-stall halving
                side = 1
            else:
                lam_hi, x_hi, gb_hi = lam_m, x_m, gb_m
                if side == -1:
                    gb_lo *= 0.5
                side = -1
        # Bracket collapsed without an exact hit: the feasible endpoint is
        # within the bracket's width of the true projection.
        return x_hi if abs(gb_hi) <= 1e-8 * scale_b else None

    def _project_dual_newton(self, v: np.ndarray) -> Optional[np.ndarray]:
        """Projection with both halfspaces potentially active.

        The KKT solution is ``x(λ, ν) = clip(v − λc + ν·1_avail, lo, hi)``
        with multipliers ``λ, ν >= 0`` for the budget and participation
        halfspaces.  That leaves a 2-D piecewise-linear complementarity
        system, solved by damped semismooth Newton — typically <10
        iterations of O(M) work, where Dykstra needs hundreds of sweeps.
        Returns None when KKT cannot be certified (degenerate geometry or
        an empty intersection); the caller then falls back to Dykstra.
        """
        lo, hi = self._lo, self._hi
        c = self._costs_ext
        p = self._part_ext
        budget = float(self.inputs.remaining_budget)
        n = float(self.inputs.min_participants)
        scale_b = 1.0 + abs(budget)
        scale_p = 1.0 + n
        def residual(lam: float, nu: float):
            z = v - lam * c + nu * p
            x = np.clip(z, lo, hi)
            gb = float(c @ x) - budget          # budget violation (want <= 0)
            gp = n - float(p @ x)               # participation violation
            # Complementarity residuals: an active multiplier must pin its
            # constraint to equality; an inactive one only needs g <= 0.
            rb = gb if lam > 0.0 else max(gb, 0.0)
            rp = gp if nu > 0.0 else max(gp, 0.0)
            err = max(abs(rb) / scale_b, abs(rp) / scale_p)
            return z, x, gb, gp, err

        lam = 0.0
        nu = 0.0
        z, x, gb, gp, err = residual(lam, nu)
        for _ in range(60):
            if err <= 1e-10:
                return x
            free = (z > lo) & (z < hi)
            cf = c[free]
            pf = p[free]
            acc = float(cf @ cf)
            app = float(pf @ pf)
            acp = float(cf @ pf)
            # Which multipliers move: those active or violated.
            do_b = lam > 0.0 or gb > 0.0
            do_p = nu > 0.0 or gp > 0.0
            if do_b and do_p:
                det = acc * app - acp * acp
                if det <= 1e-14 * max(1.0, acc * app):
                    return None
                dlam = (app * gb + acp * gp) / det
                dnu = (acp * gb + acc * gp) / det
            elif do_b:
                if acc <= 0.0:
                    return None
                dlam, dnu = gb / acc, 0.0
            elif do_p:
                if app <= 0.0:
                    return None
                dlam, dnu = 0.0, gp / app
            else:                               # both satisfied, both zero
                return x
            # Damped step: accept the largest halving that shrinks the
            # residual (the complementarity system is piecewise linear, so
            # an undamped step can overshoot across kinks).
            t = 1.0
            for _ in range(12):
                lam_t = max(0.0, lam + t * dlam)
                nu_t = max(0.0, nu + t * dnu)
                z_t, x_t, gb_t, gp_t, err_t = residual(lam_t, nu_t)
                if err_t < err:
                    lam, nu = lam_t, nu_t
                    z, x, gb, gp, err = z_t, x_t, gb_t, gp_t, err_t
                    break
                t *= 0.5
            else:
                return None
        return None

    def _dykstra(self, v: np.ndarray, tol: float = 1e-10, max_iters: int = 500) -> np.ndarray:
        """Dykstra over box ∩ budget ∩ participation, fused.

        Performs exactly the floating-point operations of the generic
        Dykstra in ``tests/oracle.py`` (``alternating_projections`` over
        the box, budget and participation projections: same sweep order,
        same increment bookkeeping) without per-call closure dispatch.
        """
        lo, hi = self._lo, self._hi
        costs, c_nrm2 = self._costs_ext, self._costs_nrm2
        neg_part, p_nrm2 = self._neg_part_ext, self._part_nrm2
        budget = self.inputs.remaining_budget
        neg_n = -float(self.inputs.min_participants)
        x = np.asarray(v, dtype=float).copy()
        inc_box = np.zeros_like(x)
        inc_budget = np.zeros_like(x)
        inc_part = np.zeros_like(x)
        for _ in range(max_iters):
            y = x + inc_box
            x_new = np.clip(y, lo, hi)
            inc_box = y - x_new
            max_shift = float(np.max(np.abs(x_new - x)))
            x = x_new

            y = x + inc_budget
            gap = float(costs @ y) - budget
            x_new = y if gap <= 0.0 else y - (gap / c_nrm2) * costs
            inc_budget = y - x_new
            max_shift = max(max_shift, float(np.max(np.abs(x_new - x))))
            x = x_new

            y = x + inc_part
            gap = float(neg_part @ y) - neg_n
            x_new = y if gap <= 0.0 else y - (gap / p_nrm2) * neg_part
            inc_part = y - x_new
            max_shift = max(max_shift, float(np.max(np.abs(x_new - x))))
            x = x_new
            if max_shift <= tol:
                break
        return x

    def constraint_matrix(self) -> Tuple[np.ndarray, np.ndarray]:
        """All constraints as ``A v <= b`` rows (for the interior-point solver).

        The box rows (interleaved ``±e_i``) depend only on the dimension,
        so they come from a module-level cache; the assembled system is
        cached on the instance.
        """
        if self._constraints is not None:
            return self._constraints
        m = self.inputs.num_clients
        lo, hi = self._lo, self._hi
        box_rows = _box_constraint_rows(m + 1)
        box_rhs = np.empty(2 * (m + 1))
        box_rhs[0::2] = hi                 # v_i <= hi_i
        box_rhs[1::2] = -lo                # -v_i <= -lo_i
        budget_row = np.concatenate([self.inputs.costs, [0.0]])
        part_row = np.concatenate([-self._avail.astype(float), [0.0]])
        a = np.vstack([box_rows, budget_row, part_row])
        b = np.concatenate(
            [box_rhs, [self.inputs.remaining_budget, -float(self.inputs.min_participants)]]
        )
        self._constraints = (a, b)
        return self._constraints

    def interior_point(self) -> Optional[np.ndarray]:
        """A strictly interior point of X̃, if one exists.

        Spread the participation requirement over the cheapest available
        clients with headroom; returns None when the budget leaves no
        strictly feasible slack.
        """
        inp = self.inputs
        m = inp.num_clients
        avail_idx = np.flatnonzero(self._avail)
        a = avail_idx.size
        n = inp.min_participants
        # Fractions slightly above n/a on all available clients.
        base = min(0.98, (n / a) + 0.5 * (1.0 - n / a))
        x = np.zeros(m)
        x[avail_idx] = base
        # Shrink toward the cheapest-n corner until the budget has slack.
        for _ in range(60):
            cost = float(inp.costs @ x)
            if cost < inp.remaining_budget * (1.0 - 1e-6) and x[avail_idx].sum() > n * (1 + 1e-6):
                rho = 1.0 + 0.5 * (self.rho_max - 1.0)
                return np.concatenate([x, [rho]])
            # Move mass to the cheapest clients, keeping Σx just above n.
            order = avail_idx[np.argsort(inp.costs[avail_idx], kind="stable")]
            target = np.zeros(m)
            keep = min(a, n + 1)
            target[order[:keep]] = min(0.98, (n * (1 + 1e-3)) / keep)
            x = 0.5 * x + 0.5 * target
        cost = float(inp.costs @ x)
        if cost < inp.remaining_budget and x[avail_idx].sum() > n:
            rho = 1.0 + 0.5 * (self.rho_max - 1.0)
            return np.concatenate([x, [rho]])
        return None
