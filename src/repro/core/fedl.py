"""FedL controller (paper Alg. 1) as a SelectionPolicy.

Wires together the online learner (eqs. 8-9), the RDCS rounding (Alg. 2),
and the running estimates of the quantities the learner can only observe
after acting:

* ``η̂_k`` — per-client local convergence accuracy, exponential moving
  average of the realized values (prior 0.5 before first observation),
* ``loss_gap`` — latest ``F_t(w) − θ``,
* ``loss_sensitivity`` — per-client EMA of the marginal loss improvement
  attributed to participation (the linearized ``h0`` coefficients).

Per epoch:

1. ``select``: build :class:`EpochInputs` from the context + estimates,
   run the descent step (8) to get ``Φ̃_{t+1}``, round ``x̃`` with RDCS,
   repair feasibility, and return the decision with ``l_t = ceil(ρ)``.
2. ``update``: refresh estimates with realized values and run the dual
   ascent (9) on the realized ``h_t(Φ̃_t)``.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.config import ExperimentConfig, FedLConfig
from repro.core.online_learner import OnlineLearner
from repro.core.phi import Phi
from repro.core.problem import EpochInputs
from repro.core.horizon import corollary1_step_size
from repro.core.rounding import independent_round, rdcs_round
from repro.strategies.base import (
    Decision,
    EpochContext,
    RoundFeedback,
    SelectionPolicy,
    enforce_feasibility,
)
from repro.strategies.registry import Strategy, register_strategy

__all__ = ["FedLPolicy"]

#: Prior local accuracy before a client has ever been observed.
ETA_PRIOR = 0.5
#: EMA weight on the newest observation.
EMA_WEIGHT = 0.4
#: η̂ must stay strictly below 1 for ρ = 1/(1−η) to make sense.
ETA_CLIP = 0.99
#: Belief-side cost inflation per unit unreliability, c·(1 + p·(1 − r)),
#: applied when the runner feeds a reliability score (a defense is on).
RELIABILITY_PENALTY = 4.0


@register_strategy
class FedLPolicy(Strategy):
    """Online-learning client selection + iteration control."""

    name = "FedL"
    description = ("the paper's online learner: dual-ascent budgeted selection"
                   " with learned iteration control")
    # Budget-constrained at horizon level (dual ascent), but the strict
    # per-epoch affordability contract does not survive randomized
    # rounding, so ``budget_aware`` is not declared.
    reliability_aware = True
    randomized = True  # dependent rounding consumes RNG draws

    def __init__(
        self,
        num_clients: int,
        budget: float,
        min_participants: int,
        theta: float,
        rng: np.random.Generator,
        config: Optional[FedLConfig] = None,
        cost_range: tuple[float, float] = (0.1, 12.0),
    ) -> None:
        cfg = config if config is not None else FedLConfig()
        self.rng = rng
        self.theta = float(theta)
        self.config = cfg
        c_lo, c_hi = cost_range
        default_step = corollary1_step_size(
            budget, min_participants, c_lo, c_hi, scale=cfg.step_scale
        )
        beta = cfg.beta if cfg.beta is not None else default_step
        delta = cfg.delta if cfg.delta is not None else default_step
        self.learner = OnlineLearner(
            num_clients=num_clients,
            beta=beta,
            delta=delta,
            rho_max=cfg.rho_max,
            solver=cfg.solver,
            solver_max_iters=cfg.solver_max_iters,
            solver_tol=cfg.solver_tol,
            # Start near the participation floor: early epochs then select
            # roughly n clients (with RDCS providing the exploration).
            x_init=min(1.0, min_participants / num_clients),
            objective=cfg.objective,
            warm_start=cfg.solver_warm_start,
        )
        # Observable-quantity estimates.
        self.eta_hat = np.full(num_clients, ETA_PRIOR)
        self.loss_gap = 1.0                     # optimistic "loss above θ" prior
        self.loss_sensitivity = np.full(num_clients, -0.01)
        self._last_pop_loss: Optional[float] = None
        self._last_inputs: Optional[EpochInputs] = None

    @classmethod
    def from_config(
        cls, config: ExperimentConfig, rng: np.random.Generator, **params: Any
    ) -> SelectionPolicy:
        """The FedL family's registry factory.

        The constructor takes the learner's scalars rather than a config
        because :class:`~repro.fl.shard.ShardedFedLPolicy` calls it once per
        shard.  "FedL" with ``shard.num_shards > 1`` builds the sharded
        policy, so every registry consumer (CLI, sweeps, tournaments) gains
        O(S·(K/S)²) selection; Fair-FedL has no sharded form.
        """
        kwargs = dict(
            num_clients=config.population.num_clients,
            budget=config.budget,
            min_participants=config.min_participants,
            theta=config.training.theta,
            rng=rng,
            config=config.fedl,
            cost_range=config.population.cost_range,
        )
        if cls is not FedLPolicy or config.shard.num_shards == 1:
            return cls(**kwargs, **params)
        from repro.fl.shard import ShardedFedLPolicy

        positions = None
        if config.shard.assignment == "kmeans":
            # Rebuild the deterministic client layout on a private copy
            # of the env.population stream (same seed, fresh generator —
            # the runner's own stream is not perturbed).
            from repro.env.population import build_population
            from repro.rng import RngFactory

            positions = build_population(
                config.population,
                RngFactory(config.seed).get("env.population"),
                cell_radius_m=config.network.cell_radius_m,
            ).positions_m
        return ShardedFedLPolicy(**kwargs, shard=config.shard, positions=positions)

    # ------------------------------------------------------------------ select --

    def fractional_decision(self, ctx: EpochContext) -> tuple[Phi, np.ndarray]:
        """Run the descent step; return (Φ̃_{t+1}, rounded-ready x̃).

        Split out so extensions (e.g. the fairness variant) can bias the
        fractional selection before rounding.
        """
        costs = ctx.costs
        if ctx.reliability is not None:
            # Belief-side cost inflation only: clients flagged by the
            # defense layer look more expensive to the learner, so the
            # descent step deprioritizes them — but budget accounting and
            # feasibility repair (enforce_feasibility) keep real prices.
            costs = costs * (1.0 + RELIABILITY_PENALTY * (1.0 - ctx.reliability))
        inputs = EpochInputs(
            tau=np.nan_to_num(ctx.tau_last, nan=1.0, posinf=1e3),
            costs=costs,
            available=ctx.available,
            eta_hat=np.clip(self.eta_hat, 0.0, ETA_CLIP),
            loss_gap=self.loss_gap,
            loss_sensitivity=self.loss_sensitivity,
            remaining_budget=ctx.remaining_budget,
            min_participants=ctx.min_participants,
        )
        self._last_inputs = inputs
        phi = self.learner.descent_step(inputs)
        x_frac = np.where(ctx.available, np.clip(phi.x, 0.0, 1.0), 0.0)
        return phi, x_frac

    def select(self, ctx: EpochContext) -> Decision:
        return self._round_and_repair(*self.fractional_decision(ctx), ctx)

    def _round_and_repair(
        self, phi: Phi, x_frac: np.ndarray, ctx: EpochContext
    ) -> Decision:
        """Round ``x̃``, repair feasibility, and package the decision."""
        if self.config.rounding == "rdcs":
            x_int = rdcs_round(x_frac, self.rng)
        else:
            x_int = independent_round(x_frac, self.rng)
        mask = x_int > 0.5
        if not mask.any():
            # Degenerate all-zeros rounding: fall back to the top fractions.
            order = np.argsort(-x_frac, kind="stable")
            mask = np.zeros_like(mask)
            mask[order[: ctx.min_participants]] = True
        mask = enforce_feasibility(mask, ctx, self.rng)
        return Decision(
            selected=mask,
            iterations=phi.iterations,
            rho=phi.rho,
            fractional_x=x_frac,
        )

    # ------------------------------------------------------------------ update --

    def update(self, feedback: RoundFeedback) -> None:
        sel = feedback.selected
        # η̂ EMA with realized local accuracies.
        observed = np.isfinite(feedback.local_etas)
        self.eta_hat[observed] = (
            (1 - EMA_WEIGHT) * self.eta_hat[observed]
            + EMA_WEIGHT * np.clip(feedback.local_etas[observed], 0.0, ETA_CLIP)
        )
        # Global-loss constraint bookkeeping.
        new_gap = feedback.population_loss - self.theta
        if self._last_pop_loss is not None:
            improvement = self._last_pop_loss - feedback.population_loss
            num_sel = max(1, int(sel.sum()))
            per_client = -max(improvement, 0.0) / num_sel
            self.loss_sensitivity[sel] = (
                (1 - EMA_WEIGHT) * self.loss_sensitivity[sel]
                + EMA_WEIGHT * per_client
            )
        self._last_pop_loss = feedback.population_loss
        self.loss_gap = new_gap

        # Dual ascent on the REALIZED h_t at the fractional decision Φ̃_t.
        phi = self.learner.phi
        eta_real = np.where(
            np.isfinite(feedback.local_etas),
            np.clip(feedback.local_etas, 0.0, ETA_CLIP),
            self.eta_hat,
        )
        hk = eta_real * phi.x * phi.rho - phi.rho + 1.0
        hk = np.where(sel | np.isfinite(feedback.local_etas), hk, 0.0)
        h_realized = np.concatenate([[new_gap], hk])
        self.learner.dual_ascent(h_realized)

    # ---------------------------------------------------------------- accessors --

    @property
    def phi(self) -> Phi:
        return self.learner.phi

    @property
    def mu(self) -> np.ndarray:
        return self.learner.mu
