"""Observation-driven scoring strategies (fl-sim's data/model-based family).

Three zoo members that rank clients by what the server has *observed*
about them through the 0-lookahead feedback channel:

* :class:`GradNormPolicy` — gradient-norm sampling: score each client by
  an EWMA of the magnitude of its local-loss change between consecutive
  observations (the finite-difference proxy for its gradient norm along
  the update trajectory) and select the top ``n``.
* :class:`LossPropPolicy` — loss-proportional sampling: sample ``n``
  clients without replacement with probability proportional to their
  last observed local loss (clients the model serves worst participate
  more often, in expectation).
* :class:`DivergencePolicy` — model-divergence scoring: score each
  client by an EWMA of ``|F_k(w) − F(w)|``, its local loss's divergence
  from the population loss, and select the top ``n`` (clients whose data
  distribution the global model fits worst).

All three are pure :class:`~repro.strategies.base.SelectionPolicy`
implementations: unobserved clients score ``+inf`` (explore-first), and
every selection is repaired by ``enforce_feasibility``.
"""

from __future__ import annotations

import numpy as np

from repro.config import ExperimentConfig
from repro.strategies.base import (
    Decision,
    EpochContext,
    RoundFeedback,
    enforce_feasibility,
)
from repro.strategies.registry import ITERATIONS, ParamSpec, Strategy, register_strategy

__all__ = ["GradNormPolicy", "LossPropPolicy", "DivergencePolicy"]

_EMA = ParamSpec("ema", default=0.5, kind=float, minimum=0.01, maximum=1.0,
                 doc="EWMA weight on the newest observation")


def _top_n_mask(scores: np.ndarray, ctx: EpochContext) -> np.ndarray:
    """Boolean mask of the ``n`` highest-scoring available clients."""
    keyed = np.where(ctx.available, scores, -np.inf)
    n = min(ctx.min_participants, int(ctx.available.sum()))
    order = np.argsort(-keyed, kind="stable")
    mask = np.zeros(ctx.num_clients, dtype=bool)
    mask[order[:n]] = True
    return mask


@register_strategy
class GradNormPolicy(Strategy):
    """Select the n clients with the largest gradient-norm proxy."""

    name = "GradNorm"
    description = ("gradient-norm sampling: EWMA of local-loss change"
                   " magnitude, top-n")
    params = (ITERATIONS, _EMA)

    def __init__(
        self, config: ExperimentConfig, rng: np.random.Generator, *,
        iterations: int, ema: float,
    ) -> None:
        num_clients = config.population.num_clients
        self.iterations = iterations
        self.ema = ema
        self.scores = np.full(num_clients, np.inf)  # unobserved: explore first
        self._prev_losses = np.full(num_clients, np.nan)

    def select(self, ctx: EpochContext) -> Decision:
        mask = enforce_feasibility(_top_n_mask(self.scores, ctx), ctx, None)
        return Decision(selected=mask, iterations=self.iterations)

    def update(self, feedback: RoundFeedback) -> None:
        losses = feedback.local_losses
        observed = ~np.isnan(losses)
        # |ΔF_k| between consecutive observations; a first observation
        # seeds the proxy with the loss magnitude itself.
        delta = np.where(
            np.isnan(self._prev_losses), np.abs(losses),
            np.abs(losses - self._prev_losses),
        )
        fresh = ~np.isfinite(self.scores)
        new = np.where(
            fresh, delta, (1.0 - self.ema) * self.scores + self.ema * delta
        )
        self.scores = np.where(observed, new, self.scores)
        self._prev_losses = np.where(observed, losses, self._prev_losses)


@register_strategy
class LossPropPolicy(Strategy):
    """Sample n clients with probability proportional to local loss."""

    name = "LossProp"
    description = "loss-proportional sampling without replacement"
    params = (
        ITERATIONS,
        ParamSpec("power", default=1.0, kind=float, minimum=0.01,
                  doc="exponent sharpening the sampling distribution"),
    )
    randomized = True

    def __init__(
        self, config: ExperimentConfig, rng: np.random.Generator, *,
        iterations: int, power: float,
    ) -> None:
        self.rng = rng
        self.iterations = iterations
        self.power = power

    def select(self, ctx: EpochContext) -> Decision:
        avail = np.flatnonzero(ctx.available)
        losses = ctx.local_losses[avail]
        # Unobserved clients weigh in at the max observed loss (optimism),
        # or uniformly when nothing has been observed yet.
        if np.all(np.isnan(losses)):
            weights = np.ones(avail.size)
        else:
            filled = np.where(np.isnan(losses), np.nanmax(losses), losses)
            weights = np.maximum(filled, 0.0) ** self.power
            if not np.all(weights > 0):
                weights = weights + 1e-12
        probs = weights / weights.sum()
        n = min(ctx.min_participants, avail.size)
        pick = self.rng.choice(avail, size=n, replace=False, p=probs)
        mask = np.zeros(ctx.num_clients, dtype=bool)
        mask[pick] = True
        mask = enforce_feasibility(mask, ctx, self.rng)
        return Decision(selected=mask, iterations=self.iterations)

    def update(self, feedback: RoundFeedback) -> None:
        """Stateless; losses arrive through the context."""


@register_strategy
class DivergencePolicy(Strategy):
    """Select the n clients whose local loss diverges most from the
    population loss (model-divergence scoring)."""

    name = "Divergence"
    description = ("model-divergence scoring: EWMA of |local - population|"
                   " loss gap, top-n")
    params = (ITERATIONS, _EMA)

    def __init__(
        self, config: ExperimentConfig, rng: np.random.Generator, *,
        iterations: int, ema: float,
    ) -> None:
        num_clients = config.population.num_clients
        self.iterations = iterations
        self.ema = ema
        self.scores = np.full(num_clients, np.inf)  # unobserved: explore first

    def select(self, ctx: EpochContext) -> Decision:
        mask = enforce_feasibility(_top_n_mask(self.scores, ctx), ctx, None)
        return Decision(selected=mask, iterations=self.iterations)

    def update(self, feedback: RoundFeedback) -> None:
        losses = feedback.local_losses
        observed = ~np.isnan(losses)
        divergence = np.abs(losses - feedback.population_loss)
        fresh = ~np.isfinite(self.scores)
        new = np.where(
            fresh, divergence,
            (1.0 - self.ema) * self.scores + self.ema * divergence,
        )
        self.scores = np.where(observed, new, self.scores)
