"""Budget-constrained selection strategies (Snippet-2 family).

Two zoo members that treat each epoch's selection as a knapsack over the
remaining rental budget:

* :class:`GreedyUtilityPolicy` — rank clients by utility density
  (observed local loss per unit rental cost) and greedily admit while
  the epoch's spending cap holds.
* :class:`KnapsackDPPolicy` — solve the same problem exactly with a 0/1
  knapsack dynamic program over discretized costs, maximizing summed
  utility under the cap.

Both declare ``budget_aware``: whenever the ``n`` cheapest available
clients fit the remaining budget, the returned selection's rental cost
fits too (the property-test suite enforces exactly this contract).  The
per-epoch cap spreads the remaining budget over the epochs still to run,
but never drops below the cost of the cheapest feasible quorum.
"""

from __future__ import annotations

import numpy as np

from repro.config import ExperimentConfig
from repro.strategies.base import Decision, EpochContext, RoundFeedback
from repro.strategies.registry import ITERATIONS, ParamSpec, Strategy, register_strategy

__all__ = ["GreedyUtilityPolicy", "KnapsackDPPolicy"]

_BUDGET_FRAC = ParamSpec(
    "budget_frac", default=0.05, kind=float, minimum=0.001, maximum=1.0,
    doc="fraction of remaining budget spendable per epoch",
)


def _epoch_cap(ctx: EpochContext, budget_frac: float) -> float:
    """Per-epoch spending cap: a fraction of the remaining budget, but
    always at least the cheapest feasible quorum."""
    avail = np.flatnonzero(ctx.available)
    n = min(ctx.min_participants, avail.size)
    cheapest = np.sort(ctx.costs[avail])[:n].sum()
    return max(budget_frac * ctx.remaining_budget, cheapest)


def _utilities(ctx: EpochContext) -> np.ndarray:
    """Per-client utility: observed local loss, optimistic for unseen."""
    losses = ctx.local_losses
    if np.all(np.isnan(losses)):
        return np.ones(ctx.num_clients)
    return np.where(np.isnan(losses), np.nanmax(losses), losses)


def _finalize(
    chosen: np.ndarray, cap: float, ctx: EpochContext
) -> np.ndarray:
    """Repair a candidate set to the floor/budget contract.

    Top up to ``n`` with the cheapest unchosen clients; if the result
    exceeds both the cap and the remaining budget, fall back to the
    ``n`` cheapest outright (the only affordable quorum, if any is).
    """
    avail = np.flatnonzero(ctx.available)
    n = min(ctx.min_participants, avail.size)
    mask = np.zeros(ctx.num_clients, dtype=bool)
    mask[chosen] = True
    if mask.sum() < n:
        rest = avail[~mask[avail]]
        rest = rest[np.argsort(ctx.costs[rest], kind="stable")]
        mask[rest[: n - int(mask.sum())]] = True
    spend = ctx.costs[mask].sum()
    if spend > cap and spend > ctx.remaining_budget:
        cheap = avail[np.argsort(ctx.costs[avail], kind="stable")[:n]]
        mask = np.zeros(ctx.num_clients, dtype=bool)
        mask[cheap] = True
    return mask


@register_strategy
class GreedyUtilityPolicy(Strategy):
    """Greedy utility-per-cost selection under a per-epoch budget cap."""

    name = "GreedyUtility"
    description = ("greedy loss-per-cost selection under a per-epoch"
                   " budget cap")
    params = (
        ITERATIONS,
        _BUDGET_FRAC,
        ParamSpec("max_extra", default=2, kind=int, minimum=0,
                  doc="clients admittable beyond the quorum n"),
    )
    budget_aware = True

    def __init__(
        self, config: ExperimentConfig, rng: np.random.Generator, *,
        iterations: int, budget_frac: float, max_extra: int,
    ) -> None:
        self.iterations = iterations
        self.budget_frac = budget_frac
        self.max_extra = max_extra

    def select(self, ctx: EpochContext) -> Decision:
        avail = np.flatnonzero(ctx.available)
        n = min(ctx.min_participants, avail.size)
        cap = _epoch_cap(ctx, self.budget_frac)
        density = _utilities(ctx)[avail] / np.maximum(ctx.costs[avail], 1e-12)
        order = avail[np.argsort(-density, kind="stable")]
        chosen, spend = [], 0.0
        limit = n + self.max_extra
        for k in order:
            if len(chosen) >= limit:
                break
            if spend + ctx.costs[k] <= cap or len(chosen) < n:
                chosen.append(k)
                spend += ctx.costs[k]
        mask = _finalize(np.asarray(chosen, dtype=int), cap, ctx)
        return Decision(selected=mask, iterations=self.iterations)

    def update(self, feedback: RoundFeedback) -> None:
        """Stateless; utilities arrive through the context."""


@register_strategy
class KnapsackDPPolicy(Strategy):
    """Exact 0/1 knapsack selection over discretized rental costs."""

    name = "KnapsackDP"
    description = ("exact 0/1 knapsack over discretized rental costs,"
                   " maximizing summed utility under a per-epoch cap")
    params = (
        ITERATIONS,
        _BUDGET_FRAC,
        ParamSpec("resolution", default=64, kind=int, minimum=2,
                  doc="cost-discretization buckets for the DP table"),
    )
    budget_aware = True

    def __init__(
        self, config: ExperimentConfig, rng: np.random.Generator, *,
        iterations: int, budget_frac: float, resolution: int,
    ) -> None:
        self.iterations = iterations
        self.budget_frac = budget_frac
        self.resolution = resolution

    def select(self, ctx: EpochContext) -> Decision:
        avail = np.flatnonzero(ctx.available)
        cap = _epoch_cap(ctx, self.budget_frac)
        # Ceil-discretize so integer weights over-count real cost: any DP
        # solution within integer capacity is within the real cap too.
        unit = max(cap / self.resolution, 1e-12)
        weights = np.ceil(ctx.costs[avail] / unit).astype(int)
        capacity = self.resolution
        values = _utilities(ctx)[avail]
        best = np.zeros(capacity + 1)
        keep = np.zeros((avail.size, capacity + 1), dtype=bool)
        for i in range(avail.size):
            w, v = weights[i], values[i]
            if w <= capacity:
                cand = best[: capacity - w + 1] + v
                upgraded = cand > best[w:]
                keep[i, w:] = upgraded
                best[w:] = np.where(upgraded, cand, best[w:])
        chosen = []
        c = capacity
        for i in range(avail.size - 1, -1, -1):
            if keep[i, c]:
                chosen.append(avail[i])
                c -= weights[i]
        mask = _finalize(np.asarray(chosen, dtype=int), cap, ctx)
        return Decision(selected=mask, iterations=self.iterations)

    def update(self, feedback: RoundFeedback) -> None:
        """Stateless; utilities arrive through the context."""
