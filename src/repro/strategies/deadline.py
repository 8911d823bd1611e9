"""Deadline filters composable with any base scorer.

Two wrappers that add FedCS-style deadline awareness to an arbitrary
registered strategy:

* :class:`HardDeadlinePolicy` — masks out clients whose projected epoch
  time ``l · τ_last`` misses the deadline, then delegates selection to
  the wrapped base policy over the survivors.  When fewer than ``n``
  clients survive, the filter relaxes to the ``n`` fastest so the
  participation floor holds.
* :class:`SoftDeadlinePolicy` — no hard cut; instead inflates each
  client's apparent rental cost by a penalty proportional to its
  projected deadline overshoot, so cost-sensitive base scorers shy away
  from stragglers without losing them entirely.

Both forward ``update`` to the base policy, so learning strategies keep
learning through the filter.  With ``deadline_s=None`` the deadline is
adaptive: a quantile of the available clients' projected epoch times,
re-estimated every epoch (the FedCS admission idiom).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.config import ExperimentConfig
from repro.strategies.base import Decision, EpochContext, RoundFeedback, enforce_feasibility
from repro.strategies.registry import (
    BASE,
    DEADLINE,
    ITERATIONS,
    ParamSpec,
    Strategy,
    build_base,
    register_strategy,
)

__all__ = ["HardDeadlinePolicy", "SoftDeadlinePolicy"]

_QUANTILE = ParamSpec(
    "quantile", default=0.6, kind=float, minimum=0.01, maximum=1.0,
    doc="latency quantile for the adaptive deadline",
)


def _projected(ctx: EpochContext, iterations: int) -> np.ndarray:
    """Projected epoch time per client from last realized latencies."""
    return iterations * ctx.tau_last


class _DeadlineFilter(Strategy):
    """Shared wrapper plumbing: naming, adaptive deadline, update relay."""

    deadline_aware = True
    randomized = True  # base default (FedAvg) samples randomly

    def __init__(
        self, config: ExperimentConfig, rng: np.random.Generator, *,
        base: str, deadline_s: Optional[float], quantile: float, iterations: int,
    ) -> None:
        self.base = build_base(base, config, rng, iterations)
        self.deadline_s = deadline_s
        self.quantile = quantile
        self.name = f"{type(self).name}({self.base.name})"
        self.iterations = getattr(self.base, "iterations", 2)

    def _deadline(self, ctx: EpochContext, projected: np.ndarray) -> float:
        if self.deadline_s is not None:
            return self.deadline_s
        pool = projected[ctx.available]
        finite = pool[np.isfinite(pool)]
        if finite.size == 0:
            return float("inf")
        return float(np.quantile(finite, self.quantile))

    def update(self, feedback: RoundFeedback) -> None:
        self.base.update(feedback)


@register_strategy
class HardDeadlinePolicy(_DeadlineFilter):
    """Admit only clients projected to meet the deadline, then delegate."""

    name = "HardDeadline"
    description = ("hard deadline filter: mask out projected stragglers,"
                   " delegate to a base scorer")
    params = (BASE, DEADLINE, _QUANTILE, ITERATIONS)

    def select(self, ctx: EpochContext) -> Decision:
        projected = _projected(ctx, self.iterations)
        deadline = self._deadline(ctx, projected)
        fast = ctx.available & (projected <= deadline)
        n = min(ctx.min_participants, int(ctx.available.sum()))
        if fast.sum() < n:
            # Relax to the n fastest so the participation floor holds.
            avail = np.flatnonzero(ctx.available)
            order = avail[np.argsort(projected[avail], kind="stable")]
            fast = fast.copy()
            fast[order[:n]] = True
        decision = self.base.select(dataclasses.replace(ctx, available=fast))
        mask = enforce_feasibility(decision.selected, ctx, None)
        return dataclasses.replace(decision, selected=mask)


@register_strategy
class SoftDeadlinePolicy(_DeadlineFilter):
    """Penalize projected deadline overshoot via inflated apparent costs."""

    name = "SoftDeadline"
    description = ("soft deadline filter: inflate apparent costs by projected"
                   " overshoot, delegate to a base scorer")
    params = (
        BASE,
        DEADLINE,
        _QUANTILE,
        ParamSpec("penalty", default=1.0, kind=float, minimum=0.0,
                  doc="cost-inflation strength per unit overshoot"),
        ITERATIONS,
    )

    def __init__(
        self, config: ExperimentConfig, rng: np.random.Generator, *,
        penalty: float, **params,
    ) -> None:
        super().__init__(config, rng, **params)
        self.penalty = penalty

    def select(self, ctx: EpochContext) -> Decision:
        projected = _projected(ctx, self.iterations)
        deadline = self._deadline(ctx, projected)
        if np.isfinite(deadline) and deadline > 0:
            overshoot = np.maximum(projected - deadline, 0.0) / deadline
            overshoot = np.where(np.isfinite(overshoot), overshoot, 0.0)
            shaped = ctx.costs * (1.0 + self.penalty * overshoot)
        else:
            shaped = ctx.costs
        decision = self.base.select(dataclasses.replace(ctx, costs=shaped))
        # Repair against the *real* prices, not the shaped ones.
        mask = enforce_feasibility(decision.selected, ctx, None)
        return dataclasses.replace(decision, selected=mask)
