"""Over-selection straggler mitigation (wrapper policy).

Synchronous FL pays for its slowest participant (paper eq. 2).  A classic
mitigation is to rent ``extra`` additional clients and stop the round
once the original quorum has uploaded — trading rental cost for latency
tail-cutting, and hedging against mid-round crashes.

:class:`OverSelectPolicy` wraps any registered base policy: it forwards
the base decision with ``extra`` additional fastest-estimated clients
appended and the quorum set to the base selection size.  The experiment
runner implements the quorum semantics (epoch latency = quorum-th fastest
participant; only the quorum's updates aggregate).
"""

from __future__ import annotations

import numpy as np

from repro.config import ExperimentConfig
from repro.strategies.base import Decision, EpochContext, RoundFeedback
from repro.strategies.registry import (
    BASE,
    ITERATIONS,
    ParamSpec,
    Strategy,
    build_base,
    register_strategy,
)

__all__ = ["OverSelectPolicy"]


@register_strategy
class OverSelectPolicy(Strategy):
    """Wrap a base policy with rent-extra / take-fastest-quorum semantics."""

    name = "OverSelect"
    description = ("over-selection straggler mitigation around a base scorer:"
                   " rent extra clients, keep the base quorum's fastest")
    params = (
        BASE,
        ParamSpec("extra", default=2, kind=int, minimum=1,
                  doc="additional clients rented beyond the base quorum"),
        ITERATIONS,
    )
    randomized = True  # base default (FedAvg) samples randomly

    def __init__(
        self, config: ExperimentConfig, rng: np.random.Generator, *,
        base: str, extra: int, iterations: int,
    ) -> None:
        self.base = build_base(base, config, rng, iterations)
        self.extra = extra
        self.name = f"{self.base.name}+over{extra}"

    def select(self, ctx: EpochContext) -> Decision:
        decision = self.base.select(ctx)
        mask = decision.selected.copy()
        quorum = int(mask.sum())
        # Add the `extra` fastest-estimated unselected available clients
        # that still fit the budget.
        candidates = np.flatnonzero(ctx.available & ~mask)
        order = candidates[np.argsort(ctx.tau_last[candidates], kind="stable")]
        spend = float(ctx.costs[mask].sum())
        added = 0
        for k in order:
            if added >= self.extra:
                break
            if spend + ctx.costs[k] > ctx.remaining_budget:
                continue
            mask[k] = True
            spend += ctx.costs[k]
            added += 1
        return Decision(
            selected=mask,
            iterations=decision.iterations,
            rho=decision.rho,
            fractional_x=decision.fractional_x,
            quorum=quorum,
        )

    def update(self, feedback: RoundFeedback) -> None:
        self.base.update(feedback)
