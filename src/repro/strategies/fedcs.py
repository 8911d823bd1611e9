"""FedCS selection baseline (Nishio & Yonetani [21]).

"Selects as many clients as possible to train and terminates the model
training upon a fixed deadline in each epoch."  Greedy packing: sort
available clients by their (estimated) per-iteration latency and admit
clients, fastest first, while the epoch (``iterations ×`` the slowest
admitted client's latency) still meets the deadline and the budget allows.

0-lookahead version: latency estimates are last epoch's realizations
(``ctx.tau_last``), exactly like FedL sees.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import ExperimentConfig
from repro.strategies.base import Decision, EpochContext, RoundFeedback, enforce_feasibility
from repro.strategies.registry import (
    DEADLINE, ITERATIONS, ParamSpec, Strategy, register_strategy,
)

__all__ = ["FedCSPolicy"]


@register_strategy
class FedCSPolicy(Strategy):
    """Deadline-constrained greedy max-participation."""

    name = "FedCS"
    description = "deadline-greedy admission of the fastest clients"
    params = (
        DEADLINE,
        ITERATIONS,
        ParamSpec("adaptive_quantile", default=0.6, kind=float,
                  minimum=0.01, maximum=1.0,
                  doc="latency quantile for the adaptive deadline"),
    )
    deadline_aware = True

    def __init__(
        self, config: ExperimentConfig, rng: np.random.Generator, *,
        deadline_s: Optional[float], iterations: int, adaptive_quantile: float,
    ) -> None:
        self.rng = rng
        self.deadline_s = deadline_s
        self.iterations = iterations
        self.adaptive_quantile = adaptive_quantile

    def _deadline(self, ctx: EpochContext) -> float:
        """Fixed deadline if configured, else an adaptive one.

        The original FedCS tunes its deadline to the deployment; absent
        that tuning we set it at the ``adaptive_quantile`` of the latest
        latency estimates, so FedCS admits "as many clients as possible"
        short of the stragglers — the behaviour the paper describes.
        """
        if self.deadline_s is not None:
            return self.deadline_s
        tau = ctx.tau_last[ctx.available]
        return self.iterations * float(np.quantile(tau, self.adaptive_quantile))

    def select(self, ctx: EpochContext) -> Decision:
        avail = np.flatnonzero(ctx.available)
        tau = ctx.tau_last[avail]
        order = avail[np.argsort(tau, kind="stable")]
        mask = np.zeros(ctx.num_clients, dtype=bool)
        spend = 0.0
        deadline = self._deadline(ctx)
        for k in order:
            # Admitting k makes k the slowest so far (sorted order).
            epoch_time = self.iterations * ctx.tau_last[k]
            if mask.sum() >= ctx.min_participants and (
                epoch_time > deadline
                or spend + ctx.costs[k] > ctx.remaining_budget
            ):
                break
            mask[k] = True
            spend += ctx.costs[k]
        mask = enforce_feasibility(mask, ctx, self.rng)
        return Decision(selected=mask, iterations=self.iterations)

    def update(self, feedback: RoundFeedback) -> None:
        """FedCS keeps no internal state (estimates flow in via ctx)."""
