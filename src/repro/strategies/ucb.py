"""UCB multi-armed-bandit client selection (the paper's reference [30]
class: Xia et al., "Multi-armed bandit-based client scheduling for
federated learning").

Each client is an arm; pulling it (selecting it) reveals its
per-iteration latency, and the reward is the negative latency.  Per
epoch the policy picks the ``n`` available arms with the highest upper
confidence bound

    UCB_k = r̄_k + c · sqrt( ln(t+1) / N_k ),

with never-pulled arms ranked first (infinite bonus).  Honest bandit
feedback: only *participants'* realized latencies update the statistics —
unlike FedL, the policy does not use the passively-observed latencies of
unselected clients, which is exactly the exploration/exploitation
handicap the bandit formulation carries.
"""

from __future__ import annotations

import numpy as np

from repro.config import ExperimentConfig
from repro.strategies.base import Decision, EpochContext, RoundFeedback, enforce_feasibility
from repro.strategies.registry import ITERATIONS, ParamSpec, Strategy, register_strategy

__all__ = ["UCBPolicy"]


@register_strategy
class UCBPolicy(Strategy):
    """UCB1 over clients with negative-latency rewards."""

    name = "UCB"
    description = "combinatorial UCB over per-client latency rewards"
    params = (
        ParamSpec("exploration", default=0.5, kind=float, minimum=0.0,
                  doc="width of the confidence bonus"),
        ITERATIONS,
    )
    randomized = True  # epsilon jitter breaks score ties

    def __init__(
        self, config: ExperimentConfig, rng: np.random.Generator, *,
        exploration: float, iterations: int,
    ) -> None:
        num_clients = config.population.num_clients
        self.rng = rng
        self.exploration = exploration
        self.iterations = iterations
        self.pulls = np.zeros(num_clients, dtype=np.int64)
        self.mean_reward = np.zeros(num_clients)
        self.t = 0

    def _scores(self, available: np.ndarray) -> np.ndarray:
        bonus = np.where(
            self.pulls > 0,
            self.exploration
            * np.sqrt(np.log(self.t + 1.0) / np.maximum(self.pulls, 1)),
            np.inf,
        )
        scores = self.mean_reward + bonus
        return np.where(available, scores, -np.inf)

    def select(self, ctx: EpochContext) -> Decision:
        scores = self._scores(ctx.available)
        n = min(ctx.min_participants, int(ctx.available.sum()))
        # Random tie-breaking among equal scores (e.g. many unexplored arms).
        jitter = self.rng.random(scores.size) * 1e-9
        order = np.argsort(-(scores + jitter), kind="stable")
        mask = np.zeros(ctx.num_clients, dtype=bool)
        mask[order[:n]] = True
        mask = enforce_feasibility(mask, ctx, self.rng)
        return Decision(selected=mask, iterations=self.iterations)

    def update(self, feedback: RoundFeedback) -> None:
        self.t += 1
        sel = np.flatnonzero(feedback.selected)
        for k in sel:
            reward = -float(feedback.tau_realized[k])
            self.pulls[k] += 1
            self.mean_reward[k] += (reward - self.mean_reward[k]) / self.pulls[k]
