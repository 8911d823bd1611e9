"""Per-slot offline oracle (regret reference; deliberately 1-lookahead).

Selects, with knowledge of the TRUE current-epoch latencies
(``ctx.tau_oracle``), the feasible n-subset minimizing the epoch latency
``max_k τ_k`` subject to the budget — i.e. the per-slot optimum of the
paper's objective (2) for a fixed iteration count.  Because latency is a
max, the optimal n-subset under a budget can be found by a sweep: sort by
τ; for each prefix-defining slowest client, take the cheapest n clients no
slower; feasible candidates are compared by their slowest member.

This is the comparator ``Φ*_t`` in the dynamic-regret definition
(Sec. 5): honest online policies are measured against it.
"""

from __future__ import annotations

import numpy as np

from repro.config import ExperimentConfig
from repro.strategies.base import Decision, EpochContext, RoundFeedback, enforce_feasibility
from repro.strategies.registry import ITERATIONS, Strategy, register_strategy

__all__ = ["GreedyOraclePolicy", "best_subset_max_latency"]


def best_subset_max_latency(
    tau: np.ndarray,
    costs: np.ndarray,
    n: int,
    budget: float,
) -> np.ndarray | None:
    """Cheapest-feasible minimizer of ``max_k τ_k`` over n-subsets.

    Returns a boolean mask, or ``None`` if no n-subset fits the budget.
    Sweep over the candidate slowest client in increasing-τ order; for the
    prefix of clients at least as fast, the cheapest n form the best
    subset with that max-latency; the first affordable one wins.
    """
    tau = np.asarray(tau, dtype=float)
    costs = np.asarray(costs, dtype=float)
    m = tau.size
    if not (1 <= n <= m):
        return None
    order = np.argsort(tau, kind="stable")
    for j in range(n - 1, m):
        prefix = order[: j + 1]
        cheap = prefix[np.argsort(costs[prefix], kind="stable")[:n]]
        if float(costs[cheap].sum()) <= budget + 1e-9:
            mask = np.zeros(m, dtype=bool)
            mask[cheap] = True
            return mask
    return None


@register_strategy
class GreedyOraclePolicy(Strategy):
    """Per-slot optimal selection with true current-epoch latencies."""

    name = "Oracle"
    description = ("1-lookahead greedy: best subset under the true latencies"
                   " of the coming epoch")
    params = (ITERATIONS,)
    budget_aware = True
    needs_oracle = True

    def __init__(
        self, config: ExperimentConfig, rng: np.random.Generator, *,
        iterations: int,
    ) -> None:
        self.rng = rng
        self.iterations = iterations

    def select(self, ctx: EpochContext) -> Decision:
        if ctx.tau_oracle is None:
            raise ValueError("GreedyOraclePolicy requires ctx.tau_oracle")
        avail = np.flatnonzero(ctx.available)
        sub = best_subset_max_latency(
            ctx.tau_oracle[avail],
            ctx.costs[avail],
            min(ctx.min_participants, avail.size),
            ctx.remaining_budget,
        )
        mask = np.zeros(ctx.num_clients, dtype=bool)
        if sub is not None:
            mask[avail[sub]] = True
        else:
            # Budget exhausted for any n-subset: fall back to cheapest n;
            # the runner will detect overspend and stop.
            cheapest = avail[np.argsort(ctx.costs[avail])[: ctx.min_participants]]
            mask[cheapest] = True
        mask = enforce_feasibility(mask, ctx, self.rng)
        return Decision(selected=mask, iterations=self.iterations)

    def update(self, feedback: RoundFeedback) -> None:
        """Oracle is stateless."""
