"""Power-of-choice selection baseline (Cho et al. [5]).

Pow-d samples a candidate set of ``d`` available clients uniformly at
random, then keeps the ``n`` candidates with the **largest** current local
losses — biasing participation toward clients the model currently serves
worst ("emphasizes selection fairness ... selects clients with larger
local losses").

Local losses come from ``ctx.local_losses``, i.e. the most recent
observation of each client's loss at the current global model (NaN for
clients never yet probed; NaNs rank last).
"""

from __future__ import annotations

import numpy as np

from repro.config import ExperimentConfig
from repro.strategies.base import Decision, EpochContext, RoundFeedback, enforce_feasibility
from repro.strategies.registry import ITERATIONS, ParamSpec, Strategy, register_strategy

__all__ = ["PowDPolicy"]


@register_strategy
class PowDPolicy(Strategy):
    """Sample d candidates, keep the n with the largest local loss."""

    name = "Pow-d"
    description = ("power-of-d-choices: sample d candidates, keep the n with"
                   " the highest observed loss")
    params = (
        ParamSpec("d", kind=int, minimum=1,
                  derive=lambda config: 3 * config.min_participants,
                  doc="candidate pool size (default 3n)"),
        ITERATIONS,
    )
    randomized = True

    def __init__(
        self, config: ExperimentConfig, rng: np.random.Generator, *,
        d: int, iterations: int,
    ) -> None:
        self.rng = rng
        self.d = d
        self.iterations = iterations

    def select(self, ctx: EpochContext) -> Decision:
        avail = np.flatnonzero(ctx.available)
        d = min(self.d, avail.size)
        candidates = self.rng.choice(avail, size=d, replace=False)
        losses = ctx.local_losses[candidates]
        # NaN (never observed) sorts last: replace with -inf so observed
        # high-loss clients win; if everything is NaN fall back to random.
        keyed = np.where(np.isnan(losses), -np.inf, losses)
        n = min(ctx.min_participants, d)
        top = candidates[np.argsort(-keyed, kind="stable")[:n]]
        mask = np.zeros(ctx.num_clients, dtype=bool)
        mask[top] = True
        mask = enforce_feasibility(mask, ctx, self.rng)
        return Decision(selected=mask, iterations=self.iterations)

    def update(self, feedback: RoundFeedback) -> None:
        """Stateless; losses arrive through the context."""
