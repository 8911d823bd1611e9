"""FedAvg selection baseline (McMahan et al. [19]).

"The server randomly selects participants to train the model" — uniform
random choice of ``n`` available clients per epoch, fixed iteration count.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import ExperimentConfig
from repro.strategies.base import Decision, EpochContext, RoundFeedback, enforce_feasibility
from repro.strategies.registry import ITERATIONS, ParamSpec, Strategy, register_strategy

__all__ = ["FedAvgPolicy"]


@register_strategy
class FedAvgPolicy(Strategy):
    """Uniform random n-client selection."""

    name = "FedAvg"
    description = "uniform random sampling of n available clients"
    params = (
        ITERATIONS,
        ParamSpec("sample_size", kind=int, minimum=1, optional=True,
                  doc="clients to draw per epoch (default: exactly n)"),
    )
    randomized = True

    def __init__(
        self, config: ExperimentConfig, rng: np.random.Generator, *,
        iterations: int, sample_size: Optional[int],
    ) -> None:
        self.rng = rng
        self.iterations = iterations
        self.sample_size = sample_size  # None: exactly n

    def select(self, ctx: EpochContext) -> Decision:
        avail = np.flatnonzero(ctx.available)
        want = self.sample_size if self.sample_size is not None else ctx.min_participants
        want = min(max(want, ctx.min_participants), avail.size)
        pick = self.rng.choice(avail, size=want, replace=False)
        mask = np.zeros(ctx.num_clients, dtype=bool)
        mask[pick] = True
        mask = enforce_feasibility(mask, ctx, self.rng)
        return Decision(selected=mask, iterations=self.iterations)

    def update(self, feedback: RoundFeedback) -> None:
        """FedAvg is stateless."""
