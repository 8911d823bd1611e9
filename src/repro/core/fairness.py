"""Fairness-aware client selection — the paper's stated future work.

The paper closes with "We will consider selection fairness to further
expand the CS capabilities".  This module implements that extension in the
same online toolbox the paper uses:

* :class:`ParticipationTracker` — long-term participation accounting:
  per-client selection counts/rates and Jain's fairness index
  ``(Σp)² / (M Σp²)`` (1 = perfectly even participation).
* :class:`FairFedLPolicy` — FedL plus a **virtual-queue** fairness bias
  (the standard Lyapunov device for long-term constraints, the same
  family as the paper's dual ascent): each client carries a queue
  ``Q_k ← [Q_k + r_min − 1{selected}]⁺`` measuring its deficit against a
  target participation rate ``r_min``; before rounding, the fractional
  selection is biased by ``κ · Q_k`` (normalized), so chronically
  under-selected available clients get pulled in.  With ``κ = 0`` the
  policy reduces exactly to FedL.
"""

from __future__ import annotations

import numpy as np

from repro.core.fedl import FedLPolicy
from repro.strategies.base import Decision, EpochContext, RoundFeedback
from repro.strategies.registry import ParamSpec, register_strategy

__all__ = ["ParticipationTracker", "FairFedLPolicy", "jain_index"]


def jain_index(values: np.ndarray) -> float:
    """Jain's fairness index of nonnegative values: ``(Σv)²/(n Σv²)``.

    1 when all values are equal; → 1/n when one value dominates.
    Defined as 1.0 for the all-zeros vector (vacuously fair).
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("values must be a nonempty 1-D array")
    if np.any(v < 0):
        raise ValueError("values must be nonnegative")
    denom = v.size * float(v @ v)
    if denom == 0.0:
        return 1.0
    return float(v.sum()) ** 2 / denom


class ParticipationTracker:
    """Long-term participation accounting for a fixed fleet."""

    def __init__(self, num_clients: int) -> None:
        if num_clients < 1:
            raise ValueError("need at least one client")
        self.counts = np.zeros(num_clients, dtype=np.int64)
        self.available_epochs = np.zeros(num_clients, dtype=np.int64)
        self.epochs = 0

    def record(self, selected: np.ndarray, available: np.ndarray) -> None:
        sel = np.asarray(selected, dtype=bool)
        avail = np.asarray(available, dtype=bool)
        if sel.shape != (self.counts.size,) or avail.shape != sel.shape:
            raise ValueError("mask shape mismatch")
        self.counts += sel
        self.available_epochs += avail
        self.epochs += 1

    def rates(self) -> np.ndarray:
        """Participation rate per client over epochs it was available."""
        denom = np.maximum(self.available_epochs, 1)
        return self.counts / denom

    def fairness(self) -> float:
        """Jain's index of the participation rates."""
        if self.epochs == 0:
            return 1.0
        return jain_index(self.rates())


@register_strategy
class FairFedLPolicy(FedLPolicy):
    """FedL with a virtual-queue long-term fairness bias."""

    name = "Fair-FedL"
    description = "FedL plus a virtual-queue participation-fairness bias"
    params = (
        ParamSpec("fair_rate", default=0.1, kind=float,
                  minimum=0.0, maximum=0.999,
                  doc="target long-term participation rate per client"),
        ParamSpec("fairness_weight", default=0.5, kind=float, minimum=0.0,
                  doc="virtual-queue bias strength (0 = plain FedL)"),
    )

    def __init__(
        self, *args, fair_rate: float, fairness_weight: float, **kwargs
    ) -> None:
        super().__init__(*args, **kwargs)
        self.fair_rate = fair_rate
        self.fairness_weight = fairness_weight
        m = self.eta_hat.size
        self.queues = np.zeros(m)
        self.tracker = ParticipationTracker(m)
        self._last_available: np.ndarray | None = None

    def select(self, ctx: EpochContext) -> Decision:
        phi, x_frac = self.fractional_decision(ctx)
        # Virtual-queue bias: normalize queues to [0, 1] and blend in.
        if self.fairness_weight > 0 and self.queues.max() > 0:
            bias = self.queues / self.queues.max()
            x_frac = np.where(
                ctx.available,
                np.clip(x_frac + self.fairness_weight * bias, 0.0, 1.0),
                0.0,
            )
        self._last_available = ctx.available.copy()
        return self._round_and_repair(phi, x_frac, ctx)

    def update(self, feedback: RoundFeedback) -> None:
        super().update(feedback)
        avail = (
            self._last_available
            if self._last_available is not None
            else np.ones_like(feedback.selected)
        )
        self.tracker.record(feedback.selected, avail)
        # Q_k ← [Q_k + r_min·1{available} − 1{selected}]⁺
        self.queues = np.maximum(
            self.queues
            + self.fair_rate * avail.astype(float)
            - feedback.selected.astype(float),
            0.0,
        )
