"""Selection-policy protocol shared by FedL and all baselines.

The experiment runner drives every policy through the same two-phase
cycle per epoch ``t``:

1. ``select(ctx)`` — the policy returns a :class:`Decision` (participant
   mask + number of global iterations) using only information available
   *before* the epoch runs (0-lookahead: ``ctx`` carries the **previous**
   epoch's realized latencies/losses, never the current ones).
2. the runner executes the epoch and calls ``update(feedback)`` with the
   realized observables so the policy can learn.

``ctx.tau_oracle`` is the one deliberate exception: the true
current-epoch per-iteration latencies, provided *only* for the oracle
baseline and lookahead ablations.  The runner builds it only for a
policy that declares ``needs_oracle`` (every other one sees ``None``),
and ``tests/test_strategy_properties.py`` checks that no other
registered strategy's decision moves with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "EpochContext", "Decision", "RoundFeedback", "SelectionPolicy",
    "enforce_feasibility",
]


@dataclass(frozen=True)
class EpochContext:
    """Everything a 0-lookahead policy may see before epoch ``t`` runs."""

    t: int                          # epoch index (0-based)
    available: np.ndarray           # (M,) bool — E_t is announced up front
    costs: np.ndarray               # (M,) current rental prices c_{t,k}
    remaining_budget: float         # C minus spend so far
    min_participants: int           # n
    tau_last: np.ndarray            # (M,) last realized per-iteration latency
                                    #       (prior estimate at t=0)
    local_losses: np.ndarray        # (M,) last local losses at current w
                                    #       (NaN where never observed)
    tau_oracle: Optional[np.ndarray] = None   # true τ of THIS epoch (oracle only)
    reliability: Optional[np.ndarray] = None  # (M,) in [0,1]; EWMA of clean
                                              #       rounds (defense active only)

    def __post_init__(self) -> None:
        m = np.asarray(self.available).size
        for name in ("available", "costs", "tau_last", "local_losses"):
            arr = np.asarray(getattr(self, name))
            if arr.shape != (m,):
                raise ValueError(f"{name} must have shape ({m},)")
        object.__setattr__(self, "available", np.asarray(self.available, dtype=bool))
        for name in ("costs", "tau_last", "local_losses"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.tau_oracle is not None:
            arr = np.asarray(self.tau_oracle, dtype=float)
            if arr.shape != (m,):
                raise ValueError("tau_oracle shape mismatch")
            object.__setattr__(self, "tau_oracle", arr)
        if self.reliability is not None:
            arr = np.asarray(self.reliability, dtype=float)
            if arr.shape != (m,):
                raise ValueError("reliability shape mismatch")
            if np.any(arr < 0.0) or np.any(arr > 1.0):
                raise ValueError("reliability must lie in [0, 1]")
            object.__setattr__(self, "reliability", arr)
        if self.min_participants < 1:
            raise ValueError("min_participants must be >= 1")

    @property
    def num_clients(self) -> int:
        return self.available.size

    def affordable(self, mask: np.ndarray) -> bool:
        """True if renting ``mask`` fits the remaining budget."""
        return float(self.costs[np.asarray(mask, dtype=bool)].sum()) <= self.remaining_budget + 1e-9


@dataclass(frozen=True)
class Decision:
    """A policy's output for one epoch.

    ``quorum`` enables over-selection straggler mitigation: when set to
    ``q < selected.sum()``, the epoch ends as soon as the ``q`` fastest
    participants finish — the remaining (rented, paid) stragglers' updates
    are discarded.  ``None`` means everyone must finish (the paper's
    synchronous model).
    """

    selected: np.ndarray            # (M,) bool participant mask
    iterations: int                 # l_t global iterations this epoch
    rho: float = float("nan")       # fractional ρ_t (FedL diagnostic)
    fractional_x: Optional[np.ndarray] = None   # pre-rounding x̃ (diagnostic)
    quorum: Optional[int] = None    # straggler-mitigation quorum

    def __post_init__(self) -> None:
        sel = np.asarray(self.selected, dtype=bool)
        object.__setattr__(self, "selected", sel)
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not sel.any():
            raise ValueError("a decision must select at least one client")
        if self.quorum is not None and self.quorum < 1:
            raise ValueError("quorum must be >= 1 when set")


@dataclass(frozen=True)
class RoundFeedback:
    """Realized observables handed back to the policy after the epoch."""

    t: int
    selected: np.ndarray            # what actually ran (post-rounding)
    tau_realized: np.ndarray        # (M,) true per-iteration latency this epoch
    local_etas: np.ndarray          # (M,) η̂_{t,k}; NaN for non-participants
    local_losses: np.ndarray        # (M,) F_{t,k}(w) after the epoch (NaN unavailable)
    population_loss: float          # F_t(w^{l_t}) over available clients
    cost_spent: float
    epoch_latency: float            # max over participants of l_t·τ

    def __post_init__(self) -> None:
        object.__setattr__(self, "selected", np.asarray(self.selected, dtype=bool))
        for name in ("tau_realized", "local_etas", "local_losses"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))


@runtime_checkable
class SelectionPolicy(Protocol):
    """Protocol implemented by FedL and every baseline."""

    name: str

    def select(self, ctx: EpochContext) -> Decision:
        """Choose participants and iteration count for the coming epoch."""
        ...

    def update(self, feedback: RoundFeedback) -> None:
        """Ingest the epoch's realized observables."""
        ...


def enforce_feasibility(
    mask: np.ndarray,
    ctx: EpochContext,
    rng: np.random.Generator,
) -> np.ndarray:
    """Repair a selection so it is feasible: available-only, >= n clients,
    within budget.  Shared by all policies.

    Repairs, in order: drop unavailable picks; top up to ``n`` with the
    cheapest unselected available clients; drop the most expensive extras
    (never below ``n``) while over budget.  If even the ``n`` cheapest
    available clients exceed the remaining budget the selection is returned
    over budget — the runner then terminates the FL process (budget
    exhausted, paper Alg. 1 line 1).
    """
    sel = np.asarray(mask, dtype=bool).copy()
    sel &= ctx.available
    n = ctx.min_participants
    avail_idx = np.flatnonzero(ctx.available)
    # Top up to n with cheapest available.
    if sel.sum() < n:
        candidates = avail_idx[~sel[avail_idx]]
        order = candidates[np.argsort(ctx.costs[candidates], kind="stable")]
        need = n - int(sel.sum())
        sel[order[:need]] = True
    # Trim while over budget (keep at least n).
    while sel.sum() > n and float(ctx.costs[sel].sum()) > ctx.remaining_budget:
        chosen = np.flatnonzero(sel)
        worst = chosen[np.argmax(ctx.costs[chosen])]
        sel[worst] = False
    return sel
