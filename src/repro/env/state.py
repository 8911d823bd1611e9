"""Flat preallocated per-client state for the experiment hot loop.

At K = 10⁵⁻⁶ clients, per-client Python objects (dicts of scalars,
re-allocated ``np.where`` results every epoch) dominate the runner's
footprint and thrash the allocator.  :class:`ClientStateArrays` keeps
every mutable per-client quantity the experiment loop tracks in one flat
numpy array per field, preallocated once, with vectorized in-place
update methods (``np.copyto(..., where=...)`` instead of fresh
``np.where`` arrays).

The update methods reproduce the legacy runner's formulas **exactly**
(same elementwise operations, same masking), property-tested against
recorded trajectories in ``tests/test_shard.py``.

Arrays handed out (e.g. into an :class:`~repro.strategies.base.
EpochContext`) are live views: they reflect later in-place updates.
Policies read them synchronously inside ``select``/``update``, so
trajectories are unchanged; callers that stash state across epochs must
copy.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ClientStateArrays"]


class ClientStateArrays:
    """One flat numpy array per mutable per-client field.

    Fields (every one but ``num_clients`` rides a snapshot's state.npz):

    * ``costs`` — this epoch's realized rental prices c_{t,k},
    * ``tau_last`` — last realized per-iteration latency (0-lookahead),
    * ``local_losses`` — last observed local loss (NaN never observed),
    * ``reliability`` — EWMA of clean (unquarantined) rounds,
    * ``cum_selected`` — how many epochs each client has been rented,
    * ``spend`` — cumulative rent paid to each client.
    """

    __slots__ = (
        "num_clients",
        "costs",
        "tau_last",
        "local_losses",
        "reliability",
        "cum_selected",
        "spend",
    )

    def __init__(self, num_clients: int, tau_prior: float = 1.0) -> None:
        if num_clients < 1:
            raise ValueError("need at least one client")
        k = int(num_clients)
        self.num_clients = k
        self.costs = np.zeros(k)
        self.tau_last = np.full(k, float(tau_prior))
        self.local_losses = np.full(k, np.nan)
        self.reliability = np.ones(k)
        self.cum_selected = np.zeros(k, dtype=np.int64)
        self.spend = np.zeros(k)

    # ------------------------------------------------------------- per-epoch --

    def observe_latency(self, tau_real: np.ndarray, available: np.ndarray) -> None:
        """Legacy ``tau_last = np.where(available, tau_real, tau_last)``,
        without the fresh array."""
        np.copyto(self.tau_last, tau_real, where=available)

    def observe_losses(self, new_losses: np.ndarray) -> None:
        """Legacy ``np.where(np.isnan(new), old, new)`` merge, in place."""
        np.copyto(self.local_losses, new_losses, where=~np.isnan(new_losses))

    def observe_reliability(
        self,
        contributors: np.ndarray,
        clean: np.ndarray,
        ema: float,
    ) -> None:
        """Legacy masked EWMA: ``r[c] = (1−ema)·r[c] + ema·clean[c]``."""
        self.reliability[contributors] = (
            (1.0 - ema) * self.reliability[contributors]
            + ema * clean[contributors]
        )

    def charge(self, selected: np.ndarray, costs: np.ndarray) -> None:
        """Account one epoch's rentals: selection counts + spend."""
        self.cum_selected[selected] += 1
        self.spend[selected] += costs[selected]
