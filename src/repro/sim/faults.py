"""Fault layer for the event-driven runtime: dropouts, flaky uplinks, retries.

Three fault mechanisms compose inside a simulated round:

* **Mid-round dropout** — a client leaves the round permanently (battery,
  churn).  Dropout instants are exponential with a per-round hazard
  ``λ``: the probability of surviving a whole round is ``exp(−λ)``.  When
  the experiment uses the Markov availability chain, the hazard should
  come from :meth:`repro.env.availability.MarkovAvailabilityProcess.
  intra_round_hazard`, so intra-round churn is *sojourn-consistent* with
  the epoch-granular chain instead of a second, unrelated model.
* **Transient upload failure** — each upload attempt independently fails
  with probability ``upload_failure_prob``; the client retries after an
  exponential backoff ``retry_backoff_s · 2^(attempt−1)`` up to
  ``max_retries`` times, then drops out of the round (reason
  ``"upload_failed"``).
* **Deadline timeout** — handled by the server's aggregation policy (see
  :mod:`repro.sim.entities`); stragglers that miss a per-iteration
  deadline are dropped with reason ``"deadline"``.

Every drop shrinks the surviving participant set; the round degrades
gracefully until the paper's participation floor (constraint (3b)) would
be violated, at which point :class:`ParticipationFloorError` — a *typed*
error — is raised instead of silently continuing with too few clients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

__all__ = [
    "SimError",
    "ParticipationFloorError",
    "FaultProfile",
    "FAULT_PROFILES",
    "fault_profile",
    "sample_dropout_times",
]


class SimError(RuntimeError):
    """Base class for event-driven-runtime errors."""


class ParticipationFloorError(SimError):
    """Faults/deadlines left fewer survivors than the (3b) floor allows."""

    def __init__(self, survivors: int, floor: int, reason: str) -> None:
        self.survivors = survivors
        self.floor = floor
        self.reason = reason
        super().__init__(
            f"round degraded to {survivors} survivor(s) < participation "
            f"floor n={floor} (last drop: {reason})"
        )


@dataclass(frozen=True)
class FaultProfile:
    """Stochastic fault configuration for one simulated round.

    ``dropout_hazard`` is measured per *round* (the sojourn-consistent
    unit: one epoch of the availability chain), not per second — round
    durations span orders of magnitude across configs, a per-second rate
    would not transfer.
    """

    dropout_hazard: float = 0.0         # λ: P(survive round) = exp(−λ)
    upload_failure_prob: float = 0.0    # per-attempt transient loss
    max_retries: int = 2                # attempts after the first
    retry_backoff_s: float = 0.05       # base of the exponential backoff

    def __post_init__(self) -> None:
        if self.dropout_hazard < 0:
            raise ValueError("dropout_hazard must be nonnegative")
        if not (0.0 <= self.upload_failure_prob < 1.0):
            raise ValueError("upload_failure_prob must be in [0, 1)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be nonnegative")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be nonnegative")

    @property
    def stochastic(self) -> bool:
        """True when simulating this profile consumes randomness."""
        return self.dropout_hazard > 0.0 or self.upload_failure_prob > 0.0

    @classmethod
    def none(cls) -> "FaultProfile":
        return cls()

    @classmethod
    def from_churn(cls, availability, **overrides) -> "FaultProfile":
        """Derive the dropout hazard from the experiment's Markov
        availability chain (see ``intra_round_hazard``), reusing the
        existing churn model for intra-round behaviour."""
        hazard = availability.intra_round_hazard()
        return cls(dropout_hazard=float(hazard), **overrides)


#: Named presets selectable as `sim.faults` (CLI: `--set sim.faults=NAME`).
FAULT_PROFILES: Dict[str, FaultProfile] = {
    "none": FaultProfile(),
    "flaky-uplink": FaultProfile(
        upload_failure_prob=0.3, max_retries=3, retry_backoff_s=0.05
    ),
    "churn": FaultProfile(dropout_hazard=0.25),
    "stress": FaultProfile(
        dropout_hazard=0.25,
        upload_failure_prob=0.3,
        max_retries=3,
        retry_backoff_s=0.05,
    ),
}


def fault_profile(name: str) -> FaultProfile:
    """Look up a named preset (raises ``ValueError`` on unknown names)."""
    try:
        return FAULT_PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown fault profile {name!r}; known: {sorted(FAULT_PROFILES)}"
        ) from None


def sample_dropout_times(
    num_clients: int,
    hazard: float,
    round_seconds: float,
    rng: Optional[np.random.Generator],
) -> np.ndarray:
    """Absolute dropout offsets (seconds from round start) per client.

    Each client's dropout instant is ``Exp(hazard)`` in round units,
    scaled by the round's estimated duration; clients whose draw falls
    past one full round never drop (``inf``).  Draws happen in client
    order so the RNG stream drains deterministically.
    """
    if hazard <= 0.0 or num_clients == 0:
        return np.full(num_clients, np.inf)
    if rng is None:
        raise ValueError("a fault RNG is required when dropout_hazard > 0")
    draws = rng.exponential(scale=1.0 / hazard, size=num_clients)
    return np.where(draws < 1.0, draws * round_seconds, np.inf)
