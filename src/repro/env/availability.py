"""Per-epoch client availability.

The paper assumes i.i.d. Bernoulli availability per device
(:class:`AvailabilityProcess`).  Real device churn is bursty — a phone on
a charger stays available for a stretch — so we also provide
:class:`MarkovAvailabilityProcess`, a two-state (on/off) Markov chain per
client with a configurable mean sojourn, whose stationary distribution
matches the requested availability probability.  Both guarantee at least
``min_available`` clients per epoch (resampling the shortfall uniformly
from the unavailable ones) — otherwise the per-epoch participation
constraint (3b) could be infeasible by pure chance.
"""

from __future__ import annotations

import numpy as np

__all__ = ["AvailabilityProcess", "MarkovAvailabilityProcess"]


class AvailabilityProcess:
    """Bernoulli availability with a minimum-availability floor."""

    def __init__(
        self,
        num_clients: int,
        prob: float,
        rng: np.random.Generator,
        min_available: int = 1,
    ) -> None:
        if num_clients < 1:
            raise ValueError("need at least one client")
        if not (0.0 < prob <= 1.0):
            raise ValueError("availability probability must be in (0, 1]")
        if not (1 <= min_available <= num_clients):
            raise ValueError("min_available must be in [1, num_clients]")
        self.num_clients = num_clients
        self.prob = prob
        self.rng = rng
        self.min_available = min_available

    def sample(self) -> np.ndarray:
        """Draw one epoch's availability mask, shape (M,), dtype bool."""
        mask = self.rng.random(self.num_clients) < self.prob
        shortfall = self.min_available - int(mask.sum())
        if shortfall > 0:
            off = np.flatnonzero(~mask)
            revive = self.rng.choice(off, size=shortfall, replace=False)
            mask[revive] = True
        return mask

    def expected_available(self) -> float:
        """Mean |E_t| ignoring the floor (exact when the floor rarely binds)."""
        return self.num_clients * self.prob


class MarkovAvailabilityProcess:
    """Two-state Markov availability with stationary probability ``prob``.

    Each client flips between available/unavailable with transition
    probabilities chosen so that (i) the stationary availability equals
    ``prob`` and (ii) the mean available sojourn is ``mean_on_epochs``:

        p_on_to_off = 1 / mean_on_epochs,
        p_off_to_on = p_on_to_off · prob / (1 − prob).

    ``mean_on_epochs = 1/(1 − prob)`` makes both transition probabilities
    equal to the stationary rates, recovering exactly i.i.d. Bernoulli
    behaviour; longer sojourns give bursty (positively correlated) churn,
    shorter ones anti-correlated flipping.
    """

    def __init__(
        self,
        num_clients: int,
        prob: float,
        rng: np.random.Generator,
        mean_on_epochs: float = 5.0,
        min_available: int = 1,
    ) -> None:
        if num_clients < 1:
            raise ValueError("need at least one client")
        if not (0.0 < prob < 1.0):
            raise ValueError("stationary probability must be in (0, 1)")
        if mean_on_epochs < 1.0:
            raise ValueError("mean_on_epochs must be >= 1")
        if not (1 <= min_available <= num_clients):
            raise ValueError("min_available must be in [1, num_clients]")
        self.num_clients = num_clients
        self.prob = prob
        self.rng = rng
        self.min_available = min_available
        self.p_on_off = 1.0 / mean_on_epochs
        self.p_off_on = min(1.0, self.p_on_off * prob / (1.0 - prob))
        # Start from the stationary distribution.
        self._state = rng.random(num_clients) < prob

    def sample(self) -> np.ndarray:
        """Advance the chains one epoch; return the availability mask."""
        u = self.rng.random(self.num_clients)
        flip_off = self._state & (u < self.p_on_off)
        flip_on = ~self._state & (u < self.p_off_on)
        self._state = (self._state & ~flip_off) | flip_on
        mask = self._state.copy()
        shortfall = self.min_available - int(mask.sum())
        if shortfall > 0:
            off = np.flatnonzero(~mask)
            revive = self.rng.choice(off, size=shortfall, replace=False)
            mask[revive] = True
        return mask

    def expected_available(self) -> float:
        """Stationary mean |E_t| ignoring the floor."""
        return self.num_clients * self.prob

    def intra_round_hazard(self) -> float:
        """Sojourn-consistent dropout hazard *within* one epoch.

        The chain is epoch-granular: an available client goes off at the
        next epoch boundary with probability ``p_on_off``.  Embedding
        that into continuous time over the epoch as a constant-rate
        (exponential) dropout process requires

            exp(−λ) = 1 − p_on_off  ⇒  λ = −log(1 − p_on_off),

        so the probability of dropping *sometime during* the round
        matches the chain's one-step off-transition exactly.  A DES or
        live run with a churning fault profile takes this rate as the
        profile's ``dropout_hazard`` (the experiment loop in
        :mod:`repro.experiments.runner`), and the round draws each
        client's dropout instant from it
        (:func:`repro.sim.faults.sample_dropout_times`), keeping
        intra-round churn a refinement of — not a second model beside —
        the epoch-granular chain.  This is a pure function of the
        transition matrix: it draws nothing from the chain's RNG, so the
        epoch-level marginals are untouched.
        """
        return float(-np.log1p(-self.p_on_off))
