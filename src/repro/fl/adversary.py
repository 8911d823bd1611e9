"""Adversarial (Byzantine) client behaviors for robustness studies.

The paper's FL process — like most client-selection work — assumes every
rented client returns an honest update.  This module injects the standard
poisoning models from the Byzantine-FL literature so the defense layer
(:mod:`repro.fl.defense`) and the reliability-aware selection loop can be
exercised end to end:

* ``sign-flip``  — upload ``−s · d`` (scaled sign-flipping; moves the
  aggregate *away* from the honest descent direction),
* ``scale``      — upload ``s · d`` (model-boosting / scaled update),
* ``gauss``      — replace the update with i.i.d. ``N(0, s²)`` noise,
* ``nan``        — upload non-finite values (NaN with one +Inf coordinate),
* ``label-flip`` — train honestly but on label-flipped local data
  (``y → C−1−y``), the classic data-poisoning attack.

with ``s =`` :data:`ATTACK_SCALE`.  Every compromised client attacks in
every epoch it participates in.

Adversary selection and noise draws live on their own
:class:`~repro.rng.RngFactory` streams (``adversary.roster`` and
``adversary.client.<k>``), so enabling an attack never perturbs the
honest clients' RNG streams — attack-free runs stay bit-identical to a
build without this module.  Attacks compose with the DES fault profiles
in :mod:`repro.sim.faults` — faults drop *messages*, the adversary
corrupts *content*, and both can be active in the same round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.datasets.synthetic import Dataset

__all__ = ["ATTACKS", "ATTACK_SCALE", "Adversary"]

#: Attack kinds selectable from :class:`repro.config.AttackConfig` / the CLI.
ATTACKS = ("none", "sign-flip", "label-flip", "scale", "gauss", "nan")

#: The sign-flip/scale multiplier and the gauss attack's σ.
ATTACK_SCALE = 10.0


@dataclass(frozen=True)
class _Roster:
    """The deterministic set of compromised clients for one experiment."""

    mask: np.ndarray                    # (M,) bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "mask", np.asarray(self.mask, dtype=bool))


class Adversary:
    """Per-experiment attack state: who is compromised and how they lie.

    The roster is sampled once (``ceil(fraction · M)`` clients, chosen
    uniformly from the ``adversary.roster`` stream) and fixed for the
    whole run — the online learner's reliability feedback only works if
    misbehavior is a stable per-client trait.
    """

    def __init__(
        self,
        kind: str,
        num_clients: int,
        fraction: float,
        roster_rng: np.random.Generator,
        rng_factory,
    ) -> None:
        if kind not in ATTACKS:
            raise ValueError(f"unknown attack {kind!r}; known: {ATTACKS}")
        if kind == "none":
            raise ValueError("build no Adversary for attack 'none'")
        if not (0.0 < fraction < 1.0):
            raise ValueError("attack fraction must be in (0, 1)")
        self.kind = kind
        self.num_clients = int(num_clients)
        self._rng_factory = rng_factory
        num_adv = int(np.ceil(fraction * num_clients))
        num_adv = min(max(num_adv, 1), num_clients - 1)
        chosen = roster_rng.choice(num_clients, size=num_adv, replace=False)
        mask = np.zeros(num_clients, dtype=bool)
        mask[chosen] = True
        self._roster = _Roster(mask=mask)

    @classmethod
    def from_config(cls, attack, num_clients: int, rng_factory) -> Optional["Adversary"]:
        """Build from a :class:`repro.config.AttackConfig` (None for 'none')."""
        if attack is None or attack.kind == "none":
            return None
        return cls(
            kind=attack.kind,
            num_clients=num_clients,
            fraction=attack.fraction,
            roster_rng=rng_factory.get("adversary.roster"),
            rng_factory=rng_factory,
        )

    # -- roster ----------------------------------------------------------------

    @property
    def mask(self) -> np.ndarray:
        """(M,) bool — which clients are compromised."""
        return self._roster.mask

    def is_adversary(self, client_id: int) -> bool:
        return bool(self._roster.mask[client_id])

    # -- the attacks -----------------------------------------------------------

    def corrupt_update(self, client_id: int, d: np.ndarray) -> np.ndarray:
        """The payload client ``client_id`` actually uploads.

        Honest clients (and data-poisoning attackers) return ``d``
        unchanged — and *by the same object*, so the honest path stays
        allocation- and bit-identical.
        """
        if not self.is_adversary(client_id):
            return d
        if self.kind == "sign-flip":
            return -ATTACK_SCALE * d
        if self.kind == "scale":
            return ATTACK_SCALE * d
        if self.kind == "gauss":
            rng = self._rng_factory.get(f"adversary.client.{client_id}")
            return rng.normal(0.0, ATTACK_SCALE, size=d.shape)
        if self.kind == "nan":
            bad = np.full_like(np.asarray(d, dtype=float), np.nan)
            if bad.size:
                bad[0] = np.inf            # cover the Inf path too
            return bad
        return d                            # "label-flip" poisons data, not d

    def poison_data(
        self, client_id: int, data: Dataset, num_classes: int
    ) -> Dataset:
        """Label-flipped view of ``data`` for a compromised client.

        Only the ``label-flip`` attack touches data; every other kind (and
        honest clients) get the original object back.
        """
        if self.kind != "label-flip" or not self.is_adversary(client_id):
            return data
        return Dataset(x=data.x, y=(num_classes - 1) - data.y)
