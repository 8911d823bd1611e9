"""Per-epoch metric recording for experiment runs."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

__all__ = ["EpochRecord", "Trace"]


@dataclass(frozen=True)
class EpochRecord:
    """One row of an experiment trace."""

    t: int
    test_accuracy: float
    test_loss: float
    population_loss: float
    epoch_latency: float        # seconds of simulated wall clock this epoch
    cumulative_time: float      # seconds since the start of the run
    cost_spent: float
    remaining_budget: float
    num_selected: int
    num_available: int
    iterations: int
    rho: float                  # fractional iteration decision (NaN for baselines)
    eta_max: float              # realized max local accuracy among participants
    num_failed: int = 0         # rented clients that crashed mid-round
    num_quarantined: int = 0    # clients whose updates the defense rejected


@dataclass
class Trace:
    """Append-only sequence of epoch records with array accessors."""

    policy_name: str
    records: List[EpochRecord] = field(default_factory=list)

    def append(self, record: EpochRecord) -> None:
        if self.records and record.t <= self.records[-1].t:
            raise ValueError("epoch indices must be strictly increasing")
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def equals(self, other: "Trace", ignore: tuple = ()) -> bool:
        """Bitwise trace equality, treating NaN == NaN.

        Plain dataclass ``==`` is wrong here: baselines record ``rho=NaN``
        and ``NaN != NaN``, so two bit-identical runs would compare
        unequal.  The determinism and cache tests use this instead.

        ``ignore`` names fields excluded from the comparison — the live
        engine *measures* ``epoch_latency``/``cumulative_time`` off the
        wall clock, so even two uninterrupted identical runs differ
        there; checkpoint-resume tests compare live traces modulo those.
        """
        if not isinstance(other, Trace):
            return NotImplemented
        if self.policy_name != other.policy_name or len(self) != len(other):
            return False
        for a, b in zip(self.records, other.records):
            for f in dataclasses.fields(EpochRecord):
                if f.name in ignore:
                    continue
                va, vb = getattr(a, f.name), getattr(b, f.name)
                if va == vb:
                    continue
                if (
                    isinstance(va, float)
                    and isinstance(vb, float)
                    and math.isnan(va)
                    and math.isnan(vb)
                ):
                    continue
                return False
        return True

    def column(self, name: str) -> np.ndarray:
        """Extract one field across all records as a float array."""
        if not self.records:
            return np.zeros(0)
        return np.asarray([getattr(r, name) for r in self.records], dtype=float)

    # -- convenience views used by figures/tables --------------------------------

    @property
    def accuracy(self) -> np.ndarray:
        return self.column("test_accuracy")

    @property
    def times(self) -> np.ndarray:
        return self.column("cumulative_time")

    @property
    def rounds(self) -> np.ndarray:
        return self.column("t")

    @property
    def losses(self) -> np.ndarray:
        return self.column("test_loss")

    @property
    def total_spend(self) -> float:
        return float(self.column("cost_spent").sum())

    @property
    def final_accuracy(self) -> float:
        if not self.records:
            raise ValueError("empty trace")
        return self.records[-1].test_accuracy

    @property
    def final_loss(self) -> float:
        if not self.records:
            raise ValueError("empty trace")
        return self.records[-1].test_loss

    def best_accuracy(self) -> float:
        if not self.records:
            raise ValueError("empty trace")
        return float(self.accuracy.max())

    def time_to_accuracy(self, target: float) -> Optional[float]:
        """Simulated seconds until test accuracy first reaches ``target``."""
        acc = self.accuracy
        hits = np.flatnonzero(acc >= target)
        if hits.size == 0:
            return None
        return float(self.times[hits[0]])

    def accuracy_at_time(self, t_seconds: float) -> float:
        """Accuracy of the last epoch completed by ``t_seconds`` (0 before)."""
        done = np.flatnonzero(self.times <= t_seconds)
        if done.size == 0:
            return 0.0
        return float(self.accuracy[done[-1]])
