"""The aggregation server (paper Sec. 3.1, "Aggregation on Server").

Per global iteration the server collects the participants' model
differences and gradients and forms

    w^i = w^{i-1} + (1/|P|) Σ_{k ∈ P} d_k,
    ḡ^i = (1/|P|) Σ_{k ∈ P} ∇F_k(w^i),

where ``P`` is the participant set.  The paper's normalization divides by
``|E_t|`` (all *available* clients); dividing by the participant count is
the standard choice and differs only by a constant step-scaling.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.datasets.synthetic import Dataset
from repro.nn.models import ClassifierModel

__all__ = ["FLServer"]


class FLServer:
    """Aggregates updates; owns the global model vector and the test set."""

    def __init__(
        self,
        model: ClassifierModel,
        w_init: np.ndarray,
        test_set: Dataset,
    ) -> None:
        self.model = model
        self.w = np.asarray(w_init, dtype=float).copy()
        self.test_set = test_set
        # (w, test-set logits at w) of the last test evaluation.
        self._test_logits_at: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def aggregate_updates(self, updates: Sequence[np.ndarray]) -> np.ndarray:
        """Apply the uniform average of the model differences (a list or
        the rows of an upload block, averaged as :meth:`aggregate_gradients`
        averages); returns the new ``w``."""
        if len(updates) == 0:
            return self.w
        return self.apply_delta(self.aggregate_gradients(updates))

    def apply_delta(self, delta: np.ndarray) -> np.ndarray:
        """Apply an already-combined model delta (robust aggregators
        compute their own combination; see :mod:`repro.fl.defense`)."""
        delta = np.asarray(delta, dtype=float)
        if delta.shape != self.w.shape:
            raise ValueError("delta shape mismatch")
        self.w = self.w + delta
        return self.w

    @staticmethod
    def aggregate_gradients(grads: Sequence[np.ndarray]) -> np.ndarray:
        """Mean of the participants' gradients (the broadcast ``J_t``/ḡ).

        A running sum from ``+0.0`` in list order and one divide: the
        floats ``np.mean(np.stack(grads), axis=0)`` gives for vectors of
        two or more entries (it too adds the rows in order onto a zero),
        without a copy of every gradient."""
        if len(grads) == 0:
            raise ValueError("no gradients to aggregate")
        total = np.zeros(np.shape(grads[0]))
        for g in grads:
            if np.shape(g) != total.shape:
                raise ValueError("vector shape mismatch")
            total += g
        total /= len(grads)
        return total

    # -- evaluation ---------------------------------------------------------------

    def _test_logits(self) -> np.ndarray:
        """Test-set logits at the current ``w``: one forward pass serves
        :meth:`test_accuracy` and :meth:`test_loss` alike.  Keyed on the
        identity of ``self.w``, which every update rebinds and nothing
        mutates in place."""
        memo = self._test_logits_at
        if memo is None or memo[0] is not self.w:
            memo = (self.w, self.model.logits(self.w, self.test_set.x))
            self._test_logits_at = memo
        return memo[1]

    def test_accuracy(self) -> float:
        return self.model.accuracy(
            self.w, self.test_set.x, self.test_set.y, logits=self._test_logits()
        )

    def test_loss(self) -> float:
        return self.model.loss(
            self.w, self.test_set.x, self.test_set.y, logits=self._test_logits()
        )
