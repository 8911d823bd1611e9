"""Classification metrics."""

from __future__ import annotations

import numpy as np

__all__ = ["accuracy"]


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of exact matches."""
    p = np.asarray(predictions)
    y = np.asarray(labels)
    if p.shape != y.shape:
        raise ValueError("shape mismatch")
    if p.size == 0:
        raise ValueError("empty inputs")
    return float(np.mean(p == y))
