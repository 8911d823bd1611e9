"""Loss functions: softmax cross-entropy (fused gradient) and L2 penalty."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["softmax", "check_labels", "softmax_cross_entropy", "l2_penalty"]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted for numerical stability."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def check_labels(labels: np.ndarray, n: int, num_classes: int) -> np.ndarray:
    """``labels`` as an array, after checking it is ``(n,)`` within ``[0, C)``."""
    y = np.asarray(labels)
    if y.shape != (n,):
        raise ValueError("labels must be (N,)")
    if (y < 0).any() or (y >= num_classes).any():
        raise ValueError("labels out of range")
    return y


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray, want_grad: bool = True
) -> Tuple[float, Optional[np.ndarray]]:
    """Mean cross-entropy and its gradient w.r.t. the logits.

    Fusing the two shares one ``exp`` of the shifted logits between the
    loss's log-sum-exp and the softmax of the well-known stable gradient
    ``(softmax − onehot) / N``.  ``want_grad=False`` returns the same loss
    and ``None`` without forming the gradient.
    """
    if logits.ndim != 2:
        raise ValueError("logits must be (N, C)")
    n, c = logits.shape
    y = check_labels(labels, n, c)
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    se = e.sum(axis=1)
    loss = float(np.mean(np.log(se) - z[np.arange(n), y]))
    if not want_grad:
        return loss, None
    probs = np.divide(e, se[:, None], out=e)
    probs[np.arange(n), y] -= 1.0
    probs /= n
    return loss, probs


def l2_penalty(w: np.ndarray, reg: float) -> Tuple[float, np.ndarray]:
    """``reg/2 ‖w‖²`` and its gradient ``reg·w``.

    With ``reg > 0`` this makes the overall objective strongly convex for
    the logistic-regression model — the setting the paper's DANE
    convergence guarantees (γ-strong convexity) formally require.
    """
    if reg < 0:
        raise ValueError("reg must be nonnegative")
    return 0.5 * reg * float(w @ w), reg * w
