"""DANE-style local surrogate objective and inner SGD (paper Sec. 3.1-2).

Each global iteration ``i``, client ``k`` solves

    min_d  G_{t,k}(d) = F_{t,k}(w + d) + σ1/2 ‖d‖²
                        − (∇F_{t,k}(w) − σ2 · ḡ)ᵀ d,

where ``w`` is the broadcast global model and ``ḡ`` the aggregated global
gradient broadcast by the server (the paper's ``J_t(·)``; following FEDL
[7] we take the aggregated *gradient* — the gradient-correction term is
what makes the scheme a distributed approximate Newton method.  The paper's
notation writes the aggregated loss there, which cannot enter an inner
product with ``d``; see DESIGN.md).

Gradient of the surrogate::

    ∇G(d) = ∇F_{t,k}(w + d) + σ1 d − ∇F_{t,k}(w) + σ2 ḡ.

At ``d = 0``: ``∇G(0) = σ2 ḡ`` — the first inner step moves along the
global gradient, then local curvature refines it.

The inner solver is plain minibatch SGD with at most ``max_steps``
gradient steps (the paper: "the maximal value of gradient steps j is a
pre-defined constant"), starting from ``d = 0``.

Every ``(w, batch)`` point is evaluated once.  Nothing is evaluated at
``d = 0``: ``G(0) = F_k(w)`` exactly and ``∇F_k(w)`` is the starting pair
the caller already holds.  A solve of ``J`` steps then costs ``J`` network
evaluations when the minibatch is the whole local set (step ``j``'s
gradient and step ``j−1``'s trajectory value are one fused forward/backward
pass at ``w + d_j``) and ``2J`` when it subsamples (a minibatch gradient
plus a full-batch value per step).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.datasets.synthetic import Dataset
from repro.nn.models import ClassifierModel

__all__ = ["DaneWorkspace", "dane_surrogate_value", "dane_local_step"]


@dataclass(frozen=True)
class DaneWorkspace:
    """Frozen per-iteration context for one client's local solve."""

    w_global: np.ndarray        # broadcast model w_t^{i-1}
    local_grad_at_w: np.ndarray  # ∇F_{t,k}(w) on the full local batch
    global_grad: np.ndarray      # ḡ = server-aggregated gradient (J_t)
    sigma1: float
    sigma2: float

    def __post_init__(self) -> None:
        for name in ("w_global", "local_grad_at_w", "global_grad"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.local_grad_at_w.shape != self.w_global.shape:
            raise ValueError("local gradient shape mismatch")
        if self.global_grad.shape != self.w_global.shape:
            raise ValueError("global gradient shape mismatch")
        if self.sigma1 < 0 or self.sigma2 < 0:
            raise ValueError("sigma1/sigma2 must be nonnegative")

    def linear_term(self) -> np.ndarray:
        """The constant vector ``∇F_k(w) − σ2 ḡ`` in the surrogate."""
        return self.local_grad_at_w - self.sigma2 * self.global_grad


def dane_surrogate_value(
    model: ClassifierModel,
    ws: DaneWorkspace,
    d: np.ndarray,
    data: Dataset,
) -> float:
    """``G_{t,k}(d)`` evaluated on the client's full local batch."""
    d = np.asarray(d, dtype=float)
    f = model.loss(ws.w_global + d, data.x, data.y)
    return f + 0.5 * ws.sigma1 * float(d @ d) - float(ws.linear_term() @ d)


def dane_local_step(
    model: ClassifierModel,
    ws: DaneWorkspace,
    data: Dataset,
    max_steps: int,
    lr: float,
    batch_size: int,
    rng: Optional[np.random.Generator],
    target_eta: Optional[float] = None,
    momentum: float = 0.0,
    start: Optional[Tuple[float, np.ndarray]] = None,
) -> Tuple[np.ndarray, List[float]]:
    """Run the inner SGD on ``G_{t,k}`` from ``d = 0``.

    ``target_eta`` implements the paper's iteration-control semantics: the
    client iterates *until* its local convergence accuracy reaches the
    tolerated ``η_t`` chosen by the server (estimated from the surrogate
    trajectory after each step), subject to the hard cap ``max_steps``
    ("the maximal value of gradient steps j is a pre-defined constant").
    ``None`` runs exactly ``max_steps`` steps.

    ``rng`` draws the minibatch indices and is read only by a solve that
    subsamples (``batch_size < len(data)``); a full-batch caller may pass
    ``None``.

    ``start`` is ``(F_k(w), ∇F_k(w))`` on the full local set at
    ``ws.w_global``, for a caller that already holds it; ``None`` costs one
    evaluation here.  From there ``J`` steps make ``J`` evaluations for a
    full-batch client and ``2J`` for a subsampling one (module docstring).

    Returns ``(d, trajectory)`` where ``trajectory`` holds the *full-batch*
    surrogate values ``[G(d_0), …, G(d_J)]`` used by
    :func:`repro.fl.convergence.estimate_local_accuracy`.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if lr <= 0:
        raise ValueError("lr must be positive")
    if target_eta is not None and not (0.0 <= target_eta < 1.0):
        raise ValueError("target_eta must be in [0, 1)")
    if not (0.0 <= momentum < 1.0):
        raise ValueError("momentum must be in [0, 1)")
    from repro.fl.convergence import estimate_local_accuracy

    n = len(data)
    bs = min(batch_size, n)
    w = ws.w_global
    sigma1 = ws.sigma1
    if start is None:
        start = model.loss_and_grad(w, data.x, data.y)
    # f, g: F_k and ∇F_k on the full local set at w + d (here d = 0).
    f, g = start
    lin = ws.linear_term()
    # d, the velocity and one scratch t are the only P-vectors of the solve,
    # updated in place; w, ḡ and the starting pair are the caller's and are
    # only read.
    d = np.zeros_like(w)
    velocity = np.zeros_like(w) if momentum > 0.0 else None
    t = np.empty_like(w)
    trajectory = [float(f)]  # G(0) = F_k(w)
    for step in range(max_steps):
        if bs < n:
            idx = rng.choice(n, size=bs, replace=False)
            np.add(w, d, out=t)
            _, g = model.loss_and_grad(t, data.x[idx], data.y[idx])
        # ∇G(d) = g + σ1 d − lin, times lr, into t.
        np.multiply(d, sigma1, out=t)
        t += g
        t -= lin
        t *= lr
        if velocity is not None:
            # Heavy-ball inner updates (Momentum Federated Learning,
            # paper's related work [17]).
            velocity *= momentum
            velocity -= t
            d += velocity
        else:
            d -= t
        np.add(w, d, out=t)
        if bs < n:
            f = model.loss(t, data.x, data.y)
        else:
            # The minibatch is the whole local set: this one pass is both
            # G(d)'s value and the next step's gradient.
            f, g = model.loss_and_grad(t, data.x, data.y)
        trajectory.append(f + 0.5 * sigma1 * float(d @ d) - float(lin @ d))
        if (
            target_eta is not None
            and step >= 1  # need >= 3 trajectory points for the estimator
            and estimate_local_accuracy(trajectory) <= target_eta
        ):
            break
    return d, trajectory
