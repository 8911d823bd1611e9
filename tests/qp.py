"""Small dense box-constrained QP solver (active-set style).

Solves::

    minimize    0.5 xᵀ Q x + cᵀ x
    subject to  lo <= x <= hi

by coordinate-wise projected Newton sweeps.  The test suite's reference
oracle: an independent cross-check of :mod:`repro.solvers.projected_gradient`
and :mod:`repro.solvers.interior_point` (three solvers agreeing on random
QPs is strong evidence none of them is silently wrong).  Nothing in
``src/`` uses it, so it lives beside the tests it serves.
"""

from __future__ import annotations

import numpy as np

__all__ = ["solve_box_qp"]


def solve_box_qp(
    Q: np.ndarray,
    c: np.ndarray,
    lo: np.ndarray | float,
    hi: np.ndarray | float,
    x0: np.ndarray | None = None,
    tol: float = 1e-10,
    max_sweeps: int = 10_000,
) -> np.ndarray:
    """Minimize ``0.5 xᵀQx + cᵀx`` over the box ``[lo, hi]``.

    ``Q`` must be symmetric positive semi-definite with strictly positive
    diagonal (true for the proximal-regularized subproblems we build).
    Coordinate descent on a box-constrained convex QP converges to the
    global optimum.
    """
    Q = np.asarray(Q, dtype=float)
    c = np.asarray(c, dtype=float)
    n = c.size
    lo_a = np.broadcast_to(np.asarray(lo, dtype=float), (n,)).copy()
    hi_a = np.broadcast_to(np.asarray(hi, dtype=float), (n,)).copy()
    if np.any(np.diag(Q) <= 0):
        raise ValueError("solve_box_qp requires positive diagonal in Q")
    x = (
        np.clip(np.zeros(n), lo_a, hi_a)
        if x0 is None
        else np.clip(np.asarray(x0, dtype=float), lo_a, hi_a)
    )
    g = Q @ x + c
    diag = np.diag(Q)
    for _ in range(max_sweeps):
        max_move = 0.0
        for i in range(n):
            xi_new = np.clip(x[i] - g[i] / diag[i], lo_a[i], hi_a[i])
            move = xi_new - x[i]
            if move != 0.0:
                g += Q[:, i] * move
                x[i] = xi_new
                max_move = max(max_move, abs(move))
        if max_move <= tol:
            break
    return x
