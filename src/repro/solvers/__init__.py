"""Solvers for FedL's per-epoch subproblem (paper eq. 8).

The feasible set's projection is :meth:`repro.core.problem.FedLProblem.project`;
this package holds the two solvers that call it or its constraint rows:

* :mod:`repro.solvers.projected_gradient` — FISTA with a monotone guard
  and gradient restart, over the caller's projection (the default).
* :mod:`repro.solvers.interior_point` — a log-barrier primal-dual
  interior-point method whose filter line search reduces to an Armijo
  test, the same algorithm family as the paper's reference [26] (Wächter & Biegler / IPOPT).
"""

from repro.solvers.projected_gradient import (
    ProjectedGradientResult,
    projected_gradient,
)
from repro.solvers.interior_point import (
    InteriorPointResult,
    solve_interior_point,
)

__all__ = [
    "ProjectedGradientResult",
    "projected_gradient",
    "InteriorPointResult",
    "solve_interior_point",
]
