"""Generic convex-optimization substrate.

Provides the numerical machinery FedL's per-epoch subproblem (paper eq. 8)
is solved with:

* :mod:`repro.solvers.projections` — Euclidean projections onto the simple
  sets that appear in the relaxed decision space (boxes, halfspaces,
  simplices, box-with-budget intersections).
* :mod:`repro.solvers.projected_gradient` — projected gradient descent with
  Armijo backtracking for smooth convex objectives over projectable sets.
* :mod:`repro.solvers.interior_point` — a log-barrier primal-dual
  interior-point method with filter line search, the same algorithm family
  as the paper's reference [26] (Wächter & Biegler / IPOPT).
* :mod:`repro.solvers.line_search` — Armijo / filter acceptance rules.
"""

from repro.solvers.projections import (
    project_box,
    project_halfspace,
    project_simplex,
    project_capped_simplex,
    project_box_halfspace,
    alternating_projections,
)
from repro.solvers.projected_gradient import (
    ProjectedGradientResult,
    projected_gradient,
)
from repro.solvers.interior_point import (
    InteriorPointResult,
    solve_interior_point,
)
from repro.solvers.line_search import armijo_backtracking, Filter

__all__ = [
    "project_box",
    "project_halfspace",
    "project_simplex",
    "project_capped_simplex",
    "project_box_halfspace",
    "alternating_projections",
    "ProjectedGradientResult",
    "projected_gradient",
    "InteriorPointResult",
    "solve_interior_point",
    "armijo_backtracking",
    "Filter",
]
