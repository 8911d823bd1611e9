"""FedL: the paper's contribution (Sec. 4-5).

* :mod:`repro.core.phi` — the aggregated decision vector
  ``Φ_t = [x_{t,1..M}, ρ_t]``.
* :mod:`repro.core.problem` — the reformulated per-epoch problem: the
  objective ``f_t``, budget/participation constraints ``p, q``, and the
  convergence constraint vector ``h_t`` (Sec. 4.2).
* :mod:`repro.core.horizon` — stopping-time bounds ``T_C`` and the
  ``β = δ = O(T_C^{-1/3})`` step-size rule of Corollary 1.
* :mod:`repro.core.online_learner` — the descent step (eq. 8) and dual
  ascent (eq. 9).
* :mod:`repro.core.rounding` — RDCS dependent rounding (Alg. 2) and the
  independent-rounding baseline.
* :mod:`repro.core.fedl` — the FedL controller (Alg. 1) packaged as a
  :class:`repro.strategies.base.SelectionPolicy`.
* :mod:`repro.core.regret` — dynamic regret / dynamic fit and the
  per-slot offline comparator (Sec. 5 definitions).
* :mod:`repro.core.bounds` — the Lemma 2 / Theorem 2 bound values.
"""

# FedL and Fair-FedL register themselves with the strategy registry, whose
# package imports them in its listing order; loading it first keeps that
# order whichever module of either package is imported first.
import repro.strategies  # noqa: F401

from repro.core.phi import Phi
from repro.core.problem import EpochInputs, FedLProblem
from repro.core.horizon import horizon_bounds, corollary1_step_size
from repro.core.online_learner import OnlineLearner, LearnerState
from repro.core.rounding import rdcs_round, independent_round
from repro.core.fedl import FedLPolicy
from repro.core.regret import (
    dynamic_regret,
    dynamic_fit,
    solve_per_slot_optimum,
)
from repro.core.bounds import (
    mu_hat_bound,
    regret_bound,
    path_length,
    constraint_variation,
)

__all__ = [
    "Phi",
    "EpochInputs",
    "FedLProblem",
    "horizon_bounds",
    "corollary1_step_size",
    "OnlineLearner",
    "LearnerState",
    "rdcs_round",
    "independent_round",
    "FedLPolicy",
    "dynamic_regret",
    "dynamic_fit",
    "solve_per_slot_optimum",
    "mu_hat_bound",
    "regret_bound",
    "path_length",
    "constraint_variation",
]
