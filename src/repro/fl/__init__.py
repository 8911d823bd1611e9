"""Federated-learning substrate (paper Sec. 3.1).

Implements the paper's FL process:

* :mod:`repro.fl.dane` — the DANE-style local surrogate
  ``G_{t,k}(d) = F_{t,k}(w+d) + σ1/2 ‖d‖² − (∇F_{t,k}(w) − σ2 ḡ)ᵀ d``
  minimized by inner SGD (the paper's eq. for model training, following
  FEDL [7]).
* :mod:`repro.fl.client` — an FL client holding its per-epoch local data
  and producing ``(d, η̂)`` pairs, and the run-wide solver settings
  (:class:`~repro.fl.client.LocalSolveSpec`) every client references.
* :mod:`repro.fl.server` — aggregation of updates and gradients.
* :mod:`repro.fl.convergence` — local-accuracy estimation ``η̂^i_{t,k}``
  and the iteration count ``l_t(η_t, θ0)`` mapping (paper eq. after (1)).
* :mod:`repro.fl.round_runner` — one full epoch: ``l_t`` iterations of
  (broadcast → local DANE → aggregate).
"""

from repro.fl.dane import DaneWorkspace, dane_surrogate_value, dane_local_step
from repro.fl.batched import (
    BatchedClientEngine,
    BatchedSequentialKernel,
    batched_local_losses,
)
from repro.fl.client import FLClient, LocalSolveSpec
from repro.fl.server import FLServer
from repro.fl.convergence import (
    estimate_local_accuracy,
    iterations_for_accuracy,
    rho_to_eta,
    eta_to_rho,
)
from repro.fl.round_runner import RoundResult, run_federated_round
from repro.fl.adversary import ATTACKS, Adversary
from repro.fl.defense import (
    AGGREGATORS,
    CorruptUpdateError,
    DefenseRoundReport,
    TrainingDivergedError,
    coordinate_median,
    krum,
    robust_aggregate,
    screen_updates,
    trimmed_mean,
)
from repro.fl.compression import (
    CompressedUpdate,
    CompressionSpec,
    cmfl_relevance,
    compress_update,
    topk_sparsify,
    uniform_quantize,
)
from repro.fl.analysis import (
    CurvatureEstimate,
    assumption1_constants,
    estimate_curvature,
)
from repro.fl.shard import (
    ShardPlan,
    ShardedFedLPolicy,
    build_shard_plan,
    decompose_budget,
    decompose_floor,
    kmeans,
    shard_combine,
)

__all__ = [
    "DaneWorkspace",
    "dane_surrogate_value",
    "dane_local_step",
    "BatchedClientEngine",
    "BatchedSequentialKernel",
    "batched_local_losses",
    "FLClient",
    "LocalSolveSpec",
    "FLServer",
    "estimate_local_accuracy",
    "iterations_for_accuracy",
    "rho_to_eta",
    "eta_to_rho",
    "RoundResult",
    "run_federated_round",
    "ATTACKS",
    "Adversary",
    "AGGREGATORS",
    "CorruptUpdateError",
    "DefenseRoundReport",
    "TrainingDivergedError",
    "coordinate_median",
    "krum",
    "robust_aggregate",
    "screen_updates",
    "trimmed_mean",
    "CompressedUpdate",
    "CompressionSpec",
    "cmfl_relevance",
    "compress_update",
    "topk_sparsify",
    "uniform_quantize",
    "CurvatureEstimate",
    "assumption1_constants",
    "estimate_curvature",
    "ShardPlan",
    "ShardedFedLPolicy",
    "build_shard_plan",
    "decompose_budget",
    "decompose_floor",
    "kmeans",
    "shard_combine",
]
