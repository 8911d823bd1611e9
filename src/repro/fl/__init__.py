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

The package re-exports the names the experiment runner builds a round
from; everything else is imported from its module.
"""

from repro.fl.client import FLClient, LocalSolveSpec
from repro.fl.server import FLServer
from repro.fl.round_runner import RoundResult, run_federated_round

__all__ = [
    "FLClient",
    "LocalSolveSpec",
    "FLServer",
    "RoundResult",
    "run_federated_round",
]
