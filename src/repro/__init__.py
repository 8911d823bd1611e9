"""FedL reproduction: online client selection for federated edge learning
under budget constraint (Su et al., ICPP 2022).

Top-level convenience re-exports; see the subpackages for the full API:

* :mod:`repro.core` — the FedL controller, online learner, RDCS rounding,
  regret/fit machinery, and the fairness extension.
* :mod:`repro.experiments` — scenario builders, the budget-driven
  experiment loop, figure/table regeneration.
* :mod:`repro.strategies` — the selection-policy protocol and registry:
  FedAvg, FedCS, Pow-d, UCB, oracle and the wider zoo.
* substrates: :mod:`repro.nn`, :mod:`repro.fl`, :mod:`repro.net`,
  :mod:`repro.env`, :mod:`repro.datasets`, :mod:`repro.solvers`.
"""

import os
import sys

# One compute thread per process, sized before the first ``import numpy``
# (below, through ``repro.config``) starts a BLAS pool: every GEMM here is
# sub-millisecond and all real parallelism is by process (sweep pool,
# forked live workers), so an ncores-wide pool in each of them only spins
# against the others.  A variable the user exported wins.  A caller that
# imported numpy first keeps numpy's pool; run manifests record that.
NUMPY_LOADED_FIRST = "numpy" in sys.modules
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from repro.config import ExperimentConfig, FedLConfig
from repro.rng import RngFactory

__version__ = "1.0.0"

__all__ = ["ExperimentConfig", "FedLConfig", "RngFactory", "__version__"]
