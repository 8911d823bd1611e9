"""Client-selection strategies: the policy protocol, the registry, the zoo.

Every policy implements :class:`~repro.strategies.base.SelectionPolicy`
under the paper's 0-lookahead contract.  Each registered strategy is one
class that declares its own registry entry (:mod:`.registry`); the paper's
FedL and Fair-FedL live in :mod:`repro.core`, every other member in a
module here: the paper's baselines (:mod:`.fedavg`, :mod:`.fedcs`,
:mod:`.pow_d`), :mod:`.ucb`, :mod:`.oracle` (the 1-lookahead regret
reference), :mod:`.scored`, :mod:`.budgeted`, and the wrappers
:mod:`.overselect` and :mod:`.deadline`.
"""

from .base import (
    Decision,
    EpochContext,
    RoundFeedback,
    SelectionPolicy,
    enforce_feasibility,
)
from .registry import (
    STRATEGY_REGISTRY,
    ParamSpec,
    Strategy,
    StrategyError,
    StrategyParamError,
    UnknownStrategyError,
    build_strategy,
    get_strategy,
    register_strategy,
    resolve_params,
    strategy_names,
    wrappable_names,
)

# Importing a module registers its classes; this order is the listing
# order of the CLI and the tournament reports.
import repro.core.fedl  # noqa: F401  (FedL)
from . import fedavg, fedcs, pow_d  # noqa: F401
import repro.core.fairness  # noqa: F401  (Fair-FedL)
from . import ucb, oracle, overselect, scored, budgeted, deadline  # noqa: F401

__all__ = [
    "Decision",
    "EpochContext",
    "RoundFeedback",
    "SelectionPolicy",
    "enforce_feasibility",
    "STRATEGY_REGISTRY",
    "ParamSpec",
    "Strategy",
    "StrategyError",
    "StrategyParamError",
    "UnknownStrategyError",
    "build_strategy",
    "get_strategy",
    "register_strategy",
    "resolve_params",
    "strategy_names",
    "wrappable_names",
]
