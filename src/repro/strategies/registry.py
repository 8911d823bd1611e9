"""Declarative registry of client-selection strategies.

A strategy is one class that declares its own registry entry: it
subclasses :class:`Strategy` and sets a name, a description, a typed
parameter schema (``params``: defaults, bounds, choices) and capability
flags as class attributes; the :func:`register_strategy` decorator adds
it to :data:`STRATEGY_REGISTRY`.  That makes strategies *addressable as
data*: the CLI, :class:`~repro.experiments.sweep.PolicySpec` (name +
params), the sweep cache, and the tournament harness all construct
policies through :func:`build_strategy` from a plain name (or a
``{"name": ..., "params": {...}}`` dict).

A parameter's default and bounds are written once, in its
:class:`ParamSpec`, and checked once, here: constructors take their
params as keywords without defaults and do not re-check them.

Errors are typed so callers can map them to exit codes:
:class:`UnknownStrategyError` for a name that is not registered,
:class:`StrategyParamError` for an unknown/ill-typed/out-of-bounds
parameter.  Both subclass ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Type, Union

import numpy as np

from repro.config import ExperimentConfig
from repro.strategies.base import SelectionPolicy

__all__ = [
    "StrategyError",
    "UnknownStrategyError",
    "StrategyParamError",
    "ParamSpec",
    "Strategy",
    "STRATEGY_REGISTRY",
    "register_strategy",
    "get_strategy",
    "strategy_names",
    "wrappable_names",
    "resolve_params",
    "build_strategy",
    "build_base",
    "ITERATIONS",
    "BASE",
    "DEADLINE",
]


class StrategyError(ValueError):
    """Base class for strategy-registry errors."""


class UnknownStrategyError(StrategyError):
    """Raised when a strategy name is not in the registry."""

    def __init__(self, name: str) -> None:
        self.strategy = name
        super().__init__(
            f"unknown strategy {name!r}; known: {', '.join(STRATEGY_REGISTRY)}"
        )


class StrategyParamError(StrategyError):
    """Raised for an unknown, ill-typed, or out-of-bounds parameter."""

    def __init__(self, strategy: str, param: str, message: str) -> None:
        self.strategy = strategy
        self.param = param
        super().__init__(f"strategy {strategy!r}, param {param!r}: {message}")


@dataclass(frozen=True)
class ParamSpec:
    """One tunable parameter of a strategy.

    ``default`` is the literal default; when the useful default depends
    on the experiment (e.g. Pow-d's candidate count ``d = 3n``),
    ``derive`` computes it from the config at build time and ``default``
    documents it as ``None``.  ``minimum``/``maximum`` bound numeric
    values inclusively (``min_exclusive`` makes the lower bound strict);
    ``choices`` enumerates valid strings, or is a function returning them
    when the set depends on the registry itself.
    """

    name: str
    default: Any = None
    kind: type = float
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    choices: Union[Tuple[str, ...], Callable[[], Tuple[str, ...]], None] = None
    doc: str = ""
    derive: Optional[Callable[[ExperimentConfig], Any]] = None
    optional: bool = False  # None is a legal value (e.g. adaptive deadline)
    min_exclusive: bool = False

    def resolve_default(self, config: ExperimentConfig) -> Any:
        return self.derive(config) if self.derive is not None else self.default

    def validate(self, strategy: str, value: Any) -> Any:
        """Coerce and bounds-check one value; raises StrategyParamError."""
        if value is None:
            if self.optional:
                return None
            raise StrategyParamError(strategy, self.name, "may not be None")
        if self.kind is int:
            if isinstance(value, bool) or (
                not isinstance(value, (int, np.integer))
            ):
                raise StrategyParamError(strategy, self.name, "expected an int")
            value = int(value)
        elif self.kind is float:
            if isinstance(value, bool) or not isinstance(
                value, (int, float, np.integer, np.floating)
            ):
                raise StrategyParamError(strategy, self.name, "expected a number")
            value = float(value)
            if not np.isfinite(value):
                raise StrategyParamError(strategy, self.name, "must be finite")
        elif self.kind is str:
            if not isinstance(value, str):
                raise StrategyParamError(strategy, self.name, "expected a string")
        choices = self.choices() if callable(self.choices) else self.choices
        if choices is not None and value not in choices:
            raise StrategyParamError(
                strategy, self.name, f"must be one of {sorted(choices)}"
            )
        if self.minimum is not None and (
            value <= self.minimum if self.min_exclusive else value < self.minimum
        ):
            relation = ">" if self.min_exclusive else ">="
            raise StrategyParamError(
                strategy, self.name, f"must be {relation} {self.minimum}"
            )
        if self.maximum is not None and value > self.maximum:
            raise StrategyParamError(
                strategy, self.name, f"must be <= {self.maximum}"
            )
        return value


class Strategy:
    """Base of every registered strategy: the class is its registry entry.

    Subclasses set ``name``, ``description``, ``params`` and the
    capability flags.  The flags are declarative *contracts* the
    property-test suite enforces:

    * ``budget_aware`` — whenever the ``n`` cheapest available clients
      fit the remaining budget, the selection's rental cost does too;
    * ``deadline_aware`` — selection reacts to a per-epoch deadline;
    * ``reliability_aware`` — selection reads ``ctx.reliability``;
    * ``randomized`` — the decision consumes RNG draws even with fully
      observed, distinct inputs (permutation equivariance then only
      holds in distribution, so the exact-relabeling property is skipped);
    * ``needs_oracle`` — requires ``ctx.tau_oracle`` (1-lookahead).
    """

    name: str = ""
    description: str = ""
    params: Tuple[ParamSpec, ...] = ()
    budget_aware: bool = False
    reliability_aware: bool = False
    deadline_aware: bool = False
    randomized: bool = False
    needs_oracle: bool = False

    @classmethod
    def from_config(
        cls, config: ExperimentConfig, rng: np.random.Generator, **params: Any
    ) -> SelectionPolicy:
        """Build from already-resolved ``params``: ``cls(config, rng, **params)``.

        Only the FedL family overrides this (see
        :meth:`repro.core.fedl.FedLPolicy.from_config`)."""
        return cls(config, rng, **params)

    @classmethod
    def param(cls, name: str) -> ParamSpec:
        for p in cls.params:
            if p.name == name:
                return p
        raise StrategyParamError(
            cls.name, name,
            f"unknown parameter; known: {sorted(p.name for p in cls.params)}",
        )

    @classmethod
    def capabilities(cls) -> Tuple[str, ...]:
        flags = (
            ("budget", cls.budget_aware),
            ("deadline", cls.deadline_aware),
            ("reliability", cls.reliability_aware),
            ("randomized", cls.randomized),
            ("oracle", cls.needs_oracle),
        )
        return tuple(label for label, on in flags if on)


#: Insertion-ordered registry; order defines listing/CLI/report order.
STRATEGY_REGISTRY: Dict[str, Type[Strategy]] = {}


def register_strategy(cls: Type[Strategy]) -> Type[Strategy]:
    """Class decorator: add ``cls`` under ``cls.name`` (duplicates are a bug)."""
    if cls.name in STRATEGY_REGISTRY:
        raise StrategyError(f"strategy {cls.name!r} registered twice")
    STRATEGY_REGISTRY[cls.name] = cls
    return cls


def get_strategy(name: str) -> Type[Strategy]:
    """Look up a strategy class by name; raises :class:`UnknownStrategyError`."""
    try:
        return STRATEGY_REGISTRY[name]
    except KeyError:
        raise UnknownStrategyError(name) from None


def strategy_names() -> Tuple[str, ...]:
    """Every registered strategy name, in registration order."""
    return tuple(STRATEGY_REGISTRY)


def wrappable_names() -> Tuple[str, ...]:
    """Strategies a wrapper (OverSelect, deadline filters) may delegate to:
    every one that needs no oracle and is not itself a wrapper, which keeps
    composition one level deep."""
    return tuple(
        name for name, cls in STRATEGY_REGISTRY.items()
        if not cls.needs_oracle and all(p.name != "base" for p in cls.params)
    )


#: Parameters several strategies declare.
ITERATIONS = ParamSpec(
    "iterations", default=2, kind=int, minimum=1,
    doc="fixed global iterations per epoch",
)
BASE = ParamSpec(
    "base", default="FedAvg", kind=str, choices=wrappable_names,
    doc="registered strategy the wrapper delegates selection to",
)
DEADLINE = ParamSpec(
    "deadline_s", kind=float, minimum=0, min_exclusive=True, optional=True,
    doc="epoch deadline in seconds (None: adaptive quantile)",
)


def resolve_params(
    cls: Type[Strategy],
    config: ExperimentConfig,
    overrides: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Defaults (derived against ``config``) overlaid with ``overrides``,
    every value validated against the schema."""
    params = {p.name: p.resolve_default(config) for p in cls.params}
    for key, value in dict(overrides or {}).items():
        params[key] = cls.param(key).validate(cls.name, value)
    return params


StrategyRef = Union[str, Mapping[str, Any]]


def build_strategy(
    ref: StrategyRef,
    config: ExperimentConfig,
    rng: np.random.Generator,
    params: Optional[Mapping[str, Any]] = None,
) -> SelectionPolicy:
    """Construct a policy from a name or a ``{"name", "params"}`` dict;
    ``params`` overlays the dict's (an explicit ``params`` entry wins)."""
    if isinstance(ref, str):
        name, ref_params = ref, {}
    elif isinstance(ref, Mapping):
        try:
            name = ref["name"]
        except KeyError:
            raise StrategyError("strategy dict needs a 'name' key") from None
        ref_params = dict(ref.get("params") or {})
    else:
        raise StrategyError(f"expected a strategy name or dict, got {ref!r}")
    cls = get_strategy(name)
    resolved = resolve_params(cls, config, {**ref_params, **(params or {})})
    return cls.from_config(config, rng, **resolved)


def build_base(
    name: str,
    config: ExperimentConfig,
    rng: np.random.Generator,
    iterations: int,
) -> SelectionPolicy:
    """A wrapper's delegate, sharing the wrapper's generator and, where the
    delegate declares one, its fixed iteration count."""
    declared = {p.name for p in get_strategy(name).params}
    params = {"iterations": iterations} if "iterations" in declared else {}
    return build_strategy(name, config, rng, params)
