"""Declarative registry of client-selection strategies.

Every selection policy the repo knows — the paper's FedL, the classic
baselines, and the zoo of newer scorers — is registered here as a
:class:`StrategySpec`: a name, a typed parameter schema (defaults,
bounds, choices), capability flags (budget-aware, reliability-aware,
deadline-aware, ...), and a builder.  The spec makes strategies
*addressable as data*: the CLI, :class:`~repro.experiments.sweep.
PolicySpec` (name + params), the sweep cache, and the tournament harness all
construct policies through :func:`build_strategy` from a plain name (or
a ``{"name": ..., "params": {...}}`` dict) instead of hard-coded
constructor calls.

Errors are typed so callers can map them to exit codes:
:class:`UnknownStrategyError` for a name that is not registered,
:class:`StrategyParamError` for an unknown/ill-typed/out-of-bounds
parameter.  Both subclass ``ValueError`` for backward compatibility with
the historical ``make_policy`` contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.baselines.base import SelectionPolicy
from repro.config import ExperimentConfig

__all__ = [
    "StrategyError",
    "UnknownStrategyError",
    "StrategyParamError",
    "ParamSpec",
    "StrategySpec",
    "STRATEGY_REGISTRY",
    "register_strategy",
    "get_strategy",
    "strategy_names",
    "resolve_params",
    "build_strategy",
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
    values inclusively; ``choices`` enumerates valid strings.
    """

    name: str
    default: Any = None
    kind: type = float
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    choices: Optional[Tuple[str, ...]] = None
    doc: str = ""
    derive: Optional[Callable[[ExperimentConfig], Any]] = None
    optional: bool = False  # None is a legal value (e.g. adaptive deadline)

    def resolve_default(self, config: ExperimentConfig) -> Any:
        return self.derive(config) if self.derive is not None else self.default

    def validate(self, strategy: str, value: Any) -> Any:
        """Coerce and bounds-check one value; raises StrategyParamError."""
        if value is None:
            if self.optional:
                return None
            raise StrategyParamError(strategy, self.name, "may not be None")
        if self.kind is bool:
            if not isinstance(value, (bool, np.bool_)):
                raise StrategyParamError(strategy, self.name, "expected a bool")
            return bool(value)
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
        if self.choices is not None and value not in self.choices:
            raise StrategyParamError(
                strategy, self.name, f"must be one of {sorted(self.choices)}"
            )
        if self.minimum is not None and value < self.minimum:
            raise StrategyParamError(
                strategy, self.name, f"must be >= {self.minimum}"
            )
        if self.maximum is not None and value > self.maximum:
            raise StrategyParamError(
                strategy, self.name, f"must be <= {self.maximum}"
            )
        return value


Builder = Callable[
    [ExperimentConfig, np.random.Generator, Dict[str, Any]], SelectionPolicy
]


@dataclass(frozen=True)
class StrategySpec:
    """A registered selection strategy: schema + capabilities + builder.

    Capability flags are declarative *contracts* the property-test suite
    enforces:

    * ``budget_aware`` — whenever the ``n`` cheapest available clients
      fit the remaining budget, the selection's rental cost does too;
    * ``deadline_aware`` — selection reacts to a per-epoch deadline;
    * ``reliability_aware`` — selection reads ``ctx.reliability``;
    * ``randomized`` — the decision consumes RNG draws even with fully
      observed, distinct inputs (permutation equivariance then only
      holds in distribution, so the exact-relabeling property is skipped);
    * ``needs_oracle`` — requires ``ctx.tau_oracle`` (1-lookahead).
    """

    name: str
    description: str
    builder: Builder
    params: Tuple[ParamSpec, ...] = ()
    budget_aware: bool = False
    reliability_aware: bool = False
    deadline_aware: bool = False
    randomized: bool = False
    needs_oracle: bool = False
    paper_baseline: bool = False  # part of the original FedL comparison set

    def param(self, name: str) -> ParamSpec:
        for p in self.params:
            if p.name == name:
                return p
        raise StrategyParamError(
            self.name, name,
            f"unknown parameter; known: {sorted(p.name for p in self.params)}",
        )

    def capabilities(self) -> Tuple[str, ...]:
        flags = []
        if self.budget_aware:
            flags.append("budget")
        if self.deadline_aware:
            flags.append("deadline")
        if self.reliability_aware:
            flags.append("reliability")
        if self.randomized:
            flags.append("randomized")
        if self.needs_oracle:
            flags.append("oracle")
        return tuple(flags)


#: Insertion-ordered registry; order defines listing/CLI/report order.
STRATEGY_REGISTRY: Dict[str, StrategySpec] = {}


def register_strategy(spec: StrategySpec) -> StrategySpec:
    """Add ``spec`` to the registry (duplicate names are a bug)."""
    if spec.name in STRATEGY_REGISTRY:
        raise StrategyError(f"strategy {spec.name!r} registered twice")
    STRATEGY_REGISTRY[spec.name] = spec
    return spec


def get_strategy(name: str) -> StrategySpec:
    """Look up a spec by name; raises :class:`UnknownStrategyError`."""
    try:
        return STRATEGY_REGISTRY[name]
    except KeyError:
        raise UnknownStrategyError(name) from None


def strategy_names() -> Tuple[str, ...]:
    """Every registered strategy name, in registration order."""
    return tuple(STRATEGY_REGISTRY)


def resolve_params(
    spec: StrategySpec,
    config: ExperimentConfig,
    overrides: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Defaults (derived against ``config``) overlaid with ``overrides``,
    every value validated against the schema."""
    params = {p.name: p.resolve_default(config) for p in spec.params}
    for key, value in dict(overrides or {}).items():
        pspec = spec.param(key)  # raises on unknown names
        params[key] = pspec.validate(spec.name, value)
    return params


StrategyRef = Union[str, Mapping[str, Any]]


def build_strategy(
    ref: StrategyRef,
    config: ExperimentConfig,
    rng: np.random.Generator,
    params: Optional[Mapping[str, Any]] = None,
    *,
    iterations: Optional[int] = None,
    deadline_s: Optional[float] = None,
) -> SelectionPolicy:
    """Construct a policy from a name or a ``{"name", "params"}`` dict.

    ``iterations``/``deadline_s`` are the historical ``make_policy``
    keyword interface; they fill the matching schema parameters only
    when present in the schema and not already set by ``params`` (an
    explicit ``params`` entry always wins).
    """
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
    spec = get_strategy(name)
    merged = dict(ref_params)
    merged.update(params or {})
    names = {p.name for p in spec.params}
    if iterations is not None and "iterations" in names:
        merged.setdefault("iterations", iterations)
    if deadline_s is not None and "deadline_s" in names:
        merged.setdefault("deadline_s", deadline_s)
    resolved = resolve_params(spec, config, merged)
    return spec.builder(config, rng, resolved)
