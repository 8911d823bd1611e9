"""Paper scenario parameterizations, the tournament's scenario matrix,
and the policy factory.

The paper runs M = 100 clients with real CNN training; at NumPy speed we
scale the *experiment* defaults down (M = 30, 14×14 / 16×16 images, MLP)
while keeping every structural knob — availability, pricing, FDMA sharing,
Poisson volumes, IID/non-IID — at the paper's values.  The config builder
exposes all of it, so paper-scale runs are one ``replace`` away.

:data:`PAPER_SCALE` and each :class:`ScenarioSpec` of the tournament's
matrix :data:`SCENARIOS` are dotted-path overrides of such a config.

``make_policy(name, config, rng, params=None)`` is the strategy registry's
one build function, :func:`repro.strategies.build_strategy`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

from repro.config import (
    DataConfig,
    ExperimentConfig,
    FedLConfig,
    PopulationConfig,
    TrainingConfig,
)
from repro.strategies import build_strategy as make_policy

__all__ = [
    "experiment_config",
    "PAPER_SCALE",
    "make_policy",
    "POLICY_NAMES",
    "ScenarioSpec",
    "SCENARIOS",
    "UnknownScenarioError",
    "scenario_names",
    "get_scenario",
]

#: The paper's comparison set (Sec. 6): FedL and its three baselines.
POLICY_NAMES = ("FedL", "FedAvg", "FedCS", "Pow-d")


def experiment_config(
    dataset: str = "fmnist",
    iid: bool = True,
    budget: float = 2500.0,
    seed: int = 0,
    num_clients: int = 30,
    min_participants: int = 5,
    max_epochs: int = 300,
    model: str = "mlp",
) -> ExperimentConfig:
    """Experiment-scale config mirroring the paper's Sec. 6.1 setting."""
    # Difficulty calibrated so a run takes tens of federated rounds to
    # plateau (CIFAR-like harder than FMNIST-like, as in the paper).
    noise = 0.8 if dataset == "fmnist" else 1.1
    return ExperimentConfig(
        seed=seed,
        budget=budget,
        min_participants=min_participants,
        max_epochs=max_epochs,
        population=PopulationConfig(num_clients=num_clients),
        data=DataConfig(
            dataset=dataset, iid=iid, feature_noise=noise, samples_per_client=30
        ),
        training=TrainingConfig(model=model),
        fedl=FedLConfig(),
    )


#: The paper's full Sec. 6.1 scale as overrides of :func:`experiment_config`:
#: M = 100 clients, full-resolution 28×28 / 32×32 images, the CNN model
#: family, n = 10 participants (the budget stays an axis of its own: about
#: 20 000 at this scale).  A complete run takes tens of minutes of NumPy
#: time — the experiment scale is for development and benches.
PAPER_SCALE = {
    "population.num_clients": 100,
    "min_participants": 10,
    "max_epochs": 500,
    "data.samples_per_client": 60,
    "data.downscale": 1,
    "training.model": "cnn",
}


# --- the tournament's scenario matrix -----------------------------------------


class UnknownScenarioError(ValueError):
    """Raised when a scenario name is not in the matrix."""

    def __init__(self, name: str) -> None:
        self.scenario = name
        super().__init__(
            f"unknown scenario {name!r}; known: "
            f"{', '.join(s.name for s in SCENARIOS)}"
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One column of the tournament matrix: a named config perturbation.

    ``overrides`` are dotted-path changes applied to the base experiment
    by :meth:`~repro.config.ExperimentConfig.override` (see
    :meth:`overrides_for`); because the whole config enters the
    sweep-cache fingerprint, two scenarios never collide in the cache.
    ``quick`` marks scenarios safe and fast enough for the ``--quick``
    matrix (synchronous-engine only: event-driven fault scenarios can
    abort tiny runs through the participation floor).
    """

    name: str
    description: str
    overrides: Mapping[str, object] = field(default_factory=dict)
    quick: bool = False

    def overrides_for(self, base: ExperimentConfig) -> Dict[str, object]:
        """``overrides`` as they apply to ``base``.

        The one base-dependent value lives here: an async scenario's
        quorum is the base's participation floor ``n``, so the epoch
        closes once ``n`` uploads have arrived whatever the base's scale;
        a deadline the base set does not apply to async aggregation and
        is dropped.
        """
        overrides = dict(self.overrides)
        if overrides.get("sim.aggregation") == "async":
            overrides["sim.quorum"] = base.min_participants
            overrides["sim.deadline_s"] = None
        return overrides


#: The scenario matrix.  Order defines report column order.
SCENARIOS: Tuple[ScenarioSpec, ...] = (
    ScenarioSpec(
        "iid",
        "the paper's baseline setting: IID shards, stable prices",
        {"data.iid": True},
        quick=True,
    ),
    ScenarioSpec(
        "non-iid",
        "paper-style label-skew partition",
        {"data.iid": False},
        quick=True,
    ),
    ScenarioSpec(
        "dirichlet",
        "dirichlet(0.3) partition: heavy client heterogeneity",
        {"data.iid": False, "data.partition": "dirichlet",
         "data.dirichlet_alpha": 0.3},
    ),
    ScenarioSpec(
        "volatile-prices",
        "AR(1) price innovations at 0.5: costs swing round to round",
        {"population.cost_volatility": 0.5},
        quick=True,
    ),
    ScenarioSpec(
        "flat-prices",
        "frozen prices: cost signal carries no information",
        {"population.cost_volatility": 0.0},
    ),
    ScenarioSpec(
        "byzantine",
        "25% sign-flip attackers behind a trimmed-mean defense",
        {"attack.kind": "sign-flip", "attack.fraction": 0.25,
         "defense.aggregator": "trimmed-mean"},
        quick=True,
    ),
    ScenarioSpec(
        "markov-churn",
        "markov availability: clients flap in correlated bursts",
        {"population.availability_model": "markov"},
        quick=True,
    ),
    ScenarioSpec(
        "flaky-uplink",
        "event-driven runtime with 30% upload failures and retries",
        {"training.engine": "des", "sim.faults": "flaky-uplink"},
    ),
    ScenarioSpec(
        "async-quorum",
        "asynchronous aggregation: epoch closes at the quorum",
        {"training.engine": "des", "sim.aggregation": "async"},
    ),
)


def scenario_names(quick: bool = False) -> Tuple[str, ...]:
    """Scenario names, optionally restricted to the quick matrix."""
    return tuple(s.name for s in SCENARIOS if s.quick or not quick)


def get_scenario(name: str) -> ScenarioSpec:
    for s in SCENARIOS:
        if s.name == name:
            return s
    raise UnknownScenarioError(name)
