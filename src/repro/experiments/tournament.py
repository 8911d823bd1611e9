"""Strategy tournament: every registered strategy × a scenario matrix.

The tournament harness turns "FedL vs a handful of baselines" into a
ranked, multi-seed benchmark: each :class:`ScenarioSpec` perturbs the
base experiment along one axis the repo can simulate (partition skew,
price regimes, adversaries, faults, aggregation modes), every registered
strategy runs every scenario over every seed through the sweep engine
(so the cache, dedup, and process-parallelism all apply), and the
aggregate lands in a versioned, JSON-persistable report:

* per-(scenario, strategy) cells: mean ± std accuracy / loss / spend /
  epochs over seeds;
* per-scenario rankings and winners;
* an overall ranking by mean rank across scenarios;
* a head-to-head table counting strict per-scenario wins.

Reports are byte-deterministic for a fixed (strategies, scenarios,
seeds, base config): all wall-clock data is isolated under the top-level
``"ts"`` key, per the repo's telemetry convention, and the sweep results
themselves are bit-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.atomic import atomic_write_text
from repro.config import ExperimentConfig
from repro.experiments.reporting import format_table
from repro.experiments.runner import ExperimentResult
from repro.experiments.scenarios import experiment_config
from repro.experiments.sweep import (
    PolicySpec,
    ProgressFn,
    SweepCache,
    SweepJob,
    run_sweep,
)
from repro.strategies import get_strategy, strategy_names

__all__ = [
    "TOURNAMENT_SCHEMA_VERSION",
    "ScenarioSpec",
    "SCENARIOS",
    "scenario_names",
    "get_scenario",
    "scenario_config",
    "UnknownScenarioError",
    "quick_base_config",
    "full_base_config",
    "run_tournament",
    "format_report",
    "save_report",
    "load_report",
]

#: Bump when the report layout changes incompatibly.
TOURNAMENT_SCHEMA_VERSION = 1


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
    :func:`scenario_config`); because the whole config enters the
    sweep-cache fingerprint, two scenarios never collide in the cache.
    ``quick`` marks scenarios safe and fast enough for the ``--quick``
    matrix (synchronous-engine only: event-driven fault scenarios can
    abort tiny runs through the participation floor).
    """

    name: str
    description: str
    overrides: Mapping[str, object] = field(default_factory=dict)
    quick: bool = False


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


def scenario_config(scenario: ScenarioSpec, base: ExperimentConfig) -> ExperimentConfig:
    """``base`` with ``scenario``'s overrides applied.

    The one base-dependent value lives here: an async scenario's quorum
    is the base's participation floor ``n``, so the epoch closes once
    ``n`` uploads have arrived whatever the base's scale; a deadline the
    base set does not apply to async aggregation and is dropped.
    """
    overrides = dict(scenario.overrides)
    if overrides.get("sim.aggregation") == "async":
        overrides["sim.quorum"] = base.min_participants
        overrides["sim.deadline_s"] = None
    return base.override(overrides)


def scenario_names(quick: bool = False) -> Tuple[str, ...]:
    """Scenario names, optionally restricted to the quick matrix."""
    return tuple(s.name for s in SCENARIOS if s.quick or not quick)


def get_scenario(name: str) -> ScenarioSpec:
    for s in SCENARIOS:
        if s.name == name:
            return s
    raise UnknownScenarioError(name)


def quick_base_config(seed: int = 0) -> ExperimentConfig:
    """The tiny smoke-scale base experiment (seconds per strategy)."""
    return experiment_config(
        dataset="fmnist",
        iid=True,
        budget=120.0,
        seed=seed,
        num_clients=8,
        min_participants=3,
        max_epochs=3,
    )


def full_base_config(seed: int = 0) -> ExperimentConfig:
    """The development-scale base experiment (minutes per strategy)."""
    return experiment_config(
        dataset="fmnist",
        iid=True,
        budget=800.0,
        seed=seed,
        num_clients=20,
        min_participants=5,
        max_epochs=40,
    )


# --- aggregation ---------------------------------------------------------------


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _std(values: Sequence[float]) -> float:
    m = _mean(values)
    return (sum((v - m) ** 2 for v in values) / len(values)) ** 0.5


def _cell(results: Sequence[ExperimentResult]) -> dict:
    """Aggregate one (scenario, strategy) cell over seeds."""
    accs = [r.trace.final_accuracy for r in results]
    losses = [r.trace.final_loss for r in results]
    spends = [r.trace.total_spend for r in results]
    epochs = [float(len(r.trace.records)) for r in results]
    return {
        "accuracy": {"mean": _mean(accs), "std": _std(accs)},
        "loss": {"mean": _mean(losses), "std": _std(losses)},
        "spend": {"mean": _mean(spends), "std": _std(spends)},
        "epochs": {"mean": _mean(epochs), "std": _std(epochs)},
        "seeds": len(results),
        "stop_reasons": sorted({r.stop_reason for r in results}),
    }


def run_tournament(
    strategies: Optional[Sequence[str]] = None,
    scenarios: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (0,),
    base_config: Optional[ExperimentConfig] = None,
    workers: Optional[int] = None,
    cache: Optional[SweepCache] = None,
    progress: Optional[ProgressFn] = None,
    telemetry=None,
) -> dict:
    """Run the tournament and return the report dict.

    Defaults: every registered strategy, the quick scenario matrix, one
    seed, the quick base config.  Strategy and scenario names are
    validated up front with typed errors.  ``telemetry`` is forwarded to
    the sweep engine so tournament cells record per-job/worker traces
    into the same hub the caller finalizes.
    """
    names = list(strategies) if strategies else list(strategy_names())
    for name in names:
        get_strategy(name)  # raises UnknownStrategyError
    if scenarios:
        matrix = [get_scenario(s) for s in scenarios]
    else:
        matrix = [s for s in SCENARIOS if s.quick]
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    base = base_config if base_config is not None else quick_base_config()

    jobs: List[SweepJob] = []
    index: List[Tuple[str, str, int]] = []
    for scenario in matrix:
        for name in names:
            for seed in seeds:
                cfg = scenario_config(scenario, base.replace(seed=seed))
                jobs.append(SweepJob(PolicySpec(name), cfg))
                index.append((scenario.name, name, seed))
    results = run_sweep(
        jobs, workers=workers, cache=cache, progress=progress,
        telemetry=telemetry,
    )

    by_cell: Dict[str, Dict[str, List[ExperimentResult]]] = {}
    for (scenario_name, strat, _seed), result in zip(index, results):
        by_cell.setdefault(scenario_name, {}).setdefault(strat, []).append(result)

    cells = {
        scenario.name: {name: _cell(by_cell[scenario.name][name]) for name in names}
        for scenario in matrix
    }

    # Per-scenario rankings: accuracy descending, name as the tiebreak.
    rankings: Dict[str, List[str]] = {}
    for scenario in matrix:
        ordered = sorted(
            names,
            key=lambda n: (-cells[scenario.name][n]["accuracy"]["mean"], n),
        )
        rankings[scenario.name] = ordered
    winners = {s: ranked[0] for s, ranked in rankings.items()}

    # Overall: mean rank across scenarios, then mean accuracy, then name.
    mean_rank = {
        n: _mean([rankings[s.name].index(n) + 1 for s in matrix]) for n in names
    }
    mean_acc = {
        n: _mean([cells[s.name][n]["accuracy"]["mean"] for s in matrix])
        for n in names
    }
    overall = sorted(names, key=lambda n: (mean_rank[n], -mean_acc[n], n))

    # Head-to-head: strict per-scenario wins on mean accuracy.
    head_to_head = {
        a: {
            b: sum(
                1
                for s in matrix
                if cells[s.name][a]["accuracy"]["mean"]
                > cells[s.name][b]["accuracy"]["mean"]
            )
            for b in names
            if b != a
        }
        for a in names
    }

    return {
        "schema": TOURNAMENT_SCHEMA_VERSION,
        "strategies": [
            {
                "name": n,
                "capabilities": list(get_strategy(n).capabilities()),
                "description": get_strategy(n).description,
            }
            for n in names
        ],
        "scenarios": [
            {"name": s.name, "description": s.description} for s in matrix
        ],
        "seeds": seeds,
        "base_config": {
            "num_clients": base.population.num_clients,
            "min_participants": base.min_participants,
            "max_epochs": base.max_epochs,
            "budget": base.budget,
            "dataset": base.data.dataset,
        },
        "cells": cells,
        "rankings": rankings,
        "winners": winners,
        "overall": [
            {
                "rank": i + 1,
                "strategy": n,
                "mean_rank": mean_rank[n],
                "mean_accuracy": mean_acc[n],
                "scenario_wins": sum(1 for s in matrix if winners[s.name] == n),
            }
            for i, n in enumerate(overall)
        ],
        "head_to_head": head_to_head,
    }


# --- rendering -----------------------------------------------------------------


def _fmt_band(stats: Mapping[str, float]) -> str:
    return f"{stats['mean']:.4f}±{stats['std']:.4f}"


def format_report(report: dict) -> str:
    """Render a tournament report as ASCII tables."""
    names = [s["name"] for s in report["strategies"]]
    scen = [s["name"] for s in report["scenarios"]]
    lines: List[str] = []
    lines.append(
        f"tournament: {len(names)} strategies x {len(scen)} scenarios "
        f"x {len(report['seeds'])} seed(s)"
    )
    lines.append("")

    caps = {s["name"]: ",".join(s["capabilities"]) or "-" for s in report["strategies"]}
    overall = [
        (row["rank"], {
            "strategy": row["strategy"],
            "mean-rank": f"{row['mean_rank']:.2f}",
            "mean-acc": f"{row['mean_accuracy']:.4f}",
            "wins": row["scenario_wins"],
            "capabilities": caps[row["strategy"]],
        })
        for row in report["overall"]
    ]
    lines.append(format_table(
        overall, label="#",
        title="overall ranking (mean rank across scenarios; accuracy band over seeds)",
    ))
    lines.append("")

    accuracy = {
        name: {
            s: _fmt_band(report["cells"][s][name]["accuracy"])
            + ("*" if report["winners"][s] == name else " ")
            for s in scen
        }
        for name in names
    }
    lines.append(format_table(
        accuracy, label="strategy",
        title="per-scenario accuracy (mean±std over seeds; * = winner)",
    ))
    lines.append("")

    short = [n[:7] for n in names]
    if len(set(short)) < len(short):
        short = names                 # truncation would merge two columns
    wins = {
        name: {
            col: "." if other == name else report["head_to_head"][name][other]
            for col, other in zip(short, names)
        }
        for name in names
    }
    lines.append(format_table(
        wins, label="strategy", title="head-to-head (row beats column in N scenarios)"
    ))
    return "\n".join(lines)


# --- persistence ---------------------------------------------------------------


def save_report(report: dict, path: str | Path, ts: Optional[dict] = None) -> Path:
    """Atomically write a report as canonical JSON.

    The payload minus ``ts`` is byte-deterministic for a fixed matrix:
    keys are sorted and every wall-clock datum lives under ``ts``.
    """
    path = Path(path)
    payload = dict(report)
    if ts is not None:
        payload["ts"] = ts
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2))
    return path


def load_report(path: str | Path) -> dict:
    """Read a report written by :func:`save_report`; validates schema."""
    payload = json.loads(Path(path).read_text())
    version = payload.get("schema")
    if version != TOURNAMENT_SCHEMA_VERSION:
        raise ValueError(f"unsupported tournament schema: {version!r}")
    return payload
