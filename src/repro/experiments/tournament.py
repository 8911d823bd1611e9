"""Strategy tournament: every registered strategy × a scenario matrix.

The tournament turns "FedL vs a handful of baselines" into a ranked,
multi-seed benchmark: a :class:`~repro.experiments.sweep.Grid` of
strategies × :data:`~repro.experiments.scenarios.SCENARIOS` (partition
skew, price regimes, adversaries, faults, aggregation modes) × seeds, and
:func:`tournament_report` over its results, versioned and JSON-persistable:

* per-(scenario, strategy) cells: mean ± std accuracy / loss / spend /
  epochs over seeds (:func:`~repro.experiments.stats.mean_std`);
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
from pathlib import Path
from typing import List, Mapping, Optional, Sequence

from repro.atomic import atomic_write_text
from repro.config import ExperimentConfig
from repro.experiments.reporting import format_table
from repro.experiments.runner import ExperimentResult
from repro.experiments.scenarios import experiment_config, get_scenario, scenario_names
from repro.experiments.stats import mean_std
from repro.experiments.sweep import Grid, GridResults
from repro.strategies import get_strategy, strategy_names

__all__ = [
    "TOURNAMENT_SCHEMA_VERSION",
    "QUICK_BASE",
    "FULL_BASE",
    "tournament_grid",
    "tournament_report",
    "format_report",
    "save_report",
    "load_report",
]

#: Bump when the report layout changes incompatibly.
TOURNAMENT_SCHEMA_VERSION = 1

#: The tiny smoke-scale base experiment (seconds per strategy; fmnist, IID).
QUICK_BASE = experiment_config(
    budget=120.0, num_clients=8, min_participants=3, max_epochs=3
)
#: The development-scale base experiment (minutes per strategy).
FULL_BASE = experiment_config(
    budget=800.0, num_clients=20, min_participants=5, max_epochs=40
)


def tournament_grid(
    strategies: Optional[Sequence[str]] = None,
    scenarios: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (0,),
    base_config: Optional[ExperimentConfig] = None,
) -> Grid:
    """The tournament's grid.

    Defaults: every registered strategy, the quick scenario matrix, one
    seed, :data:`QUICK_BASE`.  An unknown strategy or scenario name is a
    typed ``ValueError``, and so is a repeated strategy, scenario or seed.
    """
    base = QUICK_BASE if base_config is None else base_config
    matrix = [get_scenario(s) for s in scenarios or scenario_names(quick=True)]
    return Grid(
        base,
        list(strategies) if strategies else list(strategy_names()),
        [(s.name, s.overrides_for(base)) for s in matrix],
        seeds,
    )


def _cell(results: Sequence[ExperimentResult]) -> dict:
    """Aggregate one (scenario, strategy) cell over seeds."""
    return {
        "accuracy": mean_std([r.trace.final_accuracy for r in results]),
        "loss": mean_std([r.trace.final_loss for r in results]),
        "spend": mean_std([r.trace.total_spend for r in results]),
        "epochs": mean_std([float(len(r.trace.records)) for r in results]),
        "seeds": len(results),
        "stop_reasons": sorted({r.stop_reason for r in results}),
    }


def tournament_report(grid: Grid, cells: GridResults) -> dict:
    """The report dict over a tournament grid's results."""
    names = [p.name for p in grid.policies]
    scenarios = [name for name, _ in grid.scenarios]
    table = {s: {n: _cell(cells[s, n]) for n in names} for s in scenarios}

    def accuracy(s: str, n: str) -> float:
        return table[s][n]["accuracy"]["mean"]

    # Per-scenario rankings: accuracy descending, name as the tiebreak.
    rankings = {
        s: sorted(names, key=lambda n: (-accuracy(s, n), n)) for s in scenarios
    }
    winners = {s: ranked[0] for s, ranked in rankings.items()}

    # Overall: mean rank across scenarios, then mean accuracy, then name.
    mean_rank = {
        n: mean_std([rankings[s].index(n) + 1 for s in scenarios])["mean"]
        for n in names
    }
    mean_acc = {
        n: mean_std([accuracy(s, n) for s in scenarios])["mean"] for n in names
    }
    overall = sorted(names, key=lambda n: (mean_rank[n], -mean_acc[n], n))

    # Head-to-head: strict per-scenario wins on mean accuracy.
    head_to_head = {
        a: {
            b: sum(1 for s in scenarios if accuracy(s, a) > accuracy(s, b))
            for b in names
            if b != a
        }
        for a in names
    }

    base = grid.base
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
            {"name": s, "description": get_scenario(s).description}
            for s in scenarios
        ],
        "seeds": list(grid.seeds),
        "base_config": {
            "num_clients": base.population.num_clients,
            "min_participants": base.min_participants,
            "max_epochs": base.max_epochs,
            "budget": base.budget,
            "dataset": base.data.dataset,
        },
        "cells": table,
        "rankings": rankings,
        "winners": winners,
        "overall": [
            {
                "rank": i + 1,
                "strategy": n,
                "mean_rank": mean_rank[n],
                "mean_accuracy": mean_acc[n],
                "scenario_wins": sum(1 for s in scenarios if winners[s] == n),
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
