"""Reproducibility bench — fig. 2 orderings across seeds.

Runs the FMNIST suite over multiple seeds and aggregates per-round
accuracy into mean ± std bands: the paper's orderings should hold in the
mean, not just in one lucky draw.
"""

import numpy as np
import pytest

from benchmarks.conftest import SWEEP_WORKERS
from repro.experiments.figures import paper_grid, policy_traces
from repro.experiments.stats import aggregate_on_rounds
from repro.experiments.sweep import run_grid

SEEDS = (0, 1, 2)


@pytest.mark.benchmark(group="robustness")
def test_fig2_orderings_hold_in_the_mean(benchmark, emit):
    grouped = benchmark.pedantic(
        lambda: policy_traces(run_grid(
            paper_grid(
                seeds=SEEDS,
                dataset="fmnist",
                iid=True,
                budget=800.0,
                num_clients=16,
                max_epochs=40,
            ),
            workers=SWEEP_WORKERS,
        )),
        rounds=1,
        iterations=1,
    )
    bands = {name: aggregate_on_rounds(traces) for name, traces in grouped.items()}
    horizon = min(b.x.size for b in bands.values())
    lines = [f"[multiseed] mean±std accuracy at the common horizon ({len(SEEDS)} seeds)"]
    finals = {}
    for name, band in bands.items():
        mu, sd = band.mean[horizon - 1], band.std[horizon - 1]
        finals[name] = mu
        lines.append(f"  {name:7s}: {mu:.3f} ± {sd:.3f}")
    emit("\n".join(lines))
    # Mean final accuracy of FedL is top-tier across seeds.
    best_baseline = max(v for k, v in finals.items() if k != "FedL")
    assert finals["FedL"] >= best_baseline - 0.05
    # Bands are tight enough to be meaningful (the simulator is not noise-
    # dominated at this scale).
    assert all(b.std[horizon - 1] < 0.2 for b in bands.values())
