"""Figure 6 — Budget impact, Fashion-MNIST: final loss vs budget C.

Paper shape: baselines' final loss falls visibly as the budget grows
(bigger C buys more rounds); FedL's curve is flatter and sits at or below
the baselines even at the small-budget end ("FedL can finish FL tasks
with less budget").
"""

import numpy as np
import pytest

from benchmarks.conftest import BENCH_CLIENTS, BENCH_EPOCHS, SWEEP_WORKERS
from repro.experiments.figures import loss_vs_budget, paper_grid
from repro.experiments.reporting import format_series
from repro.experiments.sweep import run_grid

BUDGETS = (300.0, 800.0, 2000.0)


@pytest.mark.benchmark(group="fig6")
@pytest.mark.parametrize("iid", [True, False], ids=["iid", "non_iid"])
def test_fig6_fmnist_budget_impact(benchmark, emit, iid):
    series = benchmark.pedantic(
        lambda: loss_vs_budget(run_grid(
            paper_grid(
                BUDGETS,
                dataset="fmnist",
                iid=iid,
                num_clients=BENCH_CLIENTS,
                max_epochs=BENCH_EPOCHS,
            ),
            workers=SWEEP_WORKERS,
        )),
        rounds=1,
        iterations=1,
    )
    emit(
        format_series(
            series,
            x_label="budget",
            y_label="final loss",
            title=f"[fig6] FMNIST final loss vs budget ({'IID' if iid else 'Non-IID'})",
        )
    )
    # Non-IID runs are noisier (the paper notes the fluctuation), so
    # the shape assertions carry a wider band there.
    tol = 0.10 if iid else 0.25
    fedl = dict(series["FedL"])
    # 1. At the smallest budget FedL's loss beats (or matches) every baseline.
    for name in ("FedAvg", "FedCS", "Pow-d"):
        other = dict(series[name])
        assert fedl[BUDGETS[0]] <= other[BUDGETS[0]] + tol, name
    # 2. FedL's curve is comparatively flat: its small-to-large budget loss
    #    drop is no larger than the worst baseline's drop.
    fedl_drop = fedl[BUDGETS[0]] - fedl[BUDGETS[-1]]
    max_base_drop = max(
        dict(series[n])[BUDGETS[0]] - dict(series[n])[BUDGETS[-1]]
        for n in ("FedAvg", "FedCS", "Pow-d")
    )
    assert fedl_drop <= max_base_drop + 2 * tol
