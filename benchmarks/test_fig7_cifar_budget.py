"""Figure 7 — Budget impact, CIFAR-10: final loss vs budget C."""

import pytest

from benchmarks.conftest import BENCH_CLIENTS, BENCH_EPOCHS, SWEEP_WORKERS
from repro.experiments.figures import loss_vs_budget, paper_grid
from repro.experiments.reporting import format_series
from repro.experiments.sweep import run_grid

BUDGETS = (300.0, 800.0, 2000.0)


@pytest.mark.benchmark(group="fig7")
@pytest.mark.parametrize("iid", [True, False], ids=["iid", "non_iid"])
def test_fig7_cifar_budget_impact(benchmark, emit, iid):
    series = benchmark.pedantic(
        lambda: loss_vs_budget(run_grid(
            paper_grid(
                BUDGETS,
                dataset="cifar10",
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
            title=f"[fig7] CIFAR-10 final loss vs budget ({'IID' if iid else 'Non-IID'})",
        )
    )
    # Non-IID runs are noisier (the paper notes the fluctuation), so
    # the shape assertions carry a wider band there.
    tol = 0.10 if iid else 0.25
    fedl = dict(series["FedL"])
    for name in ("FedAvg", "FedCS", "Pow-d"):
        other = dict(series[name])
        assert fedl[BUDGETS[0]] <= other[BUDGETS[0]] + tol, name
    fedl_drop = fedl[BUDGETS[0]] - fedl[BUDGETS[-1]]
    max_base_drop = max(
        dict(series[n])[BUDGETS[0]] - dict(series[n])[BUDGETS[-1]]
        for n in ("FedAvg", "FedCS", "Pow-d")
    )
    assert fedl_drop <= max_base_drop + 2 * tol
