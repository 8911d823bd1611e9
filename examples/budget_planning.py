"""Budget-impact study (mini Figures 6-7).

Sweeps the long-term budget C and reports each policy's final loss — the
paper's point: baselines need a large budget to drive the loss down, while
FedL "consistently preserves lower losses even with a small budget".

Usage::

    python examples/budget_planning.py
"""

from repro.experiments import format_series
from repro.experiments.figures import loss_vs_budget, paper_grid
from repro.experiments.sweep import run_grid


def main() -> None:
    budgets = (300.0, 800.0, 2000.0)
    grid = paper_grid(budgets, dataset="fmnist", iid=True, num_clients=20, max_epochs=80)
    series = loss_vs_budget(run_grid(grid))
    print(
        format_series(
            series,
            x_label="budget C",
            y_label="final test loss",
            title="Budget impact — synthetic FMNIST (IID)",
        )
    )
    print()
    fedl = dict(series["FedL"])
    fedavg = dict(series["FedAvg"])
    small, large = budgets[0], budgets[-1]
    print(
        f"Loss at C={small:.0f}:  FedL {fedl[small]:.3f}  vs  FedAvg {fedavg[small]:.3f}"
    )
    print(
        f"Loss at C={large:.0f}:  FedL {fedl[large]:.3f}  vs  FedAvg {fedavg[large]:.3f}"
    )
    print()
    print("FedL's curve is flat: it finishes the task within the small budget;")
    print("the baselines need the extra rounds a bigger budget buys.")


if __name__ == "__main__":
    main()
