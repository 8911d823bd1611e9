"""Compare FedL against the paper's three baselines (mini Figure 2).

Runs FedL, FedAvg, FedCS, and Pow-d on identical environments and prints
accuracy-vs-time series plus the completion-time table the paper's
headline claim ("FedL reduces at least 38% completion time") is based on.

Usage::

    python examples/compare_policies.py [--dataset fmnist|cifar10] [--non-iid]
"""

import argparse

from repro.experiments import format_series, format_table, headline_claims
from repro.experiments.figures import accuracy_vs_time, paper_grid, suite_traces
from repro.experiments.sweep import run_grid


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="fmnist", choices=["fmnist", "cifar10"])
    parser.add_argument("--non-iid", action="store_true")
    parser.add_argument("--budget", type=float, default=1500.0)
    args = parser.parse_args()

    grid = paper_grid(
        dataset=args.dataset,
        iid=not args.non_iid,
        budget=args.budget,
        num_clients=20,
        max_epochs=80,
    )
    traces = suite_traces(run_grid(grid))

    print(
        format_series(
            accuracy_vs_time(traces),
            x_label="seconds",
            y_label="test accuracy",
            title=f"Accuracy vs time — {args.dataset} "
            f"({'IID' if not args.non_iid else 'Non-IID'})",
        )
    )
    print()

    target = 0.75
    rows = {}
    for name, tr in traces.items():
        t = tr.time_to_accuracy(target)
        rows[name] = {
            f"time to {target:.0%} (s)": t,
            "final acc": tr.final_accuracy,
            "epochs": len(tr),
            "spend": round(tr.total_spend, 1),
        }
    print(format_table(rows, title=f"Completion-time comparison (target {target:.0%})"))
    print()

    claims = headline_claims(traces, target=target)
    print(
        f"FedL vs best baseline: {claims['time_saving_pct']:.0f}% completion-time"
        f" saving; accuracy gain at equal time: {claims['accuracy_gain']:+.3f}"
    )


if __name__ == "__main__":
    main()
