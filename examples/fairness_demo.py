"""Fairness-aware selection (the paper's future work) in action.

Runs plain FedL and Fair-FedL side by side and reports how participation
spreads across the fleet (Jain's index, per-client rates) and what the
fairness costs in accuracy and latency.

Usage::

    python examples/fairness_demo.py
"""

# ``repro`` before numpy: importing it sizes the BLAS pool to one thread,
# which only works before numpy loads.
from repro.core.fairness import jain_index
from repro.experiments import experiment_config, format_table, make_policy, run_experiment
from repro.rng import RngFactory

import numpy as np


def main() -> None:
    config = experiment_config(
        budget=1000.0, num_clients=20, min_participants=5, max_epochs=50, seed=21
    )
    rows = {}
    fair_policy = None
    for name in ("FedL", "Fair-FedL"):
        policy = make_policy(name, config, RngFactory(21).get(f"p.{name}"))
        result = run_experiment(policy, config)
        tr = result.trace
        rows[name] = {
            "final acc": round(tr.final_accuracy, 3),
            "sim time (s)": round(float(tr.times[-1]), 2),
            "epochs": len(tr),
        }
        if name == "Fair-FedL":
            fair_policy = policy
    assert fair_policy is not None

    rates = fair_policy.tracker.rates()
    rows["Fair-FedL"]["jain"] = round(fair_policy.tracker.fairness(), 3)
    print(format_table(rows, title="FedL vs Fair-FedL"))
    print()
    print("Fair-FedL per-client participation rates (availability-adjusted):")
    print("  " + "  ".join(f"{r:.2f}" for r in rates))
    print(f"  Jain index: {jain_index(rates):.3f}  (1.0 = perfectly even)")
    print()
    print("The virtual-queue bias pulls chronically unselected clients in,")
    print("trading a little latency/accuracy for much broader participation —")
    print("useful when client data coverage or incentive fairness matters.")


if __name__ == "__main__":
    main()
