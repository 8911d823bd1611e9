"""Plug a custom client-selection policy into the FedL framework.

A strategy is one class.  It implements the two methods of the
:class:`~repro.strategies.base.SelectionPolicy` protocol — ``select(ctx)``
and ``update(feedback)`` — and declares its registry entry on itself:
a name, a description, its parameters and the contracts it keeps.
``@register_strategy`` reads that declaration, after which the CLI's
``--policy``/``--param``, sweeps, tournaments and the property suite all
reach the strategy by name.  This example registers a *cheapest-first*
policy (always rent the n cheapest available clients, stretching the
budget as far as it goes) and benchmarks it against FedL.

Usage::

    python examples/custom_policy.py
"""

# ``repro`` before numpy: importing it sizes the BLAS pool to one thread,
# which only works before numpy loads.
from repro.experiments import experiment_config, format_table, make_policy, run_experiment
from repro.rng import RngFactory
from repro.strategies import (
    Decision,
    EpochContext,
    RoundFeedback,
    Strategy,
    enforce_feasibility,
    register_strategy,
)
from repro.strategies.registry import ITERATIONS

import numpy as np


@register_strategy
class CheapestFirstPolicy(Strategy):
    """Rent the n cheapest available clients every epoch.

    Maximizes the number of epochs a budget buys — the opposite corner of
    the design space from FedCS's participation maximization.  A useful
    straw man: it shows that budget-stretching alone does not give good
    accuracy-per-second (the cheap clients may be slow).
    """

    name = "Cheapest"
    description = "rent the n cheapest available clients every epoch"
    params = (ITERATIONS,)  # defaults and bounds live in the ParamSpec
    budget_aware = True     # the n cheapest fit whenever any n do

    def __init__(self, config, rng: np.random.Generator, *, iterations: int) -> None:
        self.rng = rng
        self.iterations = iterations

    def select(self, ctx: EpochContext) -> Decision:
        avail = np.flatnonzero(ctx.available)
        order = avail[np.argsort(ctx.costs[avail], kind="stable")]
        mask = np.zeros(ctx.num_clients, dtype=bool)
        mask[order[: ctx.min_participants]] = True
        mask = enforce_feasibility(mask, ctx, self.rng)
        return Decision(selected=mask, iterations=self.iterations)

    def update(self, feedback: RoundFeedback) -> None:
        """Stateless."""


def main() -> None:
    config = experiment_config(
        budget=800.0, num_clients=20, min_participants=4, max_epochs=60, seed=11
    )
    rows = {}
    for name, policy in [
        ("FedL", make_policy("FedL", config, RngFactory(11).get("fedl"))),
        ("Cheapest", make_policy("Cheapest", config, RngFactory(11).get("cheap"))),
    ]:
        result = run_experiment(policy, config)
        tr = result.trace
        rows[name] = {
            "epochs": len(tr),
            "final acc": round(tr.final_accuracy, 3),
            "sim time (s)": round(float(tr.times[-1]), 1),
            "spend": round(tr.total_spend, 1),
            "time to 70%": tr.time_to_accuracy(0.70),
        }
    print(format_table(rows, title="Custom policy vs FedL"))
    print()
    print("CheapestFirst buys more epochs but picks slow clients;")
    print("FedL balances latency against the same budget constraint.")


if __name__ == "__main__":
    main()
