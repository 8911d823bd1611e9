"""Poisoning study: Byzantine attacks vs robust aggregation.

Plants a fixed fraction of adversarial clients (sign-flipping, update
scaling, NaN injection — see :mod:`repro.fl.adversary`) and crosses them
with the defense aggregators in :mod:`repro.fl.defense`.  The grid makes
the robustness trade directly measurable: without a defense a handful of
sign-flipping clients stalls (or aborts) training, while coordinate-wise
median or trimmed-mean recovers most of the clean-run accuracy, at the
price of discarding informative extremes when nobody is attacking.

Updates that arrive non-finite (the ``nan`` attack) can never reach the
aggregate: without a defense the run aborts with
:class:`~repro.fl.defense.CorruptUpdateError`; with one they are
quarantined and counted per client.

Usage::

    python examples/poisoning_study.py
"""

from repro.experiments.scenarios import experiment_config
from repro.experiments.sweep import PolicySpec, SweepJob, execute_job
from repro.fl.defense import CorruptUpdateError

CONFIG = experiment_config(
    dataset="fmnist",
    iid=True,
    budget=600.0,
    seed=0,
    num_clients=15,
    min_participants=5,
    max_epochs=25,
)

ATTACKS = ("none", "sign-flip", "scale", "nan")
DEFENSES = ("none", "median", "trimmed-mean", "krum")


def run_cell(attack: str, defense: str):
    config = CONFIG.override({
        "attack.kind": attack,
        "attack.fraction": 0.2,
        "defense.aggregator": defense,
    })
    return execute_job(SweepJob(PolicySpec("FedL"), config))


def main() -> None:
    print(
        f"attack x defense grid — {CONFIG.population.num_clients} clients, "
        f"20% compromised, seed {CONFIG.seed}"
    )
    print()
    header = f"{'attack':>10} | " + " ".join(f"{d:>13}" for d in DEFENSES)
    print(header)
    print("-" * len(header))
    for attack in ATTACKS:
        cells = []
        for defense in DEFENSES:
            try:
                result = run_cell(attack, defense)
            except CorruptUpdateError:
                cells.append(f"{'aborted':>13}")
                continue
            acc = result.trace.final_accuracy
            quarantined = sum(
                r.num_quarantined for r in result.trace.records
            )
            tag = f"{acc:.3f}"
            if quarantined:
                tag += f" q{quarantined}"
            cells.append(f"{tag:>13}")
        print(f"{attack:>10} | " + " ".join(cells))
    print()
    print("Read the grid row-wise: the 'none' defense column shows what the")
    print("attack does to plain mean aggregation (the nan row")
    print("aborts — non-finite updates are refused, not averaged), and the")
    print("robust columns show how much each aggregator claws back.  'qN'")
    print("marks N client-epochs quarantined by the update screen.")


if __name__ == "__main__":
    main()
