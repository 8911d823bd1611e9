"""Straggler study on the event-driven runtime.

Runs FedCS (which over-selects, so rounds carry slack above the
participation floor) through the message-level DES engine and tightens a
round deadline: clients whose compute+uplink timeline overruns it are
dropped from aggregation.  The trade the paper's completion-time story
implies — tighter deadlines buy shorter rounds at the cost of dropped
updates — becomes directly measurable.

Usage::

    python examples/straggler_study.py
"""

from repro.experiments.scenarios import experiment_config
from repro.experiments.sweep import PolicySpec, SweepJob, execute_job
from repro.sim import ParticipationFloorError

CONFIG = experiment_config(
    dataset="fmnist",
    iid=True,
    budget=400.0,
    seed=0,
    num_clients=12,
    min_participants=3,
    max_epochs=20,
)


def des_run(**sim):
    overrides = {"training.engine": "des"}
    overrides.update({f"sim.{name}": value for name, value in sim.items()})
    return execute_job(SweepJob(PolicySpec("FedCS"), CONFIG.override(overrides)))


def summarize(result):
    records = result.trace.records
    latency = sum(r.epoch_latency for r in records) / len(records)
    selected = sum(r.num_selected for r in records)
    dropped = sum(r.num_failed for r in records)
    return {
        "rounds": len(records),
        "mean_latency": latency,
        "drop_frac": dropped / selected,
        "final_acc": result.trace.final_accuracy,
    }


def main() -> None:
    sync = summarize(des_run())
    print("sync barrier (no deadline):")
    print(
        f"  rounds={sync['rounds']}  mean round latency="
        f"{sync['mean_latency']:.4f}s  final_acc={sync['final_acc']:.3f}"
    )
    print()
    print(f"{'deadline':>10} {'latency':>9} {'dropped':>8} {'final acc':>10}")
    for fraction in (1.0, 0.7, 0.5, 0.35, 0.1):
        deadline = fraction * sync["mean_latency"]
        try:
            row = summarize(
                des_run(aggregation="deadline", deadline_s=deadline)
            )
        except ParticipationFloorError as err:
            print(f"{deadline:>9.4f}s  aborted: {err}")
            continue
        print(
            f"{deadline:>9.4f}s {row['mean_latency']:>8.4f}s "
            f"{row['drop_frac']:>7.1%} {row['final_acc']:>10.3f}"
        )
    print()
    print("Tighter deadlines cap every round at the deadline width, so the")
    print("mean round latency falls monotonically while the dropped-update")
    print("fraction rises; past the participation floor the runtime refuses")
    print("to aggregate and raises ParticipationFloorError instead of")
    print("silently training on too few clients.")


if __name__ == "__main__":
    main()
