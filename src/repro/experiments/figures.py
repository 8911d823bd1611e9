"""Figure regeneration (paper Figs. 2-7).

Each ``figN`` function runs the four policies (FedL, FedAvg, FedCS, Pow-d)
on the corresponding scenario and returns the plotted series:

* Figs. 2-3 — test accuracy vs simulated training time (FMNIST / CIFAR-10,
  IID and non-IID panels).
* Figs. 4-5 — test accuracy vs federated round.
* Figs. 6-7 — final loss vs budget (budget sweep).

All of them execute through the sweep engine
(:mod:`repro.experiments.sweep`), so ``workers > 1`` fans the independent
runs out over a process pool and an optional ``cache`` makes re-runs
serve from disk — with output bit-identical to the serial loop either
way.  The benchmark files under ``benchmarks/`` call these and print the
series with :func:`repro.experiments.reporting.format_series` so every
paper figure has a regenerating target (DESIGN.md §4).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.metrics import Trace
from repro.experiments.scenarios import POLICY_NAMES, experiment_config
from repro.experiments.sweep import PolicySpec, SweepCache, SweepJob, run_sweep

__all__ = [
    "run_policy_suite",
    "accuracy_vs_time",
    "accuracy_vs_round",
    "budget_sweep",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
]

Series = Dict[str, List[Tuple[float, float]]]


def run_policy_suite(
    dataset: str,
    iid: bool,
    budget: float = 2500.0,
    seed: int = 0,
    num_clients: int = 30,
    max_epochs: int = 150,
    min_participants: int = 5,
    policies: Sequence[str] = POLICY_NAMES,
    workers: int = 1,
    cache: Optional[SweepCache] = None,
) -> Dict[str, Trace]:
    """Run every policy on identical environments (same seed)."""
    cfg = experiment_config(
        dataset=dataset,
        iid=iid,
        budget=budget,
        seed=seed,
        num_clients=num_clients,
        min_participants=min_participants,
        max_epochs=max_epochs,
    )
    jobs = [SweepJob(policy=PolicySpec(name=name), config=cfg) for name in policies]
    results = run_sweep(jobs, workers=workers, cache=cache)
    return {job.policy.name: res.trace for job, res in zip(jobs, results)}


def accuracy_vs_time(traces: Dict[str, Trace]) -> Series:
    """Figs. 2-3 series: (cumulative seconds, test accuracy)."""
    return {
        name: list(zip(tr.times.tolist(), tr.accuracy.tolist()))
        for name, tr in traces.items()
    }


def accuracy_vs_round(traces: Dict[str, Trace]) -> Series:
    """Figs. 4-5 series: (federated round, test accuracy)."""
    return {
        name: list(zip((tr.rounds + 1).tolist(), tr.accuracy.tolist()))
        for name, tr in traces.items()
    }


def budget_sweep(
    dataset: str,
    iid: bool,
    budgets: Sequence[float],
    seed: int = 0,
    num_clients: int = 30,
    max_epochs: int = 150,
    policies: Sequence[str] = POLICY_NAMES,
    workers: int = 1,
    cache: Optional[SweepCache] = None,
) -> Series:
    """Figs. 6-7 series: (budget, final test loss) per policy.

    The whole budgets × policies grid is submitted as one sweep, so the
    engine can keep every worker busy across budget levels.
    """
    jobs: List[SweepJob] = []
    for budget in budgets:
        cfg = experiment_config(
            dataset=dataset,
            iid=iid,
            budget=budget,
            seed=seed,
            num_clients=num_clients,
            max_epochs=max_epochs,
        )
        jobs.extend(
            SweepJob(policy=PolicySpec(name=name), config=cfg) for name in policies
        )
    results = run_sweep(jobs, workers=workers, cache=cache)
    out: Series = {name: [] for name in policies}
    for job, res in zip(jobs, results):
        out[job.policy.name].append(
            (float(job.config.budget), res.trace.final_loss)
        )
    return out


# --- named figure entry points (both IID panels by default; pass iid=False
#     for the right-hand Non-IID panels) ---------------------------------------


def fig2(iid: bool = True, **kwargs) -> Series:
    """Accuracy vs time, Fashion-MNIST."""
    return accuracy_vs_time(run_policy_suite("fmnist", iid, **kwargs))


def fig3(iid: bool = True, **kwargs) -> Series:
    """Accuracy vs time, CIFAR-10."""
    return accuracy_vs_time(run_policy_suite("cifar10", iid, **kwargs))


def fig4(iid: bool = True, **kwargs) -> Series:
    """Accuracy vs federated round, Fashion-MNIST."""
    return accuracy_vs_round(run_policy_suite("fmnist", iid, **kwargs))


def fig5(iid: bool = True, **kwargs) -> Series:
    """Accuracy vs federated round, CIFAR-10."""
    return accuracy_vs_round(run_policy_suite("cifar10", iid, **kwargs))


def fig6(
    iid: bool = True, budgets: Sequence[float] = (500, 1000, 2000, 4000), **kwargs
) -> Series:
    """Final loss vs budget, Fashion-MNIST."""
    return budget_sweep("fmnist", iid, budgets, **kwargs)


def fig7(
    iid: bool = True, budgets: Sequence[float] = (500, 1000, 2000, 4000), **kwargs
) -> Series:
    """Final loss vs budget, CIFAR-10."""
    return budget_sweep("cifar10", iid, budgets, **kwargs)
