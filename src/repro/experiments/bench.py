"""Reproducible performance benchmark for the three hot-path layers.

``repro bench`` times (1) the FL execution layer — the loop engine vs the
vectorized :class:`repro.fl.batched.BatchedClientEngine` on a fig6-style
smoke experiment, asserting the two produce bit-identical
``ExperimentResult`` outputs — (2) the per-epoch descent solver cold vs
warm-started, and (3) the NN kernels (conv im2col caches, in-place SGD).
All timings flow through the PR-2 telemetry registry
(:class:`repro.obs.MetricsRegistry`), so the same timer names appear in
``repro trace`` reports of instrumented runs.

The JSON report (``--out``) is versioned via ``schema_version``;
``BENCH_PR3.json`` at the repo root is the first committed point of the
perf trajectory.  :func:`check_regression` gates CI: machine-independent
*ratios* (batched-vs-loop speedup, warm-vs-cold solver speedup, kernel
cache speedups) are always compared against the baseline, absolute
throughputs only when the configs match and ``strict`` is requested —
absolute ops/sec are machine-specific, ratios are not.
"""

from __future__ import annotations

import dataclasses
import io
import json
import platform
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.obs import Telemetry, use_telemetry

__all__ = [
    "SCHEMA_VERSION",
    "OVERHEAD_SCHEMA_VERSION",
    "BENCH_LAYERS",
    "bench_fl_engine",
    "bench_solver",
    "bench_nn_kernels",
    "bench_sim",
    "bench_scale",
    "bench_live",
    "run_bench",
    "bench_overhead",
    "bench_checkpoint_overhead",
    "check_checkpoint_overhead",
    "check_overhead",
    "format_overhead",
    "compare_reports",
    "format_compare",
    "check_regression",
    "format_report",
]

# v2: adds the "sim" layer (event-driven runtime overhead vs the
# closed-form latency model) — BENCH_PR4.json is the first v2 baseline.
# v3: adds the "scale" layer (sharded vs flat FedL selection at large K)
# — BENCH_PR8.json is the first v3 baseline.
# v4: adds the "live" layer (multi-process engine overhead vs the loop
# engine) — BENCH_PR9.json is the first v4 baseline.
# v5: adds the "checkpoint" layer (periodic-snapshot cost measured in
# situ, plus the checkpointed-vs-plain bit-identity invariant) —
# BENCH_PR10.json is the first v5 baseline.
SCHEMA_VERSION = 5

#: Layers ``run_bench`` knows how to run, in execution order; the CLI's
#: ``--layers`` flag filters this set.
BENCH_LAYERS = ("fl", "solver", "nn", "sim", "scale", "live", "checkpoint")

#: Ratio metrics gated by :func:`check_regression` regardless of config —
#: both sides of each ratio are measured in the same process on the same
#: machine, so the quotient transfers across hosts.  Only ratios over
#: seconds-scale timings (fl) or deterministic counts (solver) are gated;
#: warm_speedup / conv_cache_speedup / sgd_in_place_speedup divide
#: millisecond-scale timings and are reported but not gated — a 20% gate
#: on those would flake on allocator/cache noise.
#: ``scale.speedup_vs_flat_k10000`` is reported but not gated: it falls
#: whenever the flat arm speeds up more than the sharded one, which is
#: an improvement of both, not a regression.
RATIO_KEYS = (
    ("fl", "speedup_vs_loop"),
    ("solver", "warm_iter_ratio"),
)

#: Absolute throughput metrics (higher is better), gated only under
#: ``strict`` with matching configs.
THROUGHPUT_KEYS = (
    ("fl", "batched_epochs_per_s"),
    ("solver", "warm_solves_per_s"),
    ("nn", "conv_steps_per_s"),
    ("sim", "rounds_per_s"),
)


def _mem_hub(run_id: str) -> Telemetry:
    """An enabled in-memory hub: events go to a StringIO, the registry is
    readable afterwards.  Keeps the instrumented code paths identical to a
    ``--telemetry`` run without touching disk."""
    return Telemetry(sink=io.StringIO(), run_id=run_id)


# -- layer 1: FL engine --------------------------------------------------------


def bench_fl_engine(
    num_clients: int = 100,
    budget: float = 9000.0,
    max_epochs: int = 200,
    seed: int = 0,
) -> Dict[str, Any]:
    """Loop engine vs batched engine on the fig6-style smoke experiment.

    Both arms run the full experiment (FedL policy, warm-started solver)
    and must produce bit-identical ``ExperimentResult`` outputs — the
    equality is part of the report and :func:`check_regression` fails on
    any mismatch.
    """
    from repro.experiments.runner import run_experiment
    from repro.experiments.scenarios import experiment_config, make_policy

    cfg = experiment_config(
        num_clients=num_clients, budget=budget, max_epochs=max_epochs, seed=seed
    )
    results = {}
    timings = {}
    solver_stats = {}
    for engine in ("loop", "batched"):
        c = cfg.replace(
            training=dataclasses.replace(cfg.training, engine=engine),
            fedl=dataclasses.replace(cfg.fedl, solver_warm_start=True),
        )
        policy = make_policy("FedL", c, np.random.default_rng(c.seed))
        hub = _mem_hub(f"bench.fl.{engine}")
        t0 = time.perf_counter()
        with use_telemetry(hub):
            with hub.timer(f"bench.fl.{engine}"):
                results[engine] = run_experiment(policy, c)
        timings[engine] = time.perf_counter() - t0
        counters = hub.registry.counters
        pg = hub.registry.timers.get("solver.projected_gradient")
        solver_stats[engine] = {
            "solve_count": pg.count if pg else 0,
            "solve_total_s": pg.total_s if pg else 0.0,
            "iterations": counters.get("solver.iterations", 0.0),
            "warm_start_hits": counters.get("solver.warm_start_hits", 0.0),
            "iterations_saved": counters.get("solver.iterations_saved", 0.0),
        }
    rl, rb = results["loop"], results["batched"]
    identical = bool(
        np.array_equal(rl.final_w, rb.final_w) and rl.trace.equals(rb.trace)
    )
    epochs = len(rb.trace)
    loop_s, batched_s = timings["loop"], timings["batched"]
    return {
        "config": {
            "num_clients": num_clients,
            "budget": budget,
            "max_epochs": max_epochs,
            "seed": seed,
        },
        "epochs": epochs,
        "identical": identical,
        "loop_seconds": loop_s,
        "batched_seconds": batched_s,
        "speedup_vs_loop": loop_s / batched_s if batched_s > 0 else float("inf"),
        "loop_epochs_per_s": epochs / loop_s if loop_s > 0 else 0.0,
        "batched_epochs_per_s": epochs / batched_s if batched_s > 0 else 0.0,
        "batched_epoch_latency_s": batched_s / epochs if epochs else 0.0,
        "solver_iters_per_epoch": (
            solver_stats["batched"]["iterations"] / epochs if epochs else 0.0
        ),
        "solver_stats": solver_stats,
    }


# -- layer 2: epoch solver -----------------------------------------------------


def _epoch_problem_stream(num_clients: int, horizon: int, seed: int):
    """Synthetic drifting epoch subproblems (same family as ``repro regret``)."""
    from repro.core.problem import EpochInputs, FedLProblem

    rng = np.random.default_rng(seed)
    base_tau = rng.uniform(0.2, 2.0, num_clients)
    base_eta = rng.uniform(0.2, 0.7, num_clients)
    problems = []
    for t in range(horizon):
        drift = 0.2 * np.sin(2 * np.pi * t / 40.0 + np.arange(num_clients))
        problems.append(
            FedLProblem(
                EpochInputs(
                    tau=np.clip(base_tau + drift, 0.05, None),
                    costs=rng.uniform(0.5, 3.0, num_clients),
                    available=np.ones(num_clients, bool),
                    eta_hat=np.clip(base_eta + 0.1 * drift, 0.0, 0.9),
                    loss_gap=0.3,
                    loss_sensitivity=np.full(num_clients, -0.12),
                    remaining_budget=1e6,
                    min_participants=3,
                ),
                rho_max=6.0,
            )
        )
    return problems


def bench_solver(
    num_clients: int = 30, horizon: int = 50, seed: int = 0
) -> Dict[str, Any]:
    """Cold vs warm-started descent solves over a drifting epoch stream."""
    from repro.core.online_learner import OnlineLearner

    problems = _epoch_problem_stream(num_clients, horizon, seed)
    out: Dict[str, Any] = {
        "config": {"num_clients": num_clients, "horizon": horizon, "seed": seed}
    }
    stats = {}
    for mode, warm in (("cold", False), ("warm", True)):
        learner = OnlineLearner(
            num_clients, beta=0.2, delta=0.2, rho_max=6.0, warm_start=warm
        )
        hub = _mem_hub(f"bench.solver.{mode}")
        t0 = time.perf_counter()
        with use_telemetry(hub):
            for prob in problems:
                phi = learner.descent_step(prob.inputs)
                learner.dual_ascent(prob.h(phi))
        total = time.perf_counter() - t0
        counters = hub.registry.counters
        stats[mode] = {
            "total_s": total,
            "solves_per_s": horizon / total if total > 0 else 0.0,
            "iterations": counters.get("solver.iterations", 0.0),
            "iters_per_solve": counters.get("solver.iterations", 0.0) / horizon,
            "warm_start_hits": counters.get("solver.warm_start_hits", 0.0),
            "iterations_saved": counters.get("solver.iterations_saved", 0.0),
        }
    out.update(
        cold=stats["cold"],
        warm=stats["warm"],
        warm_speedup=(
            stats["cold"]["total_s"] / stats["warm"]["total_s"]
            if stats["warm"]["total_s"] > 0
            else float("inf")
        ),
        # Deterministic for a fixed (config, seed): total descent iterations
        # cold / warm.  This is what check_regression gates on.
        warm_iter_ratio=(
            stats["cold"]["iterations"] / stats["warm"]["iterations"]
            if stats["warm"]["iterations"] > 0
            else float("inf")
        ),
        warm_solves_per_s=stats["warm"]["solves_per_s"],
    )
    return out


# -- layer 3: NN kernels -------------------------------------------------------


def bench_nn_kernels(repeats: int = 30, seed: int = 0) -> Dict[str, Any]:
    """Conv im2col-cache effect and in-place SGD on representative shapes."""
    from repro.nn import conv as conv_mod
    from repro.nn.conv import Conv2D
    from repro.nn.optim import SGD

    rng = np.random.default_rng(seed)
    x = rng.normal(size=(16, 28, 28, 1))

    def conv_step(layer: Conv2D) -> None:
        out = layer.forward(x)
        layer.backward(np.ones_like(out))

    # Cold: geometry caches empty, first call pays the index build.
    conv_mod._INDICES_CACHE.clear()
    conv_mod._FLAT_PIX_CACHE.clear()
    layer = Conv2D(1, 8, 3, rng=np.random.default_rng(seed))
    t0 = time.perf_counter()
    conv_step(layer)
    cold_s = time.perf_counter() - t0
    # Steady state: caches warm, gather buffer preallocated.
    t0 = time.perf_counter()
    for _ in range(repeats):
        conv_step(layer)
    steady_s = (time.perf_counter() - t0) / repeats

    w = rng.normal(size=500_000)
    g = rng.normal(size=500_000)
    # Untimed warmup so the allocating arm does not pay first-touch page
    # faults that the in-place arm never would.
    warm_opt = SGD(lr=0.05)
    w_warm = w.copy()
    for _ in range(3):
        w_warm = warm_opt.step(w_warm, g)
    opt_copy = SGD(lr=0.05)
    t0 = time.perf_counter()
    w_c = w.copy()
    for _ in range(repeats):
        w_c = opt_copy.step(w_c, g)
    copy_s = (time.perf_counter() - t0) / repeats
    opt_inplace = SGD(lr=0.05, in_place=True)
    w_i = w.copy()
    t0 = time.perf_counter()
    for _ in range(repeats):
        w_i = opt_inplace.step(w_i, g)
    inplace_s = (time.perf_counter() - t0) / repeats
    return {
        "config": {"repeats": repeats, "seed": seed},
        "conv_cold_s": cold_s,
        "conv_steady_s": steady_s,
        "conv_cache_speedup": cold_s / steady_s if steady_s > 0 else float("inf"),
        "conv_steps_per_s": 1.0 / steady_s if steady_s > 0 else 0.0,
        "sgd_copy_step_s": copy_s,
        "sgd_in_place_step_s": inplace_s,
        "sgd_in_place_speedup": copy_s / inplace_s if inplace_s > 0 else float("inf"),
        "sgd_results_equal": bool(np.array_equal(w_c, w_i)),
    }


# -- layer 4: event-driven runtime ---------------------------------------------


def bench_sim(
    num_clients: int = 32,
    iterations: int = 5,
    rounds: int = 200,
    seed: int = 0,
) -> Dict[str, Any]:
    """DES round simulation vs the closed-form latency model.

    The DES engine replaces one closed-form ``epoch_latency`` evaluation
    with a full message-level simulation, so its cost *is* its overhead
    ratio — and its correctness anchor is that the fault-free sync answer
    matches the closed form bit-for-bit on every round (``exact`` is part
    of the report; :func:`check_regression` fails when it breaks).  A
    second arm measures the fault machinery (retries/backoff) under the
    ``flaky-uplink`` profile.
    """
    from repro.net.latency import client_latency, epoch_latency
    from repro.sim import (
        ParticipationFloorError,
        SimRoundSpec,
        fault_profile,
        simulate_round,
    )

    rng = np.random.default_rng(seed)
    draws = [
        (rng.uniform(0.01, 3.0, num_clients), rng.uniform(0.005, 1.0, num_clients))
        for _ in range(rounds)
    ]
    ids = np.arange(num_clients)
    sel = np.ones(num_clients, bool)

    t0 = time.perf_counter()
    closed = [
        epoch_latency(np.atleast_1d(client_latency(iterations, loc, cm)), sel)
        for loc, cm in draws
    ]
    closed_s = time.perf_counter() - t0

    exact = True
    events = 0
    t0 = time.perf_counter()
    for (loc, cm), expected in zip(draws, closed):
        out = simulate_round(
            SimRoundSpec(client_ids=ids, tau_loc=loc, tau_cm=cm,
                         iterations=iterations)
        )
        exact = exact and out.completion_time == expected
        events += len(out.timeline)
    des_s = time.perf_counter() - t0

    flaky = fault_profile("flaky-uplink")
    fault_rng = np.random.default_rng(seed + 1)
    retries = 0
    floored = 0
    t0 = time.perf_counter()
    for loc, cm in draws:
        try:
            out = simulate_round(
                SimRoundSpec(client_ids=ids, tau_loc=loc, tau_cm=cm,
                             iterations=iterations, faults=flaky),
                rng=fault_rng,
            )
            retries += out.num_retries
        except ParticipationFloorError:  # pragma: no cover - measure-zero
            floored += 1
    faulted_s = time.perf_counter() - t0

    return {
        "config": {
            "num_clients": num_clients,
            "iterations": iterations,
            "rounds": rounds,
            "seed": seed,
        },
        "exact": bool(exact),
        "closed_form_seconds": closed_s,
        "des_seconds": des_s,
        "overhead_ratio": des_s / closed_s if closed_s > 0 else float("inf"),
        "rounds_per_s": rounds / des_s if des_s > 0 else 0.0,
        "events_per_round": events / rounds if rounds else 0.0,
        "faulted_seconds": faulted_s,
        "faulted_rounds_per_s": rounds / faulted_s if faulted_s > 0 else 0.0,
        "faulted_retries": retries,
        "faulted_floored_rounds": floored,
    }


# -- layer 4b: live multi-process engine ---------------------------------------


def bench_live(
    num_clients: int = 8,
    min_participants: int = 3,
    epochs: int = 10,
    seed: int = 0,
) -> Dict[str, Any]:
    """Live-engine transport overhead vs the in-process loop engine.

    Runs the same small experiment through both engines; the quotient is
    the measured price of real process isolation — fork, per-iteration
    socket frames, token-bucket-shaped uploads, barrier waits — over the
    loop engine's in-process arithmetic.  The correctness anchor is the
    live engine's headline contract: the fault-free live run must train
    the *bit-identical* model (``exact``; :func:`check_regression` fails
    when it breaks).
    """
    import dataclasses

    from repro.config import LiveConfig
    from repro.experiments.runner import run_experiment
    from repro.experiments.scenarios import experiment_config, make_policy
    from repro.rng import RngFactory

    base = experiment_config(
        budget=60.0 * epochs,
        seed=seed,
        num_clients=num_clients,
        min_participants=min_participants,
        max_epochs=epochs,
    )
    results: Dict[str, Any] = {}
    seconds: Dict[str, float] = {}
    for engine in ("loop", "live"):
        cfg = base.replace(
            training=dataclasses.replace(base.training, engine=engine),
            live=LiveConfig(workers=2),
        )
        policy = make_policy(
            "FedAvg", cfg, RngFactory(cfg.seed).get("cli.policy")
        )
        t0 = time.perf_counter()
        results[engine] = run_experiment(policy, cfg)
        seconds[engine] = time.perf_counter() - t0
    rounds = len(results["live"].trace.records)
    return {
        "config": {
            "num_clients": num_clients,
            "min_participants": min_participants,
            "epochs": epochs,
            "seed": seed,
        },
        "exact": bool(
            np.array_equal(results["loop"].final_w, results["live"].final_w)
        ),
        "rounds": rounds,
        "loop_seconds": seconds["loop"],
        "live_seconds": seconds["live"],
        "overhead_ratio": (
            seconds["live"] / seconds["loop"]
            if seconds["loop"] > 0
            else float("inf")
        ),
        "rounds_per_s": rounds / seconds["live"] if seconds["live"] > 0 else 0.0,
    }


# -- layer 5: population scaling (sharded selection) ---------------------------


def _drive_selection(policy, num_clients: int, epochs: int, budget: float,
                     min_participants: int, seed: int):
    """Run ``policy`` over a synthetic ctx stream; returns (masks, seconds).

    The stream is derived purely from ``seed``, so two policies driven
    with the same arguments see identical epochs — the basis for both the
    flat-vs-sharded timing comparison and the S=1 bit-identity check.
    """
    from repro.baselines.base import EpochContext, RoundFeedback

    env = np.random.default_rng(seed)
    remaining = budget
    masks = []
    total = 0.0
    for t in range(epochs):
        available = env.random(num_clients) < 0.9
        costs = env.uniform(0.1, 12.0, num_clients)
        tau = env.uniform(0.2, 3.0, num_clients)
        losses = env.uniform(0.1, 2.0, num_clients)
        etas = env.uniform(0.2, 0.8, num_clients)
        ctx = EpochContext(
            t=t,
            available=available,
            costs=costs,
            remaining_budget=remaining,
            min_participants=min_participants,
            tau_last=tau,
            local_losses=losses,
        )
        t0 = time.perf_counter()
        decision = policy.select(ctx)
        sel = decision.selected & available
        cost = float(costs[sel].sum())
        remaining -= cost
        policy.update(
            RoundFeedback(
                t=t,
                selected=sel,
                tau_realized=tau,
                local_etas=np.where(sel, etas, np.nan),
                local_losses=losses,
                population_loss=1.0,
                cost_spent=cost,
                epoch_latency=float(decision.iterations),
            )
        )
        total += time.perf_counter() - t0
        masks.append(sel)
    return masks, total


def bench_scale(
    populations: "tuple[int, ...]" = (1_000, 10_000),
    epochs: int = 3,
    seed: int = 0,
) -> Dict[str, Any]:
    """Sharded vs flat FedL selection at large client populations.

    The part of a flat selection that outgrows the population is the
    K-dimensional descent solve; sharding replaces it with S independent
    solves of size K/S (RDCS rounding is linear in the fractional support
    either way).  Both arms run the *full* select+update policy
    pipeline (FISTA descent, RDCS rounding, feasibility repair, learner
    feedback) on identical synthetic epoch streams — no model training, so
    the timing isolates the selection layer the tentpole optimises.

    Also checks, at K=100, that a single-shard :class:`ShardedFedLPolicy`
    reproduces the flat :class:`FedLPolicy` decisions bit-identically
    (``single_shard_identical`` — gated by :func:`check_regression`).
    """
    from repro.config import ShardConfig
    from repro.core.fedl import FedLPolicy
    from repro.fl.shard import ShardedFedLPolicy

    theta = 0.5
    per_population: Dict[str, Any] = {}
    out: Dict[str, Any] = {
        "config": {
            "populations": list(populations),
            "epochs": epochs,
            "seed": seed,
        },
    }
    for k in populations:
        n_min = max(4, k // 100)
        num_shards = max(2, k // 500)
        budget = 1e9  # unconstrained: keeps selection sizes comparable
        flat = FedLPolicy(
            k, budget, n_min, theta, np.random.default_rng(seed)
        )
        flat_masks, flat_s = _drive_selection(
            flat, k, epochs, budget, n_min, seed
        )
        sharded = ShardedFedLPolicy(
            k, budget, n_min, theta, np.random.default_rng(seed),
            shard=ShardConfig(num_shards=num_shards),
        )
        shard_masks, shard_s = _drive_selection(
            sharded, k, epochs, budget, n_min, seed
        )
        per_population[str(k)] = {
            "num_shards": num_shards,
            "min_participants": n_min,
            "flat_seconds": flat_s,
            "sharded_seconds": shard_s,
            "flat_epochs_per_s": epochs / flat_s if flat_s > 0 else 0.0,
            "sharded_epochs_per_s": epochs / shard_s if shard_s > 0 else 0.0,
            "speedup_vs_flat": flat_s / shard_s if shard_s > 0 else float("inf"),
            "flat_mean_selected": float(
                np.mean([m.sum() for m in flat_masks])
            ),
            "sharded_mean_selected": float(
                np.mean([m.sum() for m in shard_masks])
            ),
        }
    out["per_population"] = per_population
    for k in populations:
        out[f"speedup_vs_flat_k{k}"] = per_population[str(k)]["speedup_vs_flat"]
        out[f"sharded_epochs_per_s_k{k}"] = per_population[str(k)][
            "sharded_epochs_per_s"
        ]
    # S=1 bit-identity at K=100: same rng seed, same stream -> identical
    # masks on every epoch.
    k_id = 100
    flat = FedLPolicy(k_id, 500.0, 10, theta, np.random.default_rng(seed))
    single = ShardedFedLPolicy(
        k_id, 500.0, 10, theta, np.random.default_rng(seed),
        shard=ShardConfig(num_shards=1),
    )
    masks_a, _ = _drive_selection(flat, k_id, 20, 500.0, 10, seed)
    masks_b, _ = _drive_selection(single, k_id, 20, 500.0, 10, seed)
    out["single_shard_identical"] = bool(
        len(masks_a) == len(masks_b)
        and all(np.array_equal(a, b) for a, b in zip(masks_a, masks_b))
    )
    return out


# -- assembly ------------------------------------------------------------------


def run_bench(
    quick: bool = False,
    num_clients: Optional[int] = None,
    max_epochs: Optional[int] = None,
    seed: int = 0,
    pre_pr_seconds: Optional[float] = None,
    layers: Optional[List[str]] = None,
) -> Dict[str, Any]:
    """Run the benchmark layers; returns the versioned JSON-ready report.

    ``pre_pr_seconds`` (optional) is the wall time of the pre-PR loop
    reference at the same FL config, measured from a worktree of the
    parent commit — it cannot be re-measured from this tree, so it is
    passed in and recorded alongside the in-process numbers.

    ``layers`` (optional) restricts the run to a subset of
    :data:`BENCH_LAYERS` — e.g. ``["fl", "scale"]``.  Skipped layers are
    absent from the report; :func:`check_regression` only gates sections
    that are present.
    """
    if layers is not None:
        unknown = sorted(set(layers) - set(BENCH_LAYERS))
        if unknown:
            raise ValueError(
                f"unknown bench layer(s) {unknown}; known: {list(BENCH_LAYERS)}"
            )
    selected = set(BENCH_LAYERS if layers is None else layers)
    clients = num_clients if num_clients is not None else (40 if quick else 100)
    epochs = max_epochs if max_epochs is not None else (40 if quick else 200)
    budget = 9000.0
    report: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "quick": quick,
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "created_unix": time.time(),
        },
    }
    if "fl" in selected:
        fl = bench_fl_engine(
            num_clients=clients, budget=budget, max_epochs=epochs, seed=seed
        )
        if pre_pr_seconds is not None:
            fl["pre_pr_seconds"] = float(pre_pr_seconds)
            fl["speedup_vs_pre_pr"] = (
                float(pre_pr_seconds) / fl["batched_seconds"]
                if fl["batched_seconds"] > 0
                else float("inf")
            )
        report["fl"] = fl
    if "solver" in selected:
        report["solver"] = bench_solver(
            num_clients=min(clients, 30), horizon=20 if quick else 50, seed=seed
        )
    if "nn" in selected:
        report["nn"] = bench_nn_kernels(repeats=10 if quick else 30, seed=seed)
    if "sim" in selected:
        report["sim"] = bench_sim(
            num_clients=min(clients, 32), rounds=50 if quick else 200, seed=seed
        )
    if "scale" in selected:
        # Quick mode stays at populations where the flat reference is
        # cheap; the committed baseline uses the full (1e3, 1e4) pair.
        report["scale"] = bench_scale(
            populations=(500, 2_000) if quick else (1_000, 10_000),
            epochs=2 if quick else 3,
            seed=seed,
        )
    if "live" in selected:
        report["live"] = bench_live(epochs=4 if quick else 10, seed=seed)
    if "checkpoint" in selected:
        report["checkpoint"] = bench_checkpoint_overhead(
            quick=quick, seed=seed
        )
    return report


def check_regression(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = 0.2,
    strict: bool = False,
) -> List[str]:
    """Compare a bench report against a baseline; returns failure strings.

    Always checked: FL bit-identity, and every :data:`RATIO_KEYS` ratio
    (fails when ``current < baseline · (1 − tolerance)``).  Absolute
    throughputs (:data:`THROUGHPUT_KEYS`) are checked only when ``strict``
    and the FL configs match — they do not transfer across machines.
    """
    failures: List[str] = []
    # Exactness invariants, checked whenever the section ran (a --layers
    # subset run simply skips the absent sections).
    if "fl" in current and not current["fl"].get("identical", False):
        failures.append("fl: loop and batched engines are no longer bit-identical")
    if "nn" in current and not current["nn"].get("sgd_results_equal", False):
        failures.append("nn: in-place SGD no longer matches the allocating path")
    if "sim" in current and not current["sim"].get("exact", False):
        failures.append(
            "sim: DES no longer reproduces the closed-form epoch latency "
            "bit-exactly"
        )
    if "scale" in current and not current["scale"].get(
        "single_shard_identical", False
    ):
        failures.append(
            "scale: single-shard sharded policy no longer matches the flat "
            "FedL policy bit-identically"
        )
    if "live" in current and not current["live"].get("exact", False):
        failures.append(
            "live: fault-free live engine no longer trains a bit-identical "
            "model to the loop engine"
        )
    if "checkpoint" in current:
        failures += check_checkpoint_overhead(current["checkpoint"])
    if int(baseline.get("schema_version", 0)) != SCHEMA_VERSION:
        failures.append(
            f"baseline schema_version {baseline.get('schema_version')} "
            f"!= {SCHEMA_VERSION}; regenerate the baseline"
        )
        return failures

    def lookup(report: Dict[str, Any], section: str, key: str) -> Optional[float]:
        value = report.get(section, {}).get(key)
        return float(value) if isinstance(value, (int, float)) else None

    keys = list(RATIO_KEYS)
    configs_match = current.get("fl", {}).get("config") == baseline.get(
        "fl", {}
    ).get("config")
    if strict and configs_match:
        keys += list(THROUGHPUT_KEYS)
    for section, key in keys:
        cur = lookup(current, section, key)
        base = lookup(baseline, section, key)
        if cur is None or base is None:
            continue
        floor = base * (1.0 - tolerance)
        if cur < floor:
            failures.append(
                f"{section}.{key}: {cur:.3f} < {floor:.3f} "
                f"(baseline {base:.3f}, tolerance {tolerance:.0%})"
            )
    return failures


def format_report(report: Dict[str, Any]) -> str:
    """Human-readable summary of :func:`run_bench` output.  Sections
    skipped by ``--layers`` are simply absent."""
    fl = report.get("fl")
    solver = report.get("solver")
    nn = report.get("nn")
    sim = report.get("sim")
    scale = report.get("scale")
    live = report.get("live")
    lines = [
        f"repro bench (schema v{report['schema_version']}"
        + (", quick)" if report.get("quick") else ")"),
    ]
    if fl is not None:
        lines += [
            "",
            f"[fl]      {fl['config']['num_clients']} clients x {fl['epochs']} epochs "
            f"(budget {fl['config']['budget']:g})",
            f"          loop    {fl['loop_seconds']:8.2f}s  "
            f"({fl['loop_epochs_per_s']:6.2f} epochs/s)",
            f"          batched {fl['batched_seconds']:8.2f}s  "
            f"({fl['batched_epochs_per_s']:6.2f} epochs/s)  "
            f"speedup {fl['speedup_vs_loop']:.2f}x",
            f"          bit-identical results: {fl['identical']}   "
            f"solver iters/epoch: {fl['solver_iters_per_epoch']:.1f}",
        ]
        if "speedup_vs_pre_pr" in fl:
            lines.append(
                f"          pre-PR reference {fl['pre_pr_seconds']:.2f}s  "
                f"-> speedup {fl['speedup_vs_pre_pr']:.2f}x"
            )
    if solver is not None:
        lines += [
            "",
            f"[solver]  {solver['config']['num_clients']} clients x "
            f"{solver['config']['horizon']} epoch subproblems",
            f"          cold {solver['cold']['total_s']:.3f}s "
            f"({solver['cold']['iters_per_solve']:.1f} iters/solve)   "
            f"warm {solver['warm']['total_s']:.3f}s "
            f"({solver['warm']['iters_per_solve']:.1f} iters/solve)   "
            f"speedup {solver['warm_speedup']:.2f}x",
            f"          warm hits {solver['warm']['warm_start_hits']:.0f}, "
            f"iterations saved {solver['warm']['iterations_saved']:.0f}",
        ]
    if nn is not None:
        lines += [
            "",
            f"[nn]      conv cold {nn['conv_cold_s'] * 1e3:.2f}ms, steady "
            f"{nn['conv_steady_s'] * 1e3:.2f}ms "
            f"({nn['conv_steps_per_s']:.0f} steps/s, cache speedup "
            f"{nn['conv_cache_speedup']:.2f}x)",
            f"          sgd step copy {nn['sgd_copy_step_s'] * 1e3:.3f}ms, "
            f"in-place {nn['sgd_in_place_step_s'] * 1e3:.3f}ms "
            f"({nn['sgd_in_place_speedup']:.2f}x, results equal: "
            f"{nn['sgd_results_equal']})",
        ]
    if sim is not None:
        lines += [
            "",
            f"[sim]     {sim['config']['num_clients']} clients x "
            f"{sim['config']['iterations']} iterations x "
            f"{sim['config']['rounds']} rounds",
            f"          des {sim['des_seconds']:.3f}s "
            f"({sim['rounds_per_s']:.0f} rounds/s, "
            f"{sim['events_per_round']:.0f} events/round)   "
            f"closed form {sim['closed_form_seconds']:.3f}s   "
            f"overhead {sim['overhead_ratio']:.1f}x",
            f"          bit-exact vs closed form: {sim['exact']}   "
            f"flaky-uplink {sim['faulted_rounds_per_s']:.0f} rounds/s "
            f"({sim['faulted_retries']} retries)",
        ]
    if scale is not None:
        lines += [
            "",
            f"[scale]   FedL selection, {scale['config']['epochs']} epochs "
            f"per population",
        ]
        for k, row in scale["per_population"].items():
            lines.append(
                f"          K={int(k):>6}  flat {row['flat_epochs_per_s']:8.2f} ep/s  "
                f"sharded (S={row['num_shards']}) "
                f"{row['sharded_epochs_per_s']:8.2f} ep/s  "
                f"speedup {row['speedup_vs_flat']:.2f}x  "
                f"(|sel| {row['flat_mean_selected']:.0f} vs "
                f"{row['sharded_mean_selected']:.0f})"
            )
        lines.append(
            f"          single-shard bit-identical to flat: "
            f"{scale['single_shard_identical']}"
        )
    if live is not None:
        lines += [
            "",
            f"[live]    {live['config']['num_clients']} clients x "
            f"{live['rounds']} rounds (forked workers, socket frames)",
            f"          loop {live['loop_seconds']:.3f}s   live "
            f"{live['live_seconds']:.3f}s "
            f"({live['rounds_per_s']:.1f} rounds/s)   "
            f"overhead {live['overhead_ratio']:.1f}x",
            f"          bit-identical model vs loop: {live['exact']}",
        ]
    ckpt = report.get("checkpoint")
    if ckpt is not None:
        lines += [
            "",
            f"[ckpt]    {ckpt['clients']} clients x {ckpt['epochs']} epochs, "
            f"snapshot every {ckpt['interval']} "
            f"({ckpt['snapshots_per_run']} snapshots)",
            f"          run {ckpt['enabled_seconds']:.3f}s   writes "
            f"{ckpt['checkpoint_write_seconds'] * 1e3:.1f}ms   "
            f"overhead {ckpt['overhead_fraction']:.2%}",
            f"          bit-identical vs uncheckpointed: "
            f"{ckpt['bit_identical']}",
        ]
    return "\n".join(lines)


def load_report(path: str | Path) -> Dict[str, Any]:
    """Read a bench JSON file (raises on missing/invalid)."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or "schema_version" not in payload:
        raise ValueError(f"not a bench report: {path}")
    return payload


def save_report(report: Dict[str, Any], path: str | Path) -> Path:
    """Atomically write the report as stable, diff-friendly JSON.

    Delegates to :func:`~repro.experiments.persistence.atomic_write_text`
    so a crash mid-write leaves no torn file and no temp-file litter
    (in-flight temps are reaped at interpreter exit).
    """
    from repro.experiments.persistence import atomic_write_text

    path = Path(path)
    atomic_write_text(path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


# -- checkpoint overhead -------------------------------------------------------


def bench_checkpoint_overhead(
    quick: bool = True,
    seed: int = 0,
    interval: int = 10,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Measure what periodic snapshots cost an otherwise-identical run.

    Times the same FedL experiment with checkpointing disabled and with
    snapshots every ``interval`` epochs (best-of-``repeats`` each, so a
    scheduler hiccup cannot fake a regression), and asserts the two runs
    stay bit-identical — checkpointing is pure observation and must not
    perturb a single RNG draw.
    """
    import tempfile

    from repro.config import CheckpointConfig
    from repro.experiments.runner import run_experiment
    from repro.experiments.scenarios import experiment_config, make_policy
    from repro.rng import RngFactory

    clients = 20 if quick else 40
    epochs = 40 if quick else 100
    base = experiment_config(
        budget=9000.0, seed=seed, num_clients=clients,
        min_participants=5, max_epochs=epochs,
    )

    def run_once(config, hub=None) -> tuple:
        policy = make_policy(
            "FedL", config, RngFactory(seed).get("bench.checkpoint")
        )
        started = time.perf_counter()
        with use_telemetry(hub):
            result = run_experiment(policy, config)
        return time.perf_counter() - started, result

    disabled_s, ref = run_once(
        base.replace(checkpoint=CheckpointConfig(directory=None))
    )
    # The snapshot cost (tens of ms per run) is far below run-to-run
    # scheduler noise on a quick config, so an A/B wall-clock diff is
    # useless.  Instead the runner's "checkpoint.write" timer measures
    # the added work in situ; best-of-``repeats`` guards the remaining
    # jitter inside a single run.
    write_s, wall_s, ckpt = float("inf"), float("inf"), None
    for _ in range(repeats):
        hub = _mem_hub("bench-checkpoint")
        with tempfile.TemporaryDirectory(prefix="repro-bench-ckpt-") as tmp:
            enabled_s, ckpt = run_once(
                base.replace(
                    checkpoint=CheckpointConfig(
                        directory=tmp, interval=interval
                    )
                ),
                hub=hub,
            )
        stat = hub.registry.timers.get("checkpoint.write")
        if stat is not None and stat.total_s < write_s:
            write_s, wall_s = stat.total_s, enabled_s
    baseline_s = max(wall_s - write_s, 1e-9)
    return {
        "quick": quick,
        "clients": clients,
        "epochs": epochs,
        "interval": interval,
        "repeats": repeats,
        "snapshots_per_run": epochs // interval,
        "disabled_seconds": disabled_s,
        "enabled_seconds": wall_s,
        "checkpoint_write_seconds": write_s,
        "overhead_fraction": write_s / baseline_s,
        "bit_identical": bool(
            ckpt.final_w.tobytes() == ref.final_w.tobytes()
            and ckpt.trace.equals(ref.trace)
        ),
    }


def check_checkpoint_overhead(
    report: Dict[str, Any], max_fraction: float = 0.02
) -> List[str]:
    """Gate the drill: snapshots must stay cheap and observation-only."""
    failures: List[str] = []
    frac = float(report.get("overhead_fraction", 0.0))
    if frac > max_fraction:
        failures.append(
            f"checkpoint overhead {frac:.2%} at interval="
            f"{report.get('interval')} exceeds the {max_fraction:.0%} "
            f"ceiling"
        )
    if not report.get("bit_identical", False):
        failures.append(
            "checkpointed run is NOT bit-identical to the uncheckpointed "
            "reference"
        )
    return failures


# -- overhead audit ------------------------------------------------------------

OVERHEAD_SCHEMA_VERSION = 1

#: Null-hub primitives microbenchmarked by :func:`bench_overhead`.  These
#: are the *only* things a disabled-telemetry run pays at each hook site:
#: ``guard`` is the ``get_telemetry()`` + ``.enabled`` check every emit
#: site performs before building a payload, ``timer`` is one no-op
#: ``with tel.timer(...)`` block, ``counter``/``emit`` are the direct
#: no-op calls.
NULL_PRIMITIVES = ("guard", "timer", "counter", "emit")


def _bench_null_primitives(reps: int = 200_000) -> Dict[str, float]:
    """Nanoseconds per op for each disabled-telemetry primitive."""
    from repro.obs import NULL_TELEMETRY, get_telemetry, use_telemetry

    out: Dict[str, float] = {}
    with use_telemetry(NULL_TELEMETRY):
        t0 = time.perf_counter()
        for _ in range(reps):
            tel = get_telemetry()
            if tel.enabled:  # pragma: no cover - never true here
                pass
        out["guard"] = (time.perf_counter() - t0) / reps * 1e9

        tel = get_telemetry()
        t0 = time.perf_counter()
        for _ in range(reps):
            with tel.timer("bench.null"):
                pass
        out["timer"] = (time.perf_counter() - t0) / reps * 1e9

        t0 = time.perf_counter()
        for _ in range(reps):
            tel.counter("bench.null")
        out["counter"] = (time.perf_counter() - t0) / reps * 1e9

        t0 = time.perf_counter()
        for _ in range(reps):
            tel.emit("bench.null")
        out["emit"] = (time.perf_counter() - t0) / reps * 1e9
    return out


def _overhead_layer(name: str, runner) -> Dict[str, Any]:
    """A/B one layer: disabled (null hub) vs enabled (in-memory sink).

    ``runner()`` executes the layer's workload once under whatever hub is
    current.  The enabled arm's hub is inspected afterwards for hook
    activation counts — events emitted, timer records, counter bumps —
    which is what attributes cost to specific hook sites.
    """
    from repro.obs import NULL_TELEMETRY, use_telemetry

    with use_telemetry(NULL_TELEMETRY):
        runner()  # warmup: caches, allocator, imports
        t0 = time.perf_counter()
        runner()
        disabled_s = time.perf_counter() - t0
    hub = _mem_hub(f"bench.overhead.{name}")
    with use_telemetry(hub):
        t0 = time.perf_counter()
        runner()
        enabled_s = time.perf_counter() - t0
    events = int(hub._seq)
    event_kinds: Dict[str, int] = {}
    hub._sink.seek(0)
    for line in hub._sink:
        try:
            kind = json.loads(line).get("kind", "?")
        except json.JSONDecodeError:
            continue
        event_kinds[kind] = event_kinds.get(kind, 0) + 1
    bytes_written = hub._sink.tell()
    timer_records = {
        tname: int(stat.count) for tname, stat in sorted(hub.registry.timers.items())
    }
    counter_names = sorted(hub.registry.counters)
    overhead_s = enabled_s - disabled_s
    return {
        "disabled_s": disabled_s,
        "enabled_s": enabled_s,
        "overhead_s": overhead_s,
        "overhead_frac": overhead_s / disabled_s if disabled_s > 0 else 0.0,
        "events": events,
        "event_kinds": dict(sorted(event_kinds.items())),
        "timer_records": timer_records,
        "timer_records_total": int(sum(timer_records.values())),
        "counters": counter_names,
        "bytes_written": int(bytes_written),
    }


def bench_overhead(quick: bool = True, seed: int = 0) -> Dict[str, Any]:
    """Telemetry overhead audit: enabled vs NullTelemetry, per layer.

    Two questions, answered per layer (batched FL, DES FL, defended FL,
    solver stream):

    1. **What does ``--telemetry`` cost?**  Direct A/B wall time of the
       same workload under the null hub vs an enabled in-memory hub,
       with the enabled arm's hook activations (events per kind, timer
       records per name) as the attribution of where that cost lands.
    2. **What does the *disabled* instrumentation cost?**  There is no
       uninstrumented build to diff against, so the audit microbenchmarks
       the four null-hub primitives (enabled-guard, no-op timer block,
       no-op counter, no-op emit) and multiplies by the hook activation
       counts observed in the enabled arm: an upper-bound estimate of the
       seconds a disabled run spends inside telemetry hooks, reported as
       a fraction of the disabled wall time.  CI gates this fraction
       (:func:`check_overhead`, default ceiling 2%).
    """
    import dataclasses as _dc

    from repro.config import AttackConfig, DefenseConfig
    from repro.experiments.runner import run_experiment
    from repro.experiments.scenarios import experiment_config, make_policy

    clients = 16 if quick else 40
    epochs = 8 if quick else 40
    base = experiment_config(
        num_clients=clients, budget=9000.0, max_epochs=epochs, seed=seed
    )

    def fl_runner(cfg):
        def run() -> None:
            policy = make_policy("FedL", cfg, np.random.default_rng(cfg.seed))
            run_experiment(policy, cfg)

        return run

    cfg_batched = base.replace(
        training=_dc.replace(base.training, engine="batched"),
        fedl=_dc.replace(base.fedl, solver_warm_start=True),
    )
    cfg_des = base.replace(training=_dc.replace(base.training, engine="des"))
    cfg_defended = base.replace(
        attack=AttackConfig(kind="sign-flip", fraction=0.25),
        defense=DefenseConfig(aggregator="trimmed-mean"),
    )

    def solver_runner() -> None:
        from repro.core.online_learner import OnlineLearner

        learner = OnlineLearner(
            min(clients, 30), beta=0.2, delta=0.2, rho_max=6.0, warm_start=True
        )
        for prob in _epoch_problem_stream(min(clients, 30), 20, seed):
            phi = learner.descent_step(prob.inputs)
            learner.dual_ascent(prob.h(phi))

    layers = {
        "fl.batched": _overhead_layer("fl.batched", fl_runner(cfg_batched)),
        "fl.des": _overhead_layer("fl.des", fl_runner(cfg_des)),
        "fl.defended": _overhead_layer("fl.defended", fl_runner(cfg_defended)),
        "solver": _overhead_layer("solver", solver_runner),
    }
    null_ns = _bench_null_primitives(50_000 if quick else 200_000)
    for layer in layers.values():
        # Disabled-run estimate: every emit site pays one guard, every
        # timer site one null with-block.  Counter sites sit inside
        # enabled guards in the built-in instrumentation, so the guard
        # term already covers them; adding the counter term anyway keeps
        # the estimate an upper bound.
        est_ns = (
            layer["events"] * (null_ns["guard"] + null_ns["emit"])
            + layer["timer_records_total"] * null_ns["timer"]
        )
        layer["est_null_s"] = est_ns / 1e9
        layer["est_null_frac"] = (
            layer["est_null_s"] / layer["disabled_s"]
            if layer["disabled_s"] > 0
            else 0.0
        )
    return {
        "schema_version": OVERHEAD_SCHEMA_VERSION,
        "kind": "overhead-audit",
        "quick": quick,
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "created_unix": time.time(),
        },
        "config": {"num_clients": clients, "max_epochs": epochs, "seed": seed},
        "null_primitives_ns": {k: null_ns[k] for k in NULL_PRIMITIVES},
        "layers": layers,
    }


def check_overhead(
    report: Dict[str, Any], max_null_fraction: float = 0.02
) -> List[str]:
    """Gate the audit: the estimated NullTelemetry share of each layer's
    disabled wall time must stay under ``max_null_fraction``."""
    failures: List[str] = []
    for name, layer in sorted(report.get("layers", {}).items()):
        frac = float(layer.get("est_null_frac", 0.0))
        if frac > max_null_fraction:
            failures.append(
                f"{name}: estimated disabled-telemetry overhead "
                f"{frac:.2%} exceeds the {max_null_fraction:.0%} ceiling "
                f"({layer.get('events', 0)} events, "
                f"{layer.get('timer_records_total', 0)} timer records)"
            )
    return failures


def format_overhead(report: Dict[str, Any]) -> str:
    """Human-readable overhead audit table."""
    null_ns = report.get("null_primitives_ns", {})
    lines = [
        "telemetry overhead audit"
        + (" (quick)" if report.get("quick") else ""),
        "",
        "null-hub primitives: "
        + "  ".join(
            f"{k}={null_ns.get(k, 0.0):.0f}ns" for k in NULL_PRIMITIVES
        ),
        "",
        f"{'layer':<14} {'disabled':>9} {'enabled':>9} {'overhead':>9} "
        f"{'events':>7} {'timers':>7} {'est-null':>9} {'null%':>7}",
    ]
    lines.append("-" * len(lines[-1]))
    for name, layer in sorted(report.get("layers", {}).items()):
        lines.append(
            f"{name:<14} {layer['disabled_s']:>8.3f}s {layer['enabled_s']:>8.3f}s "
            f"{layer['overhead_frac']:>8.1%} "
            f"{layer['events']:>7} {layer['timer_records_total']:>7} "
            f"{layer['est_null_s'] * 1e6:>7.1f}us {layer['est_null_frac']:>7.3%}"
        )
    lines.append("")
    lines.append("hook sites (enabled arm):")
    for name, layer in sorted(report.get("layers", {}).items()):
        kinds = ", ".join(
            f"{k}x{v}"
            for k, v in sorted(
                layer["event_kinds"].items(), key=lambda kv: (-kv[1], kv[0])
            )[:5]
        )
        timers = ", ".join(
            f"{k}x{v}"
            for k, v in sorted(
                layer["timer_records"].items(), key=lambda kv: (-kv[1], kv[0])
            )[:5]
        )
        pad = " " * (len(name) + 2)
        lines.append(f"  {name}: events [{kinds or '-'}]")
        lines.append(f"  {pad}timers [{timers or '-'}]")
    return "\n".join(lines)


# -- report comparison ---------------------------------------------------------

#: Metrics compared by ``repro bench --compare`` with the direction that
#: counts as an improvement.  Sections absent from either report (e.g.
#: ``sim`` in a schema-v1 file) are skipped, not failed.
COMPARE_METRICS = (
    ("fl", "loop_epochs_per_s", "higher"),
    ("fl", "batched_epochs_per_s", "higher"),
    ("fl", "speedup_vs_loop", "higher"),
    ("fl", "batched_epoch_latency_s", "lower"),
    ("solver", "warm_solves_per_s", "higher"),
    ("solver", "warm_speedup", "higher"),
    ("solver", "warm_iter_ratio", "higher"),
    ("nn", "conv_steps_per_s", "higher"),
    ("nn", "sgd_in_place_speedup", "higher"),
    ("sim", "rounds_per_s", "higher"),
    ("sim", "overhead_ratio", "lower"),
    ("scale", "speedup_vs_flat_k10000", "higher"),
    ("scale", "sharded_epochs_per_s_k10000", "higher"),
)


def compare_reports(
    a: Dict[str, Any], b: Dict[str, Any], threshold: float = 0.05
) -> List[Dict[str, Any]]:
    """Per-metric delta rows between two bench reports (``b`` vs ``a``).

    A row is a *regression* when ``b`` is worse than ``a`` by more than
    ``threshold`` in the metric's bad direction.  Rows whose sections ran
    under different configs are annotated, not suppressed — drift across
    baselines with config changes is exactly what the table is for.
    """
    rows: List[Dict[str, Any]] = []
    for section, key, better in COMPARE_METRICS:
        sa, sb = a.get(section), b.get(section)
        if not isinstance(sa, dict) or not isinstance(sb, dict):
            continue
        va, vb = sa.get(key), sb.get(key)
        if not isinstance(va, (int, float)) or not isinstance(vb, (int, float)):
            continue
        va, vb = float(va), float(vb)
        delta_pct = 100.0 * (vb - va) / va if va != 0 else None
        if delta_pct is None:
            worse = False
        elif better == "higher":
            worse = vb < va * (1.0 - threshold)
        else:
            worse = vb > va * (1.0 + threshold)
        rows.append(
            {
                "section": section,
                "metric": key,
                "a": va,
                "b": vb,
                "better": better,
                "delta_pct": delta_pct,
                "regressed": bool(worse),
                "configs_match": sa.get("config") == sb.get("config"),
            }
        )
    return rows


def format_compare(
    rows: List[Dict[str, Any]], label_a: str = "A", label_b: str = "B"
) -> str:
    """Render :func:`compare_reports` rows as a fixed-width table."""
    title = f"bench compare: {label_a} -> {label_b}"
    lines = [title, "=" * len(title)]
    if not rows:
        lines.append("(no comparable metrics)")
        return "\n".join(lines)
    header = (
        f"{'metric':<34} {label_a[:12]:>12} {label_b[:12]:>12} "
        f"{'delta':>8}  note"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        name = f"{row['section']}.{row['metric']}"
        delta = (
            f"{row['delta_pct']:+.1f}%" if row["delta_pct"] is not None else "n/a"
        )
        notes = []
        if row["regressed"]:
            notes.append("! regression")
        if not row["configs_match"]:
            notes.append("config differs")
        lines.append(
            f"{name:<34} {row['a']:>12.3f} {row['b']:>12.3f} "
            f"{delta:>8}  {'; '.join(notes)}"
        )
    regressions = [r for r in rows if r["regressed"]]
    lines.append("")
    lines.append(
        f"{len(regressions)} regression(s) past the threshold"
        if regressions
        else "no regressions past the threshold"
    )
    return "\n".join(lines)
