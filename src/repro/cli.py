"""Command-line interface.

Six subcommands::

    python -m repro run      --policy FedL --dataset fmnist --budget 600 \
                             [--set PATH=VALUE ...] [--param KEY=VALUE ...] \
                             [--telemetry out/trace] [--save run.json]
    python -m repro run      --calibrate [--profiles none stress] [--save CAL.json]
    python -m repro compare  --dataset fmnist --budget 1200 [--non-iid]
    python -m repro sweep    --budgets 300 800 2000 --seeds 0 1 2 --workers 4 \
                             [--set PATH=VALUE ...] [--cache-dir DIR]
    python -m repro tournament [--quick] [--list] [--strategies A B] \
                             [--scenarios X Y] [--out REPORT.json]
    python -m repro trace    out/trace [--run PREFIX] [--follow] \
                             [--diff other/trace]
    python -m repro regret   --horizons 25 50 100

``run`` and ``sweep`` describe an experiment the same way.  The paper's
knobs (Sec. 6.1) are named flags: ``--dataset``, ``--non-iid``,
``--budget``/``--budgets``, ``--seed``/``--seeds``, ``--clients``,
``--participants``, ``--epochs``.  Every other setting is a leaf of
:class:`~repro.config.ExperimentConfig`, reached by the repeatable
``--set PATH=VALUE`` (:meth:`~repro.config.ExperimentConfig.override`),
which is applied after the named flags and so wins.  Values are JSON
with a bare-string fallback: ``--set training.engine=des``, ``--set
training.hidden_units=[32,16]``, ``--set shard.eval_sample=null``.
``--param KEY=VALUE`` sets a strategy's registry parameters.

``training.engine=des`` plays each round message by message on the
event-driven runtime (:mod:`repro.sim`); ``live`` forks worker processes
(:mod:`repro.live`) that run the real local solves over shaped sockets.
Both follow the ``sim`` section (aggregation policy, fault profile); on
any other engine a non-default ``sim`` section exits 2.  ``run
--calibrate`` runs the scenario through both per fault profile, prints
the predicted-vs-measured divergence table, and exits 1 unless the
fault-free live run is bit-identical to the loop engine
(``live.time_scale`` defaults to 25 there).  From ``--clients`` 5 000 up
selection runs in ``clients // 500`` shards, and from 10 000 up the
population loss comes from a 2 000-client panel, unless ``--set
shard.num_shards``/``shard.eval_sample`` says otherwise.

``run --resume DIR`` continues a ``--checkpoint-dir DIR`` run
bit-identically from its newest snapshot, whose config it takes whole.
``sweep`` and ``tournament`` run their grids on the process-parallel
sweep engine; ``--cache-dir`` serves finished jobs from disk.
``--telemetry DIR`` records what ``trace`` renders: the phase tree of
the recorded timers, the hot phases, counters and the learner's
trajectories; ``--diff DIR2`` adds the per-phase delta table against a
second recording.

Exit codes: 0 on success, 2 on argument errors (argparse failures,
malformed ``KEY=VALUE`` items, values the config or the strategy
registry rejects), 1 on runtime errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro import __version__
from repro.checkpoint import (
    CheckpointError,
    ExperimentInterrupted,
    load_snapshot,
    resume_experiment,
)
from repro.config import ExperimentConfig
from repro.fl.defense import CorruptUpdateError, TrainingDivergedError
from repro.experiments.figures import accuracy_vs_time, run_policy_suite
from repro.experiments.persistence import save_results, save_traces
from repro.experiments.reporting import format_series, format_table
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import POLICY_NAMES, experiment_config, make_policy
from repro.experiments.sweep import (
    PolicySpec,
    SweepCache,
    SweepJob,
    SweepProgress,
    run_sweep,
)
from repro.experiments.tables import headline_claims
from repro.live import LiveError, run_calibration
from repro.live.calibrate import DEFAULT_PROFILES
from repro.obs import (
    Telemetry,
    UnknownRunError,
    profile_directory,
    render_diff,
    render_trace,
    use_telemetry,
)
from repro.rng import RngFactory
from repro.sim.faults import FAULT_PROFILES, ParticipationFloorError
from repro.strategies import (
    STRATEGY_REGISTRY,
    StrategyError,
    get_strategy,
    resolve_params,
    strategy_names,
)

__all__ = ["main", "build_parser"]

#: Every strategy the CLI can name — the registry, in registration order.
ALL_POLICIES = strategy_names()

#: Exit code for argument/usage errors (matches argparse's own).
EXIT_USAGE = 2

#: Epoch-throughput heartbeat cadence (seconds) for run; silenced by --quiet.
HEARTBEAT_S = 10.0

#: Large-K defaults: from SHARD_AUTO_CLIENTS clients selection runs in
#: clients // SHARD_AUTO_DIVISOR shards; from EVAL_AUTO_CLIENTS the
#: population loss comes from an EVAL_AUTO_SAMPLE-client panel.
SHARD_AUTO_CLIENTS = 5_000
SHARD_AUTO_DIVISOR = 500
EVAL_AUTO_CLIENTS = 10_000
EVAL_AUTO_SAMPLE = 2_000

#: Engines whose rounds play on a network timeline (``config.sim`` binds).
TIMELINE_ENGINES = ("des", "live")


def _usage_error(message: str) -> int:
    print(f"repro: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _add_pool(p: argparse.ArgumentParser) -> None:
    """The sweep engine's pool and cache (``sweep``, ``tournament``)."""
    p.add_argument("--workers", type=_positive_int, default=None,
                   help="worker processes (default: the CPUs this process "
                   "may use; 1 = serial)")
    p.add_argument("--cache-dir", type=str, default=None, metavar="DIR",
                   help="reuse/store per-job results in this directory "
                   "(a second identical grid only runs cache misses)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FedL reproduction: online client selection for "
        "federated edge learning under budget constraint (ICPP '22).",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run",
        help="run one policy end to end on any engine, or calibrate the "
        "live runtime against the DES",
    )
    _add_scenario(p_run)
    p_run.add_argument("--policy", default="FedL", choices=ALL_POLICIES)
    p_run.add_argument("--budget", type=float, default=800.0)
    p_run.add_argument("--resume", type=str, default=None, metavar="DIR",
                       help="resume from the newest snapshot in DIR, whose "
                       "config wins (scenario flags are ignored, --set is "
                       "an error); --checkpoint-dir moves the snapshots")
    p_run.add_argument("--calibrate", action="store_true",
                       help="run the scenario through DES and live per fault "
                       "profile: divergence table + live-vs-loop bit-identity")
    p_run.add_argument("--profiles", nargs="+", default=None,
                       choices=sorted(FAULT_PROFILES),
                       help="fault profiles for --calibrate "
                       "(default: none flaky-uplink stress)")

    p_cmp = sub.add_parser("compare", help="run the four-policy paper suite")
    _add_paper_knobs(p_cmp)
    p_cmp.add_argument("--budget", type=float, default=1200.0)
    p_cmp.add_argument("--target", type=float, default=0.7,
                       help="accuracy target for the completion-time table")
    p_cmp.add_argument("--chart", action="store_true",
                       help="render an ASCII accuracy-vs-time chart")

    p_swp = sub.add_parser(
        "sweep",
        help="budget sweep (paper Figs. 6-7) on the parallel sweep engine",
    )
    _add_scenario(p_swp)
    p_swp.add_argument("--budgets", type=float, nargs="+",
                       default=[300.0, 800.0, 2000.0])
    p_swp.add_argument("--seeds", type=int, nargs="+", default=None,
                       help="repeat each budget over these seeds "
                       "(default: just --seed); losses are averaged")
    p_swp.add_argument("--policies", nargs="+", default=list(POLICY_NAMES),
                       choices=list(ALL_POLICIES))
    _add_pool(p_swp)

    p_trn = sub.add_parser(
        "tournament",
        help="rank every registered strategy across a scenario matrix "
        "(partitions, prices, attacks, churn) via the sweep engine",
    )
    p_trn.add_argument("--list", action="store_true", dest="list_registry",
                       help="list registered strategies and scenarios, "
                       "then exit")
    p_trn.add_argument("--quick", action="store_true",
                       help="tiny smoke-scale matrix (synchronous quick "
                       "scenarios, 1 seed, seconds per strategy)")
    p_trn.add_argument("--strategies", nargs="+", default=None, metavar="NAME",
                       help="restrict to these registered strategies "
                       "(default: the whole registry)")
    p_trn.add_argument("--scenarios", nargs="+", default=None, metavar="NAME",
                       help="restrict to these scenarios (default: quick "
                       "matrix with --quick, else every scenario)")
    p_trn.add_argument("--seeds", type=int, nargs="+", default=None,
                       help="seeds per cell (default: 0 with --quick, "
                       "else 0 1 2)")
    _add_pool(p_trn)
    p_trn.add_argument("--out", type=str, default=None, metavar="REPORT.json",
                       help="also persist the report as versioned JSON")
    p_trn.add_argument("--telemetry", type=str, default=None, metavar="DIR",
                       help="record per-job/worker JSONL event traces + a "
                       "merged manifest and metrics export into DIR")
    p_trn.add_argument("--quiet", "--no-progress", dest="quiet",
                       action="store_true",
                       help="suppress the per-job progress lines on stderr")

    p_trc = sub.add_parser(
        "trace",
        help="render a recorded --telemetry directory (phase tree, hot "
        "phases, dual/regret/fit trajectories)",
    )
    p_trc.add_argument("directory", type=str, metavar="DIR")
    p_trc.add_argument("--run", type=str, default=None, metavar="PREFIX",
                       help="only render trajectories for run ids matching "
                       "this prefix")
    p_trc.add_argument("--no-chart", action="store_true",
                       help="skip the ASCII chart (sparklines only)")
    p_trc.add_argument("--follow", action="store_true",
                       help="tail the trace live: stream one line per "
                       "completed epoch until the run finalizes")
    p_trc.add_argument("--poll", type=float, default=0.5, metavar="SECONDS",
                       help="polling interval for --follow (default 0.5)")
    p_trc.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                       help="give up following after this much wall time "
                       "(default: wait until the run finalizes)")
    p_trc.add_argument("--diff", type=str, default=None, metavar="DIR2",
                       help="append the per-phase delta table of DIR2 "
                       "against DIR (regressions past +5%% mean/call marked)")

    p_reg = sub.add_parser("regret", help="dynamic regret/fit growth check")
    p_reg.add_argument("--horizons", type=int, nargs="+", default=[25, 50, 100])
    p_reg.add_argument("--seed", type=int, default=5)

    return parser


def _add_paper_knobs(p: argparse.ArgumentParser) -> None:
    """The paper's Sec. 6.1 knobs other than the budget, plus ``--save``."""
    p.add_argument("--dataset", default="fmnist", choices=["fmnist", "cifar10"])
    p.add_argument("--non-iid", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--clients", type=int, default=20)
    p.add_argument("--participants", type=int, default=5)
    p.add_argument("--epochs", type=int, default=80)
    p.add_argument("--save", type=str, default=None, metavar="PATH.json")


def _add_scenario(p: argparse.ArgumentParser) -> None:
    """What ``run`` and ``sweep`` share: the paper's knobs, ``--set``,
    ``--param`` and the operational flags."""
    _add_paper_knobs(p)
    p.add_argument("--set", action="append", default=[], metavar="PATH=VALUE",
                   help="set a config leaf by dotted path, e.g. --set "
                   "sim.faults=churn (repeatable; JSON values, bare strings "
                   "allowed); applied last, so it wins")
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                   help="override a strategy registry parameter (repeatable; "
                   "a sweep gives it to every policy that declares it)")
    p.add_argument("--checkpoint-dir", type=str, default=None, metavar="DIR",
                   help="snapshot every checkpoint.interval epochs into DIR "
                   "(sweep: DIR/jobs/<job-key>, resumed by a rerun)")
    p.add_argument("--telemetry", type=str, default=None, metavar="DIR",
                   help="record a JSONL event trace + manifest into DIR "
                   "(render it with `repro trace DIR`)")
    p.add_argument("--quiet", "--no-progress", dest="quiet", action="store_true",
                   help="no progress lines or heartbeat on stderr")


def _parse_pairs(flag: str, items: Sequence[str]) -> dict:
    """Repeated ``FLAG KEY=VALUE`` items as a dict.

    Values are JSON (``3``, ``0.5``, ``true``, ``null``, ``[32, 16]``,
    ``"des"``), with a bare-string fallback so ``--set sim.faults=churn``
    and ``--param base=FedCS`` work unquoted.  A malformed item raises
    ``ValueError``; whether a value fits is the config's or the strategy
    registry's call.
    """
    pairs: dict = {}
    for item in items:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ValueError(f"{flag} expects KEY=VALUE, got {item!r}")
        try:
            pairs[key] = json.loads(raw)
        except json.JSONDecodeError:
            pairs[key] = raw
    return pairs


def _config(
    args: argparse.Namespace, sets: dict, budget: float, seed: int
) -> ExperimentConfig:
    """One experiment as the named flags, then ``--set``, describe it.

    Raises ``ValueError`` (:class:`~repro.config.ConfigPathError` for an
    unknown path) with the config's own message when it rejects a value.
    """
    derived: dict = {}
    if args.clients >= SHARD_AUTO_CLIENTS:
        derived["shard.num_shards"] = args.clients // SHARD_AUTO_DIVISOR
    if args.clients >= EVAL_AUTO_CLIENTS:
        derived["shard.eval_sample"] = EVAL_AUTO_SAMPLE
    if args.checkpoint_dir is not None:
        derived["checkpoint.directory"] = args.checkpoint_dir
    cfg = experiment_config(
        dataset=args.dataset,
        iid=not args.non_iid,
        budget=budget,
        seed=seed,
        num_clients=args.clients,
        min_participants=args.participants,
        max_epochs=args.epochs,
    ).override({**derived, **sets})
    # The one cross-field rule the config cannot hold itself: the sim
    # section would bind nothing on the closed-form engines.
    engine, idle = cfg.training.engine, type(cfg.sim)()
    stray = [
        f"sim.{f.name}"
        for f in dataclasses.fields(cfg.sim)
        if getattr(cfg.sim, f.name) != getattr(idle, f.name)
    ]
    if stray and engine not in TIMELINE_ENGINES:
        raise ValueError(
            f"{', '.join(stray)} only applies with training.engine des or "
            f"live, not {engine!r}"
        )
    return cfg


def _cmd_run(args: argparse.Namespace) -> int:
    """``run`` and its ``--resume``/``--calibrate``: parse → config → hub →
    run → summary, with one typed-error → exit-1 ladder.

    A resumed run takes its whole config (engine included) from the
    snapshot; ``--checkpoint-dir`` only moves where its snapshots go.
    Exit codes: 2 for bad arguments, 1 for runtime failures or an
    interruption, 0 on completion.
    """
    resuming = args.resume is not None
    try:
        sets = _parse_pairs("--set", args.set)
        params = _parse_pairs("--param", args.param)
        if args.profiles is not None and not args.calibrate:
            raise ValueError("--profiles only applies with --calibrate")
        if args.calibrate and params:
            raise ValueError("--param does not apply with --calibrate")
        if resuming and sets:
            raise ValueError("--set does not apply with --resume: the "
                             "snapshot holds the config")
        if resuming and not Path(args.resume).is_dir():
            raise ValueError(f"--resume: no such checkpoint directory: {args.resume}")
        if args.calibrate:  # calibration defaults; a --set still wins
            sets = {"training.engine": "live", "live.time_scale": 25.0, **sets}
        if not resuming:
            cfg = _config(args, sets, args.budget, args.seed)
            if not args.calibrate:  # StrategyError is a ValueError
                policy = make_policy(
                    args.policy, cfg, RngFactory(args.seed).get("cli.policy"),
                    params=params or None,
                )
    except ValueError as exc:
        return _usage_error(str(exc))
    if args.calibrate and not resuming:
        return _calibrate(args, cfg)
    try:
        if resuming:
            snapshot = load_snapshot(args.resume)
            label, seed = snapshot.resume.trace.policy_name, snapshot.config.seed
            moved = None if args.checkpoint_dir is None else dataclasses.replace(
                snapshot.config.checkpoint, directory=args.checkpoint_dir
            )
            run = functools.partial(
                resume_experiment, snapshot, checkpoint_override=moved
            )
        else:
            label, seed = args.policy, args.seed
            run = functools.partial(run_experiment, policy, cfg)
        hub = (
            Telemetry.for_directory(args.telemetry, run_id=f"{label}[seed={seed}]")
            if args.telemetry
            else None
        )
        with use_telemetry(hub):
            result = run(heartbeat_s=None if args.quiet else HEARTBEAT_S)
    except CheckpointError as exc:
        what = "cannot resume" if resuming else "checkpoint failure"
        print(f"repro: {what}: {exc}", file=sys.stderr)
        return 1
    except ExperimentInterrupted as exc:
        print(f"repro: {exc}", file=sys.stderr)
        print(
            f"repro: resume with: repro run --resume {exc.directory}",
            file=sys.stderr,
        )
        return 1
    except ParticipationFloorError as exc:
        print(f"repro: run aborted: {exc}", file=sys.stderr)
        return 1
    except LiveError as exc:
        print(f"repro: live runtime failed: {exc}", file=sys.stderr)
        return 1
    except (CorruptUpdateError, TrainingDivergedError) as exc:
        print(f"repro: training aborted: {exc}", file=sys.stderr)
        return 1
    cfg = result.config
    if hub is not None:
        meta = {"command": "run", "policy": label, "seed": seed}
        if cfg.training.engine in TIMELINE_ENGINES:
            meta.update(aggregation=cfg.sim.aggregation, faults=cfg.sim.faults)
        if cfg.training.engine == "live":
            meta.update(workers=cfg.live.workers, time_scale=cfg.live.time_scale)
        hub.finalize(meta=meta)
        print(f"telemetry -> {args.telemetry}", file=sys.stderr)
    _print_summary(result, resumed=args.resume)
    if args.save:
        path = save_traces({result.trace.policy_name: result.trace}, args.save)
        print(f"saved -> {path}")
    return 0


def _print_summary(result, resumed: Optional[str]) -> None:
    """The run summary, a function of the result alone — so a resumed run
    prints the fields the run it continues would have."""
    cfg, tr = result.config, result.trace
    engine = cfg.training.engine
    timeline = engine in TIMELINE_ENGINES
    head = [f"policy={tr.policy_name}"]
    if resumed is not None:
        head.append(f"resumed={resumed}")
    if timeline:
        head.append(f"engine={engine}")
        if engine == "live":
            head.append(
                f"workers={cfg.live.workers} time_scale={cfg.live.time_scale:g}"
            )
        head.append(f"aggregation={cfg.sim.aggregation} faults={cfg.sim.faults}")
    head.append(f"epochs={len(tr)} stop={result.stop_reason}")
    print(" ".join(head))
    clock = "measured_time" if engine == "live" else "sim_time"
    tail = (
        f"final_accuracy={tr.final_accuracy:.4f} "
        f"{clock}={tr.times[-1]:.1f}s spend={tr.total_spend:.1f}"
    )
    if timeline:
        tail += f" failed_clients={sum(r.num_failed for r in tr.records)}"
    print(tail)
    if cfg.attack.kind != "none" or cfg.defense.aggregator != "none":
        print(
            f"attack={cfg.attack.kind} defense={cfg.defense.aggregator} "
            f"quarantined_updates="
            f"{sum(r.num_quarantined for r in tr.records)}"
        )


def _calibrate(args: argparse.Namespace, cfg: ExperimentConfig) -> int:
    """``run --calibrate``: the scenario through the DES and the live
    runtime per fault profile, plus the fault-free bit-identity verdict."""
    profiles = tuple(args.profiles) if args.profiles else DEFAULT_PROFILES
    try:
        report = run_calibration(cfg, policy=args.policy, profiles=profiles)
    except (LiveError, ParticipationFloorError) as exc:
        print(f"repro: calibration aborted: {exc}", file=sys.stderr)
        return 1
    print(report.render())
    if args.save:
        path = report.save(args.save)
        print(f"saved -> {path}")
    if report.bit_identical is False:
        print("repro: fault-free live run is NOT bit-identical to the loop "
              "engine", file=sys.stderr)
        return 1
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    knobs = dict(dataset=args.dataset, iid=not args.non_iid, budget=args.budget,
                 seed=args.seed, num_clients=args.clients,
                 min_participants=args.participants, max_epochs=args.epochs)
    try:
        experiment_config(**knobs)  # the config's own checks, before any run
    except ValueError as exc:
        return _usage_error(str(exc))
    traces = run_policy_suite(**knobs)
    series = accuracy_vs_time(traces)
    print(
        format_series(
            series, "seconds", "accuracy",
            title=f"accuracy vs time — {args.dataset}",
        )
    )
    if args.chart:
        from repro.experiments.plotting import ascii_chart

        print()
        print(ascii_chart(series, x_label="seconds", y_label="accuracy"))
    rows = {
        name: {
            "final acc": round(tr.final_accuracy, 3),
            f"t({args.target:.0%})": tr.time_to_accuracy(args.target),
            "epochs": len(tr),
            "spend": round(tr.total_spend, 1),
        }
        for name, tr in traces.items()
    }
    print()
    print(format_table(rows, title="summary"))
    claims = headline_claims(traces, target=args.target)
    print(
        f"\nFedL completion-time saving vs best baseline: "
        f"{claims['time_saving_pct']:.0f}%"
    )
    if args.save:
        path = save_traces(traces, args.save)
        print(f"saved -> {path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    seeds = args.seeds if args.seeds else [args.seed]
    # --param overrides bind per policy to the parameters it declares; a
    # key no policy in the grid declares is a usage error.  Values are
    # checked here, as `run` checks them, so a bad one exits 2 before the
    # pool starts rather than failing inside a worker.
    declared = {
        name: {p.name for p in STRATEGY_REGISTRY[name].params}
        for name in args.policies
    }
    try:
        sets = _parse_pairs("--set", args.set)
        for key in sorted({"budget", "seed"} & sets.keys()):  # grid axes
            raise ValueError(f"--set {key}: sweep's --{key}s owns this axis")
        params = _parse_pairs("--param", args.param)
        for key in params:
            if not any(key in names for names in declared.values()):
                raise ValueError(
                    f"--param {key}: no selected policy declares this parameter"
                )
        policy_params = {
            name: {k: v for k, v in params.items() if k in keys}
            for name, keys in declared.items()
        }
        configs = [_config(args, sets, b, s) for s in seeds for b in args.budgets]
        jobs = [
            SweepJob(PolicySpec(name, params=policy_params[name]), cfg)
            for cfg in configs
            for name in args.policies
        ]
        for job in jobs:  # StrategyError is a ValueError
            resolve_params(
                get_strategy(job.policy.name), job.config, job.policy.params_dict
            )
    except ValueError as exc:
        return _usage_error(str(exc))

    cache = SweepCache(args.cache_dir) if args.cache_dir else None

    # Progress and structured events share the telemetry hub: with
    # --telemetry the hub also records the JSONL trace, otherwise it only
    # echoes progress lines; --quiet silences the echo either way.
    progress_stream = None if args.quiet else sys.stderr
    if args.telemetry:
        hub = Telemetry.for_directory(
            args.telemetry, run_id="sweep", progress_stream=progress_stream
        )
    else:
        hub = Telemetry(progress_stream=progress_stream)

    def report(event: SweepProgress) -> None:
        cfg = event.job.config
        tag = "cache" if event.cached else "ran"
        hub.progress(
            f"[{event.done:>3}/{event.total}] {event.job.policy.name:<8s} "
            f"budget={cfg.budget:g} seed={cfg.seed} ({tag})"
        )

    results = run_sweep(
        jobs, workers=args.workers, cache=cache, progress=report, telemetry=hub
    )
    if args.telemetry:
        hub.finalize(
            meta={
                "command": "sweep",
                "jobs": len(jobs),
                "policies": list(args.policies),
                "budgets": [float(b) for b in args.budgets],
                "seeds": [int(s) for s in seeds],
            }
        )
        print(f"telemetry -> {args.telemetry}", file=sys.stderr)
    else:
        hub.close()

    # Mean final loss per (policy, budget) across seeds.
    losses: dict = {}
    for job, res in zip(jobs, results):
        losses.setdefault(job.policy.name, {}).setdefault(
            float(job.config.budget), []
        ).append(res.trace.final_loss)
    series = {
        name: [(b, float(np.mean(v))) for b, v in sorted(by_budget.items())]
        for name, by_budget in losses.items()
    }
    print(
        format_series(
            series, "budget", "final loss",
            title=f"budget impact — {args.dataset}",
        )
    )
    if args.save:
        named = {
            f"{job.policy.name}[budget={job.config.budget:g},seed={job.config.seed}]": res
            for job, res in zip(jobs, results)
        }
        path = save_results(named, args.save)
        print(f"saved -> {path}")
    return 0


def _cmd_tournament(args: argparse.Namespace) -> int:
    from repro.experiments.tournament import (
        SCENARIOS,
        UnknownScenarioError,
        format_report,
        full_base_config,
        get_scenario,
        quick_base_config,
        run_tournament,
        save_report,
        scenario_names,
    )

    if args.list_registry:
        print("registered strategies:")
        for name, spec in STRATEGY_REGISTRY.items():
            caps = ",".join(spec.capabilities()) or "-"
            print(f"  {name:<14} [{caps}] {spec.description}")
        print("scenarios:")
        for scenario in SCENARIOS:
            tag = " (quick)" if scenario.quick else ""
            print(f"  {scenario.name:<16}{tag} {scenario.description}")
        return 0

    try:
        for name in args.strategies or []:
            get_strategy(name)
        for name in args.scenarios or []:
            get_scenario(name)
    except (StrategyError, UnknownScenarioError) as exc:
        return _usage_error(str(exc))
    seeds = args.seeds if args.seeds else ([0] if args.quick else [0, 1, 2])
    base = quick_base_config() if args.quick else full_base_config()
    scenarios = args.scenarios or list(scenario_names(quick=args.quick))
    cache = SweepCache(args.cache_dir) if args.cache_dir else None

    def report_progress(event: SweepProgress) -> None:
        if args.quiet:
            return
        tag = "cache" if event.cached else "ran"
        print(
            f"[{event.done:>3}/{event.total}] "
            f"{event.job.policy.name:<14s} seed={event.job.config.seed} "
            f"({tag})",
            file=sys.stderr,
        )

    hub = (
        Telemetry.for_directory(args.telemetry, run_id="tournament")
        if args.telemetry
        else None
    )
    started = time.time()
    try:
        report = run_tournament(
            strategies=args.strategies,
            scenarios=scenarios,
            seeds=seeds,
            base_config=base,
            workers=args.workers,
            cache=cache,
            progress=report_progress,
            telemetry=hub,
        )
    except ParticipationFloorError as exc:
        print(f"repro: tournament aborted: {exc}", file=sys.stderr)
        return 1
    if hub is not None:
        hub.finalize(
            meta={
                "command": "tournament",
                "strategies": list(args.strategies or []),
                "scenarios": list(scenarios),
                "seeds": [int(s) for s in seeds],
            }
        )
        print(f"telemetry -> {args.telemetry}", file=sys.stderr)
    print(format_report(report))
    if args.out:
        path = save_report(
            report, args.out,
            ts={"generated_unix": time.time(), "elapsed_s": time.time() - started},
        )
        print(f"report -> {path}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    directory = Path(args.directory).expanduser()
    if args.follow:
        # Follow mode tails a run that may still be starting up: the
        # directory (or its first events file) may not exist yet, so the
        # static validations below do not apply — --timeout bounds the
        # wait instead.
        if args.diff:
            return _usage_error("--diff needs two finished traces, not --follow")
        if args.poll <= 0:
            return _usage_error("--poll must be positive")
        if args.timeout is not None and args.timeout < 0:
            return _usage_error("--timeout must be >= 0")
        from repro.obs import follow_trace

        return follow_trace(
            directory, run=args.run, poll_s=args.poll, timeout_s=args.timeout
        )
    dirs = [directory] + ([Path(args.diff).expanduser()] if args.diff else [])
    for d in dirs:
        if not d.is_dir():
            return _usage_error(f"not a telemetry directory: {d}")
    if not any(directory.glob("events*.jsonl")):
        return _usage_error(f"no events*.jsonl files under {directory}")
    diff = None
    if args.diff:
        profiles = [profile_directory(d) for d in dirs]
        for d, profile in zip(dirs, profiles):
            if profile is None:
                return _usage_error(
                    f"no manifest.json under {d} (--diff needs finalized "
                    "traces; is the run still in flight?)"
                )
        diff = render_diff(*profiles, label_a=str(dirs[0]), label_b=str(dirs[1]))
    try:
        print(render_trace(directory, run=args.run, chart=not args.no_chart))
    except UnknownRunError as exc:
        return _usage_error(str(exc))
    if diff is not None:
        print()
        print(diff)
    return 0


def _cmd_regret(args: argparse.Namespace) -> int:
    from repro.core.online_learner import OnlineLearner
    from repro.core.regret import (
        drifting_problem_stream,
        dynamic_fit,
        dynamic_regret,
    )

    factory = RngFactory(args.seed)
    m = 8
    rows = []
    for horizon in args.horizons:
        problems = drifting_problem_stream(
            m, horizon, factory.fresh(f"stream.{horizon}")
        )
        step = horizon ** (-1.0 / 3.0)
        learner = OnlineLearner(m, beta=step, delta=step, rho_max=6.0)
        decisions = []
        for prob in problems:
            phi = learner.descent_step(prob.inputs)
            decisions.append(phi)
            learner.dual_ascent(prob.h(phi))
        reg, _ = dynamic_regret(problems, decisions)
        fit = dynamic_fit(problems, decisions)
        rows.append((horizon, {
            "Reg_d": f"{reg:.2f}", "Fit_d": f"{fit:.2f}", "Fit_d/T": f"{fit / horizon:.3f}",
        }))
    print(format_table(rows, label="T"))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "sweep": _cmd_sweep,
        "tournament": _cmd_tournament,
        "trace": _cmd_trace,
        "regret": _cmd_regret,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
