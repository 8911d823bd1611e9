"""Command-line interface.

Nine subcommands::

    python -m repro run      --policy FedL --dataset fmnist --budget 600 \
                             [--param KEY=VALUE ...] [--telemetry out/trace]
    python -m repro sim      --policy FedL --aggregation deadline \
                             --deadline 0.05 --faults flaky-uplink \
                             [--telemetry out/trace]
    python -m repro live     --policy FedL --workers 4 --time-scale 25 \
                             [--faults stress | --calibrate --out CAL.json]
    python -m repro compare  --dataset fmnist --budget 1200 [--non-iid]
    python -m repro sweep    --dataset fmnist --budgets 300 800 2000 \
                             --seeds 0 1 2 --workers 4 [--telemetry out/trace] \
                             --cache-dir ~/.cache/repro/sweeps
    python -m repro tournament [--quick] [--list] [--strategies A B] \
                             [--scenarios X Y] [--seeds 0 1 2] \
                             [--out REPORT.json] [--cache-dir DIR] \
                             [--telemetry out/trace]
    python -m repro trace    out/trace [--run PREFIX] \
                             [--follow [--poll 0.5] [--timeout 60]]
    python -m repro profile  out/trace [--diff other/trace] [--top 10]
    python -m repro regret   --horizons 25 50 100

``tournament`` runs every registered selection strategy (the zoo in
:mod:`repro.strategies`) across a scenario matrix (partition skew, price
regimes, Byzantine attacks, availability churn, DES fault profiles)
through the sweep engine + cache, and prints a ranked report (per-
scenario winners, overall ranking, head-to-head wins); ``--out`` also
persists the report JSON.  ``--param KEY=VALUE`` (run/sweep) overrides a
strategy's registry parameters — unknown strategies or parameters exit
with code 2.

``sim`` is ``run`` on the event-driven network runtime
(:mod:`repro.sim`): each round is simulated message-by-message with the
chosen aggregation policy (sync barrier, deadline drop, K-quorum async)
and fault profile (stragglers, upload retries, mid-round dropout), and
``repro trace`` renders per-client round timelines from the recorded
``sim.*`` events.  ``sweep`` accepts the same runtime knobs
(``--engine des --aggregation ... --faults ...``) so grids can compare
aggregation policies under faults; with ``--engine loop|batched`` they
would bind nothing, so they exit 2.  Every option group names the config
fields it sets as dotted-path overrides (``{"sim.faults": ...}``) resolved
by :meth:`~repro.config.ExperimentConfig.override`.

``live`` is ``run`` on the live multi-process runtime (:mod:`repro.
live`): forked worker processes execute the real local solves and stream
serialized updates back over sockets through a token-bucket bandwidth
shaper, so round timelines are *measured* wall clock instead of closed
form.  It shares ``sim``'s aggregation/fault knobs (one physics, two
engines) and adds ``--workers``, ``--time-scale``, ``--transport`` and
``--round-timeout``.  ``live --calibrate`` runs the same scenario
through the DES and the live runtime per fault profile and prints the
divergence table (predicted vs measured round latency, barrier fill
times, drop counts) plus a fault-free live-vs-loop bit-identity verdict;
``--out`` persists the report JSON.

``run``/``sim``/``sweep`` also take the robustness knobs
(``--attack sign-flip --attack-fraction 0.2 --defense trimmed-mean``):
``--attack`` plants deterministic Byzantine clients
(:mod:`repro.fl.adversary`) and ``--defense`` screens and robustly
aggregates their uploads (:mod:`repro.fl.defense`); quarantine totals
appear in the run summary and in ``repro trace``.

``run``/``compare``/``sweep`` accept ``--save out.json`` to persist the
traces/results (see :mod:`repro.experiments.persistence`).  ``sweep``
runs its policies × budgets × seeds grid through the process-parallel
sweep engine (:mod:`repro.experiments.sweep`) with per-job progress on
stderr (``--quiet`` silences it); ``--cache-dir`` makes re-runs serve
finished jobs from disk.  ``--telemetry DIR`` records a structured JSONL
event trace plus a ``manifest.json`` (see :mod:`repro.obs`) that
``repro trace DIR`` renders as timing tables and controller
trajectories; finalize also exports ``metrics.json`` and a
Prometheus-style ``metrics.prom``.

``trace --follow`` tails a live trace directory while the run is in
flight, printing one status line per completed epoch (accuracy, regret,
fit, budget headroom, quarantine count, latency, accuracy sparkline) and
exiting 0 once the run finalizes.  ``profile`` reconstructs the temporal
phase tree from a finished trace's manifest — self vs. cumulative time,
call counts, per-epoch cost — and ``--diff`` compares two trace
directories phase by phase.

Exit codes: 0 on success, 2 on argument errors (both argparse failures
and semantic validation like non-positive budgets), 1 on runtime errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from repro import __version__
from repro.atomic import atomic_write_text
from repro.checkpoint import (
    CheckpointError,
    ExperimentInterrupted,
    load_snapshot,
    resume_experiment,
)
from repro.config import CheckpointConfig
from repro.fl.adversary import ATTACKS
from repro.fl.defense import AGGREGATORS, CorruptUpdateError, TrainingDivergedError
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
from repro.obs import Telemetry, render_trace, use_telemetry
from repro.rng import RngFactory
from repro.sim.entities import AGGREGATION_POLICIES
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


def _usage_error(message: str) -> int:
    print(f"repro: error: {message}", file=sys.stderr)
    return EXIT_USAGE


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

    for name, row in EXPERIMENT_COMMANDS.items():
        p_exp = sub.add_parser(name, help=row.help)
        for group in row.groups:
            OPTION_GROUPS[group].add(p_exp)

    p_cmp = sub.add_parser("compare", help="run the four-policy paper suite")
    OPTION_GROUPS["common"].add(p_cmp)
    p_cmp.add_argument("--budget", type=float, default=1200.0)
    p_cmp.add_argument("--target", type=float, default=0.7,
                       help="accuracy target for the completion-time table")
    p_cmp.add_argument("--chart", action="store_true",
                       help="render an ASCII accuracy-vs-time chart")

    p_swp = sub.add_parser(
        "sweep",
        help="budget sweep (paper Figs. 6-7) on the parallel sweep engine",
    )
    for group in SWEEP_GROUPS:
        OPTION_GROUPS[group].add(p_swp)
    p_swp.add_argument("--budgets", type=float, nargs="+",
                       default=[300.0, 800.0, 2000.0])
    p_swp.add_argument("--seeds", type=int, nargs="+", default=None,
                       help="repeat each budget over these seeds "
                       "(default: just --seed); losses are averaged")
    p_swp.add_argument("--policies", nargs="+", default=list(POLICY_NAMES),
                       choices=list(ALL_POLICIES))
    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError("must be >= 1")
        return value

    p_swp.add_argument("--workers", type=positive_int, default=None,
                       help="worker processes (default: the CPUs this process "
                       "may use; 1 = serial)")
    p_swp.add_argument("--cache-dir", type=str, default=None, metavar="DIR",
                       help="reuse/store per-job results in this directory "
                       "(a second identical sweep only runs cache misses)")
    p_swp.add_argument("--telemetry", type=str, default=None, metavar="DIR",
                       help="record per-job/worker JSONL event traces + a "
                       "merged manifest into DIR")
    p_swp.add_argument("--quiet", "--no-progress", dest="quiet",
                       action="store_true",
                       help="suppress the per-job progress lines on stderr")

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
    p_trn.add_argument("--workers", type=positive_int, default=None,
                       help="worker processes (default: the CPUs this process "
                       "may use; 1 = serial)")
    p_trn.add_argument("--cache-dir", type=str, default=None, metavar="DIR",
                       help="reuse/store per-cell results in this directory")
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
        help="render a recorded --telemetry directory (timing tables, "
        "dual/regret/fit trajectories)",
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

    p_prf = sub.add_parser(
        "profile",
        help="hierarchical phase profile of a finished trace directory "
        "(self vs cumulative time, per-epoch cost, hot-phase ranking)",
    )
    p_prf.add_argument("directory", type=str, metavar="DIR")
    p_prf.add_argument("--diff", type=str, default=None, metavar="DIR2",
                       help="also diff against a second trace directory "
                       "(per-phase delta table, regression highlighting)")
    p_prf.add_argument("--top", type=int, default=10, metavar="N",
                       help="hot phases to rank by self time (default 10)")
    p_prf.add_argument("--json", type=str, default=None, metavar="PATH.json",
                       dest="json_out",
                       help="also write the profile document as JSON")

    p_reg = sub.add_parser("regret", help="dynamic regret/fit growth check")
    p_reg.add_argument("--horizons", type=int, nargs="+", default=[25, 50, 100])
    p_reg.add_argument("--seed", type=int, default=5)

    return parser


# --- option groups -------------------------------------------------------------
# Each group of related flags is declared once: how to add it to a parser,
# how to check it (first error message, or None) and the dotted-path config
# overrides it stands for (applied by ExperimentConfig.override).
# Subcommands attach groups by name.


def _given(pairs) -> dict:
    """The overrides whose flag was given (unset flags parse as None)."""
    return {path: value for path, value in pairs if value is not None}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", default="fmnist", choices=["fmnist", "cifar10"])
    p.add_argument("--non-iid", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--clients", type=int, default=20)
    p.add_argument("--participants", type=int, default=5)
    p.add_argument("--epochs", type=int, default=80)
    p.add_argument("--save", type=str, default=None, metavar="PATH.json")


def _validate_common(args: argparse.Namespace) -> Optional[str]:
    """Semantic argument validation shared by run/sim/live/compare/sweep."""
    if args.clients < 1:
        return "--clients must be >= 1"
    if args.participants < 1 or args.participants > args.clients:
        return "--participants must be in [1, --clients]"
    if args.epochs < 1:
        return "--epochs must be >= 1"
    budgets = getattr(args, "budgets", None)
    if budgets is not None and any(b <= 0 for b in budgets):
        return "--budgets must all be positive"
    budget = getattr(args, "budget", None)
    if budget is not None and budget <= 0:
        return "--budget must be positive"
    return None


def _add_single_run(p: argparse.ArgumentParser) -> None:
    p.add_argument("--policy", default="FedL", choices=ALL_POLICIES)
    p.add_argument("--budget", type=float, default=800.0)
    p.add_argument("--telemetry", type=str, default=None, metavar="DIR",
                   help="record a structured JSONL event trace + manifest "
                   "into DIR (render it with `repro trace DIR`; sim.*/live.* "
                   "round/client events give per-client timelines, and the "
                   "live runtime adds its measured per-client stats files)")


def _add_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                   help="override a strategy registry parameter "
                   "(repeatable; values are JSON, e.g. --param d=9; a sweep "
                   "applies it to every policy that declares it)")


def _add_quick(p: argparse.ArgumentParser) -> None:
    p.add_argument("--quick", action="store_true",
                   help="smoke mode: cap the run at 5 epochs")


def _quick_overlay(args: argparse.Namespace) -> dict:
    return {"max_epochs": min(args.epochs, 5)} if args.quick else {}


def _add_runtime(p: argparse.ArgumentParser) -> None:
    p.add_argument("--aggregation", default=None,
                   choices=list(AGGREGATION_POLICIES),
                   help="server aggregation policy for each round "
                   "(default sync)")
    p.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="round deadline in simulated seconds (required with "
                   "--aggregation deadline): updates arriving later are "
                   "dropped, the round closes at the deadline")
    p.add_argument("--quorum", type=int, default=None, metavar="K",
                   help="aggregate as soon as K updates arrive "
                   "(required with --aggregation async)")
    p.add_argument("--faults", default=None,
                   choices=sorted(FAULT_PROFILES),
                   help="named fault profile (dropout hazard, upload "
                   "failures + retries; default none)")


def _validate_runtime(args: argparse.Namespace) -> Optional[str]:
    """Semantic validation of the network-runtime knobs (sim/live/sweep);
    an unset ``--aggregation`` means sync."""
    aggregation, deadline, quorum = args.aggregation, args.deadline, args.quorum
    if aggregation == "deadline":
        if deadline is None:
            return "--aggregation deadline requires --deadline"
        if deadline <= 0:
            return "--deadline must be positive"
    elif deadline is not None:
        return "--deadline only applies with --aggregation deadline"
    if aggregation == "async":
        if quorum is None:
            return "--aggregation async requires --quorum"
        if quorum < 1:
            return "--quorum must be >= 1"
    elif quorum is not None:
        return "--quorum only applies with --aggregation async"
    return None


def _runtime_overlay(args: argparse.Namespace) -> dict:
    return _given((
        ("sim.aggregation", args.aggregation),
        ("sim.deadline_s", args.deadline),
        ("sim.quorum", args.quorum),
        ("sim.faults", args.faults),
    ))


def _add_engine(p: argparse.ArgumentParser) -> None:
    p.add_argument("--engine", default=None,
                   choices=["loop", "batched", "des"],
                   help="per-round training engine for every job (des = "
                   "event-driven network runtime, implied by --aggregation "
                   "or --faults)")


def _validate_engine(args: argparse.Namespace) -> Optional[str]:
    """The runtime knobs bind only on the DES: reject them elsewhere."""
    if args.engine in ("loop", "batched"):
        for flag in ("aggregation", "deadline", "quorum", "faults"):
            if getattr(args, flag) is not None:
                return f"--{flag} only applies with --engine des"
    return None


def _engine_overlay(args: argparse.Namespace) -> dict:
    engine = args.engine
    if engine is None and (args.aggregation or args.faults):
        engine = "des"
    return {} if engine is None else {"training.engine": engine}


def _add_live(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=int, default=2, metavar="N",
                   help="forked client worker processes (default 2)")
    p.add_argument("--time-scale", type=float, default=None, metavar="X",
                   help="wall seconds per simulated second (default 1; "
                   "--calibrate defaults to 25 so shaped sleeps "
                   "dominate host overhead)")
    p.add_argument("--transport", default="unix",
                   choices=["unix", "tcp"],
                   help="worker socket transport (default unix "
                   "socketpair; tcp = loopback TCP)")
    p.add_argument("--round-timeout", type=float, default=60.0,
                   metavar="SECONDS",
                   help="wall-clock safety cap per iteration barrier")
    p.add_argument("--calibrate", action="store_true",
                   help="run the scenario through DES and live per "
                   "fault profile and print the divergence table "
                   "(+ fault-free live-vs-loop bit-identity check)")
    p.add_argument("--profiles", nargs="+", default=None,
                   choices=sorted(FAULT_PROFILES),
                   help="fault profiles for --calibrate "
                   "(default: none flaky-uplink stress)")
    p.add_argument("--out", type=str, default=None, metavar="REPORT.json",
                   help="persist the --calibrate report as JSON")


def _validate_live_args(args: argparse.Namespace) -> Optional[str]:
    """Semantic validation of the live-runtime knobs."""
    if args.workers < 1:
        return "--workers must be >= 1"
    if args.time_scale is not None and args.time_scale <= 0:
        return "--time-scale must be positive"
    if args.round_timeout <= 0:
        return "--round-timeout must be positive"
    if args.out is not None and not args.calibrate:
        return "--out only applies with --calibrate"
    if args.profiles is not None and not args.calibrate:
        return "--profiles only applies with --calibrate"
    return None


def _live_overlay(args: argparse.Namespace) -> dict:
    time_scale = args.time_scale
    if time_scale is None:
        time_scale = 25.0 if args.calibrate else 1.0
    return {
        "live.workers": args.workers,
        "live.time_scale": time_scale,
        "live.transport": args.transport,
        "live.round_timeout_s": args.round_timeout,
    }


def _add_robustness(p: argparse.ArgumentParser) -> None:
    p.add_argument("--attack", default=None, choices=list(ATTACKS),
                   help="plant deterministic Byzantine clients with this "
                   "behavior (default: none)")
    p.add_argument("--attack-fraction", type=float, default=None,
                   metavar="FRAC",
                   help="fraction of clients compromised, in (0, 1) "
                   "(requires --attack; default 0.2)")
    p.add_argument("--defense", default=None, choices=list(AGGREGATORS),
                   help="update screening + robust aggregation rule "
                   "(default: none = plain weighted mean, corrupt "
                   "uploads abort the run)")


def _validate_attack_args(args: argparse.Namespace) -> Optional[str]:
    """Semantic validation of the robustness knobs (run/sim/sweep)."""
    if args.attack_fraction is not None:
        if args.attack is None or args.attack == "none":
            return "--attack-fraction only applies with --attack"
        if not (0.0 < args.attack_fraction < 1.0):
            return "--attack-fraction must be in (0, 1)"
    return None


def _attack_overlay(args: argparse.Namespace) -> dict:
    return _given((
        ("attack.kind", args.attack),
        ("attack.fraction", args.attack_fraction),
        ("defense.aggregator", args.defense),
    ))


#: Epoch-throughput heartbeat cadence (seconds) for run/sim/live;
#: suppressed by --quiet.
HEARTBEAT_S = 10.0

#: Auto-sharding thresholds: populations at or above SHARD_AUTO_CLIENTS
#: default to clients // SHARD_AUTO_DIVISOR shards; populations at or
#: above EVAL_AUTO_CLIENTS default to an EVAL_AUTO_SAMPLE-client
#: evaluation panel.  Explicit --num-shards / --eval-sample always win.
SHARD_AUTO_CLIENTS = 5_000
SHARD_AUTO_DIVISOR = 500
EVAL_AUTO_CLIENTS = 10_000
EVAL_AUTO_SAMPLE = 2_000


def _add_scaling(p: argparse.ArgumentParser) -> None:
    p.add_argument("--num-clients", dest="clients", type=int,
                   default=argparse.SUPPRESS, metavar="K",
                   help="alias of --clients (large-K convention)")
    p.add_argument("--num-shards", type=int, default=None, metavar="S",
                   help="partition the fleet into S shards: per-shard "
                   "FedL selection + hierarchical aggregation. Default: "
                   "auto (clients//500 once clients >= 5000, else 1); "
                   "pass 1 to force the flat path")
    p.add_argument("--eval-sample", type=int, default=None, metavar="N",
                   help="estimate the population loss from a fresh "
                   "random panel of N available clients per epoch "
                   "instead of sweeping all of them. Default: auto "
                   "(2000 once clients >= 10000); pass 0 to force the "
                   "exact full sweep")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the periodic epoch-throughput "
                   "heartbeat on stderr")


def _validate_scaling_args(args: argparse.Namespace) -> Optional[str]:
    """Semantic validation of --num-shards / --eval-sample."""
    if args.num_shards is not None:
        if args.num_shards < 1:
            return "--num-shards must be >= 1"
        if args.num_shards > args.clients:
            return "--num-shards cannot exceed --clients"
    if args.eval_sample is not None and args.eval_sample < 0:
        return "--eval-sample must be >= 0 (0 = exact full sweep)"
    return None


def _scaling_overlay(args: argparse.Namespace) -> dict:
    """--num-shards/--eval-sample with their large-K auto-defaults (with
    no flags and a small fleet: one shard and the exact sweep, the
    config's defaults)."""
    clients = args.clients
    num_shards = args.num_shards
    if num_shards is None:
        num_shards = (
            max(1, clients // SHARD_AUTO_DIVISOR)
            if clients >= SHARD_AUTO_CLIENTS
            else 1
        )
    num_shards = min(num_shards, clients)
    eval_sample = args.eval_sample
    if eval_sample is None:
        eval_sample = EVAL_AUTO_SAMPLE if clients >= EVAL_AUTO_CLIENTS else 0
    return {
        "shard.num_shards": num_shards,
        "shard.eval_sample": None if eval_sample == 0 else int(eval_sample),
    }


def _add_checkpointing(p: argparse.ArgumentParser) -> None:
    p.add_argument("--checkpoint-dir", type=str, default=None,
                   metavar="DIR",
                   help="write atomic round-granular snapshots into DIR "
                   "every --checkpoint-interval epochs (run/sim/live: "
                   "restart the run bit-identically with --resume DIR; "
                   "sweep: each job snapshots under DIR/jobs/<job-key> and "
                   "a rerun resumes it from its newest snapshot)")
    p.add_argument("--checkpoint-interval", type=int, default=10,
                   metavar="N",
                   help="epochs between snapshots (default 10)")
    p.add_argument("--checkpoint-keep", type=int, default=2, metavar="N",
                   help="snapshots retained per directory "
                   "(default 2; older ones are pruned)")


def _validate_checkpoint_args(args: argparse.Namespace) -> Optional[str]:
    """Semantic validation of the checkpoint knobs (run/sim/live/sweep)."""
    if args.checkpoint_interval < 1:
        return "--checkpoint-interval must be >= 1"
    if args.checkpoint_keep < 1:
        return "--checkpoint-keep must be >= 1"
    return None


def _checkpoint_override(args: argparse.Namespace) -> Optional[CheckpointConfig]:
    """The checkpoint destination the flags name, if they name one."""
    if args.checkpoint_dir is None:
        return None
    return CheckpointConfig(
        directory=args.checkpoint_dir,
        interval=args.checkpoint_interval,
        keep=args.checkpoint_keep,
    )


def _checkpoint_overlay(args: argparse.Namespace) -> dict:
    override = _checkpoint_override(args)
    return {} if override is None else {"checkpoint": dataclasses.asdict(override)}


def _add_resume(p: argparse.ArgumentParser) -> None:
    p.add_argument("--resume", type=str, default=None, metavar="DIR",
                   help="resume from the newest snapshot in DIR; the "
                   "experiment config comes from the snapshot, so "
                   "scenario flags are ignored. Checkpointing continues "
                   "into the same directory unless --checkpoint-dir "
                   "overrides it")


def _validate_resume(args: argparse.Namespace) -> Optional[str]:
    if args.resume is not None and not Path(args.resume).is_dir():
        return f"--resume: no such checkpoint directory: {args.resume}"
    return None


@dataclasses.dataclass(frozen=True)
class OptionGroup:
    """One set of related flags: declare, check, name their config overrides."""

    add: Callable[[argparse.ArgumentParser], None]
    validate: Callable[[argparse.Namespace], Optional[str]] = lambda args: None
    overlay: Callable[[argparse.Namespace], dict] = lambda args: {}


OPTION_GROUPS = {
    "common": OptionGroup(_add_common, _validate_common),
    "single-run": OptionGroup(_add_single_run),
    "params": OptionGroup(_add_params),
    "scaling": OptionGroup(_add_scaling, _validate_scaling_args, _scaling_overlay),
    "quick": OptionGroup(_add_quick, overlay=_quick_overlay),
    "runtime": OptionGroup(_add_runtime, _validate_runtime, _runtime_overlay),
    "engine": OptionGroup(_add_engine, _validate_engine, _engine_overlay),
    "live": OptionGroup(_add_live, _validate_live_args, _live_overlay),
    "robustness": OptionGroup(_add_robustness, _validate_attack_args, _attack_overlay),
    "checkpointing": OptionGroup(
        _add_checkpointing, _validate_checkpoint_args, _checkpoint_overlay
    ),
    "resume": OptionGroup(_add_resume, _validate_resume),
}

#: ``repro sweep``'s option groups, in validation order.
SWEEP_GROUPS = ("common", "params", "runtime", "engine", "robustness",
                "checkpointing")


def _first_error(args: argparse.Namespace, groups: Sequence[str]) -> Optional[str]:
    """The first validation error among ``groups``, in the order given."""
    for name in groups:
        error = OPTION_GROUPS[name].validate(args)
        if error:
            return error
    return None


def _overrides(args: argparse.Namespace, groups: Sequence[str]) -> dict:
    """Every config override the flags of ``groups`` stand for."""
    overrides: dict = {}
    for name in groups:
        overrides.update(OPTION_GROUPS[name].overlay(args))
    return overrides


@dataclasses.dataclass(frozen=True)
class ExperimentCommand:
    """What tells ``run``/``sim``/``live`` apart: the training engine they
    pin (``None`` = the config default), the option groups they take — in
    validation order — and the noun of a participation-floor abort."""

    help: str
    engine: Optional[str]
    groups: tuple
    abort_noun: str


EXPERIMENT_COMMANDS = {
    "run": ExperimentCommand(
        help="run one policy end to end",
        engine=None,
        groups=("common", "single-run", "params", "scaling", "robustness",
                "checkpointing", "resume"),
        abort_noun="run",
    ),
    "sim": ExperimentCommand(
        help="run one policy on the event-driven network runtime "
        "(message-level DES: stragglers, deadlines, retries, async)",
        engine="des",
        groups=("common", "single-run", "scaling", "quick", "runtime",
                "robustness", "checkpointing", "resume"),
        abort_noun="simulation",
    ),
    "live": ExperimentCommand(
        help="run one policy on the live multi-process runtime (forked "
        "workers, real sockets, shaped uploads), or calibrate it "
        "against the DES",
        engine="live",
        groups=("common", "single-run", "scaling", "quick", "runtime", "live",
                "checkpointing", "resume"),
        abort_noun="live run",
    ),
}


def _parse_params(pairs: Sequence[str]) -> dict:
    """Parse repeated ``--param KEY=VALUE`` flags into an override dict.

    Values are JSON (``3``, ``0.5``, ``true``, ``"des"``), with a bare-
    string fallback so ``--param base=FedCS`` works unquoted.  Raises
    :class:`~repro.strategies.StrategyError` on malformed items so the
    caller maps it to exit code 2.
    """
    params: dict = {}
    for item in pairs:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise StrategyError(f"--param expects KEY=VALUE, got {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        if value is not None and not isinstance(value, (bool, int, float, str)):
            raise StrategyError(
                f"--param {key}: value must be a scalar, got {raw!r}"
            )
        params[key] = value
    return params


#: Engines whose rounds play on a network timeline (``config.sim`` binds).
TIMELINE_ENGINES = ("des", "live")


def _cmd_experiment(args: argparse.Namespace) -> int:
    """``run``/``sim``/``live`` and their ``--resume``: validate → config →
    hub → run → summary, with one typed-error → exit-1 ladder.

    A resumed run takes its entire experiment config (engine included)
    from the snapshot; only the checkpoint destination can be overridden.
    Exit codes follow the documented contract: 2 for bad arguments, 1 for
    runtime failures or an interruption, 0 on completion.
    """
    command = EXPERIMENT_COMMANDS[args.command]
    error = _first_error(args, command.groups)
    if error:
        return _usage_error(error)
    resuming = args.resume is not None
    try:
        if resuming:
            snapshot = load_snapshot(args.resume)
            label, seed = snapshot.resume.trace.policy_name, snapshot.config.seed
            run = functools.partial(
                resume_experiment,
                snapshot,
                checkpoint_override=_checkpoint_override(args),
            )
        else:
            cfg = experiment_config(
                dataset=args.dataset,
                iid=not args.non_iid,
                budget=args.budget,
                seed=args.seed,
                num_clients=args.clients,
                min_participants=args.participants,
                max_epochs=args.epochs,
            )
            overrides = _overrides(args, command.groups)
            if command.engine is not None:
                overrides["training.engine"] = command.engine
            cfg = cfg.override(overrides)
            if getattr(args, "calibrate", False):
                return _live_calibrate(args, cfg)
            try:
                policy = make_policy(
                    args.policy, cfg, RngFactory(args.seed).get("cli.policy"),
                    params=_parse_params(getattr(args, "param", ())) or None,
                )
            except StrategyError as exc:
                return _usage_error(str(exc))
            label, seed = args.policy, args.seed
            run = functools.partial(run_experiment, policy, cfg)
        hub = (
            Telemetry.for_directory(args.telemetry, run_id=f"{label}[seed={seed}]")
            if args.telemetry
            else None
        )
        with use_telemetry(hub):
            result = run(
                heartbeat_s=None if args.quiet else HEARTBEAT_S,
                live_stats_dir=args.telemetry,
            )
    except CheckpointError as exc:
        what = "cannot resume" if resuming else "checkpoint failure"
        print(f"repro: {what}: {exc}", file=sys.stderr)
        return 1
    except ExperimentInterrupted as exc:
        print(f"repro: {exc}", file=sys.stderr)
        print(
            f"repro: resume with: repro {args.command} --resume {exc.directory}",
            file=sys.stderr,
        )
        return 1
    except ParticipationFloorError as exc:
        print(f"repro: {command.abort_noun} aborted: {exc}", file=sys.stderr)
        return 1
    except LiveError as exc:
        print(f"repro: live runtime failed: {exc}", file=sys.stderr)
        return 1
    except (CorruptUpdateError, TrainingDivergedError) as exc:
        print(f"repro: training aborted: {exc}", file=sys.stderr)
        return 1
    cfg = result.config
    if hub is not None:
        meta = {"command": args.command, "policy": label, "seed": seed}
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


def _live_calibrate(args: argparse.Namespace, cfg) -> int:
    """``repro live --calibrate``: the scenario through the DES and the live
    runtime per fault profile, plus the fault-free bit-identity verdict."""
    profiles = tuple(args.profiles) if args.profiles else DEFAULT_PROFILES
    try:
        report = run_calibration(cfg, policy=args.policy, profiles=profiles)
    except (LiveError, ParticipationFloorError) as exc:
        print(f"repro: calibration aborted: {exc}", file=sys.stderr)
        return 1
    print(report.render())
    if args.out:
        path = report.save(args.out)
        print(f"saved -> {path}")
    if report.bit_identical is False:
        print(
            "repro: fault-free live run is NOT bit-identical to the "
            "loop engine",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    error = _validate_common(args)
    if error:
        return _usage_error(error)
    traces = run_policy_suite(
        args.dataset,
        iid=not args.non_iid,
        budget=args.budget,
        seed=args.seed,
        num_clients=args.clients,
        max_epochs=args.epochs,
    )
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
    error = _first_error(args, SWEEP_GROUPS)
    if error:
        return _usage_error(error)
    seeds = args.seeds if args.seeds else [args.seed]
    # --param overrides bind per policy to the parameters it declares;
    # a key no policy in the grid declares is a usage error.
    try:
        params = _parse_params(args.param)
    except StrategyError as exc:
        return _usage_error(str(exc))
    declared = {
        name: {p.name for p in STRATEGY_REGISTRY[name].params}
        for name in args.policies
    }
    for key in params:
        if not any(key in names for names in declared.values()):
            return _usage_error(
                f"--param {key}: no selected policy declares this parameter"
            )
    policy_params = {
        name: {k: v for k, v in params.items() if k in declared[name]}
        for name in args.policies
    }
    overrides = _overrides(args, SWEEP_GROUPS)
    jobs = []
    for seed in seeds:
        for budget in args.budgets:
            cfg = experiment_config(
                dataset=args.dataset,
                iid=not args.non_iid,
                budget=budget,
                seed=seed,
                num_clients=args.clients,
                min_participants=args.participants,
                max_epochs=args.epochs,
            ).override(overrides)
            jobs.extend(
                SweepJob(PolicySpec(name, params=policy_params[name]), cfg)
                for name in args.policies
            )
    # Values are checked here, as `run` checks them, so a bad one exits 2
    # before the pool starts rather than failing inside a worker.
    try:
        for job in jobs:
            resolve_params(
                get_strategy(job.policy.name), job.config, job.policy.params_dict
            )
    except StrategyError as exc:
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

    for name in args.strategies or []:
        try:
            get_strategy(name)
        except StrategyError as exc:
            return _usage_error(str(exc))
    for name in args.scenarios or []:
        try:
            get_scenario(name)
        except UnknownScenarioError as exc:
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
        if args.poll <= 0:
            return _usage_error("--poll must be positive")
        if args.timeout is not None and args.timeout < 0:
            return _usage_error("--timeout must be >= 0")
        from repro.obs import follow_trace

        return follow_trace(
            directory, run=args.run, poll_s=args.poll, timeout_s=args.timeout
        )
    if not directory.is_dir():
        return _usage_error(f"not a telemetry directory: {directory}")
    if not any(directory.glob("events*.jsonl")):
        return _usage_error(f"no events*.jsonl files under {directory}")
    print(render_trace(directory, run=args.run, chart=not args.no_chart))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import profile_directory, render_diff, render_profile

    if args.top < 1:
        return _usage_error("--top must be >= 1")
    directory = Path(args.directory).expanduser()
    if not directory.is_dir():
        return _usage_error(f"not a telemetry directory: {directory}")
    profile = profile_directory(directory)
    if profile is None:
        return _usage_error(
            f"no manifest.json under {directory} (profile needs a "
            "finalized trace; is the run still in flight?)"
        )
    print(render_profile(profile, top=args.top, label=str(directory)), end="")
    if args.diff:
        other_dir = Path(args.diff).expanduser()
        if not other_dir.is_dir():
            return _usage_error(f"not a telemetry directory: {other_dir}")
        other = profile_directory(other_dir)
        if other is None:
            return _usage_error(f"no manifest.json under {other_dir}")
        print()
        print(
            render_diff(
                profile, other, label_a=str(directory), label_b=str(other_dir)
            ),
            end="",
        )
    if args.json_out:
        path = atomic_write_text(
            Path(args.json_out).expanduser(),
            json.dumps(profile, indent=2, sort_keys=True) + "\n",
        )
        print(f"profile -> {path}", file=sys.stderr)
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
    print(f"{'T':>6} {'Reg_d':>10} {'Fit_d':>10} {'Fit_d/T':>10}")
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
        print(f"{horizon:>6} {reg:>10.2f} {fit:>10.2f} {fit / horizon:>10.3f}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_experiment,
        "sim": _cmd_experiment,
        "live": _cmd_experiment,
        "compare": _cmd_compare,
        "sweep": _cmd_sweep,
        "tournament": _cmd_tournament,
        "trace": _cmd_trace,
        "profile": _cmd_profile,
        "regret": _cmd_regret,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
