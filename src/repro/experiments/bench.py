"""The three contract gates behind ``repro bench``.

``repro bench`` is not a speed benchmark — ``perf/`` (``python3
perf/run.py``, see ``perf/README.md``) is the repo's only one.  What lives
here are gates on contracts the rest of the system promises:

* ``--overhead`` — :func:`bench_overhead` / :func:`check_overhead`: with
  telemetry disabled, the hook sites in the FL engines, the defense layer
  and the solver cost an estimated <= 2% of each layer's runtime.
* ``--checkpoint-overhead`` — :func:`bench_checkpoint_overhead` /
  :func:`check_checkpoint_overhead`: periodic snapshots cost <= 2% of an
  otherwise-identical run (measured in situ by the runner's
  ``checkpoint.write`` timer) and leave it bit-identical.
* ``--crash-smoke`` — the SIGKILL crash/resume drill; it lives in
  :mod:`repro.checkpoint.crashsmoke` and only shares :func:`save_report`,
  the one ``--out`` writer of all three.
"""

from __future__ import annotations

import io
import json
import platform
import time
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

from repro.obs import Telemetry, use_telemetry

__all__ = [
    "OVERHEAD_SCHEMA_VERSION",
    "bench_overhead",
    "bench_checkpoint_overhead",
    "check_checkpoint_overhead",
    "check_overhead",
    "format_overhead",
]


def _mem_hub(run_id: str) -> Telemetry:
    """An enabled in-memory hub: events go to a StringIO, the registry is
    readable afterwards.  Keeps the instrumented code paths identical to a
    ``--telemetry`` run without touching disk."""
    return Telemetry(sink=io.StringIO(), run_id=run_id)


def save_report(report: Dict[str, Any], path: str | Path) -> Path:
    """Atomically write the report as stable, diff-friendly JSON
    (``~`` in ``path`` is expanded); returns the written path.

    Delegates to :func:`~repro.experiments.persistence.atomic_write_text`
    so a crash mid-write leaves no torn file and no temp-file litter
    (in-flight temps are reaped at interpreter exit).
    """
    from repro.experiments.persistence import atomic_write_text

    path = Path(path).expanduser()
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
        from repro.core.regret import drifting_problem_stream

        learner = OnlineLearner(
            min(clients, 30), beta=0.2, delta=0.2, rho_max=6.0, warm_start=True
        )
        stream = drifting_problem_stream(
            min(clients, 30), 20, np.random.default_rng(seed)
        )
        for prob in stream:
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
