"""One leg of one workload, in a fresh process started by ``run.py``.

Legs: ``main`` runs the workload once (untraced, or traced when
``--trace 1``) and reports raw measurements; ``setup`` stops at the first
``select`` and reports set-up time only; ``check`` runs the workload's
reference (see ``checks.py``).  The report is one JSON object, the last line
of standard output.

The only timing shim in an untraced run is :class:`PolicyProxy`: one
``perf_counter`` mark per ``select`` entry.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

_ENTRY_MONOTONIC = time.monotonic()
_ENTRY_PERF = time.perf_counter()

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.checkpoint import resume_experiment  # noqa: E402
from repro.config import CheckpointConfig  # noqa: E402
from repro.experiments.runner import Simulation, run_experiment  # noqa: E402


class PlannedStop(Exception):
    """Raised by the proxy at the top of ``select`` for the stop epoch."""

    def __init__(self, epoch: int) -> None:
        super().__init__(f"planned stop before epoch {epoch}")
        self.at = time.perf_counter()


class PolicyProxy:
    """Transparent policy wrapper that marks each ``select`` entry.

    Forwards every attribute it does not define (the runner reads
    ``policy.plan`` and ``policy.learner`` through ``hasattr``/``getattr``),
    pickles as just the wrapped policy plus the stop epoch (snapshots pickle
    the policy; marks and tracer stay out of them) and, for the checkpoint
    workload, raises :class:`PlannedStop` instead of entering ``stop_at``.
    """

    def __init__(self, inner, marks, tracer=None, stop_at=None) -> None:
        self.inner = inner
        self.attach(marks, tracer, stop_at)

    def attach(self, marks, tracer, stop_at) -> None:
        self.marks = marks
        self.tracer = tracer
        self.stop_at = stop_at

    def __getattr__(self, attr: str):
        # Reached only for names missing from __dict__; refusing "inner"
        # keeps unpickling (which fills __dict__ later) from recursing.
        if attr == "inner" or attr.startswith("__"):
            raise AttributeError(attr)
        return getattr(self.inner, attr)

    def __getstate__(self):
        return {"inner": self.inner, "stop_at": self.stop_at}

    def __setstate__(self, state) -> None:
        self.__dict__.update(state, marks=[], tracer=None)

    def select(self, ctx):
        if self.stop_at is not None and ctx.t >= self.stop_at:
            raise PlannedStop(ctx.t)
        self.marks.append(time.perf_counter())
        if self.tracer is None:
            return self.inner.select(ctx)
        with self.tracer.span("strategies.select"):
            return self.inner.select(ctx)

    def update(self, feedback) -> None:
        if self.tracer is None:
            self.inner.update(feedback)
            return
        with self.tracer.span("strategies.update"):
            self.inner.update(feedback)


def since_spawn(args, mark: float) -> float:
    """Seconds from the parent's ``--t0`` (just before the spawn) to the
    ``perf_counter`` reading ``mark`` — interpreter start and imports included."""
    return (_ENTRY_MONOTONIC - args.t0) + (mark - _ENTRY_PERF)


def run_workload(workload, seed: int, tiny: bool, tracer, workdir: Path, stop_at=None):
    """Run the workload once; returns ``(config, result, legs, resume_s, error)``.

    ``legs`` is a list of ``(select marks, leg end)`` — one per
    ``run_experiment`` call, two for the interrupted-and-resumed checkpoint
    workload.  ``result`` is ``None`` when the run raised; ``error`` then
    carries the traceback and the marks show how far it got.
    """
    config = workload.build(seed, tiny)
    if workload.interrupt_at is not None and stop_at is None:
        stop_at = workload.interrupt_at[1 if tiny else 0]
        config = config.replace(
            checkpoint=CheckpointConfig(
                directory=str(workdir / "ckpt"), interval=1, keep=2
            )
        )
    marks: list = []
    legs = [(marks, None)]
    resume_s = None
    try:
        sim = Simulation(config)
        policy = PolicyProxy(checks.build_policy(workload, config), marks, tracer, stop_at)
        try:
            result = run_experiment(policy, config, simulation=sim)
        except PlannedStop as stop:
            legs[0] = (marks, stop.at)
            if stop_at == 0:                # set-up probe: nothing to resume
                return config, None, legs, None, None
            resumed: list = []
            legs.append((resumed, None))
            resume_t0 = time.perf_counter()
            result = resume_experiment(
                config.checkpoint.directory,
                policy_hook=lambda p: p.attach(resumed, tracer, None),
            )
            resume_s = resumed[0] - resume_t0
        else:
            if stop_at is not None:
                raise RuntimeError(f"run ended before the planned stop at {stop_at}")
        legs[-1] = (legs[-1][0], time.perf_counter())
        return config, result, legs, resume_s, None
    except Exception:
        legs[-1] = (legs[-1][0], time.perf_counter())
        return config, None, legs, resume_s, traceback.format_exc()


def main_leg(args, workload, workdir: Path) -> dict:
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        config, result, legs, resume_s, error = run_workload(
            workload, args.seed, args.tiny, tracer, workdir
        )
    finally:
        if tracer is not None:
            tracer.restore()
    first = legs[0][0][0] if legs[0][0] else None
    end = legs[-1][1]
    epoch_ms = [
        (b - a) * 1e3
        for marks, leg_end in legs
        for a, b in zip(marks, marks[1:] + [leg_end])
    ]
    started = len(epoch_ms)
    report = {
        "leg": "main",
        "traced": bool(args.trace),
        "error": error,
        "attempted": max(1, started),
        # An epoch that raised is one failed operation; the epochs it
        # prevented were never attempted.
        "failed": 0 if error is None else 1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if first is None:
        return report
    completed = started if error is None else started - 1
    report.update(
        setup_s=since_spawn(args, first),
        wall_s=end - first,
        epochs=completed,
        epochs_per_s=completed / (end - first),
        epoch_ms_p50=statistics.median(epoch_ms),
        epoch_ms=epoch_ms,
        resume_s=resume_s,
    )
    if result is not None:
        report.update(
            stop_reason=result.stop_reason,
            final_accuracy=result.trace.final_accuracy,
            sim_time_to_target_s=result.trace.time_to_accuracy(
                workloads.TARGET_ACCURACY
            ),
            total_spend=result.trace.total_spend,
            problems=checks.run_problems(workload, config, result),
            **checks.digests(result, ignore=workload.measured_trace_fields),
        )
    if tracer is not None:
        report["per_layer"] = tracing.per_layer_metrics(
            tracer.spans, tracer.counts, (first, end), epoch_ms
        )
        if args.spans:
            tracer.dump(args.spans)
    return report


def setup_leg(args, workload, workdir: Path) -> dict:
    _, _, legs, _, error = run_workload(
        workload, args.seed, args.tiny, None, workdir, stop_at=0
    )
    report = {"leg": "setup", "error": error}
    if error is None:
        report["setup_s"] = since_spawn(args, legs[0][1])
    return report


def check_leg(args, workload, workdir: Path) -> dict:
    try:
        config = workload.build(args.seed, args.tiny)
        return {"leg": "check", "error": None, **checks.REFERENCES[workload.name](workload, config)}
    except Exception:
        return {"leg": "check", "error": traceback.format_exc()}


LEGS = {"main": main_leg, "setup": setup_leg, "check": check_leg}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    parser.add_argument("--leg", required=True, choices=sorted(LEGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=_ENTRY_MONOTONIC,
                        help="time.monotonic() of the parent just before the spawn")
    parser.add_argument("--workdir", required=True, help="scratch root (a subdirectory is made and removed)")
    parser.add_argument("--spans", default=None, help="write the raw spans here (traced main leg)")
    args = parser.parse_args(argv)
    workdir = Path(args.workdir) / f"worker-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        report = LEGS[args.leg](args, workloads.BY_NAME[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.update(workload=args.workload, seed=args.seed, tiny=bool(args.tiny))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
