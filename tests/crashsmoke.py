"""SIGKILL crash-injection drill for the checkpoint/resume contract.

The harness forks a victim process that runs a checkpointing experiment
with a :class:`CrashingPolicy` — a picklable wrapper that SIGKILLs its
own process at the top of ``select`` for a (randomizable) crash epoch,
i.e. with arbitrary un-checkpointed progress beyond the last surviving
snapshot.  SIGKILL cannot be caught, so this exercises the worst case:
no atexit sweep, no final flush, possibly a torn staging directory.
The parent then resumes from whatever survived on disk and asserts the
recovered run is bit-identical to an uninterrupted reference.

Used by ``tests/test_checkpoint.py``, which runs the drill on every
training engine.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = ["CrashingPolicy", "run_crash_resume_smoke"]

#: Trace fields the live engine *measures* off the wall clock; even two
#: uninterrupted identical live runs differ there, so the recovery
#: comparison excludes them for that engine ("equal modulo ts").
_MEASURED_FIELDS = ("epoch_latency", "cumulative_time")


class CrashingPolicy:
    """Picklable wrapper that SIGKILLs its own process mid-experiment.

    The kill fires at the top of ``select`` for epoch ``crash_epoch`` —
    after epoch ``crash_epoch - 1`` completed and (when due) was
    checkpointed.  ``crash_epoch = None`` disarms the wrapper, which is
    how the resumed process (whose snapshot carries this very wrapper
    inside ``policy.pkl``) runs the tail to completion.
    """

    def __init__(self, inner, crash_epoch: Optional[int]) -> None:
        self.inner = inner
        self.crash_epoch = crash_epoch

    def __getattr__(self, attr: str):
        # Only consulted for attributes not in __dict__; the explicit
        # "inner" guard keeps unpickling (which restores __dict__ after
        # construction is skipped) from recursing.
        if attr == "inner" or attr.startswith("__"):
            raise AttributeError(attr)
        return getattr(self.inner, attr)

    def select(self, ctx):
        if self.crash_epoch is not None and ctx.t >= self.crash_epoch:
            os.kill(os.getpid(), signal.SIGKILL)
        return self.inner.select(ctx)

    def update(self, feedback) -> None:
        self.inner.update(feedback)


def _build_policy(policy_name: str, config):
    from repro.experiments.scenarios import make_policy
    from repro.rng import RngFactory

    return make_policy(
        policy_name, config, RngFactory(config.seed).get("cli.policy")
    )


def run_crash_resume_smoke(
    config,
    policy_name: str = "FedL",
    *,
    workdir: str | Path,
    interval: int = 3,
    keep: int = 2,
    smoke_seed: int = 0,
    crash_epoch: Optional[int] = None,
) -> dict:
    """Run the full kill/recover drill; returns a verdict report.

    ``crash_epoch`` defaults to a draw from ``[interval, max_epochs)``
    seeded by ``smoke_seed``, so repeated smokes cover different
    snapshot/progress offsets while staying reproducible; ``interval``
    is the lower bound because at least one snapshot must exist to
    recover from.  The report's ``ok`` is True iff the victim died by
    SIGKILL and the resumed run matched the uninterrupted reference
    (final weights byte-equal, traces equal — modulo measured wall time
    for the live engine).
    """
    from repro.checkpoint.snapshot import resume_experiment
    from repro.config import CheckpointConfig
    from repro.experiments.runner import run_experiment

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    ckpt_dir = workdir / "crash_smoke_ckpt"
    if crash_epoch is None:
        rng = np.random.default_rng(smoke_seed)
        crash_epoch = int(rng.integers(interval, config.max_epochs))

    base = config.replace(checkpoint=CheckpointConfig(directory=None))
    reference = run_experiment(_build_policy(policy_name, base), base)

    victim_config = base.replace(
        checkpoint=CheckpointConfig(
            directory=str(ckpt_dir), interval=interval, keep=keep
        )
    )
    pid = os.fork()
    if pid == 0:  # victim: must never outlive this block
        try:
            sys.stderr.flush()
            policy = CrashingPolicy(
                _build_policy(policy_name, victim_config), crash_epoch
            )
            run_experiment(policy, victim_config)
        finally:
            # Reaching here at all means the armed kill never fired
            # (e.g. the run stopped before crash_epoch).
            os._exit(3)
    _, status = os.waitpid(pid, 0)
    killed = os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL

    report = {
        "policy": policy_name,
        "crash_epoch": crash_epoch,
        "interval": interval,
        "killed_by_sigkill": killed,
        "final_w_equal": False,
        "traces_equal": False,
        "ok": False,
    }
    if not killed:
        return report

    ignore = (
        _MEASURED_FIELDS if config.training.engine == "live" else ()
    )
    recovered = resume_experiment(
        ckpt_dir,
        checkpoint_override=CheckpointConfig(directory=None),
        policy_hook=lambda p: setattr(p, "crash_epoch", None),
    )
    report["final_w_equal"] = (
        recovered.final_w.tobytes() == reference.final_w.tobytes()
    )
    report["traces_equal"] = bool(
        recovered.trace.equals(reference.trace, ignore=ignore)
    )
    report["ok"] = report["final_w_equal"] and report["traces_equal"]
    return report
