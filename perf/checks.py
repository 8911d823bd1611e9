"""Per-workload correctness: what makes a run's output right, checked by the
one benchmark command and counted into ``failed_share``.

Three pieces, by where they run: :func:`run_problems` and :func:`digests`
inside the worker that produced the result; :data:`REFERENCES` in a separate
check worker (an independent run the measured one must reproduce); and
:func:`verdict` in ``run.py``, which only compares digests — two runs are bit
for bit the same exactly when their SHA-256 digests are.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import make_policy
from repro.experiments.validation import validate_trace
from repro.rng import RngFactory

from workloads import with_engine

#: Length of the batched-vs-loop prefix of ``train_k100``.
PREFIX_EPOCHS = 20


def build_policy(workload, config):
    """The workload's policy, seeded the way the CLI seeds it."""
    return make_policy(
        workload.policy, config, RngFactory(config.seed).get("cli.policy")
    )


def digests(result, ignore=()) -> Dict[str, str]:
    """SHA-256 of the final weights, and of final weights + trace with the
    ``ignore`` fields (the live engine's measured latencies) left out —
    the quantity a later PR quotes as "digest unchanged"."""
    weights = result.final_w.tobytes()
    records = [
        {k: v for k, v in vars(record).items() if k not in ignore}
        for record in result.trace.records
    ]
    trace = json.dumps(records, sort_keys=True).encode()
    return {
        "final_w_sha256": hashlib.sha256(weights).hexdigest(),
        "trace_sha256": hashlib.sha256(weights + trace).hexdigest(),
    }


def run_problems(workload, config, result) -> List[str]:
    """Invariant violations visible in one finished run (empty = clean)."""
    problems = list(validate_trace(result.trace, config))
    if workload.name == "train_k100":
        if result.stop_reason != "budget_exhausted":
            problems.append(
                f"train_k100 stopped with {result.stop_reason!r}, "
                "not 'budget_exhausted'"
            )
        if result.trace.total_spend > config.budget + 1e-9:
            problems.append("train_k100 spent more than the budget C")
    return problems


def _prefix_reference(workload, config) -> Dict[str, object]:
    """``train_k100``: the first epochs on the batched and the loop engine."""
    prefix = config.replace(max_epochs=PREFIX_EPOCHS)
    batched = run_experiment(build_policy(workload, prefix), prefix)
    loop_config = with_engine(prefix, "loop")
    loop = run_experiment(build_policy(workload, loop_config), loop_config)
    return {
        "prefix_epochs": len(batched.trace),
        "prefix_identical": (
            batched.final_w.tobytes() == loop.final_w.tobytes()
            and batched.trace.equals(loop.trace)
        ),
    }


def _loop_reference(workload, config) -> Dict[str, object]:
    """``live_k16``: the same config on the in-process loop engine."""
    config = with_engine(config, "loop")
    result = run_experiment(build_policy(workload, config), config)
    return digests(result, ignore=workload.measured_trace_fields)


def _uninterrupted_reference(workload, config) -> Dict[str, object]:
    """``ckpt_k10000``: no checkpoints, no interruption."""
    return digests(run_experiment(build_policy(workload, config), config))


#: The independent run each measured run is held against.  None of them uses
#: the timing proxy, so agreement also shows the proxy changes nothing.
#: Workloads without an entry are checked by :func:`run_problems` alone.
REFERENCES = {
    "train_k100": _prefix_reference,
    "live_k16": _loop_reference,
    "ckpt_k10000": _uninterrupted_reference,
}


def verdict(workload, run: Dict[str, object], ref: Dict[str, object]) -> List[str]:
    """Problems of measured run ``run`` against reference report ``ref``."""
    if "prefix_identical" in ref:
        if ref["prefix_identical"]:
            return []
        return [f"batched and loop engines differ within {PREFIX_EPOCHS} epochs"]
    return [
        f"{workload.name}: {what} differ from the reference run"
        for key, what in (
            ("final_w_sha256", "final weights"),
            ("trace_sha256", "final weights + trace"),
        )
        if run.get(key) != ref.get(key)
    ]
