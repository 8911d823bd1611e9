"""Spans recorded from outside the program, by wrapping each layer's public
callables at the name where the caller looks them up.

``src/`` is not edited: :meth:`Tracer.install` replaces the attributes in
:data:`SITES` with timing wrappers and :meth:`Tracer.restore` puts the
originals back.  A span is ``(name, start, end, parent)``; spans stay in
memory and are written once, after the run.  Several sites may share one
span name (both local-solve paths are ``fl.local_solve``): the name is the
per-layer metric's prefix, and a metric's time counts a span nested directly
inside a span of the same name only once.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, int]            # name, start, end, parent index
Hook = Callable[[Dict[str, float], tuple, dict, object], None]


def _count(key: str, amount: Callable[[tuple, dict, object], float]) -> Hook:
    def hook(counts, args, kwargs, result) -> None:
        counts[key] = counts.get(key, 0) + amount(args, kwargs, result)

    return hook


def _sim_counts(counts, args, kwargs, outcome) -> None:
    counts["sim.retries"] = counts.get("sim.retries", 0) + outcome.num_retries
    counts["sim.dropped"] = counts.get("sim.dropped", 0) + len(outcome.dropped)


def _compress_counts(counts, args, kwargs, compressed) -> None:
    counts["fl.compress_calls"] = counts.get("fl.compress_calls", 0) + 1
    counts["fl.upload_bits_sent"] = counts.get("fl.upload_bits_sent", 0) + compressed.bits


def _screen_counts(counts, args, kwargs, screened) -> None:
    # Every upload of every iteration passes the validation gate, so this is
    # where the uncompressed size of the round's traffic is counted.
    from repro.fl.compression import FLOAT_BITS

    bits = sum(u.size for u in args[0]) * FLOAT_BITS
    counts["fl.upload_bits_full"] = counts.get("fl.upload_bits_full", 0) + bits


def _snapshot_bytes(counts, args, kwargs, target) -> None:
    size = sum(p.stat().st_size for p in target.iterdir() if p.is_file())
    counts.setdefault("checkpoint.snapshot_bytes", []).append(size)


def _frame_counter(direction: str) -> Hook:
    def hook(counts, args, kwargs, result) -> None:
        if direction == "sent":
            meta, payload = args[0], result
        else:
            meta, payload = result[0], args[0]
        if meta.get("cmd") == "hb":
            # Worker liveness beacons arrive on a wall-clock period; leaving
            # them out is what lets the frame and byte counts repeat exactly.
            return
        counts[f"live.frames_{direction}"] = counts.get(f"live.frames_{direction}", 0) + 1
        counts[f"live.bytes_{direction}"] = (
            counts.get(f"live.bytes_{direction}", 0) + 4 + len(payload)
        )

    return hook


#: (owner, attribute, span name or None for count-only, hook).  The owner is
#: ``module`` or ``module:Class`` — the namespace in which the *caller*
#: resolves the name, which for ``from x import f`` is the importing module.
SITES: Tuple[Tuple[str, str, Optional[str], Optional[Hook]], ...] = (
    # core / solvers (children of strategies.select, which the proxy records)
    ("repro.core.online_learner:OnlineLearner", "descent_step", "core.descent", None),
    ("repro.core.online_learner:OnlineLearner", "dual_ascent", "core.dual_ascent", None),
    ("repro.core.fedl", "rdcs_round", "core.rounding", None),
    ("repro.core.online_learner", "projected_gradient", "solvers.pg",
     _count("solvers.pg_iters", lambda a, k, res: int(res.iterations))),
    # fl
    ("repro.experiments.runner", "run_federated_round", "fl.round", None),
    ("repro.fl.batched:BatchedClientEngine", "train_iteration_all", "fl.local_solve",
     _count("fl.local_solves", lambda a, k, res: len(res))),
    ("repro.fl.client:FLClient", "train_iteration", "fl.local_solve",
     _count("fl.local_solves", lambda a, k, res: 1)),
    ("repro.fl.batched:BatchedClientEngine", "local_grads", "fl.local_grads", None),
    ("repro.fl.client:FLClient", "local_grad", "fl.local_grads", None),
    ("repro.fl.round_runner", "batched_local_losses", "fl.eval_sweep",
     _count("fl.eval_clients", lambda a, k, res: len(a[1]))),
    ("repro.fl.client:FLClient", "local_loss", "fl.eval_sweep",
     _count("fl.eval_clients", lambda a, k, res: 1)),
    ("repro.fl.round_runner", "compress_update", "fl.compress", _compress_counts),
    ("repro.fl.round_runner", "screen_updates", "fl.defense", _screen_counts),
    ("repro.fl.round_runner", "robust_aggregate", "fl.defense", None),
    ("repro.fl.server:FLServer", "aggregate_updates", "fl.aggregate", None),
    ("repro.fl.server:FLServer", "apply_delta", "fl.aggregate", None),
    ("repro.fl.server:FLServer", "aggregate_gradients", "fl.aggregate", None),
    ("repro.fl.server:FLServer", "test_accuracy", "fl.test_eval", None),
    ("repro.fl.server:FLServer", "test_loss", "fl.test_eval", None),
    # nn (child of the fl loop-path spans)
    ("repro.nn.models:ClassifierModel", "loss_and_grad", "nn.loss_and_grad", None),
    ("repro.nn.models:ClassifierModel", "loss", "nn.loss_and_grad", None),
    # datasets
    ("repro.datasets.streams:ClientDataStream", "draw", "datasets.draw",
     _count("datasets.samples_drawn", lambda a, k, res: len(res))),
    # env / net
    ("repro.env.availability:AvailabilityProcess", "sample", "env.step", None),
    ("repro.env.availability:MarkovAvailabilityProcess", "sample", "env.step", None),
    ("repro.env.dynamics:PriceProcess", "step_into", "env.step", None),
    ("repro.env.dynamics:DataVolumeProcess", "sample_into", "env.step", None),
    ("repro.net.channel:ChannelModel", "sample", "env.step", None),
    ("repro.env.state:ClientStateArrays", "observe_latency", "env.observe", None),
    ("repro.env.state:ClientStateArrays", "observe_losses", "env.observe", None),
    ("repro.env.state:ClientStateArrays", "observe_reliability", "env.observe", None),
    ("repro.env.state:ClientStateArrays", "charge", "env.observe", None),
    ("repro.experiments.runner:Simulation", "realized_tau", "net.latency", None),
    ("repro.experiments.runner:Simulation", "realized_tau_components", "net.latency", None),
    # sim
    ("repro.fl.round_runner", "simulate_round", "sim.round", _sim_counts),
    # live (parent side; forked workers inherit the wrappers but record nothing)
    ("repro.live.runtime:LiveRuntime", "ensure_started", "live.start", None),
    ("repro.live.runtime:LiveRuntime", "install_data", "live.install_data", None),
    ("repro.live.runtime:LiveRuntime", "begin_round", "live.begin_round", None),
    ("repro.live.runtime:LiveRound", "run_iteration", "live.barrier_wait",
     _count("fl.local_solves", lambda a, k, res: len(res))),
    ("repro.live.runtime:LiveRound", "finish", "live.finish", None),
    ("repro.live.protocol", "encode_payload", None, _frame_counter("sent")),
    ("repro.live.protocol", "decode_payload", None, _frame_counter("recv")),
    # checkpoint (the runner and resume_experiment import these at call time)
    ("repro.checkpoint", "write_snapshot", "checkpoint.write", _snapshot_bytes),
    ("repro.checkpoint.snapshot", "load_snapshot", "checkpoint.load", None),
    ("repro.checkpoint.snapshot:Snapshot", "restore_into", "checkpoint.restore", None),
    ("repro.experiments.runner:Simulation", "__init__", "checkpoint.rebuild", None),
)


def resolve(owner_path: str):
    """The module, or class in a module, that a :data:`SITES` owner names."""
    module_name, _, class_name = owner_path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counts: Dict[str, object] = {}
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._pid = os.getpid()

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def wrap(self, fn, name: Optional[str], hook: Optional[Hook]):
        tracer = self

        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:      # forked live worker
                return fn(*args, **kwargs)
            if name is None:
                result = fn(*args, **kwargs)
            else:
                with tracer.span(name):
                    result = fn(*args, **kwargs)
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for owner_path, attr, name, hook in SITES:
            owner = resolve(owner_path)
            original = owner.__dict__[attr]
            if isinstance(original, staticmethod):
                patched = staticmethod(self.wrap(original.__func__, name, hook))
            else:
                patched = self.wrap(original, name, hook)
            setattr(owner, attr, patched)
            self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def aggregate(spans: List[Span], since: float = 0.0) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive time (a span directly inside one of
    the same name counted once), and self time (minus direct children).
    Spans that began before ``since`` (set-up) are left out."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, Dict[str, float]] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        if start < since:
            continue
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[index]
        if parent < 0 or spans[parent][0] != name:
            row["total_s"] += end - start
    return out


def tail_percentile(samples: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, from a
    fixed ladder; ``(0, 0)`` when even p80 has fewer (under 50 samples)."""
    for pct in (99.9, 99.0, 95.0, 90.0, 80.0):
        if len(samples) * (1.0 - pct / 100.0) >= 10.0:
            ordered = sorted(samples)
            rank = min(len(ordered) - 1, int(len(ordered) * pct / 100.0))
            return pct, ordered[rank]
    return 0.0, 0.0


def per_layer_metrics(
    spans: List[Span],
    counts: Dict[str, object],
    window: Tuple[float, float],
    epoch_ms: List[float],
) -> Dict[str, float]:
    """Every span- and count-derived per-layer metric of one traced run.

    ``window`` is (first ``select`` entry, return): coverage is the share of
    it under top-level spans; what is left is ``experiments.unattributed_s``.
    """
    lo, hi = window
    agg = aggregate(spans, since=lo)

    def total(name: str) -> float:
        return agg.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> int:
        return int(agg.get(name, {}).get("calls", 0))

    def count(name: str) -> float:
        return float(counts.get(name, 0))

    top_level = sum(
        min(end, hi) - max(start, lo)
        for _, start, end, parent in spans
        if parent < 0 and end > lo and start < hi
    )
    writes = [
        (end - start) * 1e3
        for name, start, end, _ in spans
        if name == "checkpoint.write"
    ]
    snapshot_bytes = counts.get("checkpoint.snapshot_bytes", [])
    bits_full = count("fl.upload_bits_full")
    tail_pct, tail_ms = tail_percentile(epoch_ms)
    return {
        "strategies.select_s": total("strategies.select"),
        "strategies.select_calls": calls("strategies.select"),
        "strategies.update_s": total("strategies.update"),
        "core.descent_s": total("core.descent"),
        "core.descent_calls": calls("core.descent"),
        "core.dual_ascent_s": total("core.dual_ascent"),
        "core.rounding_s": total("core.rounding"),
        "core.rounding_calls": calls("core.rounding"),
        "solvers.pg_s": total("solvers.pg"),
        "solvers.pg_calls": calls("solvers.pg"),
        "solvers.pg_iters": count("solvers.pg_iters"),
        "fl.round_s": total("fl.round"),
        "fl.round_self_s": agg.get("fl.round", {}).get("self_s", 0.0),
        "fl.local_solve_s": total("fl.local_solve"),
        "fl.local_solves": count("fl.local_solves"),
        "fl.local_grads_s": total("fl.local_grads"),
        "fl.eval_sweep_s": total("fl.eval_sweep"),
        "fl.eval_clients": count("fl.eval_clients"),
        "fl.aggregate_s": total("fl.aggregate"),
        "fl.test_eval_s": total("fl.test_eval"),
        "fl.compress_s": total("fl.compress"),
        "fl.upload_bits_full": bits_full,
        # Without compression every upload travels at full size.
        "fl.upload_bits_sent": (
            count("fl.upload_bits_sent") if count("fl.compress_calls") else bits_full
        ),
        "fl.defense_s": total("fl.defense"),
        "nn.loss_and_grad_s": total("nn.loss_and_grad"),
        "nn.loss_and_grad_calls": calls("nn.loss_and_grad"),
        "datasets.draw_s": total("datasets.draw"),
        "datasets.draw_calls": calls("datasets.draw"),
        "datasets.samples_drawn": count("datasets.samples_drawn"),
        "env.step_s": total("env.step"),
        "env.observe_s": total("env.observe"),
        "net.latency_s": total("net.latency"),
        "sim.round_s": total("sim.round"),
        "sim.rounds": calls("sim.round"),
        "sim.retries": count("sim.retries"),
        "sim.dropped": count("sim.dropped"),
        "live.start_s": total("live.start"),
        "live.install_data_s": total("live.install_data"),
        "live.begin_round_s": total("live.begin_round"),
        "live.barrier_wait_s": total("live.barrier_wait"),
        "live.finish_s": total("live.finish"),
        "live.frames_sent": count("live.frames_sent"),
        "live.bytes_sent": count("live.bytes_sent"),
        "live.frames_recv": count("live.frames_recv"),
        "live.bytes_recv": count("live.bytes_recv"),
        "checkpoint.write_s": total("checkpoint.write"),
        "checkpoint.writes": calls("checkpoint.write"),
        "checkpoint.write_ms_p50": statistics.median(writes) if writes else 0.0,
        "checkpoint.bytes_per_snapshot": (
            statistics.median(snapshot_bytes) if snapshot_bytes else 0.0
        ),
        "checkpoint.load_s": total("checkpoint.load"),
        "checkpoint.rebuild_s": total("checkpoint.rebuild"),
        "checkpoint.restore_s": total("checkpoint.restore"),
        "experiments.coverage": top_level / (hi - lo),
        "experiments.unattributed_s": (hi - lo) - top_level,
        "experiments.epoch_ms_tail": tail_ms,
        "experiments.epoch_ms_tail_pct": tail_pct,
    }
