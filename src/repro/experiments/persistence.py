"""Saving and loading experiment traces and results (JSON).

A downstream user running sweeps wants results on disk; this module
round-trips :class:`~repro.experiments.metrics.Trace` objects, full
:class:`~repro.experiments.runner.ExperimentResult` objects (trace +
config + ``stop_reason`` + ``final_w``), and bundles of either, through a
stable, versioned JSON schema.  The sweep cache
(:mod:`repro.experiments.sweep`) keys its entries on these schema
versions, so bumping a version transparently invalidates stale cache
entries.
"""

from __future__ import annotations

import atexit
import dataclasses
import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Dict, Mapping

import numpy as np

from repro.config import ExperimentConfig
from repro.experiments.metrics import EpochRecord, Trace
from repro.experiments.runner import ExperimentResult

__all__ = [
    "trace_to_dict",
    "trace_from_dict",
    "save_traces",
    "load_traces",
    "config_to_dict",
    "config_from_dict",
    "result_to_dict",
    "result_from_dict",
    "save_results",
    "load_results",
    "atomic_write_text",
    "clean_stale_tmps",
    "SCHEMA_VERSION",
    "RESULT_SCHEMA_VERSION",
    "SUPPORTED_RESULT_SCHEMAS",
]

SCHEMA_VERSION = 1
# v2: configs gained the event-driven-runtime section ("sim"); results
# written by v1 (no "sim" key) still load with the default SimConfig.
# v3: configs gained the robustness sections ("attack"/"defense"); older
# results load with the benign defaults (no attack, plain aggregation).
# v4: results gained the optional "policy" self-description (the sweep
# engine's PolicySpec as a dict); older results load with policy=None.
# v5: config round-trips became lossless — the reader now restores the
# "live", "shard", and (new) "checkpoint" sections it previously dropped;
# older results load those sections with their defaults.
RESULT_SCHEMA_VERSION = 5

#: Every result schema this reader understands (older versions load with
#: documented defaults for the fields they predate).
SUPPORTED_RESULT_SCHEMAS = (1, 2, 3, 4, RESULT_SCHEMA_VERSION)

# Temp files currently being written by this process, swept at interpreter
# exit so an aborted run (uncaught exception, sys.exit, handled signal)
# never leaves `*.tmp` litter next to its outputs.  A SIGKILL mid-write
# still strands the file — :func:`clean_stale_tmps` is the second line of
# defense the next process runs over the same directory.
_INFLIGHT_TMPS: set = set()
_INFLIGHT_LOCK = threading.Lock()


def _reap_inflight_tmps() -> None:
    with _INFLIGHT_LOCK:
        stranded = list(_INFLIGHT_TMPS)
        _INFLIGHT_TMPS.clear()
    for tmp in stranded:
        try:
            os.unlink(tmp)
        except OSError:
            pass


atexit.register(_reap_inflight_tmps)


def clean_stale_tmps(directory: str | Path) -> int:
    """Remove torn-write litter (``.<name>.*.tmp`` / ``<name>.tmp<pid>``)
    left in ``directory`` by a process that died between temp-file
    creation and :func:`os.replace`.  Returns the number removed.

    Only files matching the atomic writers' temp naming are touched;
    called by long-lived writers (sweep cache, checkpoints) when they
    (re)open a directory, where any survivor is by construction stale.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return 0
    removed = 0
    for entry in directory.iterdir():
        name = entry.name
        is_mkstemp_tmp = name.startswith(".") and name.endswith(".tmp")
        is_pid_tmp = ".tmp" in name and name.rsplit(".tmp", 1)[1].isdigit()
        if (is_mkstemp_tmp or is_pid_tmp) and entry.is_file():
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
    return removed


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` without ever exposing a torn file.

    The payload goes to a temp file in the destination directory first and
    is moved into place with :func:`os.replace`, which is atomic on POSIX —
    a crash mid-write leaves either the old file or the new one, never a
    truncated JSON document.  The temp path is tracked while in flight and
    reaped at interpreter exit, so exits that skip the ``except`` path
    (e.g. a SIGTERM handler calling ``sys.exit``) leave no litter either.
    """
    fd, tmp = tempfile.mkstemp(
        dir=path.parent or Path("."), prefix=f".{path.name}.", suffix=".tmp"
    )
    with _INFLIGHT_LOCK:
        _INFLIGHT_TMPS.add(tmp)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    finally:
        with _INFLIGHT_LOCK:
            _INFLIGHT_TMPS.discard(tmp)


#: EpochRecord is flat (scalars only), so serialization reads the fields
#: directly — ``dataclasses.asdict`` pays for recursive deep-copying the
#: records never need, which matters once checkpointing re-serializes
#: the growing trace every snapshot.
_EPOCH_RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(EpochRecord))


def trace_to_dict(trace: Trace) -> dict:
    """Serialize a trace to plain JSON-ready data."""
    return {
        "schema": SCHEMA_VERSION,
        "policy_name": trace.policy_name,
        "records": [
            {name: getattr(r, name) for name in _EPOCH_RECORD_FIELDS}
            for r in trace.records
        ],
    }


def trace_from_dict(data: Mapping) -> Trace:
    """Inverse of :func:`trace_to_dict`; validates the schema version."""
    version = data.get("schema")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported trace schema: {version!r}")
    trace = Trace(policy_name=str(data["policy_name"]))
    for raw in data["records"]:
        trace.append(EpochRecord(**raw))
    return trace


def save_traces(traces: Mapping[str, Trace], path: str | Path) -> Path:
    """Write a bundle of named traces to ``path`` (.json)."""
    path = Path(path)
    payload = {
        "schema": SCHEMA_VERSION,
        "traces": {name: trace_to_dict(tr) for name, tr in traces.items()},
    }
    atomic_write_text(path, json.dumps(payload))
    return path


def load_traces(path: str | Path) -> Dict[str, Trace]:
    """Read a bundle written by :func:`save_traces`."""
    payload = json.loads(Path(path).read_text())
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported bundle schema: {payload.get('schema')!r}")
    return {
        name: trace_from_dict(data) for name, data in payload["traces"].items()
    }


# --- ExperimentConfig ---------------------------------------------------------


def config_to_dict(config: ExperimentConfig) -> dict:
    """Serialize a full experiment config to plain JSON-ready data.

    Tuples become JSON lists; :func:`config_from_dict` restores them, so
    the round trip reproduces an ``==``-equal config.
    """
    return dataclasses.asdict(config)


def config_from_dict(data: Mapping) -> ExperimentConfig:
    """Inverse of :func:`config_to_dict` (validation re-runs on construction).

    Sections and fields the payload predates take their defaults, so
    results and snapshots written by older schemas still load.
    """
    return ExperimentConfig().override(data)


# --- ExperimentResult ---------------------------------------------------------


def result_to_dict(result: ExperimentResult) -> dict:
    """Serialize a full experiment result (trace, config, stop, weights)."""
    return {
        "schema": RESULT_SCHEMA_VERSION,
        "trace": trace_to_dict(result.trace),
        "config": config_to_dict(result.config),
        "stop_reason": result.stop_reason,
        "final_w": np.asarray(result.final_w, dtype=float).tolist(),
        "policy": result.policy,
    }


def result_from_dict(data: Mapping) -> ExperimentResult:
    """Inverse of :func:`result_to_dict`; validates the schema version."""
    version = data.get("schema")
    if version not in SUPPORTED_RESULT_SCHEMAS:
        raise ValueError(f"unsupported result schema: {version!r}")
    policy = data.get("policy")
    return ExperimentResult(
        trace=trace_from_dict(data["trace"]),
        config=config_from_dict(data["config"]),
        stop_reason=str(data["stop_reason"]),
        final_w=np.asarray(data["final_w"], dtype=float),
        policy=dict(policy) if policy is not None else None,
    )


def save_results(results: Mapping[str, ExperimentResult], path: str | Path) -> Path:
    """Write a bundle of named experiment results to ``path`` (.json)."""
    path = Path(path)
    payload = {
        "schema": RESULT_SCHEMA_VERSION,
        "results": {name: result_to_dict(r) for name, r in results.items()},
    }
    atomic_write_text(path, json.dumps(payload))
    return path


def load_results(path: str | Path) -> Dict[str, ExperimentResult]:
    """Read a bundle written by :func:`save_results`."""
    payload = json.loads(Path(path).read_text())
    if payload.get("schema") not in SUPPORTED_RESULT_SCHEMAS:
        raise ValueError(f"unsupported bundle schema: {payload.get('schema')!r}")
    return {
        name: result_from_dict(data) for name, data in payload["results"].items()
    }
