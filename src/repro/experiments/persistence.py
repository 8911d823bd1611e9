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

import dataclasses
import json
from pathlib import Path
from typing import Dict, Mapping

import numpy as np

from repro.atomic import atomic_write_text
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
