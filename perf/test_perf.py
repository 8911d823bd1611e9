"""Tests of the benchmark itself, on ``--tiny`` workloads (each <= 2 s).

Run with ``python -m pytest perf -q`` from the repo root; not part of the
tier-1 suite (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
for entry in (str(ROOT / "src"), str(PERF)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import checks  # noqa: E402
import compare  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from repro.experiments.runner import run_experiment  # noqa: E402


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(PERF / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def traced_result(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("perf") / "result.json"
    proc = run_cli("--tiny", "--seed", "0", "--trace", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    result["stdout"] = proc.stdout
    return result


def test_every_declared_metric_is_reported_with_its_unit(traced_result):
    assert list(traced_result["workloads"]) == [w.name for w in workloads.WORKLOADS]
    for name, record in traced_result["workloads"].items():
        assert record["correct"], record["problems"]
        assert record["failed"] == 0 and record["attempted"] >= 1
        assert record["why"] == workloads.BY_NAME[name].why
        expected = [m for m in metrics.END_TO_END if m.on is None or name in m.on]
        if name == "train_k100":
            # The tiny run is too short to reach the accuracy target.
            expected = [m for m in expected if m.name != "sim_time_to_target_s"]
        assert list(record["end_to_end"]) == [m.name for m in expected]
        for metric in expected:
            assert record["end_to_end"][metric.name]["unit"] == metric.unit
            assert f"{metric.name} " in traced_result["stdout"]
        assert {
            n: s["unit"] for n, s in record["per_layer"].items()
        } == metrics.PER_LAYER_UNITS
        assert "experiments.trace_overhead_frac" in record["per_layer"]
        assert len(record["deterministic"]["trace_sha256"]) == 64
    env = traced_result["env"]
    assert {"nproc", "python", "numpy", "blas_threads", "loadavg_1m", "git_commit"} <= set(env)


def test_layers_show_up_where_the_workloads_say(traced_result):
    layers = {n: r["per_layer"] for n, r in traced_result["workloads"].items()}

    def value(workload, metric):
        return layers[workload][metric]["value"]

    assert value("train_k100", "experiments.coverage") >= 0.90
    assert value("select_k10000", "core.rounding_calls") > value("select_k10000", "strategies.select_calls")
    assert value("robust_des_k100", "sim.rounds") == 5
    assert 0 < value("robust_des_k100", "fl.upload_bits_sent") < value("robust_des_k100", "fl.upload_bits_full")
    assert value("live_k16", "live.frames_recv") > 0 and value("live_k16", "live.barrier_wait_s") > 0
    assert value("ckpt_k10000", "checkpoint.writes") == 8
    assert value("ckpt_k10000", "checkpoint.resume_s") > 0
    for other in ("train_k100", "live_k16"):
        assert value(other, "checkpoint.write_s") == 0


@pytest.mark.parametrize("trace", [0, 1])
def test_contract_line(trace):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_cli("--tiny", "--workload", "live_k16", "--seed", "1",
                   "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = benchmark["per_layer" if trace else "end_to_end"]
    assert {n: v["unit"] for n, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_benchmark_json_matches_the_declarations():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(benchmark) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert benchmark["paths"] == ["perf"]
    assert benchmark["workloads"] == [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS]
    assert benchmark["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.contract}
        for m in metrics.END_TO_END if m.contract is not None
    ]
    assert benchmark["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, *_ in metrics.PER_LAYER
    ]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in benchmark[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}", n) for n in names)
    units = [m["unit"] for key in ("end_to_end", "per_layer") for m in benchmark[key]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.\-]{1,16}", u) for u in units)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in benchmark["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in benchmark["end_to_end"])
    assert 1 <= benchmark["run_seconds"] <= 60


def test_policy_proxy_is_transparent(tmp_path):
    workload = workloads.BY_NAME["select_k10000"]
    config = workload.build(0, True)
    plain = run_experiment(checks.build_policy(workload, config), config)
    marks: list = []
    proxy = worker.PolicyProxy(checks.build_policy(workload, config), marks)
    assert proxy.plan is proxy.inner.plan and proxy.name == "FedL"
    proxied = run_experiment(proxy, config)
    assert proxied.final_w.tobytes() == plain.final_w.tobytes()
    assert proxied.trace.equals(plain.trace)
    assert len(marks) == len(plain.trace)

    clone = pickle.loads(pickle.dumps(proxy))
    assert clone.marks == [] and clone.tracer is None and clone.stop_at is None
    assert clone.plan.num_shards == proxy.plan.num_shards
    assert b"marks" not in pickle.dumps(proxy)
    with pytest.raises(AttributeError):
        clone.no_such_attribute


def test_patches_are_restored_after_a_traced_run(tmp_path):
    def current():
        return [tracing.resolve(owner).__dict__[attr] for owner, attr, _, _ in tracing.SITES]

    before = current()
    args = argparse.Namespace(seed=0, tiny=True, trace=1, t0=0.0, spans=str(tmp_path / "spans.json"))
    report = worker.main_leg(args, workloads.BY_NAME["train_k100"], tmp_path)
    assert report["error"] is None and report["per_layer"]["fl.round_s"] > 0
    assert all(a is b for a, b in zip(before, current()))
    dumped = json.loads((tmp_path / "spans.json").read_text())
    name, start, end, parent = dumped["spans"][0]
    assert end >= start and parent == -1


def test_a_workload_that_raises_is_failed_operations_not_a_crash(tmp_path):
    # Inside a run: an unknown policy raises before the first epoch.
    broken = dataclasses.replace(workloads.BY_NAME["train_k100"], policy="NoSuchPolicy")
    args = argparse.Namespace(seed=0, tiny=True, trace=0, t0=0.0, spans=None)
    report = worker.main_leg(args, broken, tmp_path)
    assert "NoSuchPolicy" in report["error"]
    assert report["attempted"] == 1 and report["failed"] == 1

    # A worker that dies without a report: every planned epoch fails.
    ghost = dataclasses.replace(workloads.BY_NAME["train_k100"], name="no_such_workload")
    record = run.measure(ghost, seed=0, runs=1, tiny=True, minimal=True)
    planned = ghost.build(0, True).max_epochs
    assert record["attempted"] == planned and record["failed"] == planned
    assert not record["correct"] and record["problems"]
    assert record["end_to_end"]["failed_share"]["median"] == 1.0


def test_compare_verdicts():
    def s(median, lo=None, hi=None, n=3):
        return {"median": median, "min": lo if lo is not None else median,
                "max": hi if hi is not None else median, "n": n, "unit": "ms"}

    assert compare.judge(s(100), s(105), 0.10, 0.0, "lower")[0] == "within-bound"
    assert compare.judge(s(100), s(115), 0.10, 0.0, "lower")[0] == "worse"
    assert compare.judge(s(100), s(115), 0.10, 0.0, "higher")[0] == "better"
    assert compare.judge(s(100, 90, 120), s(115, 95, 130), 0.10, 0.0, "lower")[0] == "unresolved"
    assert compare.judge(s(100, 99, 101), s(115, 114, 116), 0.10, 0.0, "lower")[0] == "worse"
    # "+25% or +0.10 s, whichever is larger"
    assert compare.judge(s(0.2), s(0.29), 0.25, 0.10, "lower")[0] == "within-bound"
    assert compare.judge(s(0.0), s(0.1), 0.0, 0.0, "lower")[0] == "worse"      # failed_share
