"""The repo's benchmark: five workloads, end-to-end and per-layer metrics.

    python3 perf/run.py --seed 0                 # all five, untraced
    python3 perf/run.py --seed 0 --trace 1       # + a traced run: per-layer
    python3 perf/run.py --workload train_k100 --seed 3 --seconds 15 --trace 0
    python3 perf/run.py --selfcheck              # two sets, same code, compared

Closed loop, one driver: every run is a fresh ``worker.py`` subprocess, runs
go one at a time, and inside a run an epoch starts when the previous one
returns.  Every metric is printed by name with its unit, the outputs are
checked (``checks.py``), and the result JSON is written under ``perf/out/``.
When exactly one workload is selected the last line of standard output is the
driver's contract object (``correct``/``attempted``/``failed``/``metrics``).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
OUT = PERF / "out"

if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.stderr.write(f"perf/run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing\n")
    sys.exit(2)
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import compare  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

#: One leg may take this long before its process group is killed and its
#: epochs are reported as failed (the slowest leg is ~25 s on the reference box).
LEG_TIMEOUT_S = 150
#: Set-up is timed at least this often per workload (extra set-up-only legs
#: make up the difference when fewer full runs are made).
SETUP_SAMPLES = 3
#: Memory touched and freed before each workload (above the largest peak RSS).
PREFAULT_MB = 640


def spawn(workload, leg: str, seed: int, tiny: bool, trace: bool = False, spans=None) -> dict:
    """Run one worker leg to completion; always returns a report dict."""
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(PERF / "worker.py"),
        "--workload", workload.name, "--leg", leg, "--seed", str(seed),
        "--trace", str(int(trace)), "--tiny", str(int(tiny)),
        "--workdir", str(OUT / "work"), "--t0", repr(t0),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    # Own session: a live-engine worker fleet dies with its leg, whatever
    # state the leg ends in.
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=LEG_TIMEOUT_S)
        error = None if proc.returncode == 0 else f"worker exited with {proc.returncode}"
    except subprocess.TimeoutExpired:
        out, error = "", f"worker exceeded {LEG_TIMEOUT_S} s"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if error is None:
        try:
            return json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            error = "worker printed no report"
    return {"leg": leg, "error": error}


def warm_up(workload, seed: int) -> None:
    """Bring the machine to the state it has in the middle of a long session.

    Two effects of the sandbox's hypervisor, both measured, would otherwise
    land inside the first measured window after a pause: guest pages that sat
    free for minutes cost ~25x more on first touch (512 MB: 2.4 s against
    0.09 s), and after ~10 idle seconds the first epoch of any run stalls for
    0.3-0.8 s (code and BLAS threads gone cold).  So: touch and free
    ``PREFAULT_MB`` in a child process (a child, so that it never shows in a
    worker's inherited ``ru_maxrss``), then run the workload's tiny variant
    once and discard it.
    """
    subprocess.run(
        [sys.executable, "-c",
         f"import numpy; numpy.ones({PREFAULT_MB} << 20, dtype=numpy.uint8)"],
        check=True,
    )
    spawn(workload, "main", seed, tiny=True)


def last_line(text: str) -> str:
    return text.strip().splitlines()[-1]


def summary(values, unit: str) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "unit": unit,
    }


def measure(workload, seed: int, runs: int, tiny: bool, minimal: bool = False) -> dict:
    """The untraced pass of one workload: ``runs`` full runs, extra set-up
    probes and the reference check (``minimal`` leaves those two out)."""
    reports = [spawn(workload, "main", seed, tiny) for _ in range(runs)]
    probes = [] if minimal else [
        spawn(workload, "setup", seed, tiny) for _ in range(SETUP_SAMPLES - runs)
    ]
    reference = None
    if workload.name in checks.REFERENCES and not minimal:
        reference = spawn(workload, "check", seed, tiny)

    planned = workload.build(seed, tiny).max_epochs
    attempted = failed = 0
    problems = []
    for report in reports:
        wrong = list(report.get("problems", []))
        if reference is not None and "trace_sha256" in report:
            if reference.get("error"):
                wrong.append("reference run failed: " + last_line(reference["error"]))
            else:
                wrong += checks.verdict(workload, report, reference)
        if report.get("trace_sha256") != reports[0].get("trace_sha256"):
            wrong.append("runs of one seed disagree (trace_sha256)")
        if report.get("error"):
            problems.append(last_line(report["error"]))
        run_attempted = report.get("attempted", planned)
        attempted += run_attempted
        # A run whose output is wrong, or that left no report, fails all of
        # its epochs; a run that only raised fails the epoch that raised.
        failed += run_attempted if wrong or "failed" not in report else report["failed"]
        problems += wrong
    for probe in probes:
        if probe.get("error"):
            problems.append("set-up probe failed: " + last_line(probe["error"]))

    good = [r for r in reports if "epochs" in r]
    end_to_end = {}
    for metric in metrics.END_TO_END:
        if metric.on is not None and workload.name not in metric.on:
            continue
        if metric.name == "failed_share":
            values = [failed / attempted]
        else:
            values = [r[metric.name] for r in good if r.get(metric.name) is not None]
            if metric.name == "setup_s":
                values += [p["setup_s"] for p in probes if "setup_s" in p]
        if values:
            end_to_end[metric.name] = summary(values, metric.unit)
    first = good[0] if good else {}
    return {
        "why": workload.why,
        "policy": workload.policy,
        "runs": runs,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not problems,
        "problems": problems,
        "end_to_end": end_to_end,
        "deterministic": {
            key: first.get(key)
            for key in ("epochs", "stop_reason", "final_accuracy",
                        "sim_time_to_target_s", "trace_sha256", "final_w_sha256")
        },
        "reference": reference,
        "wall_s": summary([r["wall_s"] for r in good], "s") if good else None,
    }


def add_trace(record: dict, workload, seed: int, tiny: bool) -> None:
    """The traced run of one workload, folded into its untraced ``record``."""
    spans = OUT / f"spans-{workload.name}.json"
    report = spawn(workload, "main", seed, tiny, trace=True, spans=spans)
    problems = list(report.get("problems", []))
    if report.get("error"):
        problems.append("traced run: " + last_line(report["error"]))
    elif report.get("trace_sha256") != record["deterministic"]["trace_sha256"]:
        problems.append("tracing changed the result (trace_sha256 differs)")
    if "per_layer" in report:
        values = dict(report["per_layer"])
        base = record["wall_s"]["median"] if record["wall_s"] else None
        values["experiments.trace_overhead_frac"] = (
            report["wall_s"] / base - 1.0 if base else 0.0
        )
        values["checkpoint.resume_s"] = report.get("resume_s") or 0.0
        values["experiments.epoch_ms_p50"] = report["epoch_ms_p50"]
        values["experiments.final_accuracy"] = report.get("final_accuracy") or 0.0
        values["experiments.sim_time_to_target_s"] = report.get("sim_time_to_target_s") or 0.0
        record["per_layer"] = {
            name: {"value": values[name], "unit": unit}
            for name, unit, *_ in metrics.PER_LAYER
        }
        record["traced_wall_s"] = report["wall_s"]
        record["spans_file"] = str(spans.relative_to(ROOT))
        for name in ("sim.rounds", "sim.retries", "sim.dropped", "live.frames_sent",
                     "live.bytes_sent", "live.frames_recv", "live.bytes_recv"):
            record["deterministic"][name] = values[name]
    if problems:
        record["problems"] += problems
        record["correct"] = False
        record["failed"] = record["attempted"]
        record["end_to_end"]["failed_share"] = summary([1.0], "fraction")


def fingerprint() -> dict:
    """Where the numbers were taken: enough to tell two machines apart."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        # As found, not overridden: the benchmark measures the program the
        # way its users run it.
        "blas_threads": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "loadavg_1m": os.getloadavg()[0],
        "git_commit": commit,
    }


def runs_for(workload, seconds: float) -> int:
    return max(1, round(seconds / workload.nominal_s))


def run_set(selected, seed: int, seconds: float, runs, trace: bool, tiny: bool) -> dict:
    """Every selected workload, one at a time; returns the result document."""
    env = fingerprint()
    if env["loadavg_1m"] > env["nproc"] / 2:
        print(
            f"WARNING: 1-minute load average {env['loadavg_1m']:.2f} exceeds "
            f"nproc/2 = {env['nproc'] / 2:g}; timings will be noisy",
            file=sys.stderr,
        )
    # The build: byte-compile once so no measured set-up pays for it.
    for tree in (ROOT / "src", PERF):
        compileall.compile_dir(str(tree), quiet=2)
    result = {"schema": 1, "seed": seed, "tiny": tiny, "env": env, "workloads": {}}
    for workload in selected:
        count = runs or (1 if tiny or trace else runs_for(workload, seconds))
        warm_up(workload, seed)
        record = measure(workload, seed, count, tiny, minimal=trace)
        if trace:
            add_trace(record, workload, seed, tiny)
        result["workloads"][workload.name] = record
        print_record(workload.name, record)
    return result


def print_record(name: str, record: dict) -> None:
    print(f"== {name}: {record['runs']} run(s), {record['attempted']} epochs attempted, "
          f"{record['failed']} failed, correct={record['correct']}")
    for problem in record["problems"]:
        print(f"   PROBLEM: {problem}")
    for metric, s in record["end_to_end"].items():
        print(f"   {metric:<28} {s['median']:>14.6g} {s['unit']:<9}"
              f" min {s['min']:.6g} max {s['max']:.6g} n={s['n']}")
    for metric, s in record.get("per_layer", {}).items():
        print(f"   {metric:<34} {s['value']:>14.6g} {s['unit']}")
    sys.stdout.flush()


def contract_line(record: dict, trace: bool) -> str:
    """The driver's one-line result for a single workload."""
    if trace:
        values = record.get("per_layer", {})
        chosen = {n: {"value": s["value"], "unit": s["unit"]} for n, s in values.items()}
    else:
        chosen = {
            m.name: {"value": record["end_to_end"][m.name]["median"], "unit": m.unit}
            for m in metrics.END_TO_END
            if m.contract is not None and m.name in record["end_to_end"]
        }
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": chosen,
    })


def selfcheck(selected, seed: int, seconds: float, runs, tiny: bool) -> int:
    """Two sets on the same code, workload order alternated; every row of
    their comparison must be within its bound."""
    first = run_set(selected, seed, seconds, runs, False, tiny)
    second = run_set(list(reversed(selected)), seed, seconds, runs, False, tiny)
    rows = compare.compare(first, second)
    print(compare.render(rows))
    drift = [
        f"{name}: {key} differs between the sets"
        for name, record in first["workloads"].items()
        for key, value in record["deterministic"].items()
        if second["workloads"][name]["deterministic"][key] != value
    ]
    for line in drift:
        print("NOT DETERMINISTIC:", line)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"selfcheck-seed{seed}.json").write_text(json.dumps(
        {"first": first, "second": second, "rows": rows, "drift": drift}, indent=1
    ))
    ok = not drift and all(row["verdict"] == "within-bound" for row in rows)
    print("selfcheck:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.BY_NAME),
                        help="run only this workload (repeatable; default: all five)")
    parser.add_argument("--seed", type=int, default=0,
                        help="becomes ExperimentConfig.seed and the policy RNG, nothing else")
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="measuring time per workload; rounded to whole runs of its nominal length")
    parser.add_argument("--runs", type=int, default=None, help="exact runs per workload instead of --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one untraced and one traced run per workload; prints the per-layer metrics")
    parser.add_argument("--tiny", action="store_true", help="shrink every workload to <= 2 s (tests)")
    parser.add_argument("--selfcheck", action="store_true", help="two sets back to back, compared")
    parser.add_argument("--out", default=None, help="result JSON path (default perf/out/result-seed<S>.json)")
    args = parser.parse_args(argv)

    selected = [w for w in workloads.WORKLOADS if not args.workload or w.name in args.workload]
    if args.selfcheck:
        return selfcheck(selected, args.seed, args.seconds, args.runs, args.tiny)
    result = run_set(selected, args.seed, args.seconds, args.runs, bool(args.trace), args.tiny)
    out = Path(args.out) if args.out else OUT / f"result-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1))
    print(f"result written to {out}")
    if len(selected) == 1:
        print(contract_line(result["workloads"][selected[0].name], bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
