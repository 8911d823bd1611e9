"""End-to-end telemetry: instrumented runs, determinism, sweep workers, CLI.

The contract under test:

* a traced run records the full event hierarchy (run/epoch lifecycle,
  learner descent/ascent, round completion);
* telemetry never changes what an experiment computes — results with the
  hub enabled are bit-identical to results with it disabled, and nothing
  is attached to ``ExperimentResult``;
* two traced runs of the same seeded config produce byte-identical
  traces once the ``ts`` field is stripped;
* sweep workers aggregate their timer registries into one valid manifest;
* ``repro trace`` renders a recorded directory and the CLI exits non-zero
  on argument errors.
"""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.config import AttackConfig, DefenseConfig
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.experiments.scenarios import experiment_config, make_policy
from repro.experiments.sweep import (
    PolicySpec,
    SweepJob,
    results_identical,
    run_sweep,
)
from repro.obs import (
    EventReader,
    Telemetry,
    build_profile,
    canonical_line,
    event_to_line,
    get_telemetry,
    load_manifest,
    read_events,
    use_telemetry,
    validate_event_dict,
    validate_manifest,
)
from repro.obs.trace_report import quarantine_section
from repro.rng import RngFactory


def tiny_config(seed=0, **overrides):
    cfg = experiment_config(
        dataset="fmnist",
        iid=True,
        budget=100.0,
        seed=seed,
        num_clients=8,
        min_participants=3,
        max_epochs=3,
    )
    return cfg.replace(**overrides) if overrides else cfg


def run_fedl(cfg, telemetry=None):
    policy = make_policy("FedL", cfg, RngFactory(cfg.seed).get("policy.FedL"))
    with use_telemetry(telemetry):
        return run_experiment(policy, cfg)


class TestInstrumentedRun:
    def test_trace_contains_full_event_hierarchy(self, tmp_path):
        hub = Telemetry.for_directory(tmp_path, run_id="t")
        result = run_fedl(tiny_config(), hub)
        hub.finalize()
        events = read_events(tmp_path)
        kinds = {e.kind for e in events}
        assert {
            "run.start",
            "epoch.start",
            "epoch.decision",
            "epoch.complete",
            "learner.descent",
            "learner.ascent",
            "round.complete",
            "run.complete",
        } <= kinds
        epochs = len(result.trace)
        assert sum(e.kind == "epoch.complete" for e in events) == epochs
        assert sum(e.kind == "learner.descent" for e in events) >= epochs
        # Every line is a valid event and re-validates against the schema.
        reader = EventReader(tmp_path)
        assert len(reader.poll()) == len(events) and reader.malformed == 0
        for event in events:
            validate_event_dict(json.loads(event_to_line(event)))
        # Epoch scoping: learner/round events carry the epoch index.
        assert all(
            e.epoch is not None
            for e in events
            if e.kind in ("learner.descent", "learner.ascent", "round.complete")
        )

    def test_descent_events_carry_solver_and_constraint_fields(self, tmp_path):
        hub = Telemetry.for_directory(tmp_path)
        run_fedl(tiny_config(), hub)
        hub.finalize()
        descents = [e for e in read_events(tmp_path) if e.kind == "learner.descent"]
        ascents = [e for e in read_events(tmp_path) if e.kind == "learner.ascent"]
        assert descents and ascents
        for e in descents:
            assert {
                "solver", "iterations", "converged", "residual",
                "objective", "rho", "budget_headroom",
            } <= set(e.data)
            assert e.dur is not None
        for e in ascents:
            assert len(e.data["mu"]) == 8 + 1
            assert len(e.data["h"]) == 8 + 1

    def test_round_and_solver_phases_are_timed(self, tmp_path):
        hub = Telemetry.for_directory(tmp_path)
        run_fedl(tiny_config(), hub)
        hub.finalize()
        timers = load_manifest(tmp_path)["registry"]["timers"]
        for name in (
            "strategies.select",
            "strategies.select/solver.projected_gradient",
            "fl.round",
            "fl.round/round.local_solve",
            "fl.round/round.aggregate",
        ):
            assert timers[name]["count"] > 0, name


class TestQuarantineSection:
    def test_counts_the_compromised_participants_seen(self, tmp_path):
        cfg = tiny_config(
            attack=AttackConfig(kind="sign-flip", fraction=0.3),
            defense=DefenseConfig(aggregator="trimmed-mean"),
        )
        hub = Telemetry.for_directory(tmp_path, run_id="r0")
        run_fedl(cfg, telemetry=hub)
        hub.finalize()
        events = read_events(tmp_path)
        seen = {
            cid
            for e in events
            if e.kind == "adversary.round"
            for cid in e.data["compromised_participants"]
        }
        assert seen, "no compromised client took part: the check is vacuous"
        text = quarantine_section(events, "r0")
        assert (
            f"configured attack: sign-flip ({len(seen)} compromised "
            "participants seen)"
        ) in text

def record(argv, directory):
    assert main([*argv, "--quiet", "--telemetry", str(directory)]) == 0
    return load_manifest(directory)["registry"]["timers"]


@pytest.fixture(scope="module")
def sharded_run(tmp_path_factory):
    """A FedL run whose selection is split over three shards."""
    directory = tmp_path_factory.mktemp("sharded")
    timers = record([
        "run", "--clients", "30", "--participants", "4", "--epochs", "2",
        "--set", "shard.num_shards=3", "--set", "training.model=logreg",
    ], directory)
    return directory, timers


@pytest.fixture(scope="module")
def checkpointed_sweep(tmp_path_factory):
    """A two-worker sweep that snapshots every epoch."""
    root = tmp_path_factory.mktemp("ckpt-sweep")
    timers = record([
        "sweep", "--policies", "FedL", "FedAvg", "--budgets", "200",
        "--clients", "8", "--participants", "3", "--epochs", "2",
        "--workers", "2", "--checkpoint-dir", str(root / "ckpt"),
        "--set", "checkpoint.interval=1",
    ], root / "trace")
    return root / "trace", timers


class TestRecordedPhaseTree:
    """The phase tree is the nesting the timers ran in."""

    def test_shard_select_runs_inside_strategies_select(self, sharded_run):
        _, timers = sharded_run
        assert "strategies.select/shard.select" in timers
        assert "shard.select" not in timers

    def test_solver_runs_inside_every_shard(self, sharded_run):
        _, timers = sharded_run
        shards = [k for k in timers if k.rpartition("/")[2].startswith("shard.select.s")]
        assert len(shards) == 3
        for shard in shards:
            assert timers[f"{shard}/solver.projected_gradient"]["count"] > 0, shard
        assert not any(k.startswith("solver.") for k in timers)

    def test_checkpoint_write_runs_inside_sweep_job(self, checkpointed_sweep):
        _, timers = checkpointed_sweep
        # Two jobs, two epochs each, one snapshot per epoch.
        assert timers["sweep.job/checkpoint.write"]["count"] == 4
        assert "checkpoint.write" not in timers
        assert timers["sweep.job/strategies.select"]["count"] == 4

    @pytest.mark.parametrize("recording, roots", [
        ("sharded_run", ["fl.round", "strategies.select"]),
        ("checkpointed_sweep", ["sweep.job"]),
    ])
    def test_children_never_outlast_their_parent(self, recording, roots, request):
        profile = build_profile({"registry": {"timers": request.getfixturevalue(recording)[1]}})
        phases = profile["phases"]
        # Only the outermost blocks are roots, so root time is not counted twice.
        assert profile["roots"] == roots
        for key, node in phases.items():
            children = sum(phases[c]["total_s"] for c in node["children"])
            assert children <= node["total_s"] + 1e-9, key

    def test_trace_renders_the_recorded_tree(self, sharded_run, capsys):
        directory, _ = sharded_run
        assert main(["trace", str(directory), "--no-chart"]) == 0
        out = capsys.readouterr().out
        assert "\nstrategies.select " in out
        assert "\n  shard.select " in out
        assert "\n      solver.projected_gradient " in out
        assert "engines: batchedx" in out


class TestWorkerUtilization:
    def test_plain_run_has_no_utilization_section(self, sharded_run, capsys):
        assert main(["trace", str(sharded_run[0]), "--no-chart"]) == 0
        assert "worker utilization" not in capsys.readouterr().out

    def test_sweep_lists_only_workers_that_ran_jobs(self, checkpointed_sweep, capsys):
        directory, _ = checkpointed_sweep
        assert main(["trace", str(directory), "--no-chart"]) == 0
        out = capsys.readouterr().out
        section = out.split("worker utilization\n", 1)[1].split("\n\n", 1)[0]
        header, _rule, *rows = section.splitlines()
        assert header.split() == ["worker", "jobs", "busy"]
        jobs = {row.split()[0]: int(row.split()[1]) for row in rows}
        assert jobs and all(n > 0 for n in jobs.values())
        assert sum(jobs.values()) == 2
        assert "main" not in jobs


class TestNoOpGuarantees:
    def test_disabled_hub_emits_nothing_and_alters_nothing(self, tmp_path):
        cfg = tiny_config()
        baseline = run_fedl(cfg)          # null hub (telemetry disabled)
        hub = Telemetry.for_directory(tmp_path)
        traced = run_fedl(cfg, hub)
        hub.finalize()
        # Enabled-vs-disabled results are bit-identical: instrumentation
        # reads no RNG and writes nothing into the result.
        assert results_identical(baseline, traced)
        # Known result surface: the four seed fields plus the sweep
        # layer's "policy" self-description — telemetry adds nothing.
        assert {f.name for f in dataclasses.fields(ExperimentResult)} == {
            "trace", "config", "stop_reason", "final_w", "policy",
        }
        assert {f.name for f in dataclasses.fields(type(cfg))} == {
            f.name for f in dataclasses.fields(tiny_config())
        }
        # And a run under the null hub leaves no files anywhere.
        assert get_telemetry().enabled is False

    def test_disabled_run_is_deterministic(self):
        cfg = tiny_config(seed=3)
        assert results_identical(run_fedl(cfg), run_fedl(cfg))


class TestTraceDeterminism:
    def test_traces_byte_identical_modulo_ts(self, tmp_path):
        cfg = tiny_config(seed=1)
        lines = []
        for name in ("a", "b"):
            hub = Telemetry.for_directory(tmp_path / name, run_id="t")
            run_fedl(cfg, hub)
            hub.finalize()
            lines.append([
                canonical_line(event_to_line(e)) for e in read_events(tmp_path / name)
            ])
        assert lines[0] == lines[1]
        # ... and the raw lines differ only because of ts (sanity check
        # that the canonicalization is actually doing something).
        raw_a = (tmp_path / "a" / "events-main.jsonl").read_text().splitlines()
        raw_b = (tmp_path / "b" / "events-main.jsonl").read_text().splitlines()
        assert len(raw_a) == len(raw_b) > 0


class TestSweepTelemetry:
    def make_jobs(self):
        return [
            SweepJob(PolicySpec("FedAvg"), tiny_config(seed=s, max_epochs=2))
            for s in (0, 1)
        ]

    def test_forked_workers_aggregate_into_manifest(self, tmp_path):
        hub = Telemetry.for_directory(tmp_path / "trace", run_id="sweep")
        results = run_sweep(self.make_jobs(), workers=2, telemetry=hub)
        hub.finalize()
        assert len(results) == 2
        manifest = load_manifest(tmp_path / "trace")
        assert manifest is not None
        validate_manifest(manifest)
        # Both jobs ran under the sweep.job timer, merged across workers.
        assert manifest["registry"]["timers"]["sweep.job"]["count"] == 2
        workers = {w["worker"]: w["jobs"] for w in manifest["workers"]}
        assert sum(workers.values()) == 2
        assert any(w.startswith("w") for w in workers)
        # Worker event files exist and carry per-job run ids.
        events = read_events(tmp_path / "trace")
        job_runs = {e.run for e in events if e.kind == "run.start"}
        assert len(job_runs) == 2
        assert manifest["event_counts"]["sweep.job"] == 2

    def test_sweep_results_identical_with_and_without_telemetry(self, tmp_path):
        jobs = self.make_jobs()
        plain = run_sweep(jobs, workers=1)
        hub = Telemetry.for_directory(tmp_path / "trace2")
        traced = run_sweep(jobs, workers=1, telemetry=hub)
        hub.finalize()
        for a, b in zip(plain, traced):
            assert results_identical(a, b)

    def test_cache_hits_and_misses_are_counted(self, tmp_path):
        from repro.experiments.sweep import SweepCache

        jobs = self.make_jobs()
        cache = SweepCache(tmp_path / "cache")
        hub = Telemetry.for_directory(tmp_path / "t1")
        run_sweep(jobs, workers=1, cache=cache, telemetry=hub)
        hub.finalize()
        assert load_manifest(tmp_path / "t1")["registry"]["counters"][
            "sweep.cache_misses"
        ] == 2
        hub2 = Telemetry.for_directory(tmp_path / "t2")
        run_sweep(jobs, workers=1, cache=cache, telemetry=hub2)
        hub2.finalize()
        counters = load_manifest(tmp_path / "t2")["registry"]["counters"]
        assert counters["sweep.cache_hits"] == 2
        assert "sweep.cache_misses" not in counters


def one_run_trace(directory):
    """A finalized trace holding one event of run ``FedL[seed=0]``."""
    hub = Telemetry.for_directory(directory, run_id="FedL[seed=0]")
    hub.emit("run.start")
    hub.finalize()
    return str(directory)


class TestCli:
    def test_run_telemetry_then_trace_renders(self, tmp_path, capsys):
        tel = tmp_path / "trace"
        rc = main([
            "run", "--policy", "FedL", "--clients", "8", "--participants", "3",
            "--epochs", "2", "--budget", "60", "--telemetry", str(tel),
        ])
        assert rc == 0
        host = load_manifest(tel)["host"]
        rc = main(["trace", str(tel)])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"host: cpus={host['cpus']}  blas threads: OPENBLAS_NUM_THREADS=" in out
        assert "per-phase timing" in out
        assert "dual max_i mu_t[i]" in out
        assert "cumulative fit" in out

    def test_trace_without_manifest_renders_event_durations(self, tmp_path, capsys):
        # A crashed or in-flight run: events on disk, no manifest yet.
        hub = Telemetry.for_directory(tmp_path, run_id="r")
        hub.emit("learner.descent", epoch=0, data={}, dur=0.25)
        hub.emit("learner.descent", epoch=1, data={}, dur=0.5)
        hub.close()
        assert main(["trace", str(tmp_path), "--no-chart"]) == 0
        out = capsys.readouterr().out
        assert "manifest=missing" in out
        # The phase-tree row: count, total and self time.
        row = next(l for l in out.splitlines() if l.startswith("learner.descent"))
        assert row.split()[:4] == ["learner.descent", "2", "750.00ms", "750.00ms"]

    def test_trace_renders_a_torn_last_line(self, tmp_path, capsys):
        # An in-flight run: the writer is mid-line.  The partial line waits
        # for its newline; it is neither an event nor a malformed one.
        hub = Telemetry.for_directory(tmp_path, run_id="t")
        run_fedl(tiny_config(), hub)
        hub.finalize()
        counts = load_manifest(tmp_path)["event_counts"]
        with (tmp_path / "events-main.jsonl").open("a") as fh:
            fh.write('{"v": 1, "seq": 999, "kind": "epoch.st')
        assert main(["trace", str(tmp_path), "--no-chart"]) == 0
        out = capsys.readouterr().out
        assert "trajectories — run 't'" in out
        inventory = out.split("event inventory\n", 1)[1].split("\n\n", 1)[0]
        header, _rule, *rows = inventory.splitlines()
        assert header.split() == ["kind", "events"]
        assert {kind: int(n) for kind, n in (row.split() for row in rows)} == counts
        assert main(["trace", str(tmp_path), "--follow", "--timeout", "5"]) == 0
        footer = capsys.readouterr().out.splitlines()[-1]
        assert footer.startswith(
            f"[follow] complete: {sum(counts.values())} events, 1/1 runs finished, "
            "0 malformed lines"
        )

    def test_trace_renders_live_rounds(self, tmp_path, capsys):
        hub = Telemetry.for_directory(tmp_path, run_id="live")
        hub.emit("live.round", epoch=0, dur=0.5, data={
            "iterations": 2, "aggregation": "deadline", "participants": 2,
            "survivors": 1, "dropped": {"4": "deadline"}, "retries": 1,
            "deadline_hits": 1, "time_scale": 0.5,
        })
        for client, status, made in ((4, "deadline", 1), (1, "ok", 2)):
            hub.emit("live.client", epoch=0, data={
                "client": client, "status": status, "contributions": made,
            })
        hub.finalize()
        assert main(["trace", str(tmp_path), "--no-chart", "--run", "live"]) == 0
        out = capsys.readouterr().out
        assert "live runtime — run 'live' (1 measured rounds)" in out
        assert "  retries=1  deadline_hits=1  drops=deadline:1\n" in out
        assert "  epoch 0: deadline T=1s iterations=2 participants=2" in out
        assert f"    k=  1 |{'#' * 40}| fill=2/2\n" in out
        assert f"    k=  4 |{'#' * 20:<40}| fill=1/2  [deadline]" in out

    def test_trace_on_missing_directory_exits_2(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err

    def test_trace_on_empty_directory_exits_2(self, tmp_path):
        assert main(["trace", str(tmp_path)]) == 2

    def test_trace_diff_appends_the_delta_table(self, sharded_run, capsys):
        directory = str(sharded_run[0])
        assert main(["trace", directory, "--no-chart", "--diff", directory]) == 0
        out = capsys.readouterr().out
        diff = out.split(f"profile diff: {directory} -> {directory}\n", 1)[1]
        assert "strategies.select/shard.select " in diff
        assert diff.rstrip().endswith("no per-call regressions past 5%")

    def test_trace_diff_needs_two_finalized_traces(self, sharded_run, tmp_path, capsys):
        (tmp_path / "events-main.jsonl").write_text("")
        directory = str(sharded_run[0])
        assert main(["trace", directory, "--diff", str(tmp_path)]) == 2
        assert "no manifest.json" in capsys.readouterr().err
        assert main(["trace", directory, "--diff", str(tmp_path / "nope")]) == 2
        assert main(["trace", directory, "--follow", "--diff", directory]) == 2

    @pytest.mark.parametrize("argv", [
        ["run", "--budget", "-5"],
        ["run", "--epochs", "0"],
        ["run", "--clients", "4", "--participants", "9"],
        ["sweep", "--budgets", "10", "-3"],
        ["trace", "{trace}", "--run", "nope"],
    ])
    def test_semantic_argument_errors_exit_2(self, argv, capsys, tmp_path):
        argv = [one_run_trace(tmp_path) if a == "{trace}" else a for a in argv]
        assert main(argv) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_run_names_the_available_ones(self, tmp_path, capsys):
        assert main(["trace", one_run_trace(tmp_path), "--run", "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (
            "run 'nope' not found; available: ['FedL[seed=0]']" in captured.err
        )

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out
