"""Telemetry hub: no-op guarantees, scoping, sinks, manifest, progress."""

import io
import json
import os
from pathlib import Path

import pytest

from repro.host import BLAS_THREAD_VARS
from repro.obs import (
    NULL_TELEMETRY,
    MANIFEST_NAME,
    NullTelemetry,
    Telemetry,
    build_manifest,
    get_telemetry,
    load_manifest,
    read_events,
    set_telemetry,
    use_telemetry,
    validate_manifest,
)

FIXTURES = Path(__file__).parent / "fixtures"


class TestNullHub:
    def test_default_hub_is_null_and_disabled(self):
        hub = get_telemetry()
        assert isinstance(hub, NullTelemetry)
        assert hub.enabled is False

    def test_every_operation_is_a_noop(self):
        hub = NULL_TELEMETRY
        assert hub.emit("run.start", data={"x": 1}) is None
        hub.counter("c")
        hub.gauge("g", 1.0)
        hub.progress("ignored")
        assert hub.registry.snapshot() == {
            "timers": {},
            "counters": {},
            "gauges": {},
        }

    def test_timer_is_one_shared_object(self):
        hub = NULL_TELEMETRY
        t1 = hub.timer("a")
        t2 = hub.timer("b")
        assert t1 is t2
        with t1:
            pass
        assert hub.registry.snapshot()["timers"] == {}


class TestInstallation:
    def test_use_telemetry_restores_previous(self):
        hub = Telemetry()
        before = get_telemetry()
        with use_telemetry(hub) as active:
            assert active is hub and get_telemetry() is hub
        assert get_telemetry() is before

    def test_set_telemetry_none_reinstalls_null(self):
        previous = set_telemetry(Telemetry())
        try:
            set_telemetry(None)
            assert isinstance(get_telemetry(), NullTelemetry)
        finally:
            set_telemetry(previous)


class TestEmission:
    def test_seq_is_monotonic_and_scopes_apply(self, tmp_path):
        hub = Telemetry.for_directory(tmp_path, run_id="r", worker="main")
        hub.emit("run.start")
        with hub.epoch_scope(4):
            hub.emit("epoch.start", data={"k": 1})
        hub.set_epoch(9)
        hub.emit("epoch.complete")
        hub.set_epoch(None)
        with hub.run_scope("other"):
            hub.emit("run.start")
        hub.close()
        events = read_events(tmp_path)
        assert [e.seq for e in events] == [0, 1, 2, 3]
        assert [e.epoch for e in events] == [None, 4, 9, None]
        assert [e.run for e in events] == ["r", "r", "r", "other"]

    def test_progress_echoes_and_records_one_event(self, tmp_path):
        stream = io.StringIO()
        hub = Telemetry.for_directory(tmp_path, progress_stream=stream)
        hub.progress("[1/2] working")
        hub.close()
        assert "[1/2] working" in stream.getvalue()
        (event,) = read_events(tmp_path)
        assert event.kind == "sweep.progress"
        assert event.data["message"] == "[1/2] working"

    def test_progress_only_hub_is_disabled_but_still_echoes(self):
        stream = io.StringIO()
        hub = Telemetry(progress_stream=stream)
        assert hub.enabled is False
        hub.progress("line")
        assert stream.getvalue() == "line\n"

    def test_timer_records_registry_and_emits_nothing(self, tmp_path):
        hub = Telemetry.for_directory(tmp_path)
        with hub.timer("solver.descent"):
            pass
        hub.close()
        timers = hub.registry.snapshot()["timers"]
        assert timers["solver.descent"]["count"] == 1
        assert read_events(tmp_path) == []


class TestTimerPaths:
    """A timer records under the path of the timers open around it."""

    def test_nested_timers_key_by_path(self):
        hub = Telemetry()
        with hub.timer("sweep.job"):
            with hub.timer("fl.round"):
                with hub.timer("round.aggregate"):
                    pass
            with hub.timer("checkpoint.write"):
                pass
        with hub.timer("checkpoint.write"):
            pass
        assert sorted(hub.registry.timers) == [
            "checkpoint.write",
            "sweep.job",
            "sweep.job/checkpoint.write",
            "sweep.job/fl.round",
            "sweep.job/fl.round/round.aggregate",
        ]

    def test_one_name_under_two_parents_gives_two_keys(self):
        hub = Telemetry()
        for shard in ("s0", "s1"):
            with hub.timer(f"shard.select.{shard}"):
                for _ in range(2):
                    with hub.timer("solver.projected_gradient"):
                        pass
        timers = hub.registry.timers
        for shard in ("s0", "s1"):
            assert timers[f"shard.select.{shard}/solver.projected_gradient"].count == 2
        assert "solver.projected_gradient" not in timers

    def test_a_raising_block_still_closes_its_timer(self):
        hub = Telemetry()
        with pytest.raises(RuntimeError):
            with hub.timer("fl.round"):
                raise RuntimeError("boom")
        with hub.timer("checkpoint.write"):
            pass
        assert sorted(hub.registry.timers) == ["checkpoint.write", "fl.round"]

    def test_merging_worker_snapshots_sums_equal_paths(self, tmp_path):
        for worker, jobs in (("w1", 2), ("w2", 3)):
            hub = Telemetry.for_directory(tmp_path, worker=worker)
            for _ in range(jobs):
                with hub.timer("sweep.job"):
                    with hub.timer("strategies.select"):
                        pass
            hub.dump_worker_snapshot()
            hub.close()
        timers = build_manifest(tmp_path)["registry"]["timers"]
        assert timers["sweep.job"]["count"] == 5
        assert timers["sweep.job/strategies.select"]["count"] == 5
        assert set(timers) == {"sweep.job", "sweep.job/strategies.select"}


class TestManifest:
    def test_finalize_writes_valid_manifest(self, tmp_path):
        hub = Telemetry.for_directory(tmp_path, run_id="r")
        hub.emit("run.start")
        hub.counter("sweep.cache_hits", 2)
        with hub.timer("sweep.job"):
            pass
        path = hub.finalize(meta={"command": "test"})
        assert path == tmp_path / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        validate_manifest(manifest)
        assert manifest["event_counts"] == {"run.start": 1}
        assert manifest["registry"]["counters"]["sweep.cache_hits"] == 2.0
        assert manifest["meta"] == {"command": "test"}
        # The hub's own registry arrives via its snapshot file: no double count.
        assert manifest["registry"]["timers"]["sweep.job"]["count"] == 1
        assert [w["worker"] for w in manifest["workers"]] == ["main"]
        assert manifest["workers"][0]["jobs"] == 1

    def test_build_manifest_merges_worker_snapshots(self, tmp_path):
        for worker, n in (("w1", 2), ("w2", 3)):
            hub = Telemetry.for_directory(tmp_path, worker=worker)
            for _ in range(n):
                with hub.timer("sweep.job"):
                    pass
            hub.dump_worker_snapshot()
            hub.close()
        manifest = build_manifest(tmp_path)
        validate_manifest(manifest)
        assert manifest["registry"]["timers"]["sweep.job"]["count"] == 5
        assert {w["worker"]: w["jobs"] for w in manifest["workers"]} == {
            "w1": 2,
            "w2": 3,
        }

    def test_manifest_names_the_pool_that_wrote_it(self, tmp_path):
        manifest = build_manifest(tmp_path)
        assert manifest["host"]["cpus"] >= 1
        # conftest imports repro before numpy, so the defaults are in effect.
        assert manifest["host"]["blas_threads"] == {
            name: os.environ[name] for name in BLAS_THREAD_VARS
        }

    def test_manifest_written_before_the_host_field_still_validates(self):
        old = json.loads((FIXTURES / "manifest_pre_host.json").read_text())
        assert "host" not in old
        validate_manifest(old)

    def test_load_manifest_rejects_invalid(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({"v": 1}))
        assert load_manifest(tmp_path) is None

    @pytest.mark.parametrize("mutation", [
        {"v": 42},
        {"kind": "something-else"},
        {"registry": {}},
        {"event_counts": None},
        {"workers": "w1"},
        {"host": "two cores"},
        {"host": {"cpus": 2}},
    ])
    def test_validate_manifest_rejects_malformed(self, tmp_path, mutation):
        hub = Telemetry.for_directory(tmp_path)
        hub.finalize()
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        manifest.update(mutation)
        with pytest.raises(ValueError):
            validate_manifest(manifest)
