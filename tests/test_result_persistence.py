"""Round-trip tests for ``ExperimentResult`` / config persistence.

Mirrors the existing ``Trace`` persistence tests: exact round trip of
every field (trace, ``stop_reason``, ``final_w``, config) plus
schema-version-mismatch rejection.
"""

import json
import os

import numpy as np
import pytest

from repro.atomic import atomic_write_text
from repro.config import ExperimentConfig
from repro.experiments.persistence import (
    RESULT_SCHEMA_VERSION,
    config_from_dict,
    config_to_dict,
    load_results,
    result_from_dict,
    result_to_dict,
    save_results,
)
from repro.experiments.scenarios import experiment_config, paper_scale_config
from repro.experiments.sweep import PolicySpec, SweepJob, execute_job, results_identical
from repro.live.calibrate import CalibrationReport
from repro.obs import Telemetry
from repro.obs.export import export_metrics
from repro.obs.registry import MetricsRegistry


def write_json(path, payload):
    return atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True))


#: Every writer of a run artifact, as ``set-up(dir) -> write()``.
WRITERS = {
    "registry": lambda d: lambda: MetricsRegistry().dump(d / "registry-main.json"),
    "manifest": lambda d: Telemetry.for_directory(d).finalize,
    "metrics": lambda d: lambda: export_metrics(d, {}),
    "calibration": lambda d: lambda: CalibrationReport(
        rows=[], bit_identical=None, time_scale=1.0, policy="FedL", epochs=1
    ).save(d / "calibration.json"),
}


@pytest.fixture(scope="module")
def small_result():
    cfg = experiment_config(
        dataset="fmnist",
        iid=True,
        budget=120.0,
        seed=0,
        num_clients=8,
        min_participants=3,
        max_epochs=3,
    )
    return execute_job(SweepJob(PolicySpec("FedAvg"), cfg))


class TestConfigRoundTrip:
    def test_default_config(self):
        cfg = ExperimentConfig()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_non_default_config_with_tuples(self):
        cfg = paper_scale_config(dataset="cifar10", iid=False, seed=7)
        back = config_from_dict(config_to_dict(cfg))
        assert back == cfg
        # JSON turns tuples into lists; the loader must turn them back.
        assert isinstance(back.population.cost_range, tuple)
        assert isinstance(back.training.hidden_units, tuple)

    def test_round_trip_is_json_safe(self):
        cfg = ExperimentConfig()
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    def test_validation_reruns_on_load(self):
        data = config_to_dict(ExperimentConfig())
        data["budget"] = -1.0
        with pytest.raises(ValueError):
            config_from_dict(data)


class TestResultRoundTrip:
    def test_dict_round_trip_is_exact(self, small_result):
        back = result_from_dict(result_to_dict(small_result))
        assert results_identical(back, small_result)

    def test_fields_survive(self, small_result):
        back = result_from_dict(result_to_dict(small_result))
        assert back.stop_reason == small_result.stop_reason
        assert back.config == small_result.config
        np.testing.assert_array_equal(back.final_w, small_result.final_w)
        assert back.trace.equals(small_result.trace)
        # rho is NaN for FedAvg records: the NaN must survive the trip.
        assert np.isnan(back.trace.column("rho")).all()

    def test_json_round_trip_is_exact(self, small_result):
        back = result_from_dict(json.loads(json.dumps(result_to_dict(small_result))))
        assert results_identical(back, small_result)

    def test_schema_version_mismatch_rejected(self, small_result):
        data = result_to_dict(small_result)
        data["schema"] = RESULT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            result_from_dict(data)

    def test_nested_trace_schema_mismatch_rejected(self, small_result):
        data = result_to_dict(small_result)
        data["trace"]["schema"] = 99
        with pytest.raises(ValueError):
            result_from_dict(data)


class TestResultBundles:
    def test_save_load_bundle(self, tmp_path, small_result):
        path = save_results({"A": small_result, "B": small_result}, tmp_path / "r.json")
        loaded = load_results(path)
        assert set(loaded) == {"A", "B"}
        for res in loaded.values():
            assert results_identical(res, small_result)

    def test_bundle_schema_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 99, "results": {}}))
        with pytest.raises(ValueError):
            load_results(path)


class TestAtomicWrites:
    """No writer may leave a torn file or a temp file behind."""

    def test_failed_serialization_preserves_old_file(self, tmp_path, small_result):
        path = tmp_path / "results.json"
        save_results({"a": small_result}, path)
        before = path.read_text()

        class Exploding:
            """Raises midway through result_to_dict."""

            @property
            def trace(self):
                raise RuntimeError("boom")

        with pytest.raises(Exception):
            save_results({"a": Exploding()}, path)
        assert path.read_text() == before          # old payload intact
        assert list(tmp_path.glob("*.tmp")) == []  # no temp litter

    def test_save_results_no_temp_litter_on_success(self, tmp_path, small_result):
        path = tmp_path / "out.json"
        save_results({"a": small_result}, path)
        leftovers = [p for p in tmp_path.iterdir() if p != path]
        assert leftovers == []

    def test_save_traces_atomic(self, tmp_path, small_result):
        from repro.experiments.persistence import load_traces, save_traces

        path = tmp_path / "traces.json"
        save_traces({"t": small_result.trace}, path)
        assert list(tmp_path.glob("*.tmp")) == []
        loaded = load_traces(path)
        assert loaded["t"].equals(small_result.trace)

    # atomic_write_text, the one writer under every artifact above, never
    # leaves a torn file or a temp file behind.

    def test_atomic_write_failed_serialization(self, tmp_path):
        path = tmp_path / "artifact.json"
        write_json(path, {"client": 3, "rounds": 2})
        before = path.read_text()
        with pytest.raises(TypeError):
            # a set is not JSON-serializable: crash mid-serialization
            write_json(path, {"client": 3, "drops": {1, 2}})
        assert path.read_text() == before              # old payload intact
        assert list(tmp_path.glob("*.tmp*")) == []     # no temp litter

    def test_atomic_write_crash_mid_write(self, tmp_path, monkeypatch):
        path = tmp_path / "artifact.json"
        write_json(path, {"client": 0})
        before = path.read_text()
        real_fdopen = os.fdopen

        def torn_fdopen(fd, *args, **kwargs):
            fh = real_fdopen(fd, *args, **kwargs)
            real_write = fh.write

            def torn_write(text):
                real_write(text[: len(text) // 2])
                raise OSError("disk full")

            fh.write = torn_write
            return fh

        monkeypatch.setattr(os, "fdopen", torn_fdopen)
        with pytest.raises(OSError):
            write_json(path, {"client": 0, "rounds": 99})
        monkeypatch.undo()
        assert path.read_text() == before              # never half-replaced
        assert list(tmp_path.glob("*.tmp*")) == []     # torn temp removed
        json.loads(path.read_text())                   # still valid JSON

    def test_atomic_write_fresh_write_crash_leaves_nothing(self, tmp_path, monkeypatch):
        path = tmp_path / "artifact.json"

        def failing_replace(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            write_json(path, {"client": 7})
        monkeypatch.undo()
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("writer", list(WRITERS.values()), ids=list(WRITERS))
    def test_writer_leaves_no_tmp_when_replace_fails(
        self, writer, tmp_path, monkeypatch
    ):
        write = writer(tmp_path)

        def failing_replace(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename failed"):
            write()
        monkeypatch.undo()
        assert list(tmp_path.rglob("*.tmp*")) == []


class TestRobustnessSchema:
    def test_attack_defense_round_trip(self):
        cfg = ExperimentConfig()
        from dataclasses import replace

        from repro.config import AttackConfig, DefenseConfig

        cfg = replace(
            cfg,
            attack=AttackConfig(kind="gauss", fraction=0.25),
            defense=DefenseConfig(aggregator="trimmed-mean"),
        )
        restored = config_from_dict(config_to_dict(cfg))
        assert restored == cfg

    def test_v2_payload_without_attack_sections_loads(self, small_result):
        payload = result_to_dict(small_result)
        payload["schema"] = 2
        payload["config"].pop("attack")
        payload["config"].pop("defense")
        restored = result_from_dict(payload)
        assert restored.config.attack.kind == "none"
        assert restored.config.defense.aggregator == "none"
