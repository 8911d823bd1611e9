"""What is left of ``repro bench``: the telemetry overhead audit, and in-place SGD."""

import copy

import numpy as np
import pytest

from repro.nn.optim import SGD


class TestInPlaceSGD:
    @pytest.mark.parametrize("momentum", [0.0, 0.5])
    def test_matches_allocating_path_bitwise(self, rng, momentum):
        w0 = rng.normal(size=1000)
        plain = SGD(lr=0.1, momentum=momentum)
        inplace = SGD(lr=0.1, momentum=momentum, in_place=True)
        w_a, w_b = w0.copy(), w0.copy()
        for _ in range(20):
            g = rng.normal(size=1000)
            w_a = plain.step(w_a, g)
            w_b = inplace.step(w_b, g)
            assert np.array_equal(w_a, w_b)

    def test_in_place_mutates_the_caller_buffer(self, rng):
        w = rng.normal(size=32)
        out = SGD(lr=0.1, in_place=True).step(w, np.ones(32))
        assert out is w

    def test_in_place_rejects_non_float64(self):
        opt = SGD(lr=0.1, in_place=True)
        with pytest.raises(ValueError):
            opt.step(np.arange(4), np.ones(4))
        with pytest.raises(ValueError):
            opt.step([1.0, 2.0], np.ones(2))

    def test_allocating_path_leaves_input_untouched(self, rng):
        w = rng.normal(size=32)
        snapshot = w.copy()
        SGD(lr=0.1).step(w, np.ones(32))
        assert np.array_equal(w, snapshot)


class TestOverheadAudit:
    @pytest.fixture(scope="class")
    def audit(self):
        from repro.experiments.bench import bench_overhead

        return bench_overhead(quick=True, seed=0)

    def test_report_shape(self, audit):
        from repro.experiments.bench import NULL_PRIMITIVES, OVERHEAD_SCHEMA_VERSION

        assert audit["schema_version"] == OVERHEAD_SCHEMA_VERSION
        assert audit["kind"] == "overhead-audit"
        assert set(audit["null_primitives_ns"]) == set(NULL_PRIMITIVES)
        assert set(audit["layers"]) == {
            "fl.batched", "fl.des", "fl.defended", "solver",
        }
        for layer in audit["layers"].values():
            assert layer["disabled_s"] > 0
            assert layer["enabled_s"] > 0
            assert layer["events"] > 0
            assert layer["timer_records_total"] > 0
            assert layer["est_null_frac"] >= 0.0

    def test_enabled_arm_attributes_hook_sites(self, audit):
        batched = audit["layers"]["fl.batched"]
        assert "epoch.complete" in batched["event_kinds"]
        assert "experiment.round" in batched["timer_records"]
        defended = audit["layers"]["fl.defended"]
        assert "defense.round" in defended["event_kinds"]

    def test_null_overhead_under_gate(self, audit):
        from repro.experiments.bench import check_overhead

        # The tentpole claim: disabled telemetry costs well under 2%.
        assert check_overhead(audit, max_null_fraction=0.02) == []

    def test_check_overhead_flags_exceeding_layer(self, audit):
        from repro.experiments.bench import check_overhead

        tight = copy.deepcopy(audit)
        tight["layers"]["solver"]["est_null_frac"] = 0.5
        failures = check_overhead(tight, max_null_fraction=0.02)
        assert len(failures) == 1 and "solver" in failures[0]

    def test_format_overhead_renders(self, audit):
        from repro.experiments.bench import format_overhead

        text = format_overhead(audit)
        assert "null-hub primitives" in text
        assert "fl.batched" in text
        assert "hook sites" in text
        assert format_overhead(audit) == text  # deterministic
