"""Phase profiler: tree construction, self time, rendering, diffing.

Timer keys are paths (``parent/child``), as the hub records them; the
tree is read off the keys.
"""

import pytest

from repro.obs import (
    Telemetry,
    build_profile,
    diff_profiles,
    profile_directory,
    render_diff,
    render_profile,
    render_trace,
    use_telemetry,
)


def timer(count, total, lo=0.0, hi=0.0):
    return {"count": count, "total_s": total, "min_s": lo, "max_s": hi}


def manifest_with(timers, event_counts=None):
    return {
        "registry": {"timers": timers, "counters": {}, "gauges": {}},
        "event_counts": event_counts or {},
    }


class TestBuildProfile:
    def test_self_time_subtracts_direct_children(self):
        prof = build_profile(
            manifest_with(
                {
                    "fl.round": timer(2, 10.0),
                    "fl.round/round.local_solve": timer(4, 6.0),
                    "fl.round/round.aggregate": timer(4, 1.0),
                },
                {"epoch.complete": 2},
            )
        )
        node = prof["phases"]["fl.round"]
        assert node["self_s"] == pytest.approx(3.0)
        assert node["children"] == [
            "fl.round/round.aggregate",
            "fl.round/round.local_solve",
        ]
        assert prof["roots"] == ["fl.round"]
        assert prof["epochs"] == 2

    def test_self_time_clamped_at_zero(self):
        # Float rounding can put children a hair past the parent; never negative.
        prof = build_profile(
            manifest_with(
                {
                    "fl.round": timer(1, 1.0),
                    "fl.round/round.local_solve": timer(1, 1.5),
                }
            )
        )
        assert prof["phases"]["fl.round"]["self_s"] == 0.0

    def test_depths(self):
        prof = build_profile(
            manifest_with(
                {
                    "sweep.job": timer(1, 5.0),
                    "sweep.job/fl.round": timer(1, 3.0),
                    "sweep.job/fl.round/round.local_solve": timer(1, 2.0),
                }
            )
        )
        phases = prof["phases"]
        assert phases["sweep.job"]["depth"] == 0
        assert phases["sweep.job/fl.round"]["depth"] == 1
        assert phases["sweep.job/fl.round/round.local_solve"]["depth"] == 2

    def test_one_name_under_two_parents_is_two_nodes(self):
        prof = build_profile(
            manifest_with(
                {
                    "shard.select": timer(1, 3.0),
                    "shard.select/shard.select.s0": timer(1, 1.0),
                    "shard.select/shard.select.s0/solver.projected_gradient": timer(1, 0.5),
                    "shard.select/shard.select.s1": timer(1, 1.5),
                    "shard.select/shard.select.s1/solver.projected_gradient": timer(1, 1.0),
                }
            )
        )
        phases = prof["phases"]
        for shard, self_s in (("s0", 0.5), ("s1", 0.5)):
            key = f"shard.select/shard.select.{shard}"
            assert phases[key]["children"] == [f"{key}/solver.projected_gradient"]
            assert phases[key]["self_s"] == pytest.approx(self_s)

    def test_flat_keys_are_roots(self):
        # Manifests written before timers recorded their path.
        prof = build_profile(
            manifest_with(
                {"experiment.round": timer(1, 2.0), "round.local_solve": timer(1, 1.0)}
            )
        )
        assert prof["roots"] == ["experiment.round", "round.local_solve"]
        assert prof["phases"]["experiment.round"]["self_s"] == 2.0


class TestRendering:
    PROF = build_profile(
        manifest_with(
            {
                "fl.round": timer(2, 10.0),
                "fl.round/round.local_solve": timer(4, 6.0),
            },
            {"epoch.complete": 2, "run.complete": 1},
        ),
        engines={"batched": 2},
    )

    def test_render_is_deterministic(self):
        assert render_profile(self.PROF) == render_profile(self.PROF)

    def test_render_contents(self):
        text = render_profile(self.PROF)
        assert "engines: batchedx2" in text
        assert "epochs: 2" in text
        assert "\n  round.local_solve " in text  # indented under its parent
        assert "hot phases (self time, top 10):" in text
        assert "calls  fl.round/round.local_solve" in text  # ranked by path
        assert "per-epoch" in text

    def test_empty_profile(self):
        text = render_profile(build_profile(manifest_with({})))
        assert "(no timers recorded)" in text


class TestDiff:
    A = build_profile(manifest_with({"fl.round": timer(2, 1.0)}))
    B = build_profile(
        manifest_with(
            {"fl.round": timer(2, 2.0), "fl.round/round.aggregate": timer(2, 0.1)}
        )
    )

    def test_regression_flagged_past_5pct(self):
        rows = diff_profiles(self.A, self.B)
        by_name = {r["phase"]: r for r in rows}
        row = by_name["fl.round"]
        assert row["mean_delta_pct"] == pytest.approx(100.0)
        assert row["regressed"] is True

    def test_new_phase_has_no_mean_delta(self):
        rows = diff_profiles(self.A, self.B)
        by_name = {r["phase"]: r for r in rows}
        assert by_name["fl.round/round.aggregate"]["mean_delta_pct"] is None
        assert by_name["fl.round/round.aggregate"]["regressed"] is False

    def test_rows_ordered_by_total_delta(self):
        rows = diff_profiles(self.A, self.B)
        deltas = [abs(r["total_delta_s"]) for r in rows]
        assert deltas == sorted(deltas, reverse=True)

    def test_render_diff_marks_regressions(self):
        text = render_diff(self.A, self.B)
        assert " !" in text
        assert "regressed phase(s)" in text

    def test_self_diff_is_clean(self):
        text = render_diff(self.A, self.A)
        assert "no per-call regressions past 5%" in text
        assert " !" not in text


class TestDirectoryProfile:
    def test_none_without_manifest(self, tmp_path):
        assert profile_directory(tmp_path) is None

    def test_profile_real_trace(self, tmp_path):
        hub = Telemetry.for_directory(tmp_path, run_id="r0")
        with use_telemetry(hub):
            with hub.timer("fl.round"):
                with hub.timer("round.local_solve"):
                    pass
            hub.emit(
                "round.complete", epoch=0, data={"engine": "batched"}
            )
            hub.emit("epoch.complete", epoch=0, data={})
        hub.finalize(meta={})
        prof = profile_directory(tmp_path)
        assert prof is not None
        assert prof["epochs"] == 1
        assert prof["phases"]["fl.round/round.local_solve"]["parent"] == "fl.round"
        # The engine mix is counted from the recorded round.complete events.
        assert "engines: batchedx1" in render_trace(tmp_path, chart=False)
        # Byte-determinism: same directory, same rendering.
        assert render_profile(prof) == render_profile(profile_directory(tmp_path))
