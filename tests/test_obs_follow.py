"""Live trace tailing: partial lines, truncation/rotation, missing manifest,
determinism, and one fold with ``repro trace``."""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import experiment_config, make_policy
from repro.obs import (
    Telemetry,
    TraceFollower,
    fold_runs,
    follow_trace,
    read_events,
    use_telemetry,
)
from repro.obs.hub import MANIFEST_NAME
from repro.rng import RngFactory


def event_line(kind, run="r0", epoch=0, data=None):
    return (
        json.dumps(
            {"v": 1, "seq": 0, "kind": kind, "run": run, "worker": "main",
             "epoch": epoch, "data": data or {},
             "ts": {"wall": 0.0, "dur": None}},
            ensure_ascii=False,
        )
        + "\n"
    )


def epoch_event(epoch, run="r0", acc=0.5, lat=0.1, budget=10.0, quar=0):
    return event_line(
        "epoch.complete",
        run=run,
        epoch=epoch,
        data={
            "test_accuracy": acc,
            "epoch_latency": lat,
            "remaining_budget": budget,
            "num_quarantined": quar,
        },
    )


class TestSparkline:
    """An epoch line ends in the one sparkline over the accuracies of the
    last ``follow.ROLLING`` epochs."""

    def test_width_and_extremes(self, tmp_path):
        accuracies = [0.0, 1.0] + [0.5] * 30
        (tmp_path / "events-main.jsonl").write_text(
            "".join(epoch_event(t, acc=a) for t, a in enumerate(accuracies))
        )
        lines = TraceFollower(tmp_path).poll()
        first, second, last = lines[0], lines[1], lines[-1]
        assert first.endswith("|▁|")
        assert second.endswith("|▁█|")
        assert len(last.rsplit("|", 2)[1]) == 20

    def test_empty_and_nonfinite(self, tmp_path):
        (tmp_path / "events-main.jsonl").write_text(
            epoch_event(0, acc="nan") + epoch_event(1, acc="inf")
        )
        lines = TraceFollower(tmp_path).poll()
        assert all(line.endswith("||") and "acc=-" in line for line in lines)


class TestPartialLines:
    def test_partial_trailing_line_buffers_until_complete(self, tmp_path):
        events = tmp_path / "events-main.jsonl"
        full = epoch_event(0)
        events.write_bytes(full[:20].encode())
        follower = TraceFollower(tmp_path)
        assert follower.poll() == []  # incomplete line: nothing rendered
        events.write_bytes(full.encode())
        lines = follower.poll()
        assert len(lines) == 1
        assert "t=   0" in lines[0] and "acc=0.5000" in lines[0]

    def test_split_multibyte_utf8_survives(self, tmp_path):
        events = tmp_path / "events-main.jsonl"
        full = epoch_event(0, run="runé").encode("utf-8")
        # Cut inside the 2-byte UTF-8 sequence for e-acute.
        cut = full.index(b"\xc3") + 1
        events.write_bytes(full[:cut])
        follower = TraceFollower(tmp_path)
        assert follower.poll() == []
        events.write_bytes(full)
        lines = follower.poll()
        assert len(lines) == 1 and "runé" in lines[0]

    def test_byte_by_byte_feed(self, tmp_path):
        events = tmp_path / "events-main.jsonl"
        full = (epoch_event(0) + epoch_event(1, acc=0.6)).encode()
        follower = TraceFollower(tmp_path)
        rendered = []
        for i in range(1, len(full) + 1):
            events.write_bytes(full[:i])
            rendered.extend(follower.poll())
        assert len(rendered) == 2
        assert follower.malformed == 0


class TestTruncation:
    def test_shrunk_file_restarts_from_zero(self, tmp_path):
        events = tmp_path / "events-main.jsonl"
        events.write_text(epoch_event(0) + epoch_event(1))
        follower = TraceFollower(tmp_path)
        assert len(follower.poll()) == 2
        events.write_text(epoch_event(0, run="r1"))  # rotated in place
        lines = follower.poll()
        assert any("truncated" in line for line in lines)
        assert any("r1" in line for line in lines)


class TestRotation:
    def test_replaced_file_grown_past_offset_restarts(self, tmp_path):
        """True rotation: the path now names a *different* file (new
        inode) that is already larger than the old read offset — the
        size check alone cannot see it; identity must."""
        events = tmp_path / "events-main.jsonl"
        events.write_text(epoch_event(0) + epoch_event(1))
        follower = TraceFollower(tmp_path)
        assert len(follower.poll()) == 2
        events.rename(tmp_path / "events-main.jsonl.1")
        events.write_text(
            epoch_event(0, run="r1") + epoch_event(1, run="r1")
            + epoch_event(2, run="r1")  # longer than the old file
        )
        lines = follower.poll()
        assert any("rotated" in line for line in lines)
        assert sum("r1" in line and "t=" in line for line in lines) == 3

    def test_rotation_discards_stale_partial_buffer(self, tmp_path):
        """A partial line buffered from the old file must not be glued
        onto the first line of its replacement."""
        events = tmp_path / "events-main.jsonl"
        events.write_bytes(epoch_event(0).encode() + b'{"v": 1, "seq"')
        follower = TraceFollower(tmp_path)
        assert len(follower.poll()) == 1  # partial tail stays buffered
        events.rename(tmp_path / "events-main.jsonl.1")
        events.write_text(epoch_event(0, run="fresh") + epoch_event(1, run="fresh"))
        lines = follower.poll()
        assert any("rotated" in line for line in lines)
        assert sum("fresh" in line for line in lines) == 2
        assert follower.malformed == 0


class TestCompletionSignal:
    def test_not_done_without_manifest(self, tmp_path):
        events = tmp_path / "events-main.jsonl"
        events.write_text(epoch_event(0))
        follower = TraceFollower(tmp_path)
        follower.poll()
        follower.poll()  # drained, but no manifest: the run may still be live
        assert follower.done is False

    def test_done_needs_manifest_and_drained_poll(self, tmp_path):
        events = tmp_path / "events-main.jsonl"
        events.write_text(epoch_event(0))
        (tmp_path / MANIFEST_NAME).write_text("{}")
        follower = TraceFollower(tmp_path)
        follower.poll()  # reads bytes: not yet done
        assert follower.done is False
        follower.poll()  # second poll drains nothing
        assert follower.done is True

    def test_missing_directory_never_done(self, tmp_path):
        follower = TraceFollower(tmp_path / "nope")
        assert follower.poll() == []
        assert follower.done is False


class TestEventHandling:
    def test_run_filter(self, tmp_path):
        events = tmp_path / "events-main.jsonl"
        events.write_text(epoch_event(0, run="keep") + epoch_event(0, run="drop"))
        follower = TraceFollower(tmp_path, run="keep")
        lines = follower.poll()
        assert len(lines) == 1 and "keep" in lines[0]

    def test_run_filter_matches_a_prefix(self, tmp_path):
        # The same filter as ``repro trace --run PREFIX``.
        events = tmp_path / "events-main.jsonl"
        events.write_text(
            epoch_event(0, run="FedL[seed=0]") + epoch_event(0, run="FedAvg[seed=0]")
        )
        lines = TraceFollower(tmp_path, run="FedL").poll()
        assert len(lines) == 1 and lines[0].startswith("FedL[seed=0]  t=   0")

    def test_malformed_lines_skipped_and_counted(self, tmp_path):
        events = tmp_path / "events-main.jsonl"
        events.write_text("{broken\n[1,2]\n" + epoch_event(0))
        follower = TraceFollower(tmp_path)
        assert len(follower.poll()) == 1
        assert follower.malformed == 2

    def test_regret_fit_budget_accumulate(self, tmp_path):
        events = tmp_path / "events-main.jsonl"
        events.write_text(
            event_line("learner.descent", data={"objective": 0.25,
                                                "budget_headroom": 7.5})
            + event_line("learner.ascent", data={"fit_increment": 1.5})
            + epoch_event(0, budget=None)
        )
        follower = TraceFollower(tmp_path)
        lines = [l for l in follower.poll() if "t=" in l]
        assert "objective=0.250" in lines[0]
        assert "fit=1.500" in lines[0]
        assert "budget=7.5" in lines[0]  # falls back to descent headroom

    def test_run_complete_renders_summary(self, tmp_path):
        events = tmp_path / "events-main.jsonl"
        events.write_text(
            epoch_event(0)
            + event_line("run.complete", data={"stop_reason": "budget_exhausted"})
        )
        follower = TraceFollower(tmp_path)
        lines = follower.poll()
        assert any("run complete" in l and "budget_exhausted" in l for l in lines)
        assert follower.runs_completed == 1

    def test_rendering_is_deterministic(self, tmp_path):
        content = (
            epoch_event(0) + epoch_event(1, acc=0.6)
            + event_line("run.complete", data={"stop_reason": "done"})
        )
        outputs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            (d / "events-main.jsonl").write_text(content)
            outputs.append(TraceFollower(d).poll())
        assert outputs[0] == outputs[1]


class TestFollowTrace:
    def test_follows_real_run_to_completion(self, tmp_path, capsys):
        hub = Telemetry.for_directory(tmp_path, run_id="r0")
        with use_telemetry(hub):
            hub.emit(
                "epoch.complete", epoch=0,
                data={"test_accuracy": 0.4, "epoch_latency": 0.1,
                      "remaining_budget": 5.0, "num_quarantined": 0},
            )
            hub.emit("run.complete", epoch=0, data={"stop_reason": "done"})
        hub.finalize(meta={})
        code = follow_trace(tmp_path, poll_s=0.01, sleep=lambda s: None)
        out = capsys.readouterr().out
        assert code == 0
        assert "t=   0" in out
        assert "[follow] complete:" in out

    def test_timeout_without_events_exits_1(self, tmp_path, capsys):
        code = follow_trace(
            tmp_path / "nothing", poll_s=1.0, timeout_s=2.0,
            sleep=lambda s: None,
        )
        assert code == 1
        assert "timeout" in capsys.readouterr().out


@pytest.fixture(scope="module")
def recorded_runs(tmp_path_factory):
    """The bytes of one events file holding two recorded runs."""
    directory = tmp_path_factory.mktemp("two-runs")
    cfg = experiment_config(
        dataset="fmnist", iid=True, budget=60.0, num_clients=4,
        min_participants=2, max_epochs=2,
    )
    hub = Telemetry.for_directory(directory)
    with use_telemetry(hub):
        for name in ("FedL", "FedAvg"):
            with hub.run_scope(f"{name}[seed=0]"):
                policy = make_policy(name, cfg, RngFactory(0).get(f"policy.{name}"))
                run_experiment(policy, cfg)
    hub.close()
    return (directory / "events-main.jsonl").read_bytes()


class TestOneFold:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_read_through_and_byte_polls_fold_alike(
        self, recorded_runs, tmp_path_factory, data
    ):
        prefix = recorded_runs[: data.draw(st.integers(0, len(recorded_runs)))]
        whole = tmp_path_factory.mktemp("whole")
        (whole / "events-main.jsonl").write_bytes(prefix)
        fed = tmp_path_factory.mktemp("fed")
        path = fed / "events-main.jsonl"
        path.write_bytes(b"")
        follower = TraceFollower(fed)
        with path.open("ab", buffering=0) as fh:
            for i in range(len(prefix)):
                fh.write(prefix[i : i + 1])
                follower.poll()
        assert follower.malformed == 0
        assert follower.runs == fold_runs(read_events(whole))

    def test_recording_folds_both_runs(self, recorded_runs, tmp_path):
        (tmp_path / "events-main.jsonl").write_bytes(recorded_runs)
        folds = fold_runs(read_events(tmp_path))
        for run in ("FedL[seed=0]", "FedAvg[seed=0]"):
            assert folds[run].epochs == 2 and folds[run].stop_reason
        assert len(folds["FedL[seed=0]"].fit) == 2
