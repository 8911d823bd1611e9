"""Event schema: emit → JSONL → parse round trip, validation, jsonify."""

import json
import math

import numpy as np
import pytest

from repro.obs import (
    TELEMETRY_SCHEMA_VERSION,
    Event,
    EventReader,
    canonical_line,
    event_to_line,
    jsonify,
    read_events,
    strip_volatile,
    validate_event_dict,
)


def parse(line):
    return Event.from_dict(json.loads(line))


def make_event(**overrides):
    base = dict(
        kind="epoch.start",
        seq=7,
        run="FedL[seed=0]",
        worker="main",
        epoch=3,
        data={"num_available": 5, "remaining_budget": 80.0},
        wall=1700000000.25,
        dur=0.125,
    )
    base.update(overrides)
    return Event(**base)


class TestJsonify:
    def test_numpy_scalars_and_arrays(self):
        out = jsonify({"a": np.int64(3), "b": np.float64(0.5), "c": np.arange(3)})
        assert out == {"a": 3, "b": 0.5, "c": [0, 1, 2]}
        assert type(out["a"]) is int and type(out["b"]) is float

    def test_non_finite_floats_become_strings(self):
        assert jsonify(float("nan")) == "nan"
        assert jsonify(float("inf")) == "inf"
        assert jsonify(float("-inf")) == "-inf"
        # The result is strict-JSON encodable.
        json.dumps(jsonify({"x": [np.nan, np.inf]}), allow_nan=False)

    def test_nested_structures(self):
        out = jsonify({"sel": (np.bool_(True), [np.float32(1.5)])})
        assert out == {"sel": [True, [1.5]]}

    def test_unserializable_raises(self):
        with pytest.raises(TypeError):
            jsonify(object())


class TestRoundTrip:
    def test_emit_serialize_parse_round_trip(self):
        event = make_event()
        line = event_to_line(event)
        parsed = parse(line)
        assert parsed == event

    def test_line_is_single_json_object_with_versioned_shape(self):
        payload = json.loads(event_to_line(make_event()))
        assert payload["v"] == TELEMETRY_SCHEMA_VERSION
        assert set(payload) == {
            "v", "seq", "kind", "run", "worker", "epoch", "data", "ts",
        }
        assert set(payload["ts"]) == {"wall", "dur"}

    def test_null_epoch_and_dur_round_trip(self):
        event = make_event(epoch=None, dur=None)
        parsed = parse(event_to_line(event))
        assert parsed.epoch is None and parsed.dur is None

    def test_measured_values_round_trip_under_ts(self):
        event = make_event(measured={"solve_wall_s": 0.75})
        payload = json.loads(event_to_line(event))
        assert payload["ts"] == {"wall": event.wall, "dur": event.dur,
                                 "solve_wall_s": 0.75}
        assert parse(event_to_line(event)) == event
        assert canonical_line(event_to_line(event)) == canonical_line(
            event_to_line(make_event())
        )

    def test_read_events_orders_by_worker_then_seq(self, tmp_path):
        for worker, seqs in (("b", [0, 1]), ("a", [0])):
            path = tmp_path / f"events-{worker}.jsonl"
            lines = [
                event_to_line(make_event(worker=worker, seq=s)) for s in seqs
            ]
            path.write_text("\n".join(lines) + "\n")
        events = read_events(tmp_path)
        assert [(e.worker, e.seq) for e in events] == [("a", 0), ("b", 0), ("b", 1)]


class TestValidation:
    def test_accepts_valid_event(self):
        validate_event_dict(json.loads(event_to_line(make_event())))

    @pytest.mark.parametrize("mutation", [
        {"v": 999},
        {"seq": -1},
        {"seq": "0"},
        {"kind": None},
        {"epoch": "three"},
        {"data": []},
        {"ts": None},
        {"ts": {"wall": "now", "dur": None}},
        {"ts": {"wall": 0.0}},
    ])
    def test_rejects_malformed(self, mutation):
        payload = json.loads(event_to_line(make_event()))
        payload.update(mutation)
        with pytest.raises(ValueError):
            validate_event_dict(payload)

    def test_parse_rejects_garbage_line(self, tmp_path):
        (tmp_path / "events-main.jsonl").write_text("{not json\n")
        reader = EventReader(tmp_path)
        assert reader.poll() == []
        assert reader.malformed == 1


class TestDeterministicCanonicalization:
    def test_strip_volatile_drops_only_ts(self):
        payload = json.loads(event_to_line(make_event()))
        stripped = strip_volatile(payload)
        assert "ts" not in stripped
        assert set(stripped) == set(payload) - {"ts"}

    def test_canonical_line_ignores_timestamps(self):
        a = event_to_line(make_event(wall=1.0, dur=0.5))
        b = event_to_line(make_event(wall=999.0, dur=None))
        assert a != b
        assert canonical_line(a) == canonical_line(b)

    def test_canonical_line_distinguishes_content(self):
        a = event_to_line(make_event(data={"x": 1}))
        b = event_to_line(make_event(data={"x": 2}))
        assert canonical_line(a) != canonical_line(b)
