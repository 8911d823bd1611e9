"""The incremental RNG capture behind every snapshot's ``rng.json``.

A capture re-reads only the streams long-lived holders keep (``get``) and
the per-client rows called through their source since the previous
capture; every other stream reuses its cached entry.  Two
contracts hold that together:

* **Same bytes.**  At every snapshot, on every engine, ``rng.json`` is
  exactly what a full re-read of every stream (overlaid with the live
  workers' states) would encode at that moment.  The oracle below *is* that
  full re-read; a source call that does not mark its stream for the next
  capture breaks it, and the mutant test shows the oracle notices.
* **Cost follows draws.**  The number of entries encoded per capture is
  bounded by the streams touched since the last capture plus the held
  streams, and does not grow with the epoch index while the number of
  streams does.
"""

import dataclasses
import json

import pytest

import repro.rng
from repro.checkpoint import resume_experiment
from repro.config import AttackConfig, CheckpointConfig, DefenseConfig, ShardConfig
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import experiment_config, make_policy
from repro.rng import RngFactory, RowSource, StreamRows
from tests.oracle import full_read
from tests.test_checkpoint import fedl, small_config


@pytest.fixture
def oracle_captures(monkeypatch):
    """Patch :meth:`RngFactory.capture` to record, at each call, the
    full-read oracle (:func:`tests.oracle.full_read`) taken at the same
    moment and what the capture wrote."""
    pairs = []
    capture = RngFactory.capture

    def checked(self, overlay=None):
        expected = full_read(self, overlay)
        written = capture(self, overlay)
        pairs.append((expected, written))
        return written

    monkeypatch.setattr(RngFactory, "capture", checked)
    return pairs


def snapshots(ckpt_dir):
    return sorted(ckpt_dir.glob("epoch_*"))


def run_with_snapshots(cfg, tmp_path):
    """Snapshot ``cfg`` every epoch, keeping every snapshot, then resume
    from the middle one (also snapshotting every epoch); returns the
    ``rng.json`` text of each snapshot of both legs, oldest first."""
    every_epoch = dict(interval=1, keep=1000)
    first, second = tmp_path / "ck", tmp_path / "resumed"
    cfg = cfg.replace(checkpoint=CheckpointConfig(directory=str(first), **every_epoch))
    run_experiment(fedl(cfg), cfg)
    written = snapshots(first)
    resume_experiment(
        written[len(written) // 2],
        checkpoint_override=CheckpointConfig(directory=str(second), **every_epoch),
    )
    return [(snap / "rng.json").read_text() for snap in written + snapshots(second)]


CONFIGS = {
    "loop": lambda: small_config("loop"),
    "batched": lambda: small_config("batched"),
    "des": lambda: small_config("des"),
    "live": lambda: small_config("live"),
    "sign-flip+trimmed-mean": lambda: small_config(
        "loop",
        budget=400.0,
        attack=AttackConfig(kind="sign-flip", fraction=0.25),
        defense=DefenseConfig(aggregator="trimmed-mean"),
    ),
}


class TestCaptureOracle:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_every_snapshot_equals_a_full_re_read(self, name, tmp_path, oracle_captures):
        written = run_with_snapshots(CONFIGS[name](), tmp_path)
        assert len(written) >= 4
        assert len(oracle_captures) == len(written)
        for i, ((expected, captured), on_disk) in enumerate(
            zip(oracle_captures, written)
        ):
            assert captured == on_disk, f"snapshot {i}: rng.json is not the capture"
            assert on_disk == expected, f"snapshot {i}: capture differs from a full read"
        # Every snapshot holds per-client streams: cached entries were in play.
        assert all('"data.client.' in text for text in written)

    def test_a_call_that_skips_the_touch_mark_is_caught(
        self, monkeypatch, tmp_path, oracle_captures
    ):
        """The mutant: a row source that loads its row without marking it
        for the next capture (so a row drawn again keeps the entry of its
        first capture) leaves stale entries that the oracle catches."""

        def unmarked_call(self):
            rows = self._rows
            return rows.gen if rows.holder == self.row else rows.load(self.row)

        monkeypatch.setattr(RowSource, "__call__", unmarked_call)
        run_with_snapshots(small_config("loop"), tmp_path)
        assert any(expected != captured for expected, captured in oracle_captures)


class TestCaptureCost:
    def test_reads_follow_the_streams_drawn_since_the_last_capture(
        self, monkeypatch, tmp_path
    ):
        """K=400, a snapshot every epoch: each capture encodes at most the
        streams touched since the last one plus the held ones, and that
        stays flat while the population of created streams grows."""
        encodes, touched, held, rows = [0], set(), set(), []

        entry = repro.rng._entry

        def counted_entry(key, state):
            encodes[0] += 1
            return entry(key, state)

        call, create = RowSource.__call__, StreamRows.create
        get, capture = RngFactory.get, RngFactory.capture

        def recorded_call(self):
            touched.add(f"{self._rows.family}.{self.row}")
            return call(self)

        def recorded_create(self, k):
            touched.add(f"{self.family}.{k}")
            return create(self, k)

        def recorded_get(self, key):
            held.add(key)
            return get(self, key)

        def counted_capture(self, overlay=None):
            encodes[0] = 0
            written = capture(self, overlay)
            rows.append((encodes[0], len(touched | held), len(json.loads(written))))
            touched.clear()
            return written

        monkeypatch.setattr(repro.rng, "_entry", counted_entry)
        monkeypatch.setattr(RowSource, "__call__", recorded_call)
        monkeypatch.setattr(StreamRows, "create", recorded_create)
        monkeypatch.setattr(RngFactory, "get", recorded_get)
        monkeypatch.setattr(RngFactory, "capture", counted_capture)

        cfg = experiment_config(
            num_clients=400, min_participants=4, budget=1e9, max_epochs=30,
            seed=0, model="logreg",
        )
        cfg = cfg.replace(
            training=dataclasses.replace(cfg.training, engine="batched"),
            shard=ShardConfig(eval_sample=20),
            checkpoint=CheckpointConfig(directory=str(tmp_path / "ck"), interval=1),
        )
        run_experiment(make_policy("FedAvg", cfg, RngFactory(0).get("p")), cfg)

        assert len(rows) == 30
        for epoch, (n_encodes, bound, _streams) in enumerate(rows):
            assert n_encodes <= bound, f"epoch {epoch}: {n_encodes} encodes > {bound}"
        per_capture = [n_encodes for n_encodes, _, _ in rows]
        assert max(per_capture[15:]) <= max(per_capture[:15]), per_capture
        # Meanwhile the run created far more streams than any capture read.
        assert rows[-1][2] > 5 * max(per_capture), rows[-1]
