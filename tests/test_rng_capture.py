"""The incremental RNG capture behind every snapshot's ``rng.json``.

A capture re-reads only the streams long-lived holders keep (``get``) and
the per-client streams called through their deferred source since the
previous capture; every other stream reuses its cached entry.  Two
contracts hold that together:

* **Same bytes.**  At every snapshot, on every engine, ``rng.json`` is
  exactly what a full re-read of every stream (overlaid with the live
  workers' states) would encode at that moment.  The oracle below *is* that
  full re-read; a holder that keeps its generator instead of calling its
  source breaks it, and the mutant test shows the oracle notices.
* **Cost follows draws.**  The number of state reads per capture is
  bounded by the streams touched since the last capture plus the held
  streams, and does not grow with the epoch index while the number of
  streams does.
"""

import dataclasses

import numpy as np
import pytest

import repro.rng
from repro.checkpoint import resume_experiment
from repro.config import AttackConfig, CheckpointConfig, DefenseConfig, ShardConfig
from repro.datasets.streams import ClientDataStream
from repro.experiments.runner import Simulation, run_experiment
from repro.experiments.scenarios import experiment_config, make_policy
from repro.fl.privacy import DPSpec
from repro.fl.round_runner import run_federated_round
from repro.rng import DeferredStream, RngFactory
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

    def test_dp_noise_on_the_client_stream(self, oracle_captures):
        """DP without a dedicated stream draws its noise from
        ``client.rng``: rounds run directly, one capture after each."""
        cfg = small_config("loop", num_clients=5)
        cfg = cfg.replace(training=dataclasses.replace(cfg.training, batch_size=4))
        sim = Simulation(cfg)
        dp = DPSpec(clip_norm=1.0, noise_multiplier=0.5)
        k = len(sim.clients)
        for round_index in range(4):
            chosen = np.zeros(k, bool)
            chosen[[round_index % k, (round_index + 2) % k]] = True
            for c in np.flatnonzero(chosen):
                sim.clients[c].set_data(sim.streams[c].draw(12))
            run_federated_round(
                sim.server, sim.clients, chosen, chosen, 2, engine="loop",
                dp_spec=dp, dp_rng=None,
            )
            sim.rng.capture()
        assert len(oracle_captures) == 4
        for expected, captured in oracle_captures:
            assert captured == expected
        assert '"fl.client.' in oracle_captures[-1][1]

    def test_a_holder_that_keeps_its_generator_is_caught(
        self, monkeypatch, tmp_path, oracle_captures
    ):
        """The mutant: a ClientDataStream that stores the generator its
        deferred source returned (and so never touches the factory again)
        leaves stale entries that the oracle catches."""

        def kept_rng(self):
            if not isinstance(self._rng, np.random.Generator):
                self._rng = self._rng()
            return self._rng

        monkeypatch.setattr(ClientDataStream, "rng", property(kept_rng))
        run_with_snapshots(small_config("loop"), tmp_path)
        assert any(expected != captured for expected, captured in oracle_captures)


class TestCaptureCost:
    def test_reads_follow_the_streams_drawn_since_the_last_capture(
        self, monkeypatch, tmp_path
    ):
        """K=400, a snapshot every epoch: each capture reads at most the
        streams touched since the last one plus the held ones, and that
        stays flat while the population of created streams grows."""
        reads, touched, held, rows = [0], set(), set(), []

        read_state = repro.rng._read_state

        def counted_read(gen):
            reads[0] += 1
            return read_state(gen)

        call, get, capture = DeferredStream.__call__, RngFactory.get, RngFactory.capture

        def recorded_call(self):
            touched.add(self.key)
            return call(self)

        def recorded_get(self, key):
            held.add(key)
            return get(self, key)

        def counted_capture(self, overlay=None):
            reads[0] = 0
            written = capture(self, overlay)
            rows.append((reads[0], len(touched | held), len(self._streams)))
            touched.clear()
            return written

        monkeypatch.setattr(repro.rng, "_read_state", counted_read)
        monkeypatch.setattr(DeferredStream, "__call__", recorded_call)
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
        for epoch, (n_reads, bound, _streams) in enumerate(rows):
            assert n_reads <= bound, f"epoch {epoch}: {n_reads} reads > {bound}"
        per_capture = [n_reads for n_reads, _, _ in rows]
        assert max(per_capture[15:]) <= max(per_capture[:15]), per_capture
        # Meanwhile the run created far more streams than any capture read.
        assert rows[-1][2] > 5 * max(per_capture), rows[-1]
