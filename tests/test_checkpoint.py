"""Checkpoint/resume contract: crash drills, bit-identity, torn writes.

The invariant under test everywhere in this file: resuming a run from a
round-granular snapshot produces results *bit-identical* to the same run
never having been interrupted — final weights byte-equal, traces equal
(modulo measured wall-time fields for the live engine).  The crash-drill
tests use :func:`tests.crashsmoke.run_crash_resume_smoke`, which SIGKILLs
a forked victim mid-experiment (the worst case: no atexit sweep, possibly
a torn staging dir) and recovers from whatever survived.  Snapshots must
also stay cheap: at most 2% of the run they observe.
"""

import dataclasses
import hashlib
import io
import json
import os
import signal
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.checkpoint import (
    CheckpointError,
    ExperimentInterrupted,
    latest_snapshot_path,
    load_snapshot,
    prepare_checkpoint_dir,
    resume_experiment,
)
from repro.config import (
    AttackConfig,
    CheckpointConfig,
    DefenseConfig,
    LiveConfig,
    ShardConfig,
)
from repro.env.state import ClientStateArrays
from repro.experiments.runner import Simulation, run_experiment
from repro.experiments.scenarios import experiment_config, make_policy
from repro.fl.client import FLClient
from repro.obs import Telemetry, use_telemetry
from repro.rng import RngFactory
from tests.crashsmoke import run_crash_resume_smoke
from tests.oracle import independent_stream, stream_state

SMALL = dict(budget=200.0, seed=0, num_clients=8, min_participants=2, max_epochs=12)

ENGINES = ("loop", "batched", "des", "live")


def small_config(engine="loop", **overrides):
    params = dict(SMALL)
    sections = {
        key: overrides.pop(key) for key in ("attack", "defense") if key in overrides
    }
    params.update(overrides)
    cfg = experiment_config(**params)
    if sections:
        cfg = cfg.replace(**sections)
    cfg = cfg.replace(training=dataclasses.replace(cfg.training, engine=engine))
    if engine == "live":
        cfg = cfg.replace(
            live=LiveConfig(
                workers=2, time_scale=0.01, transport="unix", round_timeout_s=30.0
            )
        )
    return cfg


def fedl(cfg):
    return make_policy("FedL", cfg, RngFactory(cfg.seed).get("cli.policy"))


class TestCrashResumeAllEngines:
    """SIGKILL at an arbitrary epoch, recover, match the uninterrupted run."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_crash_resume_bit_identical(self, engine, tmp_path):
        report = run_crash_resume_smoke(
            small_config(engine), workdir=tmp_path, interval=3, smoke_seed=0
        )
        assert report["killed_by_sigkill"], report
        assert report["final_w_equal"], report
        assert report["traces_equal"], report
        assert report["ok"]


class TestSnapshotCost:
    """Snapshots every 10 epochs cost at most 2% of an otherwise identical
    run and leave it bit-identical.

    A wall-clock A/B cannot resolve the few tens of milliseconds snapshots
    add to a run of this size, so the runner's own ``checkpoint.write``
    timer measures them in situ; the best of three runs absorbs scheduler
    jitter.  The snapshots go to a memory-backed directory where the host
    has one: on a shared virtual disk, other tenants' I/O alone moved the
    same code between 1.5% and 2.9%, while in memory it read 1.1-1.7%.
    """

    def test_snapshots_cost_under_2pct_and_change_nothing(self, tmp_path):
        base = experiment_config(
            budget=9000.0, seed=0, num_clients=20, min_participants=5, max_epochs=40
        )
        reference = run_experiment(fedl(base), base)
        shm = Path("/dev/shm")
        fractions = []
        for _ in range(3):
            with tempfile.TemporaryDirectory(
                dir=shm if shm.is_dir() else tmp_path
            ) as directory:
                cfg = base.replace(
                    checkpoint=CheckpointConfig(directory=directory, interval=10)
                )
                hub = Telemetry(sink=io.StringIO())
                started = time.perf_counter()
                with use_telemetry(hub):
                    result = run_experiment(fedl(cfg), cfg)
                wall_s = time.perf_counter() - started
            assert result.final_w.tobytes() == reference.final_w.tobytes()
            assert result.trace.equals(reference.trace)
            stat = hub.registry.timers["checkpoint.write"]
            assert stat.count == 4
            fractions.append(stat.total_s / (wall_s - stat.total_s))
        assert min(fractions) <= 0.02, fractions


class TestResumeUnderAttack:
    """Adversary roster and defense state both live in the snapshot: a
    run resumed mid-attack must replay identically."""

    def attack_config(self):
        return small_config(
            budget=400.0,
            max_epochs=16,
            attack=AttackConfig(kind="sign-flip", fraction=0.25),
            defense=DefenseConfig(aggregator="median"),
        )

    def test_crash_resume_with_sign_flip_adversary(self, tmp_path):
        report = run_crash_resume_smoke(
            self.attack_config(), workdir=tmp_path, interval=3, smoke_seed=1
        )
        assert report["ok"], report

    def test_mid_run_snapshot_resumes_bit_identically(self, tmp_path):
        """No crash at all: resume from an *intermediate* snapshot of a
        completed run (keep= large so it survives pruning) and compare
        against the uninterrupted reference — including the quarantine
        column the defense EWMAs drive."""
        cfg = self.attack_config()
        reference = run_experiment(fedl(cfg), cfg)

        ckpt_dir = tmp_path / "ck"
        ckpt_cfg = cfg.replace(
            checkpoint=CheckpointConfig(directory=str(ckpt_dir), interval=4, keep=100)
        )
        run_experiment(fedl(ckpt_cfg), ckpt_cfg)
        mid = ckpt_dir / "epoch_00000008"
        assert mid.is_dir(), sorted(p.name for p in ckpt_dir.iterdir())

        resumed = resume_experiment(
            mid, checkpoint_override=CheckpointConfig(directory=None)
        )
        assert resumed.final_w.tobytes() == reference.final_w.tobytes()
        assert resumed.trace.equals(reference.trace)
        assert [r.num_quarantined for r in resumed.trace.records] == [
            r.num_quarantined for r in reference.trace.records
        ]


class TestCorruptSnapshots:
    """Any torn, missing, or tampered snapshot content is a typed
    CheckpointError (the CLI's unrecoverable exit-1), never garbage."""

    def checkpointed_run(self, tmp_path):
        ckpt_dir = tmp_path / "ck"
        cfg = small_config().replace(
            checkpoint=CheckpointConfig(directory=str(ckpt_dir), interval=4, keep=2)
        )
        run_experiment(fedl(cfg), cfg)
        return ckpt_dir

    def test_bit_flip_fails_checksum(self, tmp_path):
        ckpt_dir = self.checkpointed_run(tmp_path)
        snap = latest_snapshot_path(ckpt_dir)
        target = snap / "state.npz"
        blob = bytearray(target.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        target.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            load_snapshot(ckpt_dir)
        with pytest.raises(CheckpointError):
            resume_experiment(ckpt_dir)

    def test_missing_payload_file(self, tmp_path):
        ckpt_dir = self.checkpointed_run(tmp_path)
        (latest_snapshot_path(ckpt_dir) / "policy.pkl").unlink()
        with pytest.raises(CheckpointError, match="missing"):
            load_snapshot(ckpt_dir)

    def test_manifest_must_checksum_every_payload(self, tmp_path):
        """A payload the manifest does not list is a payload nobody
        verified: dropping rng.json from ``files`` (with a state digit
        changed in it), or the whole table, must not load."""
        ckpt_dir = self.checkpointed_run(tmp_path)
        snap = latest_snapshot_path(ckpt_dir)
        manifest_path = snap / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        text = (snap / "rng.json").read_text()
        digit = text.index('"state": {"state": ') + len('"state": {"state": ')
        flipped = "1" if text[digit] != "1" else "2"
        (snap / "rng.json").write_text(text[:digit] + flipped + text[digit + 1:])
        del manifest["files"]["rng.json"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="missing: rng.json"):
            load_snapshot(ckpt_dir)
        del manifest["files"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(
            CheckpointError,
            match="missing: model.npz, policy.pkl, rng.json, state.npz, trace.json",
        ):
            load_snapshot(ckpt_dir)

    def test_unreadable_manifest(self, tmp_path):
        ckpt_dir = self.checkpointed_run(tmp_path)
        (latest_snapshot_path(ckpt_dir) / "manifest.json").write_text("{tor")
        with pytest.raises(CheckpointError, match="manifest"):
            load_snapshot(ckpt_dir)

    def test_empty_directory(self, tmp_path):
        with pytest.raises(CheckpointError, match="no snapshots"):
            latest_snapshot_path(tmp_path)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(CheckpointError, match="no such checkpoint"):
            latest_snapshot_path(tmp_path / "nope")


class TestTornWriteHygiene:
    def test_stale_staging_litter_swept_and_resume_survives(self, tmp_path):
        """A writer SIGKILLed mid-stage leaves ``.stage_*`` dirs and
        mkstemp ``.*.tmp`` files; reopening the directory sweeps them and
        the last *committed* snapshot still resumes."""
        ckpt_dir = tmp_path / "ck"
        cfg = small_config().replace(
            checkpoint=CheckpointConfig(directory=str(ckpt_dir), interval=4, keep=2)
        )
        reference = run_experiment(fedl(cfg), cfg)

        stage = ckpt_dir / ".stage_epoch_00000099.tmp12345"
        stage.mkdir()
        (stage / "model.npz").write_bytes(b"torn")
        (ckpt_dir / ".LATEST.abc123.tmp").write_text("torn pointer")

        swept = prepare_checkpoint_dir(ckpt_dir)
        assert not stage.exists()
        assert not (ckpt_dir / ".LATEST.abc123.tmp").exists()
        assert swept == ckpt_dir

        resumed = resume_experiment(
            ckpt_dir, checkpoint_override=CheckpointConfig(directory=None)
        )
        assert resumed.final_w.tobytes() == reference.final_w.tobytes()
        assert resumed.trace.equals(reference.trace)

    def test_orphaned_commit_beats_stale_pointer(self, tmp_path):
        """Crash between ``os.replace`` of the snapshot and the LATEST
        pointer update: the newest manifest on disk wins."""
        ckpt_dir = self.run_keep_all(tmp_path)
        (ckpt_dir / "LATEST").write_text("epoch_00000004")
        snap = latest_snapshot_path(ckpt_dir)
        assert snap.name > "epoch_00000004"

    def run_keep_all(self, tmp_path):
        ckpt_dir = tmp_path / "ck"
        cfg = small_config().replace(
            checkpoint=CheckpointConfig(directory=str(ckpt_dir), interval=4, keep=100)
        )
        run_experiment(fedl(cfg), cfg)
        return ckpt_dir


class SigtermPolicy:
    """Picklable wrapper that SIGTERMs its own process at ``fire_epoch``
    (top of select — mirrors CrashingPolicy, but catchable)."""

    def __init__(self, inner, fire_epoch):
        self.inner = inner
        self.fire_epoch = fire_epoch

    def __getattr__(self, attr):
        if attr == "inner" or attr.startswith("__"):
            raise AttributeError(attr)
        return getattr(self.inner, attr)

    def select(self, ctx):
        if self.fire_epoch is not None and ctx.t >= self.fire_epoch:
            os.kill(os.getpid(), signal.SIGTERM)
            self.fire_epoch = None
        return self.inner.select(ctx)

    def update(self, feedback):
        self.inner.update(feedback)


class TestSignalFlush:
    def test_sigterm_flushes_snapshot_and_resume_matches(self, tmp_path):
        """SIGTERM mid-run → the epoch in flight completes, a final
        snapshot lands, ExperimentInterrupted carries the resume
        location, and the resumed tail is bit-identical."""
        cfg = small_config()
        reference = run_experiment(fedl(cfg), cfg)

        ckpt_dir = tmp_path / "ck"
        ckpt_cfg = cfg.replace(
            checkpoint=CheckpointConfig(directory=str(ckpt_dir), interval=3, keep=2)
        )
        fire_epoch = 7
        policy = SigtermPolicy(fedl(ckpt_cfg), fire_epoch)
        with pytest.raises(ExperimentInterrupted) as excinfo:
            run_experiment(policy, ckpt_cfg)
        err = excinfo.value
        assert err.signal_name == "SIGTERM"
        assert err.directory == str(ckpt_dir)
        assert err.next_epoch == fire_epoch + 1
        # The flush is a *snapshot*, not just the interval write: the
        # newest snapshot on disk is for the interrupted epoch boundary.
        assert latest_snapshot_path(ckpt_dir).name == f"epoch_{err.next_epoch:08d}"

        resumed = resume_experiment(
            ckpt_dir, checkpoint_override=CheckpointConfig(directory=None)
        )
        assert resumed.final_w.tobytes() == reference.final_w.tobytes()
        assert resumed.trace.equals(reference.trace)


class TestSnapshotManifest:
    def test_manifest_checksums_cover_every_payload_file(self, tmp_path):
        ckpt_dir = tmp_path / "ck"
        cfg = small_config().replace(
            checkpoint=CheckpointConfig(directory=str(ckpt_dir), interval=4, keep=2)
        )
        run_experiment(fedl(cfg), cfg)
        snap = latest_snapshot_path(ckpt_dir)
        manifest = json.loads((snap / "manifest.json").read_text())
        on_disk = {p.name for p in snap.iterdir()}
        assert set(manifest["files"]) | {"manifest.json"} >= on_disk
        assert manifest["next_epoch"] >= 1

    def test_state_npz_holds_exactly_the_client_state_arrays(self, tmp_path):
        ckpt_dir = tmp_path / "ck"
        cfg = small_config().replace(
            checkpoint=CheckpointConfig(directory=str(ckpt_dir), interval=4, keep=1)
        )
        run_experiment(fedl(cfg), cfg)
        snap = latest_snapshot_path(ckpt_dir)
        per_client = set(ClientStateArrays.__slots__) - {"num_clients"}
        with np.load(snap / "state.npz") as npz:
            assert set(npz.files) == per_client | {
                "final_w", "prices_current", "shadow_db",
            }
            for name in per_client:
                assert npz[name].shape == (cfg.population.num_clients,), name
        assert "dp" not in json.loads((snap / "manifest.json").read_text())
        assert '"fl.dp"' not in (snap / "rng.json").read_text()

    def test_prune_keeps_newest(self, tmp_path):
        ckpt_dir = tmp_path / "ck"
        cfg = small_config().replace(
            checkpoint=CheckpointConfig(directory=str(ckpt_dir), interval=2, keep=2)
        )
        run_experiment(fedl(cfg), cfg)
        snaps = sorted(
            p.name for p in ckpt_dir.iterdir() if p.name.startswith("epoch_")
        )
        assert len(snaps) == 2
        assert (ckpt_dir / "LATEST").read_text().strip() == snaps[-1]


class TestLazyClientStreams:
    """Per-client RNG streams exist from their first draw on, so set-up
    and snapshots pay for the clients that have drawn, not the population;
    a stream first drawn after a resume is recreated from seed and key."""

    def sampled_config(self, **overrides):
        cfg = small_config(
            "batched", budget=1e6, num_clients=60, model="logreg", **overrides
        )
        return cfg.replace(shard=ShardConfig(eval_sample=4))

    def test_setup_creates_the_same_streams_at_any_population(self):
        small, large = (
            Simulation(small_config(num_clients=k)).rng.state_dict()
            for k in (50, 500)
        )
        assert set(small) == set(large)
        assert not any(".client." in key for key in small)

    def test_client_first_drawn_after_resume_matches_uninterrupted(self, tmp_path):
        cfg = self.sampled_config()
        reference = run_experiment(fedl(cfg), cfg)

        ckpt_dir = tmp_path / "ck"
        ckpt_cfg = cfg.replace(
            checkpoint=CheckpointConfig(directory=str(ckpt_dir), interval=3, keep=100)
        )
        run_experiment(fedl(ckpt_cfg), ckpt_cfg)
        mid, last = (
            {
                key
                for key in json.loads((ckpt_dir / name / "rng.json").read_text())
                if key.startswith("data.client.")
            }
            for name in ("epoch_00000006", "epoch_00000012")
        )
        everyone = {f"data.client.{k}" for k in range(60)}
        assert mid < everyone, "every client drew before the mid-run snapshot"
        assert last - mid, "no client was first drawn after the resume point"

        resumed = resume_experiment(
            ckpt_dir / "epoch_00000006",
            checkpoint_override=CheckpointConfig(directory=None),
        )
        assert resumed.final_w.tobytes() == reference.final_w.tobytes()
        assert resumed.trace.equals(reference.trace)

    def test_client_built_from_a_plain_generator(self):
        """The unit-test construction path: a ready Generator is its own
        already-created stream."""
        sim = Simulation(small_config())
        gen = np.random.default_rng(3)
        client = FLClient(0, sim.model, gen)
        assert client.rng_created and client.rng is gen
        assert not sim.clients[0].rng_created
        client.set_data(sim.streams[0].draw(24))
        w = sim.model.get_params()
        d, eta_hat, _ = client.train_iteration(w, client.local_grad(w))
        assert d.shape == w.shape and np.isfinite(d).all() and 0.0 <= eta_hat <= 1.0
        assert stream_state(sim.clients[0].rng) == stream_state(
            independent_stream(sim.rng.seed, "fl.client.0")
        )
        assert sim.clients[0].rng_created


class TestCliResumeContract:
    """Exit-code contract: bad arguments are usage errors (2); a
    resolvable-but-unrecoverable checkpoint is a runtime failure (1)."""

    def cli(self, argv):
        from repro.cli import main

        return main(argv)

    def test_resume_nonexistent_dir_is_usage_error(self, tmp_path):
        assert self.cli(["run", "--resume", str(tmp_path / "nope")]) == 2

    def test_bad_interval_is_usage_error(self, tmp_path):
        assert (
            self.cli(
                [
                    "run",
                    "--checkpoint-dir",
                    str(tmp_path),
                    "--set",
                    "checkpoint.interval=0",
                ]
            )
            == 2
        )

    def test_resume_with_a_drifted_rng_state_is_runtime_error(self, tmp_path, capsys):
        """A checksum-valid rng.json whose stream state the bit generator
        rejects (here: no ``inc``) is an unrecoverable checkpoint, named,
        not a traceback."""
        ckpt_dir = TestCorruptSnapshots().checkpointed_run(tmp_path)
        snap = latest_snapshot_path(ckpt_dir)
        states = json.loads((snap / "rng.json").read_text())
        key = next(key for key in states if key.startswith("data.client."))
        del states[key]["state"]["inc"]
        payload = json.dumps(states).encode()
        (snap / "rng.json").write_bytes(payload)
        manifest = json.loads((snap / "manifest.json").read_text())
        manifest["files"]["rng.json"] = hashlib.sha256(payload).hexdigest()
        (snap / "manifest.json").write_text(json.dumps(manifest))
        assert self.cli(["run", "--resume", str(ckpt_dir)]) == 1
        err = capsys.readouterr().err
        assert "repro: cannot resume:" in err and repr(key) in err, err
        assert "Traceback" not in err

    def test_resume_corrupt_dir_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "ck"
        bad.mkdir()
        (bad / "LATEST").write_text("epoch_00000004")
        assert self.cli(["run", "--resume", str(bad)]) == 1
        assert "cannot resume" in capsys.readouterr().err
