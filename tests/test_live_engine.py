"""End-to-end tests for the live multi-process execution engine.

The headline contract: a fault-free ``engine="live"`` experiment is
**bit-identical** to the reference loop engine — forked workers solve
with the same per-client RNG streams and the server aggregates in the
same ascending-id order, so the only thing that differs is *when*
updates arrive, never what they contain.  Plus the failure semantics
the CLI promises: semantic argument errors exit 2, participation-floor
aborts exit 1, and the calibration report has its documented shape.
"""

import dataclasses
import json
import threading

import numpy as np
import pytest

from repro.cli import main
from repro.config import LiveConfig, SimConfig
from repro.experiments.runner import Simulation, run_experiment
from repro.experiments.scenarios import experiment_config, make_policy
from repro.fl.client import FLClient
from repro.live import LiveRoundSpec, LiveRuntime, run_calibration
from repro.live.protocol import FrameStream, socket_pair
from repro.live.worker import _Worker
from repro.nn.models import build_model
from repro.rng import RngFactory
from repro.sim.faults import ParticipationFloorError, fault_profile

SMALL = dict(budget=150.0, num_clients=6, min_participants=2, max_epochs=3)


def small_config(engine="live", faults="none", **live_kwargs):
    cfg = experiment_config(**SMALL)
    return cfg.replace(
        training=dataclasses.replace(cfg.training, engine=engine),
        sim=dataclasses.replace(cfg.sim, faults=faults),
        live=LiveConfig(**live_kwargs),
    )


def run_engine(engine, faults="none", policy="FedAvg", **live_kwargs):
    cfg = small_config(engine=engine, faults=faults, **live_kwargs)
    pol = make_policy(policy, cfg, RngFactory(cfg.seed).get("cli.policy"))
    return run_experiment(pol, cfg)


class TestBitIdentity:
    def test_fault_free_live_matches_loop(self):
        loop = run_engine("loop")
        live = run_engine("live")
        np.testing.assert_array_equal(loop.final_w, live.final_w)
        assert [r.num_selected for r in loop.trace.records] == [
            r.num_selected for r in live.trace.records
        ]
        np.testing.assert_array_equal(loop.trace.accuracy, live.trace.accuracy)

    def test_fault_free_live_matches_loop_fedl(self):
        loop = run_engine("loop", policy="FedL")
        live = run_engine("live", policy="FedL")
        np.testing.assert_array_equal(loop.final_w, live.final_w)

    def test_live_latency_is_measured_not_closed_form(self):
        loop = run_engine("loop")
        live = run_engine("live")
        loop_lat = [r.epoch_latency for r in loop.trace.records]
        live_lat = [r.epoch_latency for r in live.trace.records]
        assert all(l > 0 for l in live_lat)
        assert loop_lat != live_lat  # wall-clock never equals the formula


class TestFaultedRuns:
    def test_stress_profile_completes_or_aborts_typed(self):
        try:
            result = run_engine("live", faults="stress")
        except ParticipationFloorError:
            return  # small fleets may legally hit the floor
        assert result.trace.records

    def test_flaky_uplink_retries_counted(self):
        result = run_engine("live", faults="flaky-uplink")
        assert result.trace.records
        assert np.all(np.isfinite(result.trace.accuracy))


class TestLiveRuntimeValidation:
    def test_ctor_rejects_bad_args(self):
        with pytest.raises(ValueError):
            LiveRuntime([], num_workers=1)
        clients = _tiny_clients()
        with pytest.raises(ValueError):
            LiveRuntime(clients, num_workers=0)
        with pytest.raises(ValueError):
            LiveRuntime(clients, transport="carrier-pigeon")
        with pytest.raises(ValueError):
            LiveRuntime(clients, chunk_bytes=10)

    def test_spec_validation(self):
        ids = np.arange(3)
        tau = np.full(3, 0.01)
        with pytest.raises(ValueError):
            LiveRoundSpec(ids, tau, tau, iterations=0)
        with pytest.raises(ValueError):
            LiveRoundSpec(ids, tau, tau, iterations=1, time_scale=0.0)
        with pytest.raises(ValueError):
            LiveRoundSpec(ids, tau, tau, iterations=1, aggregation="psychic")

    def test_participation_floor_checked_at_round_start(self):
        clients = _tiny_clients()
        spec = LiveRoundSpec(
            np.arange(2),
            np.full(2, 0.001),
            np.full(2, 0.001),
            iterations=1,
            faults=fault_profile("none"),
            min_participants=3,
        )
        with LiveRuntime(clients, num_workers=1) as rt:
            with pytest.raises(ParticipationFloorError):
                rt.begin_round(spec)

    def test_stochastic_faults_require_rng(self):
        clients = _tiny_clients()
        spec = LiveRoundSpec(
            np.arange(2),
            np.full(2, 0.001),
            np.full(2, 0.001),
            iterations=1,
            faults=fault_profile("stress"),
        )
        with LiveRuntime(clients, num_workers=1) as rt:
            with pytest.raises(ValueError):
                rt.begin_round(spec, rng=None)


def _tiny_clients():
    return Simulation(experiment_config(**SMALL)).clients


class TestCalibration:
    def test_report_structure_and_identity(self, tmp_path):
        cfg = experiment_config(
            budget=120.0, num_clients=5, min_participants=2, max_epochs=2
        )
        report = run_calibration(
            cfg, policy="FedAvg", profiles=("none",), include_async=False
        )
        assert report.bit_identical is True
        assert [r.profile for r in report.rows] == ["none"]
        row = report.rows[0]
        assert row.epochs_des == row.epochs_live == 2
        assert row.live_latency > 0 and row.des_latency > 0
        out = tmp_path / "report.json"
        report.save(out)
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert payload["bit_identical"] is True
        assert len(payload["rows"]) == 1
        assert "ratio" in payload["rows"][0]
        rendered = report.render()
        assert "bit-identity: PASS" in rendered
        assert "none" in rendered

    @pytest.mark.parametrize("sim", [
        SimConfig(aggregation="deadline", deadline_s=0.02),
        SimConfig(aggregation="async", quorum=1),
    ])
    def test_async_cell_built_from_any_aggregation(self, monkeypatch, sim):
        """The appended async-quorum cell replaces the config's own
        barrier policy, so a deadline or quorum it set cannot make that
        cell's config invalid."""
        seen = []

        def stub(cfg, policy, engine):
            seen.append((engine, cfg.sim))
            return None, "stub"

        monkeypatch.setattr("repro.live.calibrate._run_engine", stub)
        cfg = experiment_config(**SMALL).replace(sim=sim)
        report = run_calibration(cfg, policy="FedAvg", profiles=("none",))
        assert [r.aggregation for r in report.rows] == [sim.aggregation, "async"]
        assert seen[-1] == (
            "live", SimConfig(aggregation="async", quorum=SMALL["min_participants"])
        )


class TestCliLive:
    LIVE = ["run", "--set", "training.engine=live"]
    COMMON = LIVE + [
        "--clients", "6", "--participants", "2", "--epochs", "2", "--budget", "150",
    ]

    def test_semantic_validation_exits_2(self, capsys):
        assert main(self.LIVE + ["--set", "live.workers=0"]) == 2
        assert main(self.LIVE + ["--set", "live.time_scale=0"]) == 2
        assert main(self.LIVE + ["--set", "live.round_timeout_s=-1"]) == 2
        assert main(["run", "--profiles", "none"]) == 2         # needs --calibrate
        assert main(["run", "--calibrate", "--param", "d=3"]) == 2
        err = capsys.readouterr().err
        assert "workers must be >= 1" in err
        assert "--profiles only applies with --calibrate" in err

    def test_run_exits_0(self, capsys):
        assert main(self.COMMON) == 0
        out = capsys.readouterr().out
        assert "engine=live" in out
        assert "final_accuracy=" in out

    def test_floor_abort_exits_1(self, capsys):
        rc = main(
            [
                *self.LIVE, "--clients", "4", "--participants", "4",
                "--epochs", "4", "--budget", "500", "--set", "sim.faults=stress",
            ]
        )
        assert rc == 1
        assert "participation floor" in capsys.readouterr().err.lower()


class TestWorkerModelClones:
    """A worker never clones a model: its solves run one at a time on one
    compute thread, so no two of them can race on shared layers."""

    @staticmethod
    def worker_models(name, **model_kwargs):
        model = build_model(name, 64, 3, np.random.default_rng(0), **model_kwargs)
        clients = {
            cid: FLClient(cid, model, np.random.default_rng(cid)) for cid in range(3)
        }
        ours, theirs = socket_pair()
        try:
            _Worker(FrameStream(ours), clients, chunk_bytes=1024, heartbeat_s=0)
        finally:
            ours.close()
            theirs.close()
        return model, [client.model for client in clients.values()]

    def test_dense_fleet_keeps_sharing_one_model(self):
        model, seen = self.worker_models("mlp", hidden=(8,))
        assert model.kernel is not None
        assert all(m is model for m in seen)

    def test_cnn_fleet_shares_one_model(self):
        model, seen = self.worker_models("cnn", image_shape=(8, 8, 1))
        assert model.kernel is None
        assert all(m is model for m in seen)

    def test_shared_cnn_live_matches_loop(self):
        """The sharing checked end to end: a CNN fleet trained through one
        worker's shared ``Module`` equals the loop engine bit for bit."""
        runs = {}
        for engine in ("loop", "live"):
            cfg = small_config(engine=engine, workers=1, time_scale=0.01)
            cfg = cfg.replace(
                training=dataclasses.replace(cfg.training, model="cnn"),
                max_epochs=2,
            )
            sim = Simulation(cfg)
            assert sim.model.kernel is None  # the Module path
            pol = make_policy("FedAvg", cfg, RngFactory(cfg.seed).get("cli.policy"))
            runs[engine] = run_experiment(pol, cfg, simulation=sim)
        np.testing.assert_array_equal(runs["loop"].final_w, runs["live"].final_w)


def test_worker_holds_only_its_latest_shipment():
    """An owned client the install frame does not list drops its data."""
    model = build_model("logreg", 4, 3, np.random.default_rng(0))
    clients = {cid: FLClient(cid, model, np.random.default_rng(cid)) for cid in range(3)}
    x, y = np.zeros((2, 4)), np.zeros(2, dtype=int)
    ours, theirs = socket_pair()
    worker = _Worker(FrameStream(ours), clients, chunk_bytes=1024, heartbeat_s=0)
    serving = threading.Thread(target=worker.run)
    serving.start()
    server = FrameStream(theirs)
    try:
        for shipment in ([0, 1], [1, 2]):
            arrays = {f"{k}{cid}": v for cid in shipment for k, v in (("x", x), ("y", y))}
            server.send({"cmd": "install", "clients": shipment}, arrays)
            assert server.recv()[0] == {"cmd": "ok", "re": "install"}
    finally:
        server.send({"cmd": "stop"})
        serving.join(10.0)
        ours.close()
        theirs.close()
    assert not serving.is_alive()
    with pytest.raises(RuntimeError, match="no data this epoch"):
        clients[0].data
    assert [len(clients[cid].data) for cid in (1, 2)] == [2, 2]
