"""Live-runtime supervision: heartbeats, worker death, restart, degradation.

The contract under test: SIGKILLing (or wedging) a forked client worker
mid-experiment must never hang the run.  The runtime's pump treats EOF /
torn frames as a death signal, the heartbeat watchdog catches silent
wedges, and a died worker is restarted from its last checkpointed
client-RNG state with bounded retries.  When too many of a round's
clients die with the worker, the run degrades to the typed
:class:`ParticipationFloorError` (the CLI's exit-1 path) instead of
waiting out the barrier.
"""

import dataclasses
import os
import signal

import pytest

from repro.config import LiveConfig
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import experiment_config, make_policy
from repro.live.protocol import FrameStream
from repro.live.runtime import LiveRuntime
from repro.rng import RngFactory
from repro.sim.faults import ParticipationFloorError


def live_config(min_participants=2, **live_kwargs):
    cfg = experiment_config(
        budget=400.0,
        num_clients=8,
        min_participants=min_participants,
        max_epochs=4,
    )
    live = dict(
        workers=2,
        time_scale=0.01,
        round_timeout_s=20.0,
        worker_heartbeat_s=0.1,
        restart_backoff_s=0.01,
    )
    live.update(live_kwargs)
    return cfg.replace(
        training=dataclasses.replace(cfg.training, engine="live"),
        live=LiveConfig(**live),
    )


def run_hooked(cfg, hook, policy="FedCS", monkeypatch=None):
    """Run the experiment with ``hook(runtime, spec, holder)`` called at
    the top of every ``begin_round``; returns (result, holder)."""
    holder = {}
    orig = LiveRuntime.begin_round

    def begin_round(self, spec, rng=None):
        holder["runtime"] = self
        hook(self, spec, holder)
        return orig(self, spec, rng)

    monkeypatch.setattr(LiveRuntime, "begin_round", begin_round)
    pol = make_policy(policy, cfg, RngFactory(cfg.seed).get("cli.policy"))
    result = run_experiment(pol, cfg)
    return result, holder


class TestWorkerDeath:
    def test_sigkill_with_floor_headroom_restarts_and_completes(
        self, monkeypatch
    ):
        """Kill worker 1 at a round where enough clients live elsewhere:
        the round absorbs the casualties, the worker restarts, the run
        finishes normally."""
        cfg = live_config()

        def hook(runtime, spec, holder):
            if holder.get("killed") or not runtime._pids:
                return
            pid = runtime._pids[1]
            if pid is None:
                return
            owned1 = [
                int(c) for c in spec.client_ids
                if runtime.owner_of(int(c)) == 1
            ]
            keep = len(spec.client_ids) - len(owned1)
            if owned1 and keep >= spec.min_participants:
                os.kill(pid, signal.SIGKILL)
                holder["killed"] = True

        result, holder = run_hooked(cfg, hook, monkeypatch=monkeypatch)
        assert holder.get("killed"), "kill condition never arose"
        runtime = holder["runtime"]
        assert runtime.worker_deaths_total >= 1
        assert runtime.worker_restarts_total >= 1
        assert len(result.trace) == cfg.max_epochs

    def test_permadead_worker_degrades_to_floor_error(self, monkeypatch):
        """With restarts exhausted (budget 0) and a floor the surviving
        worker cannot cover alone, the run raises the typed floor error
        instead of hanging on the barrier."""
        cfg = live_config(min_participants=5, max_worker_restarts=0)

        def hook(runtime, spec, holder):
            if holder.get("killed") or not runtime._pids:
                return
            pid = runtime._pids[1]
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                holder["killed"] = True

        with pytest.raises(ParticipationFloorError):
            run_hooked(cfg, hook, monkeypatch=monkeypatch)

    def test_wedged_worker_caught_by_heartbeat_watchdog(self, monkeypatch):
        """SIGSTOP produces no EOF — only the heartbeat staleness check
        can notice.  The watchdog must kill and restart the wedged worker
        well inside the round timeout."""
        cfg = live_config(worker_stale_s=0.5)

        def hook(runtime, spec, holder):
            if holder.get("wedged") or not runtime._pids:
                return
            pid = runtime._pids[1]
            owned1 = [
                int(c) for c in spec.client_ids
                if runtime.owner_of(int(c)) == 1
            ]
            keep = len(spec.client_ids) - len(owned1)
            if pid is not None and owned1 and keep >= spec.min_participants:
                os.kill(pid, signal.SIGSTOP)
                holder["wedged"] = True

        result, holder = run_hooked(cfg, hook, monkeypatch=monkeypatch)
        assert holder.get("wedged"), "wedge condition never arose"
        runtime = holder["runtime"]
        assert runtime.worker_deaths_total >= 1
        assert runtime.worker_restarts_total >= 1
        assert len(result.trace) == cfg.max_epochs

    def test_death_counters_surface_in_round_telemetry(self, monkeypatch):
        """The per-round outcome carries death/restart deltas (these feed
        the live.* telemetry events)."""
        cfg = live_config()
        outcomes = []
        orig_finish = None

        from repro.live.runtime import LiveRound

        orig_finish = LiveRound.finish

        def finish(self):
            outcome = orig_finish(self)
            outcomes.append(outcome)
            return outcome

        monkeypatch.setattr(LiveRound, "finish", finish)

        def hook(runtime, spec, holder):
            if holder.get("killed") or not runtime._pids:
                return
            pid = runtime._pids[1]
            owned1 = [
                int(c) for c in spec.client_ids
                if runtime.owner_of(int(c)) == 1
            ]
            keep = len(spec.client_ids) - len(owned1)
            if pid is not None and owned1 and keep >= spec.min_participants:
                os.kill(pid, signal.SIGKILL)
                holder["killed"] = True

        run_hooked(cfg, hook, monkeypatch=monkeypatch)
        assert sum(o.worker_deaths for o in outcomes) >= 1
        assert sum(o.worker_restarts for o in outcomes) >= 1

    def test_respawn_reships_only_this_epochs_shipment(self, monkeypatch):
        """Kill worker 1 at an epoch >= 2 whose contributors are not all
        it was ever shipped: its replacement's ``install`` frame must list
        exactly that epoch's contributors it owns."""
        cfg = live_config().replace(max_epochs=6)
        ever_shipped = set()   # every client the parent shipped to worker 1
        respawn_installs = []
        respawning = False
        orig_install = LiveRuntime.install_data
        orig_send = FrameStream.send
        orig_respawn = LiveRuntime._respawn_worker

        def install_data(self, datasets):
            ever_shipped.update(c for c in datasets if self.owner_of(c) == 1)
            return orig_install(self, datasets)

        def send(self, meta, arrays=None):
            if meta.get("cmd") == "install" and respawning:
                respawn_installs.append(list(meta["clients"]))
            return orig_send(self, meta, arrays)

        def respawn(self, idx):
            nonlocal respawning
            respawning = True
            try:
                orig_respawn(self, idx)
            finally:
                respawning = False

        monkeypatch.setattr(LiveRuntime, "install_data", install_data)
        monkeypatch.setattr(FrameStream, "send", send)
        monkeypatch.setattr(LiveRuntime, "_respawn_worker", respawn)

        def hook(runtime, spec, holder):
            pid = runtime._pids[1] if runtime._pids else None
            if holder.get("killed") or runtime.rounds_started < 2 or pid is None:
                return
            owned1 = sorted(
                int(c) for c in spec.client_ids if runtime.owner_of(int(c)) == 1
            )
            keep = len(spec.client_ids) - len(owned1)
            if owned1 and keep >= spec.min_participants and ever_shipped > set(owned1):
                os.kill(pid, signal.SIGKILL)
                holder["killed"] = owned1

        result, holder = run_hooked(cfg, hook, monkeypatch=monkeypatch)
        assert holder.get("killed"), "kill condition never arose"
        assert respawn_installs == [holder["killed"]]
        assert len(result.trace) == cfg.max_epochs
