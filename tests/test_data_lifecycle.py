"""A client holds its local data for one round.

The experiment loop installs D_{t,k} once per epoch, after selection, on
exactly the clients the round reads — the contributors and the end-of-round
loss sweep — and releases it when the round returns.  Only the
contributors' data is drawn at install; a client the sweep evaluates
without contributing draws its own inside the sweep.  Nothing between the
old eager install point (before selection) and this one reads client data,
and every ``data.client.<k>`` stream is per client, so the move changes no
byte: the digests below were recorded from the two-path loop this replaced.
"""

import dataclasses
import hashlib
import json
import weakref

import numpy as np
import pytest

import repro.experiments.runner as runner
from repro.config import AttackConfig, LiveConfig, ShardConfig
from repro.experiments.runner import Simulation, run_experiment
from repro.experiments.scenarios import experiment_config, make_policy
from repro.rng import RngFactory


def holds_data(client) -> bool:
    try:
        client.data
    except RuntimeError:
        return False
    return True


def held_bytes(clients) -> int:
    return sum(c.data.x.nbytes + c.data.y.nbytes for c in clients if holds_data(c))


class HoldingsAtSelect:
    """Policy wrapper recording, at every ``select``, how many clients hold
    data."""

    def __init__(self, inner, clients) -> None:
        self.inner = inner
        self.clients = clients
        self.counts = []

    def select(self, ctx):
        self.counts.append(sum(map(holds_data, self.clients)))
        return self.inner.select(ctx)

    def update(self, feedback) -> None:
        self.inner.update(feedback)


def policy_for(name, cfg, **params):
    return make_policy(name, cfg, RngFactory(cfg.seed).get("cli.policy"), params=params)


def with_panel(cfg, eval_sample):
    return cfg.replace(shard=ShardConfig(eval_sample=eval_sample))


def digest(result) -> str:
    """``perf/checks.py``'s ``trace_sha256``: final weights + trace."""
    records = [vars(r) for r in result.trace.records]
    trace = json.dumps(records, sort_keys=True).encode()
    return hashlib.sha256(result.final_w.tobytes() + trace).hexdigest()


def small_config(engine="auto"):
    cfg = experiment_config(
        budget=400.0, num_clients=12, min_participants=3, max_epochs=6, seed=3
    )
    return cfg.replace(
        training=dataclasses.replace(cfg.training, engine=engine),
        live=LiveConfig(workers=2, time_scale=0.01, round_timeout_s=20.0),
    )


class TestOneRoundLifetime:
    @pytest.mark.parametrize(
        "engine, eval_sample",
        [("auto", None), ("auto", 4), ("des", None), ("live", None)],
    )
    def test_nobody_holds_data_at_select_or_after_the_run(self, engine, eval_sample):
        cfg = with_panel(small_config(engine), eval_sample)
        sim = Simulation(cfg)
        policy = HoldingsAtSelect(policy_for("FedAvg", cfg), sim.clients)
        result = run_experiment(policy, cfg, simulation=sim)
        assert len(policy.counts) == len(result.trace) == cfg.max_epochs
        assert policy.counts == [0] * cfg.max_epochs
        for client in sim.clients:
            with pytest.raises(RuntimeError, match="no data this epoch"):
                client.data

    def test_held_bytes_do_not_grow_with_the_run(self):
        """K=2000 with a 50-client panel: every epoch draws a fresh panel,
        so a client that kept its last dataset would make the held bytes
        grow with the number of distinct clients ever drawn."""

        def held_after(epochs):
            cfg = with_panel(
                experiment_config(
                    budget=1e9, num_clients=2000, min_participants=20,
                    max_epochs=epochs, seed=0, model="logreg",
                ),
                50,
            )
            sim = Simulation(cfg)
            run_experiment(policy_for("FedAvg", cfg), cfg, simulation=sim)
            return held_bytes(sim.clients)

        assert held_after(5) == held_after(20) == 0


#: ``digest`` of each case at seed 3, recorded from the loop that installed
#: before selection when ``eval_sample`` was None and after it otherwise.
DIGESTS = {
    ("failures", None): "14e162939f941b1c2e8a3ad158036ee88abbfec2dd39a06e048ffea5b293139e",
    ("failures", 4): "fcfd4d020179b743f7b3f1a1fdd80ce3cf16c03d43546b37bd37660f97a11776",
    ("quorum", None): "ae726a958a8c81e9175cd4fe25185dfc2f2a8a8836209c87e27835c206842e15",
    ("quorum", 4): "5f528e2a8f3db0b290bae209d3deb64cc4a81edde716b57dee42730ca7ee750a",
    ("label_flip", None): "0d4859ce1b4e21ab1d6f78c3dfca23d29628d8844e8139596448838dd02ccc45",
    ("label_flip", 4): "42d0132a76c819038b2b3bdf8ae8b56253a8ea482908e2b07b5b9b7d85ff03f1",
    ("markov", None): "745870ddb43d3a2df07c8937683f89c56399574a7844c343bea54bce10aa9b1f",
    ("markov", 4): "73549bd6f9976d1a2b513e93a3526d3363a396126cf5c1092408a4f50551ed43",
}


def case_run(case, eval_sample):
    cfg = with_panel(small_config(), eval_sample)
    if case == "failures":
        cfg = cfg.replace(
            population=dataclasses.replace(cfg.population, failure_prob=0.3)
        )
    elif case == "label_flip":
        cfg = cfg.replace(attack=AttackConfig("label-flip", 0.3))
    elif case == "markov":
        cfg = cfg.replace(
            population=dataclasses.replace(
                cfg.population, availability_model="markov"
            )
        )
    if case == "quorum":
        policy = policy_for("OverSelect", cfg, extra=2)
    else:
        policy = policy_for("FedL", cfg)
    return cfg, policy


@pytest.mark.parametrize("case, eval_sample", sorted(DIGESTS, key=str))
def test_installed_set_is_the_swept_set(case, eval_sample, monkeypatch):
    """One install per epoch, on exactly the clients whose loss the round
    sweeps, in the cases where the two old install points sat furthest
    apart; same bytes as the old loop.  The contributors draw at install;
    every other swept client is installed with the draw the sweep makes."""
    drawn, deferred, contributors, sweeps = [], [], [], []
    install, play = runner._install_epoch_data, runner.run_federated_round

    def recording_install(sim, adversary, ids, counts, num_classes, eval_only):
        drawn.append(sorted(int(k) for k in ids))
        deferred.append(sorted(int(k) for k in eval_only))
        install(sim, adversary, ids, counts, num_classes, eval_only)

    def recording_round(server, clients, selected, *args, **kwargs):
        contributors.append(np.flatnonzero(selected).tolist())
        result = play(server, clients, selected, *args, **kwargs)
        sweeps.append(np.flatnonzero(~np.isnan(result.local_losses)).tolist())
        return result

    monkeypatch.setattr(runner, "_install_epoch_data", recording_install)
    monkeypatch.setattr(runner, "run_federated_round", recording_round)
    cfg, policy = case_run(case, eval_sample)
    result = run_experiment(policy, cfg)
    assert len(drawn) == len(result.trace) > 0
    assert drawn == contributors
    assert [sorted(a + b) for a, b in zip(drawn, deferred)] == sweeps
    assert not any(set(a) & set(b) for a, b in zip(drawn, deferred))
    assert digest(result) == DIGESTS[case, eval_sample]


#: ``digest`` of a label-flip run with a 12-client panel at K=40, seed 5,
#: recorded at the commit that still drew every panel client's data at
#: install: evaluation-only clients drawn inside the sweep (poisoned there
#: when compromised) must give the same bytes on both in-process paths.
PANEL_DIGEST = "ec8e75f28e1e4abe977569192a8a644b43136bcaa2425580bbff67bc543f3d53"


@pytest.mark.parametrize("engine", ["loop", "batched"])
def test_label_flip_panel_bytes_are_pinned(engine):
    cfg = experiment_config(
        budget=400.0, num_clients=40, min_participants=4, max_epochs=6, seed=5
    )
    cfg = cfg.replace(
        training=dataclasses.replace(cfg.training, engine=engine),
        attack=AttackConfig("label-flip", 0.3),
        shard=ShardConfig(eval_sample=12),
    )
    result = run_experiment(policy_for("FedL", cfg), cfg)
    assert len(result.trace) == 6
    assert digest(result) == PANEL_DIGEST


class DrawLedger:
    """Which drawn datasets are alive, client by client.

    A draw with no buffer owns its array and holds data until that array
    is freed.  A draw into a caller's buffer holds its rows until the
    buffer is freed or another draw into it starts before they end — the
    sweep overwriting them, or starting its next bucket.
    """

    def __init__(self) -> None:
        self.entries = []  # (weakref to the owning array, first byte, end byte)

    def add(self, x: np.ndarray) -> None:
        owner = x if x.base is None else x.base
        lo = x.__array_interface__["data"][0]
        # Rows of this buffer that end after the new draw starts are
        # overwritten or belong to a bucket the sweep has moved past.
        self.entries = [
            (ref, a, b)
            for ref, a, b in self.entries
            if ref() is not None and not (ref() is owner and b > lo)
        ]
        self.entries.append((weakref.ref(owner), lo, lo + x.nbytes))

    def alive(self) -> int:
        self.entries = [e for e in self.entries if e[0]() is not None]
        return len(self.entries)


class TestSweepHoldsOneBucket:
    """During the end-of-round loss sweep at most (contributors + the
    largest bucket of swept clients with one sample count) clients hold
    data at any moment: the contributors draw at install, every other swept
    client inside the sweep — per client on the loop path, one bucket at a
    time into one buffer on the batched path."""

    @pytest.mark.parametrize("eval_sample", [None, 4])
    @pytest.mark.parametrize("engine", ["loop", "batched", "des", "live"])
    def test_held_clients_during_the_sweep(self, engine, eval_sample, monkeypatch):
        import repro.fl.round_runner as round_runner
        from repro.datasets.streams import ClientDataStream
        from repro.fl.client import FLClient
        from repro.nn.kernel import BatchedSequentialKernel
        from repro.nn.models import ClassifierModel

        ledger = DrawLedger()
        in_sweep = [0]
        peaks, bounds = [], []

        def sample():
            if in_sweep[0]:
                peaks[-1] = max(peaks[-1], ledger.alive())

        def wrap(owner, name, before=None, after=None):
            original = getattr(owner, name)

            def wrapped(*args, **kwargs):
                if before is not None:
                    before(*args, **kwargs)
                result = original(*args, **kwargs)
                if after is not None:
                    after(result)
                return result

            monkeypatch.setattr(owner, name, wrapped)

        def sweep(owner, name):
            original = getattr(owner, name)

            def wrapped(*args, **kwargs):
                in_sweep[0] += 1
                try:
                    return original(*args, **kwargs)
                finally:
                    in_sweep[0] -= 1

            monkeypatch.setattr(owner, name, wrapped)

        def drawn(data):
            ledger.add(data.x)
            sample()

        wrap(ClientDataStream, "draw", after=drawn)
        wrap(ClassifierModel, "loss", before=lambda *a, **k: sample())
        wrap(BatchedSequentialKernel, "_evaluate_exact", before=lambda *a, **k: sample())
        sweep(FLClient, "local_loss")
        sweep(round_runner, "batched_local_losses")

        play = runner.run_federated_round

        def bounded_round(server, clients, selected, available, *args, **kwargs):
            swept = np.asarray(available, dtype=bool)
            if kwargs.get("eval_mask") is not None:
                swept &= kwargs["eval_mask"] | selected
            counts = [clients[k].num_samples for k in np.flatnonzero(swept)]
            largest_bucket = max(counts.count(n) for n in set(counts))
            bounds.append(int(np.sum(selected)) + largest_bucket)
            peaks.append(0)
            return play(server, clients, selected, available, *args, **kwargs)

        monkeypatch.setattr(runner, "run_federated_round", bounded_round)
        cfg = with_panel(small_config(engine), eval_sample)
        result = run_experiment(policy_for("FedL", cfg), cfg)
        assert len(peaks) == len(result.trace) == cfg.max_epochs
        assert min(peaks) > 0  # the sweep was observed in every epoch
        assert all(p <= b for p, b in zip(peaks, bounds)), (peaks, bounds)
