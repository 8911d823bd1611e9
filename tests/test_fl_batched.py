"""Bit-identity of the batched client engine against the loop reference.

The batched engine's contract is *exact* equality, not approximate: every
GEMM sees the same shapes the per-client path would (equal-length
sub-batching), so swapping ``engine="loop"`` for ``engine="batched"``
must reproduce the same bytes — weights, traces, losses — across every
environment variant (IID, non-IID, crash injection, Markov availability).
"""

from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets.streams import build_client_streams
from repro.datasets.synthetic import ClassConditionalGenerator
from repro.experiments import runner
from repro.experiments.runner import Simulation, run_experiment
from repro.experiments.scenarios import experiment_config, make_policy
from repro.fl.adversary import Adversary
from repro.fl.batched import BatchedClientEngine, batched_local_losses
from repro.fl.client import FLClient, LocalSolveSpec
from repro.fl.round_runner import run_federated_round
from repro.fl.server import FLServer
from repro.nn.models import build_model
from repro.rng import RngFactory, RowSource
from tests.oracle import assert_matches_oracle, stream_state


def tiny_config(variant="plain", seed=0, engine="loop"):
    cfg = experiment_config(
        dataset="fmnist",
        iid=variant != "noniid",
        budget=120.0,
        seed=seed,
        num_clients=8,
        min_participants=3,
        max_epochs=4,
    )
    if variant == "failures":
        cfg = cfg.replace(population=replace(cfg.population, failure_prob=0.3))
    elif variant == "markov":
        cfg = cfg.replace(
            population=replace(cfg.population, availability_model="markov")
        )
    return cfg.replace(training=replace(cfg.training, engine=engine))


def run_with_engine(variant, engine, policy="FedL", seed=0):
    cfg = tiny_config(variant=variant, seed=seed, engine=engine)
    pol = make_policy(policy, cfg, RngFactory(seed).get(f"policy.{policy}"))
    return run_experiment(pol, cfg)


def same_outputs(a, b):
    """Bitwise output equality (configs differ only in the engine field)."""
    return (
        a.stop_reason == b.stop_reason
        and bool(a.trace.equals(b.trace))
        and bool(np.array_equal(a.final_w, b.final_w))
    )


class TestExperimentBitIdentity:
    @pytest.mark.parametrize("variant", ["plain", "noniid", "failures", "markov"])
    def test_batched_matches_loop(self, variant):
        loop = run_with_engine(variant, "loop")
        batched = run_with_engine(variant, "batched")
        assert len(loop.trace) > 0
        assert same_outputs(loop, batched)

    def test_auto_engine_matches_loop(self):
        loop = run_with_engine("plain", "loop")
        auto = run_with_engine("plain", "auto")
        assert same_outputs(loop, auto)


def fresh_setup(seed=777):
    """Model + ragged-data clients + server, fully determined by ``seed``.

    Built from scratch per call so the loop and batched arms see identical
    RNG states (clients consume their stream when subsampling batches).
    Datasets are ragged on purpose: equal-length sub-batching is the part
    of the engine that has to earn its exactness.
    """
    factory = RngFactory(seed)
    gen = ClassConditionalGenerator((6, 6, 1), 4, factory.get("gen"), noise=0.3)
    model = build_model("mlp", 36, 4, factory.get("model"), hidden=(8,))
    clients = [
        FLClient(k, model, factory.get(f"c{k}"), LocalSolveSpec(sgd_steps=4, sgd_lr=0.1))
        for k in range(6)
    ]
    for k, c in enumerate(clients):
        c.set_data(gen.sample(12 + 4 * (k % 3), rng=factory.get(f"d{k}")))
    test = gen.test_set(40, rng=factory.get("test"))
    server = FLServer(model, model.get_params(), test)
    return model, clients, server


class TestRoundBitIdentity:
    def run_round(self, engine):
        _, clients, server = fresh_setup()
        sel = np.array([True, True, False, True, True, False])
        avail = np.ones(6, bool)
        return run_federated_round(
            server, clients, sel, avail, iterations=2, target_eta=0.4,
            engine=engine,
        )

    def test_round_matches_loop(self):
        res_loop = self.run_round("loop")
        res_batched = self.run_round("batched")
        assert np.array_equal(res_loop.w, res_batched.w)
        assert np.array_equal(
            res_loop.local_losses, res_batched.local_losses, equal_nan=True
        )
        assert np.array_equal(
            res_loop.local_etas, res_batched.local_etas, equal_nan=True
        )
        assert res_loop.participant_loss == res_batched.participant_loss

    def test_local_grads_match_loop(self):
        model, clients, server = fresh_setup()
        engine = BatchedClientEngine(model, clients)
        grads = engine.local_grads(server.w)
        for c, g in zip(clients, grads):
            assert np.array_equal(g, c.local_grad(server.w))

    def test_batched_local_losses_match_loop(self):
        model, clients, server = fresh_setup()
        losses = batched_local_losses(model, clients, server.w)
        for c, val in zip(clients, losses):
            assert val == c.local_loss(server.w)

    def test_supported_rejects_unknown_models(self):
        model, clients, _ = fresh_setup()

        class Opaque:
            pass

        assert not BatchedClientEngine.supported(Opaque(), clients)
        assert BatchedClientEngine.supported(model, clients)


# -- the stacked solve against the per-client solve ---------------------------

BATCH = 8
DIM, CLASSES = 12, 3
_GEN = ClassConditionalGenerator((3, 4, 1), CLASSES, np.random.default_rng(5), noise=0.3)


@dataclass(frozen=True)
class SolveCase:
    """One drawn group of clients and the solver settings they share."""

    clients: tuple              # ((num_samples, one_more_step), ...)
    steps: int
    solver: str = "dane"
    momentum: float = 0.0
    target_eta: Optional[float] = None
    seed: int = 0
    # Data drawn by the runner's install (one array pair per sample count,
    # row views per client) instead of one array per client; a label-flip
    # roster poisons some of it there.
    installed: bool = False
    label_flip: bool = False

    def build(self):
        """``(clients, w, ḡ)``, identical on every call: fresh model, data
        and per-client streams as table rows, so a stream exists only once
        its client has drawn a minibatch."""
        factory = RngFactory(self.seed)
        model = build_model("mlp", DIM, CLASSES, factory.get("model"), hidden=(5,))
        rows = factory.rows("c", len(self.clients))
        clients = [
            FLClient(
                k, model, RowSource(rows, k),
                LocalSolveSpec(
                    sgd_steps=self.steps + one_more, sgd_lr=0.1, batch_size=BATCH,
                    local_solver=self.solver, momentum=self.momentum,
                ),
            )
            for k, (_, one_more) in enumerate(self.clients)
        ]
        counts = np.array([n for n, _ in self.clients])
        if self.installed:
            sim = SimpleNamespace(
                clients=clients,
                streams=build_client_streams(
                    _GEN, np.ones((len(clients), CLASSES)), factory
                ),
            )
            adversary = (
                Adversary("label-flip", len(clients), 0.5, factory.get("roster"), factory)
                if self.label_flip
                else None
            )
            runner._install_epoch_data(
                sim, adversary, np.arange(len(clients)), counts, CLASSES,
                np.array([], dtype=int),
            )
        else:
            for k, c in enumerate(clients):
                c.set_data(_GEN.sample(int(counts[k]), rng=factory.get(f"d{k}")))
        w = model.get_params() + 0.1 * factory.get("w").normal(size=model.num_params)
        global_grad = 0.05 * factory.get("g").normal(size=w.size)
        return clients, w, global_grad

    def loop(self, clients, w, global_grad):
        return [
            c.train_iteration(
                w, global_grad, target_eta=self.target_eta,
                start=c.local_grad(w, with_loss=True),
            )
            for c in clients
        ]

    def batched(self, clients, w, global_grad):
        engine = BatchedClientEngine(clients[0].model, clients)
        engine.local_grads(w)
        return engine.train_iteration_all(
            w, global_grad, np.empty((len(clients), w.size)), target_eta=self.target_eta
        )


def client_streams(clients, w, global_grad):
    # Reading ``rng`` creates a stream nobody drew from, in its first state.
    return [stream_state(c.rng) for c in clients]


def check_solve_case(case):
    """Equal ``d`` bytes, η̂, trajectories and per-client stream positions;
    returns the batched side's clients and solves for further assertions."""
    seen = []

    def batched(clients, w, global_grad):
        solves = case.batched(clients, w, global_grad)
        for c in clients:
            # PR 13's contract: no minibatch draw, no generator.
            assert c.rng_created == (c.num_samples > BATCH)
        seen.append((clients, solves))
        return solves

    assert_matches_oracle(case.loop, batched, case.build, state=client_streams)
    return seen[0]


class TestSolveMatchesLoop:
    @given(
        st.builds(
            SolveCase,
            clients=st.lists(
                st.tuples(
                    st.one_of(st.integers(2, 2 * BATCH), st.just(BATCH)), st.booleans()
                ),
                min_size=1,
                max_size=8,
            ).map(tuple),
            steps=st.integers(1, 6),
            solver=st.sampled_from(["dane", "fedprox"]),
            momentum=st.sampled_from([0.0, 0.5, 0.9]),
            target_eta=st.sampled_from([None, 0.3, 0.52, 0.9]),
            seed=st.integers(0, 2**32 - 1),
            installed=st.booleans(),
            label_flip=st.booleans(),
        )
    )
    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_drawn_groups(self, case):
        check_solve_case(case)

    # The situations the rewrite of the stacked solve has to get right, by
    # name, each checked to be the situation it claims to be.
    NAMED = {
        "all_full": SolveCase(((3, False), (7, False), (7, False), (5, False)), steps=4),
        "all_sub": SolveCase(((9, False), (16, False), (9, False)), steps=4),
        "mixed": SolveCase(
            ((12, False), (4, False), (BATCH, False), (9, False), (4, False)), steps=5
        ),
        "exactly_batch_size": SolveCase(((BATCH, False), (BATCH, False)), steps=3),
        "momentum": SolveCase(((6, False), (11, False)), steps=4, momentum=0.9),
        "fedprox": SolveCase(((6, False), (11, False)), steps=4, solver="fedprox"),
        "fedprox_momentum_two_groups": SolveCase(
            ((6, True), (11, False), (11, True), (5, False)),
            steps=3, solver="fedprox", momentum=0.5, target_eta=0.9,
        ),
        "early_stop": SolveCase(
            ((6, False), (11, False), (7, False), (14, False), (6, False)),
            steps=6, target_eta=0.52,
        ),
        "installed_label_flip": SolveCase(
            ((6, False), (11, False), (6, False), (11, False), (4, False), (11, False)),
            steps=5, momentum=0.5, target_eta=0.52, installed=True, label_flip=True,
        ),
    }

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_named_group(self, name):
        case = self.NAMED[name]
        clients, solves = check_solve_case(case)
        sizes = [c.num_samples for c in clients]
        steps_run = [len(traj) - 1 for _, _, traj in solves]
        if name == "mixed":
            assert min(sizes) < BATCH < max(sizes) and BATCH in sizes
        if name == "early_stop":
            # η̂ needs three trajectory points: step 2 is the earliest stop.
            # Here one client takes it and the rest leave one after another,
            # full-batch rows (which carry their gradient) from the middle
            # of the active prefix included.
            assert min(steps_run) == 2
            full = [j for j, n in zip(steps_run, sizes) if n <= BATCH]
            assert len(set(full)) > 1 and len(set(steps_run)) >= 3
        if name in ("early_stop", "installed_label_flip"):
            # A bucket whose every client stops early empties while a
            # later bucket still runs.
            by_count = {}
            for n, j in zip(sizes, steps_run):
                by_count.setdefault(n, []).append(j)
            emptied = [n for n, js in by_count.items() if max(js) < case.steps]
            assert emptied and min(emptied) < max(sizes)
        if case.installed:
            engine = BatchedClientEngine(clients[0].model, clients)
            assert_buckets_are_the_install_arrays(engine)
        if case.label_flip:
            # The roster poisoned some rows of a shared label array.
            honest = SolveCase(case.clients, case.steps, installed=True).build()[0]
            flipped = [
                not np.array_equal(a.data.y, b.data.y) for a, b in zip(clients, honest)
            ]
            assert any(flipped) and not all(flipped)


def assert_buckets_are_the_install_arrays(engine):
    """Every client's ``data.x`` / ``data.y`` is a row of the bucket that
    evaluates it: the engine holds no second copy of installed data."""
    for positions, x, y in engine.buckets:
        for row, pos in enumerate(positions):
            data = engine.participants[pos].data
            assert np.shares_memory(data.x, x) and np.shares_memory(data.y, y)
            assert data.x.base is x and np.array_equal(x[row], data.x)
            assert data.y.base is y and np.array_equal(y[row], data.y)


def count_kernel_rows(engine, monkeypatch):
    """Record the client rows of every ``_evaluate_exact`` call — the batched
    engine's unit of work, one row being one network evaluation."""
    rows = []
    original = engine.kernel._evaluate_exact
    monkeypatch.setattr(
        engine.kernel,
        "_evaluate_exact",
        lambda w, x, *a, **k: rows.append(x.shape[0]) or original(w, x, *a, **k),
    )
    return rows


class TestEveryPointEvaluatedOnceBatched:
    """:mod:`repro.fl.dane`'s evaluation-count contract, on the stacked solve."""

    STEPS = 5

    @pytest.mark.parametrize(
        "sizes, per_solve",
        [
            ((5, 5, 7), 3 * STEPS),                      # full batch: J fused passes
            ((BATCH, BATCH), 2 * STEPS),                 # exactly full: still J
            ((9, 12, 12), 3 * 2 * STEPS),                # minibatch: gradient + value
            ((5, BATCH, 9, 12), 2 * STEPS + 2 * 2 * STEPS),   # one mixed group
        ],
    )
    @pytest.mark.parametrize("swept", ["same point", "other point", "never"])
    def test_rows_per_solve(self, monkeypatch, sizes, per_solve, swept):
        case = SolveCase(tuple((n, False) for n in sizes), steps=self.STEPS)
        clients, w, global_grad = case.build()
        engine = BatchedClientEngine(clients[0].model, clients)
        if swept != "never":
            engine.local_grads(w if swept == "same point" else w + 1.0)
        rows = count_kernel_rows(engine, monkeypatch)
        solves = engine.train_iteration_all(w, global_grad, np.empty((len(sizes), w.size)))
        assert [len(traj) for _, _, traj in solves] == [self.STEPS + 1] * len(sizes)
        # Nothing is evaluated at d = 0 when the sweep covered w; a solve
        # the sweep did not cover pays exactly one sweep of its own.
        own_sweep = 0 if swept == "same point" else len(sizes)
        assert sum(rows) == own_sweep + per_solve

    def test_early_stopped_rows_are_not_evaluated_again(self, monkeypatch):
        case = TestSolveMatchesLoop.NAMED["early_stop"]
        clients, w, global_grad = case.build()
        engine = BatchedClientEngine(clients[0].model, clients)
        engine.local_grads(w)
        rows = count_kernel_rows(engine, monkeypatch)
        solves = engine.train_iteration_all(
            w, global_grad, np.empty((len(clients), w.size)), target_eta=case.target_eta
        )
        expected = sum(
            (len(traj) - 1) * (2 if c.num_samples > BATCH else 1)
            for c, (_, _, traj) in zip(clients, solves)
        )
        assert sum(rows) == expected


# -- the install's arrays are the engine's buckets ------------------------------

#: ``rng.json`` after two batched FedL epochs of :func:`subsampling_config`,
#: as written by the engine that stepped every participant of a round
#: together: running one bucket at a time must leave the same bytes.
FROZEN_RNG_JSON = Path(__file__).parent / "fixtures" / "rng_batched_subsampling_rounds.json"


def subsampling_config():
    """Two batched epochs with full-batch and subsampling contributors
    (counts around ``batch_size``), a label-flip roster and an evaluation
    panel with evaluation-only clients."""
    return experiment_config(
        dataset="fmnist", budget=1e9, seed=5, num_clients=16,
        min_participants=6, max_epochs=2,
    ).override({
        "training.engine": "batched",
        "data.samples_per_client": 30,
        "attack.kind": "label-flip",
        "attack.fraction": 0.25,
        "shard.eval_sample": 8,
    })


def run_subsampling_config():
    cfg = subsampling_config()
    sim = Simulation(cfg)
    run_experiment(
        make_policy("FedL", cfg, RngFactory(cfg.seed).get("cli.policy")), cfg,
        simulation=sim,
    )
    return sim


class TestInstallArraysAreTheBuckets:
    def test_contributors_share_memory_with_their_bucket(self, monkeypatch):
        buckets = []
        init = BatchedClientEngine.__init__

        def checked_init(self, model, participants):
            init(self, model, participants)
            assert_buckets_are_the_install_arrays(self)
            buckets.extend(len(positions) for positions, _, _ in self.buckets)

        monkeypatch.setattr(BatchedClientEngine, "__init__", checked_init)
        run_subsampling_config()
        assert buckets and max(buckets) > 1

    def test_rng_json_is_the_frozen_file(self):
        text = run_subsampling_config().rng.capture()
        # Subsampling clients drew minibatches, first in (count, id) order.
        assert '"fl.client.' in text
        assert text == FROZEN_RNG_JSON.read_text()
