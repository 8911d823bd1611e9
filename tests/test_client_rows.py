"""Clients as rows: the population is a validated ``(K, C)`` matrix, its
label-cdf table, the RNG factory's per-client state tables and one
:class:`~repro.fl.client.LocalSolveSpec`; a client's objects are built
when an epoch reads its index and go when the epoch releases them.

The per-row constructor this replaced is kept in ``tests/oracle.py``; the
matrix path must give every client the same bytes it gave, raise where it
raised, and leave no per-client object behind its epoch.
"""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.runner as runner
from repro.config import ShardConfig
from repro.datasets.partition import (
    dirichlet_class_distributions,
    iid_class_distributions,
    non_iid_class_distributions,
)
from repro.datasets.streams import ClientDataStream, build_client_streams
from repro.datasets.synthetic import ClassConditionalGenerator
from repro.experiments.runner import Simulation, run_experiment
from repro.experiments.scenarios import experiment_config, make_policy
from repro.fl.client import FLClient, LocalSolveSpec
from repro.rng import RngFactory
from tests.oracle import PerGeneratorRngFactory, assert_same, per_row_client_streams

GENERATORS = {
    c: ClassConditionalGenerator((3, 4, 1), c, np.random.default_rng(c))
    for c in (2, 5, 10)
}


def class_matrix(kind, k, c, seed):
    """A ``(k, c)`` class-distribution matrix of the given kind."""
    rng = np.random.default_rng(seed)
    if kind == "iid":
        return iid_class_distributions(k, c)
    if kind == "dirichlet":  # small alpha: most rows near one-hot
        return dirichlet_class_distributions(k, c, rng, alpha=0.05)
    if kind == "non_iid":
        return non_iid_class_distributions(
            k, c, rng, principal_frac=0.9, principal_classes=1
        )
    if kind == "zeros":  # exact zeros in every row, one positive entry kept
        dists = rng.random((k, c)) * (rng.random((k, c)) < 0.4)
        dists[np.arange(k), rng.integers(0, c, k)] += rng.random(k) + 1e-3
        return dists
    if kind == "scaled":  # unnormalised rows over many orders of magnitude
        return rng.random((k, c)) * 10.0 ** rng.integers(-300, 300, (k, 1))
    # "fortran": the same matrix in column-major order
    return np.asfortranarray(rng.dirichlet(np.ones(c), size=k))


matrices = st.tuples(
    st.sampled_from(["iid", "dirichlet", "non_iid", "zeros", "scaled", "fortran"]),
    st.integers(1, 40),
    st.sampled_from(sorted(GENERATORS)),
    st.integers(0, 2**32 - 1),
)


class TestMatrixPath:
    @given(matrices, st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_rows_match_the_per_row_constructor(self, case, n):
        kind, k, c, seed = case
        gen = GENERATORS[c]
        dists = class_matrix(kind, k, c, seed)
        old = per_row_client_streams(gen, dists, PerGeneratorRngFactory(seed))
        new = build_client_streams(gen, dists, RngFactory(seed))
        assert len(new) == len(old) == k
        for row in range(k):
            cdf = gen.label_cdf(old[row].class_probs)
            assert_same(cdf, new.label_cdf[row], f"label_cdf[{row}]")
        # First draw: the dataset it returns.
        for row in {0, k // 2, k - 1}:
            cdf = gen.label_cdf(old[row].class_probs)
            expected = gen.sample_from_cdf(n, cdf, old[row]._rng())
            got = new[row].draw(n)
            assert_same(expected.x, got.x, f"x[{row}]")
            assert_same(expected.y, got.y, f"y[{row}]")

    @pytest.mark.parametrize("kind", ["iid", "dirichlet", "non_iid"])
    def test_ten_thousand_partitioner_rows(self, kind):
        gen = GENERATORS[10]
        dists = class_matrix(kind, 10_000, 10, seed=7)
        old = per_row_client_streams(gen, dists, PerGeneratorRngFactory(0))
        new = build_client_streams(gen, dists, RngFactory(0))
        assert_same(np.stack([gen.label_cdf(s.class_probs) for s in old]), new.label_cdf)

    @given(matrices, st.sampled_from(["negative", "zero_row"]), st.data())
    @settings(max_examples=50, deadline=None)
    def test_bad_rows_raise_what_they_raised(self, case, defect, data):
        kind, k, c, seed = case
        gen = GENERATORS[c]
        dists = np.array(class_matrix(kind, k, c, seed))
        row = data.draw(st.integers(0, k - 1))
        if defect == "negative":
            dists[row, data.draw(st.integers(0, c - 1))] = -data.draw(
                st.floats(1e-300, 1e6)
            )
        else:
            dists[row] = 0.0
        with pytest.raises(ValueError) as old:
            per_row_client_streams(gen, dists, PerGeneratorRngFactory(seed))
        with pytest.raises(ValueError) as new:
            build_client_streams(gen, dists, RngFactory(seed))
        assert str(new.value) == str(old.value)


def tiny_config(**overrides):
    return experiment_config(
        budget=1e9, num_clients=12, min_participants=3, max_epochs=3, seed=0, **overrides
    )


class TestSimulationRejects:
    @pytest.mark.parametrize(
        "bad",
        [
            lambda m, c: np.where(np.arange(c) == 0, -0.1, 1.0) * np.ones((m, c)),
            lambda m, c: np.vstack([np.zeros((1, c)), np.ones((m - 1, c))]),
            lambda m, c: np.ones((m, c + 1)),
            lambda m, c: np.ones(c),
        ],
        ids=["negative_entry", "all_zero_row", "wrong_columns", "not_a_matrix"],
    )
    def test_bad_class_matrix_raises_at_construction(self, bad, monkeypatch):
        monkeypatch.setattr(runner, "iid_class_distributions", bad)
        with pytest.raises(ValueError):
            Simulation(tiny_config())

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("local_sgd_steps", 0, "local_sgd_steps >= 1"),
            ("sgd_lr", 0.0, "sgd_lr must be positive"),
            ("sigma1", -1.0, "sigmas must be >= 0"),
            ("sigma2", -1.0, "sigmas must be >= 0"),
            ("local_solver", "scaffold", "unknown local_solver"),
            ("momentum", 1.0, "momentum in \\[0,1\\)"),
            ("momentum", -0.1, "momentum in \\[0,1\\)"),
        ],
    )
    def test_bad_training_solver_field_raises_as_before(self, field, value, message):
        cfg = tiny_config()
        with pytest.raises(ValueError, match=f"^{message}$"):
            dataclasses.replace(cfg.training, **{field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("sgd_steps", 0, "sgd_steps must be >= 1"),
            ("sgd_lr", 0.0, "sgd_lr must be positive"),
            ("local_solver", "scaffold", "unknown local solver 'scaffold'"),
            ("momentum", 1.0, "momentum must be in \\[0, 1\\)"),
        ],
    )
    def test_bad_spec_field_raises_what_the_client_raised(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            LocalSolveSpec(**{field: value})

    def test_spec_is_the_training_config(self):
        training = tiny_config().training
        spec = LocalSolveSpec.from_config(training)
        assert (spec.sgd_steps, spec.sgd_lr, spec.sigma1, spec.sigma2) == (
            training.local_sgd_steps, training.sgd_lr, training.sigma1, training.sigma2,
        )
        assert (spec.batch_size, spec.local_solver, spec.momentum) == (
            training.batch_size, training.local_solver, training.momentum,
        )


def live_instances(model):
    """This simulation's ``FLClient``s (they share its model) and every
    ``ClientDataStream`` alive."""
    gc.collect()
    objects = gc.get_objects()
    clients = {o.client_id for o in objects if type(o) is FLClient and o.model is model}
    streams = sum(type(o) is ClientDataStream for o in objects)
    return clients, streams


class TestObjectsAtFirstTouch:
    def test_a_client_is_one_object_per_epoch(self):
        sim = Simulation(tiny_config())
        assert len(sim.clients) == len(sim.streams) == 12
        first = sim.clients[3]
        assert sim.clients[np.int64(3)] is first is sim.clients[-9]
        assert first.client_id == 3 and first.spec is sim.clients[4].spec
        assert not first.rng_created
        # A stream is built for the draw that reads it, over row k.
        stream = sim.streams[5]
        assert stream is not sim.streams[5] and stream._label_cdf is not None
        assert_same(sim.streams.label_cdf[5], stream._label_cdf)
        with pytest.raises(IndexError):
            sim.clients[12]
        with pytest.raises(TypeError):
            sim.clients[1:3]
        assert [c.client_id for c in sim.clients] == list(range(12))
        sim.clients.release()
        assert sim.clients[3] is not first

    def test_set_up_builds_no_client_at_k_1e5(self):
        _, streams_before = live_instances(None)
        sim = Simulation(
            experiment_config(
                budget=1e9, num_clients=100_000, min_participants=100, max_epochs=3,
                seed=0, model="logreg",
            )
        )
        clients, streams = live_instances(sim.model)
        assert clients == set() and streams == streams_before
        assert len(sim.clients) == len(sim.streams) == 100_000

    def test_no_client_object_outlives_its_epoch(self, monkeypatch):
        """K=2000 for 10 epochs with a 400-client panel: most clients are
        drawn, yet each epoch builds an ``FLClient`` only for the clients it
        installs, after the run no ``FLClient`` or ``ClientDataStream`` is
        alive, and the run retains at most 128 B per client beyond set-up.
        A generator, client, stream, source and label cdf kept per touched
        client held about 1.7 kB each."""
        k = 2_000
        # Preallocated, so nothing traced grows: per client, the epochs
        # that installed it and the FLClients built for it.
        installs = np.zeros(k, dtype=np.int64)
        builds = np.zeros(k, dtype=np.int64)
        install, init = runner._install_epoch_data, FLClient.__init__

        def recording_install(sim, adversary, ids, counts, num_classes, eval_only):
            epoch = np.zeros(k, dtype=bool)
            epoch[ids] = epoch[eval_only] = True
            installs[epoch] += 1
            install(sim, adversary, ids, counts, num_classes, eval_only)

        def recording_init(self, client_id, *args, **kwargs):
            builds[client_id] += 1
            init(self, client_id, *args, **kwargs)

        monkeypatch.setattr(runner, "_install_epoch_data", recording_install)
        monkeypatch.setattr(FLClient, "__init__", recording_init)
        cfg = experiment_config(
            budget=1e9, num_clients=k, min_participants=20, max_epochs=10, seed=0,
            model="logreg",
        ).replace(shard=ShardConfig(eval_sample=400))
        _, streams_before = live_instances(None)
        tracemalloc.start()
        try:
            sim = Simulation(cfg)
            policy = make_policy("FedAvg", cfg, RngFactory(cfg.seed).get("cli.policy"))
            gc.collect()
            set_up = tracemalloc.get_traced_memory()[0]
            result = run_experiment(policy, cfg, simulation=sim)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - set_up
        finally:
            tracemalloc.stop()
        assert len(result.trace) == 10
        assert (installs > 0).sum() > k // 2
        assert np.array_equal(builds, installs)
        assert retained <= 128 * k, f"{retained / k:.0f} B retained per client"
        clients, streams = live_instances(sim.model)
        assert clients == set() and streams == streams_before
        assert np.array_equal(sim.streams.rows.index >= 0, installs > 0)
