"""Tests for the local-solver variants (FedProx, inner momentum) and for the
evaluate-each-point-once contract of the loop-path solve."""

import dataclasses

import numpy as np
import pytest

from repro.datasets.synthetic import ClassConditionalGenerator
from repro.fl.client import FLClient, LocalSolveSpec
from repro.fl.convergence import estimate_local_accuracy
from repro.fl.dane import DaneWorkspace, dane_local_step, dane_surrogate_value
from repro.fl.round_runner import run_federated_round
from repro.fl.server import FLServer
from repro.nn.models import build_model
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import experiment_config, make_policy
from repro.rng import RngFactory, RowSource


@pytest.fixture
def setup(rng_factory):
    gen = ClassConditionalGenerator((6, 6, 1), 4, rng_factory.get("gen"), noise=0.3)
    model = build_model("mlp", 36, 4, rng_factory.get("model"), hidden=(8,))
    data = gen.sample(30, rng=rng_factory.get("d"))
    return gen, model, data


class TestFedProxClient:
    def test_fedprox_trains(self, setup, rng_factory):
        gen, model, data = setup
        client = FLClient(
            0, model, rng_factory.get("c"),
            LocalSolveSpec(local_solver="fedprox", sgd_steps=6),
        )
        client.set_data(data)
        w = model.get_params()
        g = client.local_grad(w)
        d, eta, traj = client.train_iteration(w, g)
        assert traj[-1] < traj[0]  # local objective decreased
        assert np.any(d != 0)

    def test_fedprox_ignores_global_gradient(self, setup, rng_factory):
        """FedProx has no gradient-correction term: the update must not
        depend on the broadcast global gradient."""
        gen, model, data = setup
        w = model.get_params()

        def update_with(global_grad, seed):
            client = FLClient(
                0, model, np.random.default_rng(seed),
                LocalSolveSpec(local_solver="fedprox", sgd_steps=4),
            )
            client.set_data(data)
            d, _, _ = client.train_iteration(w, global_grad)
            return d

        d1 = update_with(np.zeros_like(w), seed=3)
        d2 = update_with(np.ones_like(w) * 100.0, seed=3)
        np.testing.assert_allclose(d1, d2)

    def test_dane_uses_global_gradient(self, setup, rng_factory):
        gen, model, data = setup
        w = model.get_params()

        def update_with(global_grad, seed):
            client = FLClient(
                0, model, np.random.default_rng(seed),
                LocalSolveSpec(local_solver="dane", sgd_steps=4),
            )
            client.set_data(data)
            d, _, _ = client.train_iteration(w, global_grad)
            return d

        d1 = update_with(np.zeros_like(w), seed=3)
        d2 = update_with(np.ones_like(w), seed=3)
        assert not np.allclose(d1, d2)

    def test_unknown_solver_rejected(self, setup, rng_factory):
        gen, model, data = setup
        with pytest.raises(ValueError):
            FLClient(0, model, rng_factory.get("c"), LocalSolveSpec(local_solver="scaffold"))


class TestMomentum:
    def test_momentum_validation(self, setup, rng_factory):
        gen, model, data = setup
        with pytest.raises(ValueError):
            FLClient(0, model, rng_factory.get("c"), LocalSolveSpec(momentum=1.0))
        w = model.get_params()
        ws = DaneWorkspace(w, np.zeros_like(w), np.zeros_like(w), 1.0, 0.0)
        with pytest.raises(ValueError):
            dane_local_step(model, ws, data, 3, 0.05, 16,
                            np.random.default_rng(0), momentum=-0.1)

    def test_momentum_changes_trajectory(self, setup, rng_factory):
        gen, model, data = setup
        w = model.get_params()
        g = np.zeros_like(w)
        ws = DaneWorkspace(w, g, g, sigma1=1.0, sigma2=0.0)
        d_plain, _ = dane_local_step(
            model, ws, data, 6, 0.05, 64, np.random.default_rng(1), momentum=0.0
        )
        d_mom, _ = dane_local_step(
            model, ws, data, 6, 0.05, 64, np.random.default_rng(1), momentum=0.8
        )
        assert not np.allclose(d_plain, d_mom)

    def test_momentum_accelerates_surrogate_decrease(self, setup, rng_factory):
        gen, model, data = setup
        w = model.get_params()
        g = np.zeros_like(w)
        ws = DaneWorkspace(w, g, g, sigma1=1.0, sigma2=0.0)
        _, traj_plain = dane_local_step(
            model, ws, data, 10, 0.02, 64, np.random.default_rng(1), momentum=0.0
        )
        _, traj_mom = dane_local_step(
            model, ws, data, 10, 0.02, 64, np.random.default_rng(1), momentum=0.7
        )
        assert traj_mom[-1] < traj_plain[-1]


def dane_local_step_oracle(
    model, ws, data, max_steps, lr, batch_size, rng, target_eta=None, momentum=0.0
):
    """The ``dane_local_step`` this repo shipped before the solve stopped
    re-evaluating points, verbatim (validation dropped, ``_surrogate_grad``
    inlined): a full-batch value at every ``d_j`` including ``d = 0``, a
    separate minibatch gradient per step, ``linear_term()`` rebuilt each
    time."""
    n = len(data)
    bs = min(batch_size, n)
    d = np.zeros_like(ws.w_global)
    velocity = np.zeros_like(d)
    trajectory = [dane_surrogate_value(model, ws, d, data)]
    for step in range(max_steps):
        idx = rng.choice(n, size=bs, replace=False) if bs < n else np.arange(n)
        _, g = model.loss_and_grad(ws.w_global + d, data.x[idx], data.y[idx])
        grad = g + ws.sigma1 * d - ws.linear_term()
        if momentum > 0.0:
            velocity = momentum * velocity - lr * grad
            d = d + velocity
        else:
            d = d - lr * grad
        trajectory.append(dane_surrogate_value(model, ws, d, data))
        if (
            target_eta is not None
            and step >= 1
            and estimate_local_accuracy(trajectory) <= target_eta
        ):
            break
    return d, trajectory


def count_evaluations(model, monkeypatch):
    """Count every network evaluation (``loss`` or ``loss_and_grad``)."""
    calls = []
    for name in ("loss", "loss_and_grad"):
        original = getattr(model, name)
        monkeypatch.setattr(
            model,
            name,
            lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k),
        )
    return calls


BATCH = 32


class TestEveryPointEvaluatedOnce:
    @pytest.mark.parametrize("with_start", [True, False])
    @pytest.mark.parametrize("solver", ["dane", "fedprox"])
    @pytest.mark.parametrize("target_eta", [None, 0.3, 0.9])
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("n", [20, BATCH, 45])  # full, exactly full, minibatch
    def test_bit_identical_to_pre_fusion_solve(
        self, setup, rng_factory, monkeypatch, n, momentum, target_eta, solver, with_start
    ):
        gen, model, _ = setup
        data = gen.sample(n, rng=rng_factory.get("d"))
        w = model.get_params() + 0.1 * rng_factory.get("w").normal(size=model.num_params)
        global_grad = 0.05 * rng_factory.get("g").normal(size=w.size)
        client = FLClient(
            0, model, np.random.default_rng(11),
            LocalSolveSpec(
                sgd_steps=6, sgd_lr=0.05, batch_size=BATCH, local_solver=solver,
                momentum=momentum,
            ),
        )
        client.set_data(data)
        start = client.local_grad(w, with_loss=True) if with_start else None
        # What the solve is handed stays the caller's: read, never written.
        inputs = [w, global_grad] + ([start[1]] if with_start else [])
        before = [a.tobytes() for a in inputs]
        d, eta, traj = client.train_iteration(
            w, global_grad, target_eta=target_eta, start=start
        )
        assert [a.tobytes() for a in inputs] == before

        local_g = client.local_grad(w)
        if solver == "dane":
            ws = DaneWorkspace(
                w, local_g, global_grad, client.spec.sigma1, client.spec.sigma2
            )
        else:
            ws = DaneWorkspace(
                w, np.zeros_like(w), np.zeros_like(w), client.spec.sigma1, 0.0
            )
        ref_rng = np.random.default_rng(11)
        ref_d, ref_traj = dane_local_step_oracle(
            model, ws, data, 6, 0.05, BATCH, ref_rng,
            target_eta=target_eta, momentum=momentum,
        )
        assert d.tobytes() == ref_d.tobytes()
        assert traj == ref_traj
        assert eta == estimate_local_accuracy(ref_traj)
        assert client.rng.bit_generator.state == ref_rng.bit_generator.state
        # The solver itself, fed the same workspace, agrees too.
        step_rng = np.random.default_rng(11)
        inputs += [ws.w_global, ws.global_grad, ws.local_grad_at_w]
        before = [a.tobytes() for a in inputs]
        zeroed = []
        zeros_like = np.zeros_like
        with monkeypatch.context() as patch:
            patch.setattr(
                np, "zeros_like", lambda *a, **k: zeroed.append(1) or zeros_like(*a, **k)
            )
            d2, traj2 = dane_local_step(
                model, ws, data, 6, 0.05, BATCH, step_rng,
                target_eta=target_eta, momentum=momentum, start=start,
            )
        assert d2.tobytes() == ref_d.tobytes() and traj2 == ref_traj
        assert step_rng.bit_generator.state == ref_rng.bit_generator.state
        # The in-place step: inputs untouched here too, ``d`` owns its memory
        # (the second solve left the first result alone) and only a
        # heavy-ball solve allocates a velocity next to ``d``.
        assert [a.tobytes() for a in inputs] == before
        assert d.flags.owndata and d2.flags.owndata and d2 is not d
        assert d.tobytes() == ref_d.tobytes()
        assert len(zeroed) == (2 if momentum > 0.0 else 1)

    @pytest.mark.parametrize(
        "n, with_start, expected",
        [
            (BATCH, True, 5),        # full batch: J fused evaluations
            (20, False, 1 + 5),      # ... plus its own starting pair
            (45, True, 2 * 5),       # minibatch: gradient + value per step
            (45, False, 1 + 2 * 5),
        ],
    )
    def test_evaluations_per_solve(
        self, setup, rng_factory, monkeypatch, n, with_start, expected
    ):
        gen, model, _ = setup
        client = FLClient(
            0, model, rng_factory.get("c"), LocalSolveSpec(sgd_steps=5, batch_size=BATCH),
        )
        client.set_data(gen.sample(n, rng=rng_factory.get("d")))
        w = model.get_params()
        start = client.local_grad(w, with_loss=True) if with_start else None
        calls = count_evaluations(model, monkeypatch)
        _, _, traj = client.train_iteration(w, np.zeros_like(w), start=start)
        assert len(traj) == 5 + 1
        assert len(calls) == expected

    @pytest.mark.parametrize("iterations", [1, 3])
    def test_loop_round_sweeps_once_per_iteration(
        self, setup, rng_factory, monkeypatch, iterations
    ):
        """``iterations`` gradient sweeps (none after the last solve), and no
        solve re-evaluates the point its sweep already covered."""
        gen, model, _ = setup
        steps = 4
        clients = []
        for k, n in enumerate([20, BATCH, 45, 28]):
            c = FLClient(
                k, model, rng_factory.get(f"c{k}"),
                LocalSolveSpec(sgd_steps=steps, batch_size=BATCH),
            )
            c.set_data(gen.sample(n, rng=rng_factory.get(f"d{k}")))
            clients.append(c)
        server = FLServer(model, model.get_params(), gen.sample(40, rng=rng_factory.get("t")))
        selected = np.array([True, True, True, False])
        sweeps = []
        original = FLClient.local_grad
        monkeypatch.setattr(
            FLClient,
            "local_grad",
            lambda self, *a, **k: sweeps.append(self.client_id) or original(self, *a, **k),
        )
        calls = count_evaluations(model, monkeypatch)
        run_federated_round(
            server, clients, selected, np.ones(4, bool), iterations, engine="loop"
        )
        assert len(sweeps) == 3 * iterations  # was 3 * (iterations + 1)
        solve_evals = iterations * (steps + steps + 2 * steps)  # full, full, mini
        tail_evals = 4 + 1  # loss sweep over the available clients + test loss
        assert len(calls) == len(sweeps) + solve_evals + tail_evals

    def test_unswept_client_evaluates_its_own_start(
        self, setup, rng_factory, monkeypatch
    ):
        """DES contributor sets change between iterations: a client that
        joins iteration 1 without having been in iteration 0's sweep still
        solves (from its own evaluation), and an empty final contributor set
        raises what the skipped last sweep used to."""
        import repro.fl.round_runner as rr
        from repro.sim import SimRoundSpec
        from repro.sim.entities import RoundOutcome

        gen, model, _ = setup
        clients = []
        for k in range(3):
            c = FLClient(
                k, model, rng_factory.get(f"c{k}"),
                LocalSolveSpec(sgd_steps=2, batch_size=BATCH),
            )
            c.set_data(gen.sample(24, rng=rng_factory.get(f"d{k}")))
            clients.append(c)
        test_set = gen.sample(40, rng=rng_factory.get("t"))

        def run(contributors):
            outcome = RoundOutcome(
                completion_time=1.0,
                iteration_durations=[0.5] * len(contributors),
                contributors=[np.asarray(ids, dtype=int) for ids in contributors],
                dropped={}, num_retries=0, deadline_hits=0,
                client_busy_s={}, client_last_t={}, timeline=[],
            )
            monkeypatch.setattr(rr, "simulate_round", lambda spec, rng=None: outcome)
            spec = SimRoundSpec(
                client_ids=np.arange(3), tau_loc=np.ones(3), tau_cm=np.ones(3),
                iterations=len(contributors),
            )
            server = FLServer(model, model.get_params(), test_set)
            return run_federated_round(
                server, clients, np.ones(3, bool), np.ones(3, bool),
                len(contributors), engine="des", sim_spec=spec,
            )

        res = run([[0, 1], [1, 2], [2]])
        assert not np.isnan(res.local_etas).any()  # all three contributed
        with pytest.raises(ValueError, match="no gradients to aggregate"):
            run([[0, 1], []])


class TestNeverDrawsNeverCreates:
    """PR 13's contract on every engine: a client whose minibatch is its whole
    local set never draws, so its deferred stream is never created."""

    SIZES = (12, BATCH, 45, 20)  # only the third subsamples

    def fleet(self, setup, rng_factory):
        gen, model, _ = setup
        clients, rows = [], rng_factory.rows("fl.client", len(self.SIZES))
        for k, n in enumerate(self.SIZES):
            c = FLClient(
                k, model, RowSource(rows, k),
                LocalSolveSpec(sgd_steps=3, batch_size=BATCH),
            )
            c.set_data(gen.sample(n, rng=rng_factory.get(f"d{k}")))
            clients.append(c)
        server = FLServer(
            model, model.get_params(), gen.sample(40, rng=rng_factory.get("t"))
        )
        return clients, server

    @pytest.mark.parametrize("engine", ["loop", "des"])
    def test_in_process_round(self, setup, rng_factory, engine):
        from repro.sim import SimRoundSpec

        clients, server = self.fleet(setup, rng_factory)
        k = len(clients)
        source = {}
        if engine == "des":  # fault-free: everybody contributes every iteration
            source = dict(
                sim_spec=SimRoundSpec(
                    client_ids=np.arange(k), tau_loc=np.ones(k), tau_cm=np.ones(k),
                    iterations=2,
                ),
                sim_rng=rng_factory.get("sim"),
            )
        res = run_federated_round(
            server, clients, np.ones(k, bool), np.ones(k, bool), 2,
            engine=engine, **source,
        )
        assert not np.isnan(res.local_etas).any()
        assert [c.rng_created for c in clients] == [n > BATCH for n in self.SIZES]
        assert [key for key in rng_factory.state_dict() if key.startswith("fl.")] == [
            "fl.client.2"
        ]

    def test_live_worker_reports_only_clients_that_drew(self, setup, rng_factory):
        from repro.live import LiveRoundSpec, LiveRuntime

        clients, server = self.fleet(setup, rng_factory)
        k = len(clients)
        spec = LiveRoundSpec(
            np.arange(k), np.full(k, 1e-3), np.full(k, 1e-3), iterations=2,
            time_scale=0.01,
        )
        with LiveRuntime(clients, num_workers=1, round_timeout_s=30.0) as rt:
            rt.install_data({c.client_id: c.data for c in clients})
            res = run_federated_round(
                server, clients, np.ones(k, bool), np.ones(k, bool), 2,
                engine="live", live_round=rt.begin_round(spec),
            )
            states = rt.client_rng_states()
        assert not np.isnan(res.local_etas).any()
        assert sorted(states) == ["fl.client.2"]
        # The solves ran in the worker: the parent created no client stream.
        assert not any(c.rng_created for c in clients)

    def test_loop_and_batched_runs_hold_the_same_streams(self):
        """What a snapshot's ``rng.json`` would list after the same run."""
        from repro.experiments.runner import Simulation

        names = {}
        for engine in ("loop", "batched"):
            cfg = experiment_config(budget=1e6, num_clients=12, max_epochs=3)
            cfg = cfg.replace(
                training=dataclasses.replace(cfg.training, engine=engine)
            )
            sim = Simulation(cfg)
            res = run_experiment(
                make_policy("FedAvg", cfg, RngFactory(0).get("p")), cfg, simulation=sim
            )
            assert len(res.trace) == 3
            names[engine] = sorted(sim.rng.state_dict())
        assert names["loop"] == names["batched"]
        drew = [key for key in names["loop"] if key.startswith("fl.client.")]
        assert 0 < len(drew) < 12  # the run mixed full-batch and subsampling clients


class TestEndToEnd:
    @pytest.mark.parametrize("solver", ["dane", "fedprox"])
    def test_experiment_completes(self, solver):
        cfg = experiment_config(budget=120.0, num_clients=10, max_epochs=6)
        cfg = cfg.replace(
            training=dataclasses.replace(cfg.training, local_solver=solver)
        )
        pol = make_policy("FedAvg", cfg, RngFactory(0).get("p"))
        res = run_experiment(pol, cfg)
        assert res.trace.final_accuracy > res.trace.accuracy[0] - 0.05

    def test_momentum_experiment_completes(self):
        cfg = experiment_config(budget=120.0, num_clients=10, max_epochs=6)
        cfg = cfg.replace(
            training=dataclasses.replace(cfg.training, momentum=0.6)
        )
        pol = make_policy("FedAvg", cfg, RngFactory(0).get("p"))
        res = run_experiment(pol, cfg)
        assert len(res.trace) >= 1

    def test_config_validation(self):
        import dataclasses as dc
        from repro.config import TrainingConfig

        with pytest.raises(ValueError):
            TrainingConfig(local_solver="scaffold")
        with pytest.raises(ValueError):
            TrainingConfig(momentum=1.0)
