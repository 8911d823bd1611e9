"""End-to-end robustness tests: attacks, defenses, reliability feedback.

Covers the acceptance contract of the Byzantine-robust aggregation layer:

* a sign-flip minority demonstrably degrades undefended training and a
  robust aggregator recovers it,
* non-finite updates can never reach aggregation in any engine
  (quarantined with a defense, typed abort without),
* the attack-free weighted-mean path stays bit-identical to a run with
  the robustness machinery absent,
* the reliability score feeds the FedL policy's cost side.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.strategies.base import EpochContext
from repro.config import AttackConfig, DefenseConfig
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import experiment_config, make_policy
from repro.fl.defense import CorruptUpdateError
from repro.rng import RngFactory


def robust_config(
    attack="none",
    defense="none",
    engine=None,
    fraction=0.2,
    num_clients=15,
    min_participants=5,
    budget=600.0,
    max_epochs=25,
    seed=0,
):
    cfg = experiment_config(
        dataset="fmnist",
        iid=True,
        budget=budget,
        seed=seed,
        num_clients=num_clients,
        min_participants=min_participants,
        max_epochs=max_epochs,
    )
    cfg = cfg.replace(
        attack=AttackConfig(kind=attack, fraction=fraction)
        if attack != "none"
        else AttackConfig(),
        defense=DefenseConfig(aggregator=defense),
    )
    if engine is not None:
        cfg = cfg.replace(training=replace(cfg.training, engine=engine))
    return cfg


def run_fedl(cfg):
    policy = make_policy("FedL", cfg, RngFactory(cfg.seed).get("policy.FedL"))
    return run_experiment(policy, cfg)


class TestSignFlipDegradationAndRecovery:
    """The headline robustness claim, as one three-cell experiment."""

    @pytest.fixture(scope="class")
    def cells(self):
        return {
            "clean": run_fedl(robust_config()),
            "attacked": run_fedl(robust_config(attack="sign-flip")),
            "defended": run_fedl(
                robust_config(attack="sign-flip", defense="median")
            ),
        }

    def test_attack_degrades_undefended_accuracy(self, cells):
        clean = cells["clean"].trace.final_accuracy
        attacked = cells["attacked"].trace.final_accuracy
        assert attacked < clean - 0.25

    def test_median_recovers_to_within_noise(self, cells):
        clean = cells["clean"].trace.final_accuracy
        defended = cells["defended"].trace.final_accuracy
        assert defended > clean - 0.1

    def test_trimmed_mean_recovers_substantially(self, cells):
        attacked = cells["attacked"].trace.final_accuracy
        trimmed = run_fedl(
            robust_config(attack="sign-flip", defense="trimmed-mean")
        ).trace.final_accuracy
        assert trimmed > attacked + 0.25


class TestNanUnreachableInEveryEngine:
    """A non-finite payload must never reach the aggregate: with a defense
    it is quarantined; without one the round aborts with a typed error.

    ``fraction=0.49`` plants 4 adversaries among 8 clients while the floor
    is 5, so by pigeonhole every full round carries at least one corrupt
    upload — the quarantine counter cannot stay at zero by luck."""

    ENGINES = ("loop", "batched", "des")

    def _cfg(self, engine, defense):
        return robust_config(
            attack="nan",
            defense=defense,
            engine=engine,
            fraction=0.49,
            num_clients=8,
            min_participants=5,
            budget=150.0,
            max_epochs=4,
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_defense_quarantines_and_model_stays_finite(self, engine):
        result = run_fedl(self._cfg(engine, "median"))
        assert np.isfinite(result.final_w).all()
        assert all(
            np.isfinite(r.test_loss) for r in result.trace.records
        )
        assert sum(r.num_quarantined for r in result.trace.records) > 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_no_defense_aborts_with_typed_error(self, engine):
        with pytest.raises(CorruptUpdateError) as err:
            run_fedl(self._cfg(engine, "none"))
        assert err.value.client_id >= 0
        assert err.value.epoch >= 0

    @pytest.mark.parametrize("defense", ["mean", "trimmed-mean", "krum", "norm-clip"])
    def test_every_aggregator_survives_nan(self, defense):
        result = run_fedl(self._cfg("loop", defense))
        assert np.isfinite(result.final_w).all()


class TestBenignPathBitIdentity:
    def test_attack_free_run_identical_with_and_without_defense_config(self):
        """Default config (no attack, no defense) must produce exactly the
        same result as it did before the robustness layer existed; the
        closest executable proxy is that toggling the attack stream on a
        *different* kind never perturbs a benign run."""
        a = run_fedl(robust_config(max_epochs=6, budget=150.0))
        b = run_fedl(robust_config(max_epochs=6, budget=150.0))
        assert bool(a.trace.equals(b.trace))
        assert np.array_equal(a.final_w, b.final_w)

    def test_mean_defense_matches_no_defense_when_nobody_attacks(self):
        """The 'mean' aggregator keeps the weighted-average semantics, so
        with no attacker the defended run matches the undefended one."""
        plain = run_fedl(robust_config(max_epochs=6, budget=150.0))
        gated = run_fedl(
            robust_config(defense="mean", max_epochs=6, budget=150.0)
        )
        assert bool(plain.trace.equals(gated.trace))
        assert np.array_equal(plain.final_w, gated.final_w)


class TestReliabilityFeedback:
    def _ctx(self, reliability):
        m = 6
        return EpochContext(
            t=0,
            available=np.ones(m, bool),
            costs=np.full(m, 2.0),
            remaining_budget=100.0,
            min_participants=2,
            tau_last=np.ones(m),
            local_losses=np.full(m, np.nan),
            reliability=reliability,
        )

    def _policy(self):
        return make_policy(
            "FedL",
            robust_config(num_clients=6, min_participants=2),
            RngFactory(0).get("policy.FedL"),
        )

    def test_unreliable_clients_cost_more_to_the_learner(self):
        reliability = np.ones(6)
        reliability[2] = 0.0            # quarantined every round so far
        policy = self._policy()
        policy.fractional_decision(self._ctx(reliability))
        seen = policy._last_inputs.costs
        # c·(1 + penalty·(1−r)): untouched for reliable clients, 5× for
        # the fully unreliable one — belief-side only, real prices stay 2.
        assert seen[0] == pytest.approx(2.0)
        assert seen[2] == pytest.approx(10.0)

    def test_full_reliability_matches_no_reliability(self):
        policy = self._policy()
        _, x_none = policy.fractional_decision(self._ctx(None))
        policy2 = self._policy()
        _, x_ones = policy2.fractional_decision(self._ctx(np.ones(6)))
        assert np.allclose(x_none, x_ones)

    def test_context_validates_reliability(self):
        with pytest.raises(ValueError, match="reliability"):
            self._ctx(np.full(6, 1.5))
        with pytest.raises(ValueError, match="reliability"):
            self._ctx(np.ones(4))

    def test_reliability_ewma_flags_quarantined_clients(self):
        """After a nan-attack run with a defense, the runner's EWMA must
        have pushed the adversaries' reliability below the honest
        clients' (observable through the defense round reports)."""
        cfg = robust_config(
            attack="nan",
            defense="median",
            fraction=0.3,
            num_clients=10,
            min_participants=5,
            budget=200.0,
            max_epochs=6,
        )
        result = run_fedl(cfg)
        assert sum(r.num_quarantined for r in result.trace.records) > 0


class TestRoundReportPlumbing:
    def test_defense_report_reaches_round_result(self):
        from repro.datasets.synthetic import ClassConditionalGenerator
        from repro.fl.client import FLClient, LocalSolveSpec
        from repro.config import DefenseConfig
        from repro.fl.round_runner import run_federated_round
        from repro.fl.server import FLServer
        from repro.nn.models import build_model

        factory = RngFactory(5)
        gen = ClassConditionalGenerator((4, 4, 1), 3, factory.get("gen"), noise=0.3)
        model = build_model("mlp", 16, 3, factory.get("model"), hidden=(6,))
        clients = [
            FLClient(
                k, model, factory.get(f"c{k}"), LocalSolveSpec(sgd_steps=2, sgd_lr=0.1)
            )
            for k in range(4)
        ]
        for c in clients:
            c.set_data(gen.sample(12, rng=factory.get(f"d{c.client_id}")))
        server = FLServer(model, model.get_params(), gen.test_set(30, rng=factory.get("t")))

        from repro.fl.adversary import Adversary

        adv = Adversary("nan", 4, 0.3, factory.get("adversary.roster"), factory)
        result = run_federated_round(
            server,
            clients,
            np.ones(4, bool),
            np.ones(4, bool),
            iterations=2,
            target_eta=0.5,
            adversary=adv,
            defense=DefenseConfig(aggregator="median"),
            epoch=0,
        )
        assert result.defense is not None
        assert result.defense.total_rejected == 2 * int(adv.mask.sum())
        assert result.defense.num_quarantined == int(adv.mask.sum())
        assert np.isfinite(server.w).all()

    def test_no_defense_round_result_has_no_report(self):
        from repro.datasets.synthetic import ClassConditionalGenerator
        from repro.fl.client import FLClient, LocalSolveSpec
        from repro.fl.round_runner import run_federated_round
        from repro.fl.server import FLServer
        from repro.nn.models import build_model

        factory = RngFactory(6)
        gen = ClassConditionalGenerator((4, 4, 1), 3, factory.get("gen"), noise=0.3)
        model = build_model("mlp", 16, 3, factory.get("model"), hidden=(6,))
        clients = [
            FLClient(
                k, model, factory.get(f"c{k}"), LocalSolveSpec(sgd_steps=2, sgd_lr=0.1)
            )
            for k in range(3)
        ]
        for c in clients:
            c.set_data(gen.sample(12, rng=factory.get(f"d{c.client_id}")))
        server = FLServer(model, model.get_params(), gen.test_set(30, rng=factory.get("t")))
        result = run_federated_round(
            server, clients, np.ones(3, bool), np.ones(3, bool),
            iterations=1, target_eta=0.5,
        )
        assert result.defense is None
