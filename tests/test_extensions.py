"""Tests for the extensions beyond the paper: fairness-aware FedL,
the UCB bandit baseline and the smooth-max objective."""

import dataclasses

import numpy as np
import pytest

from repro.config import FedLConfig
from repro.core.fairness import FairFedLPolicy, ParticipationTracker, jain_index
from repro.core.phi import Phi
from repro.core.problem import EpochInputs, FedLProblem
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import experiment_config, make_policy
from repro.rng import RngFactory
from repro.strategies import StrategyParamError
from repro.strategies.base import Decision, EpochContext, RoundFeedback


def make_ctx(m=10, n=3, budget=100.0, seed=0, **overrides):
    rng = np.random.default_rng(seed)
    defaults = dict(
        t=0,
        available=np.ones(m, bool),
        costs=rng.uniform(0.5, 5.0, m),
        remaining_budget=budget,
        min_participants=n,
        tau_last=rng.uniform(0.1, 2.0, m),
        local_losses=rng.uniform(0.5, 3.0, m),
    )
    defaults.update(overrides)
    return EpochContext(**defaults)


def feedback_for(decision: Decision, t: int, m: int, tau: np.ndarray) -> RoundFeedback:
    return RoundFeedback(
        t=t,
        selected=decision.selected,
        tau_realized=tau,
        local_etas=np.where(decision.selected, 0.5, np.nan),
        local_losses=np.full(m, 0.8),
        population_loss=0.8,
        cost_spent=1.0,
        epoch_latency=float(tau[decision.selected].max()),
    )


class TestJainIndex:
    def test_equal_values_one(self):
        assert jain_index(np.full(5, 3.0)) == pytest.approx(1.0)

    def test_single_dominant(self):
        v = np.zeros(10)
        v[0] = 1.0
        assert jain_index(v) == pytest.approx(0.1)

    def test_all_zero_vacuous(self):
        assert jain_index(np.zeros(4)) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            jain_index(np.array([-1.0]))
        with pytest.raises(ValueError):
            jain_index(np.zeros((2, 2)))


class TestParticipationTracker:
    def test_counts_and_rates(self):
        tr = ParticipationTracker(3)
        tr.record(np.array([True, False, False]), np.ones(3, bool))
        tr.record(np.array([True, True, False]), np.ones(3, bool))
        np.testing.assert_array_equal(tr.counts, [2, 1, 0])
        np.testing.assert_allclose(tr.rates(), [1.0, 0.5, 0.0])

    def test_rate_over_available_epochs_only(self):
        tr = ParticipationTracker(2)
        tr.record(np.array([True, False]), np.array([True, False]))
        tr.record(np.array([True, False]), np.array([True, True]))
        np.testing.assert_allclose(tr.rates(), [1.0, 0.0])

    def test_fairness_trivial_at_start(self):
        assert ParticipationTracker(5).fairness() == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ParticipationTracker(0)
        tr = ParticipationTracker(3)
        with pytest.raises(ValueError):
            tr.record(np.ones(2, bool), np.ones(3, bool))


def fleet(m, **fields):
    """Config of an ``m``-client fleet with budget 200 and n = 3."""
    cfg = experiment_config(budget=200.0, num_clients=m, min_participants=3)
    return cfg.override(fields)


class TestFairFedL:
    def _policy(self, m=10, **params):
        return make_policy("Fair-FedL", fleet(m), np.random.default_rng(0), params)

    def test_zero_weight_reduces_to_fedl_fractions(self):
        """κ = 0 biases nothing: the fractional decision equals FedL's."""
        fair = make_policy(
            "Fair-FedL", fleet(8), np.random.default_rng(1),
            params={"fairness_weight": 0.0},
        )
        plain = make_policy("FedL", fleet(8), np.random.default_rng(1))
        ctx = make_ctx(m=8)
        d_fair = fair.select(ctx)
        d_plain = plain.select(ctx)
        np.testing.assert_allclose(d_fair.fractional_x, d_plain.fractional_x)

    def test_select_matches_pre_refactor_trajectory(self):
        """``_round_and_repair`` is the tail ``select`` used to carry inline:
        same seed, 10 epochs, identical masks and generator state."""
        from repro.strategies.base import enforce_feasibility
        from repro.core.rounding import independent_round, rdcs_round

        class InlineTail(FairFedLPolicy):
            def select(self, ctx):  # FairFedLPolicy.select before PR 12, verbatim
                phi, x_frac = self.fractional_decision(ctx)
                if self.fairness_weight > 0 and self.queues.max() > 0:
                    bias = self.queues / self.queues.max()
                    x_frac = np.where(
                        ctx.available,
                        np.clip(x_frac + self.fairness_weight * bias, 0.0, 1.0),
                        0.0,
                    )
                if self.config.rounding == "rdcs":
                    x_int = rdcs_round(x_frac, self.rng)
                else:
                    x_int = independent_round(x_frac, self.rng)
                mask = x_int > 0.5
                if not mask.any():
                    order = np.argsort(-x_frac, kind="stable")
                    mask = np.zeros_like(mask)
                    mask[order[: ctx.min_participants]] = True
                mask = enforce_feasibility(mask, ctx, self.rng)
                self._last_available = ctx.available.copy()
                return Decision(
                    selected=mask,
                    iterations=phi.iterations,
                    rho=phi.rho,
                    fractional_x=x_frac,
                )

        m = 12
        for rounding in ("rdcs", "independent"):
            cfg = fleet(m, **{"fedl.rounding": rounding})
            params = {"fair_rate": 0.25, "fairness_weight": 0.5}
            new = make_policy("Fair-FedL", cfg, np.random.default_rng(5), params)
            old = InlineTail.from_config(cfg, np.random.default_rng(5), **params)
            for t in range(10):
                available = np.random.default_rng(t).random(m) < 0.8
                ctx = make_ctx(m=m, seed=t, available=available)
                d_new, d_old = new.select(ctx), old.select(ctx)
                np.testing.assert_array_equal(d_new.selected, d_old.selected)
                np.testing.assert_array_equal(d_new.fractional_x, d_old.fractional_x)
                assert d_new.iterations == d_old.iterations
                new.update(feedback_for(d_new, t, m, ctx.tau_last))
                old.update(feedback_for(d_old, t, m, ctx.tau_last))
            assert new.rng.bit_generator.state == old.rng.bit_generator.state

    def test_queues_grow_for_unselected(self):
        pol = self._policy()
        ctx = make_ctx()
        tau = ctx.tau_last
        d = pol.select(ctx)
        pol.update(feedback_for(d, 0, 10, tau))
        unsel = ~d.selected
        assert np.all(pol.queues[unsel] > 0)
        assert np.all(pol.queues[d.selected] == 0)

    def test_improves_fairness_over_plain_fedl(self):
        """With a strongly heterogeneous fleet, plain FedL concentrates on
        the fast clients; the fairness queues spread participation."""
        m, n = 10, 3
        tau = np.concatenate([np.full(3, 0.05), np.full(7, 2.0)])

        def run(policy):
            tracker = ParticipationTracker(m)
            # 200 epochs: enough for the (accurately solved) descent to
            # move the selection fractions off their uniform start — at
            # short horizons plain FedL is trivially fair because it has
            # not yet learned to prefer the fast clients.
            for t in range(200):
                ctx = make_ctx(m=m, n=n, tau_last=tau, budget=1e6)
                d = policy.select(ctx)
                tracker.record(d.selected, ctx.available)
                policy.update(feedback_for(d, t, m, tau))
            return tracker.fairness()

        fair = run(self._policy(m=m, fair_rate=0.25, fairness_weight=0.8))
        plain = run(make_policy("FedL", fleet(m), np.random.default_rng(2)))
        assert fair > plain

    def test_validation(self):
        with pytest.raises(StrategyParamError):
            self._policy(fair_rate=1.0)
        with pytest.raises(StrategyParamError):
            self._policy(fairness_weight=-0.1)

    def test_runs_in_experiment(self):
        cfg = experiment_config(budget=120.0, num_clients=10, max_epochs=6)
        pol = make_policy("Fair-FedL", cfg, RngFactory(0).get("p"))
        res = run_experiment(pol, cfg)
        assert len(res.trace) >= 1
        assert pol.tracker.epochs == len(res.trace)


class TestUCB:
    def test_explores_all_arms_first(self):
        m, n = 6, 2
        pol = make_policy("UCB", fleet(m), np.random.default_rng(0))
        pulled = np.zeros(m, bool)
        tau = np.linspace(0.1, 1.0, m)
        for t in range(4):
            ctx = make_ctx(m=m, n=n, tau_last=tau, budget=1e6)
            d = pol.select(ctx)
            pulled |= d.selected
            pol.update(feedback_for(d, t, m, tau))
        # After ceil(m/n) rounds of forced exploration, every arm pulled.
        assert pulled.all()

    def test_converges_to_fast_arms(self):
        m, n = 8, 2
        pol = make_policy(
            "UCB", fleet(m), np.random.default_rng(1), params={"exploration": 0.2}
        )
        tau = np.concatenate([np.full(2, 0.05), np.full(6, 2.0)])
        last = None
        for t in range(60):
            ctx = make_ctx(m=m, n=n, tau_last=tau, budget=1e6)
            d = pol.select(ctx)
            pol.update(feedback_for(d, t, m, tau))
            last = d
        assert last.selected[:2].all()

    def test_only_participants_update_stats(self):
        pol = make_policy("UCB", fleet(5), np.random.default_rng(0))
        ctx = make_ctx(m=5, n=2, budget=1e6)
        d = pol.select(ctx)
        pol.update(feedback_for(d, 0, 5, ctx.tau_last))
        assert pol.pulls[~d.selected].sum() == 0

    def test_validation(self):
        with pytest.raises(StrategyParamError):
            make_policy(
                "UCB", fleet(5), np.random.default_rng(0),
                params={"exploration": -1.0},
            )

    def test_runs_in_experiment(self):
        cfg = experiment_config(budget=120.0, num_clients=10, max_epochs=6)
        pol = make_policy("UCB", cfg, RngFactory(0).get("p"))
        res = run_experiment(pol, cfg)
        assert len(res.trace) >= 1


class TestSoftmaxObjective:
    def _inputs(self, m=5, seed=0):
        rng = np.random.default_rng(seed)
        return EpochInputs(
            tau=rng.uniform(0.1, 2.0, m),
            costs=rng.uniform(0.5, 3.0, m),
            available=np.ones(m, bool),
            eta_hat=rng.uniform(0.1, 0.8, m),
            loss_gap=0.3,
            loss_sensitivity=np.full(m, -0.1),
            remaining_budget=100.0,
            min_participants=2,
        )

    def test_softmax_bounds_below_sum(self):
        """smooth-max <= sum for any fractional selection (log Σ x e^{ατ}
        + 1 <= α Σ x τ fails in general, but at binary x the smooth-max is
        within log(k)/α of the true max, which is <= the sum)."""
        inp = self._inputs()
        p_sum = FedLProblem(inp, objective="sum")
        p_max = FedLProblem(inp, objective="softmax", softmax_alpha=8.0)
        x = np.zeros(5)
        x[[0, 2, 4]] = 1.0
        phi = Phi(x=x, rho=2.0)
        true_max = 2.0 * inp.tau[[0, 2, 4]].max()
        assert p_max.f(phi) >= true_max - 2.0 * np.log(4) / 8.0
        assert p_max.f(phi) <= p_sum.f(phi) + 1e-9

    def test_softmax_grad_matches_fd(self):
        inp = self._inputs()
        prob = FedLProblem(inp, objective="softmax")
        phi = Phi(x=np.full(5, 0.4), rho=2.0)
        g = prob.grad_f(phi)
        v = phi.to_vector()
        eps = 1e-6
        for i in range(v.size):
            vp = v.copy(); vp[i] += eps
            vm = v.copy(); vm[i] -= eps
            num = (
                prob.f(Phi.from_vector(vp)) - prob.f(Phi.from_vector(vm))
            ) / (2 * eps)
            assert g[i] == pytest.approx(num, abs=1e-6)

    def test_zero_selection_zero_latency(self):
        prob = FedLProblem(self._inputs(), objective="softmax")
        assert prob.f(Phi(x=np.zeros(5), rho=3.0)) == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FedLProblem(self._inputs(), objective="hardmax")
        with pytest.raises(ValueError):
            FedLProblem(self._inputs(), objective="softmax", softmax_alpha=0.0)
        with pytest.raises(ValueError):
            FedLConfig(objective="hardmax")

    def test_fedl_runs_with_softmax_objective(self):
        cfg = experiment_config(budget=120.0, num_clients=10, max_epochs=5)
        cfg = cfg.replace(fedl=dataclasses.replace(cfg.fedl, objective="softmax"))
        pol = make_policy("FedL", cfg, RngFactory(0).get("p"))
        res = run_experiment(pol, cfg)
        assert len(res.trace) >= 1
