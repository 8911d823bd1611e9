"""Tests for the selection-policy protocol and the four baselines."""

import numpy as np
import pytest

from repro.core.fedl import FedLPolicy
from repro.experiments.scenarios import experiment_config, make_policy
from repro.strategies import StrategyParamError
from repro.strategies.base import (
    Decision,
    EpochContext,
    RoundFeedback,
    SelectionPolicy,
    enforce_feasibility,
)
from repro.strategies.oracle import best_subset_max_latency


def build(name, rng, m=10, **params):
    """Registered strategy ``name`` for an ``m``-client fleet."""
    return make_policy(name, experiment_config(num_clients=m), rng, params=params)


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
        tau_oracle=rng.uniform(0.1, 2.0, m),
    )
    defaults.update(overrides)
    return EpochContext(**defaults)


def make_feedback(m=10, seed=0):
    rng = np.random.default_rng(seed)
    sel = np.zeros(m, bool)
    sel[:3] = True
    return RoundFeedback(
        t=0,
        selected=sel,
        tau_realized=rng.uniform(0.1, 2.0, m),
        local_etas=np.where(sel, 0.7, np.nan),
        local_losses=rng.uniform(0.5, 3.0, m),
        population_loss=1.2,
        cost_spent=5.0,
        epoch_latency=0.8,
    )


class TestContextAndDecision:
    def test_ctx_validation(self):
        with pytest.raises(ValueError):
            make_ctx(costs=np.ones(3))
        with pytest.raises(ValueError):
            make_ctx(min_participants=0)

    def test_affordable(self):
        ctx = make_ctx(costs=np.full(10, 2.0), budget=5.0)
        mask = np.zeros(10, bool)
        mask[:2] = True
        assert ctx.affordable(mask)
        mask[2] = True
        assert not ctx.affordable(mask)

    def test_decision_validation(self):
        with pytest.raises(ValueError):
            Decision(selected=np.zeros(5, bool), iterations=1)
        with pytest.raises(ValueError):
            Decision(selected=np.ones(5, bool), iterations=0)

    def test_policies_satisfy_protocol(self, rng):
        for name in ("FedAvg", "FedCS", "Pow-d", "Oracle"):
            assert isinstance(build(name, rng), SelectionPolicy)


class TestEnforceFeasibility:
    def test_drops_unavailable(self, rng):
        ctx = make_ctx(available=np.array([True] * 5 + [False] * 5))
        mask = np.ones(10, bool)
        out = enforce_feasibility(mask, ctx, rng)
        assert not out[5:].any()

    def test_tops_up_to_n_with_cheapest(self, rng):
        costs = np.arange(1.0, 11.0)
        ctx = make_ctx(costs=costs, n=4)
        out = enforce_feasibility(np.zeros(10, bool), ctx, rng)
        assert out.sum() == 4
        assert out[:4].all()  # the four cheapest

    def test_trims_most_expensive_over_budget(self, rng):
        costs = np.array([1.0, 1.0, 1.0, 50.0, 2.0])
        ctx = make_ctx(m=5, n=3, costs=costs, budget=6.0)
        out = enforce_feasibility(np.ones(5, bool), ctx, rng)
        assert not out[3]          # the expensive one went first
        assert out.sum() >= 3

    def test_never_below_n(self, rng):
        ctx = make_ctx(m=5, n=3, costs=np.full(5, 10.0), budget=1.0)
        out = enforce_feasibility(np.ones(5, bool), ctx, rng)
        assert out.sum() == 3      # over budget, but the floor holds


class TestFedAvg:
    def test_selects_exactly_n(self, rng):
        pol = build("FedAvg", rng)
        d = pol.select(make_ctx(n=4))
        assert d.selected.sum() == 4

    def test_only_available(self, rng):
        avail = np.zeros(10, bool)
        avail[2:7] = True
        d = build("FedAvg", rng).select(make_ctx(available=avail, n=3))
        assert not d.selected[~avail].any()

    def test_random_across_calls(self, rng):
        pol = build("FedAvg", rng)
        picks = {tuple(pol.select(make_ctx(n=3)).selected) for _ in range(20)}
        assert len(picks) > 1

    def test_update_is_noop(self, rng):
        build("FedAvg", rng).update(make_feedback())

    def test_validation(self, rng):
        with pytest.raises(StrategyParamError):
            build("FedAvg", rng, iterations=0)


class TestFedCS:
    def test_prefers_fast_clients(self, rng):
        tau = np.arange(1.0, 11.0)
        d = build("FedCS", rng, deadline_s=8.0, iterations=2).select(
            make_ctx(tau_last=tau, n=2, budget=1e6)
        )
        # deadline 8 → admits tau <= 4 → clients 0..3.
        assert d.selected[:4].all()
        assert not d.selected[4:].any()

    def test_selects_more_than_n_when_deadline_allows(self, rng):
        d = build("FedCS", rng, deadline_s=1e9).select(make_ctx(n=2, budget=1e6))
        assert d.selected.sum() == 10  # everyone admitted

    def test_adaptive_deadline_middle_ground(self, rng):
        d = build("FedCS", rng, adaptive_quantile=0.6).select(make_ctx(n=2, budget=1e6))
        assert 2 <= d.selected.sum() <= 8

    def test_budget_limits_admission(self, rng):
        ctx = make_ctx(n=2, budget=3.0, costs=np.full(10, 1.0))
        d = build("FedCS", rng, deadline_s=1e9).select(ctx)
        assert d.selected.sum() <= 3

    def test_validation(self, rng):
        with pytest.raises(StrategyParamError):
            build("FedCS", rng, deadline_s=0.0)
        with pytest.raises(StrategyParamError):
            build("FedCS", rng, adaptive_quantile=0.0)


class TestPowD:
    def test_picks_highest_loss_among_candidates(self, rng):
        losses = np.arange(10.0)
        pol = build("Pow-d", rng, d=10)  # all clients are candidates
        d = pol.select(make_ctx(local_losses=losses, n=3, budget=1e6))
        assert d.selected[[7, 8, 9]].all()

    def test_nan_losses_rank_last(self, rng):
        losses = np.array([np.nan] * 8 + [5.0, 6.0])
        pol = build("Pow-d", rng, d=10)
        d = pol.select(make_ctx(local_losses=losses, n=2, budget=1e6))
        assert d.selected[[8, 9]].all()

    def test_candidate_subsampling(self, rng):
        pol = build("Pow-d", rng, d=3)
        d = pol.select(make_ctx(n=2))
        assert d.selected.sum() >= 2

    def test_validation(self, rng):
        with pytest.raises(StrategyParamError):
            build("Pow-d", rng, d=0)


class TestOracle:
    def test_best_subset_min_max_latency(self):
        tau = np.array([5.0, 1.0, 2.0, 9.0])
        costs = np.ones(4)
        mask = best_subset_max_latency(tau, costs, n=2, budget=10.0)
        assert mask is not None
        assert mask[[1, 2]].all()      # the two fastest

    def test_best_subset_respects_budget(self):
        tau = np.array([1.0, 2.0, 3.0])
        costs = np.array([100.0, 1.0, 1.0])
        mask = best_subset_max_latency(tau, costs, n=2, budget=5.0)
        assert mask is not None
        assert not mask[0]

    def test_best_subset_none_when_unaffordable(self):
        mask = best_subset_max_latency(np.ones(3), np.full(3, 10.0), n=2, budget=5.0)
        assert mask is None

    def test_oracle_requires_tau_oracle(self, rng):
        pol = build("Oracle", rng)
        ctx = make_ctx(tau_oracle=None)
        with pytest.raises(ValueError):
            pol.select(ctx)

    def test_oracle_uses_true_latency(self, rng):
        tau_true = np.array([9.0] * 9 + [0.1])
        ctx = make_ctx(
            tau_oracle=tau_true, n=1, tau_last=np.full(10, 1.0), budget=1e6
        )
        d = build("Oracle", rng).select(ctx)
        assert d.selected[9]

    def test_oracle_beats_honest_policies_on_current_epoch(self, rng):
        """The defining property: per-epoch max-latency of the oracle's
        pick is <= any honest policy's (same n, both feasible)."""
        for seed in range(10):
            ctx = make_ctx(seed=seed, n=3, budget=1e6)
            oracle = build("Oracle", rng).select(ctx)
            honest = build("FedAvg", rng).select(ctx)
            lat_o = ctx.tau_oracle[oracle.selected].max()
            lat_h = ctx.tau_oracle[honest.selected].max()
            assert lat_o <= lat_h + 1e-12


class TestFedLPolicyIntegration:
    def test_select_and_update_cycle(self, rng):
        pol = FedLPolicy(
            num_clients=10, budget=100.0, min_participants=3, theta=0.5, rng=rng
        )
        ctx = make_ctx(n=3)
        d = pol.select(ctx)
        assert d.selected.sum() >= 3
        assert d.iterations >= 1
        assert np.isfinite(d.rho)
        pol.update(make_feedback())
        # duals remain nonnegative after realized feedback
        assert np.all(pol.mu >= 0)

    def test_eta_estimates_track_observations(self, rng):
        pol = FedLPolicy(
            num_clients=10, budget=100.0, min_participants=3, theta=0.5, rng=rng
        )
        fb = make_feedback()
        before = pol.eta_hat.copy()
        pol.update(fb)
        observed = np.isfinite(fb.local_etas)
        assert np.all(pol.eta_hat[observed] != before[observed])
        np.testing.assert_array_equal(pol.eta_hat[~observed], before[~observed])

    def test_selection_concentrates_on_fast_clients(self, rng):
        """After repeated epochs with stable latencies, FedL's fractional
        mass concentrates on the fastest clients."""
        m, n = 10, 3
        tau = np.concatenate([np.full(3, 0.05), np.full(7, 3.0)])
        pol = FedLPolicy(
            num_clients=m, budget=500.0, min_participants=n, theta=0.5, rng=rng
        )
        ctx = make_ctx(m=m, n=n, tau_last=tau, budget=500.0)
        for t in range(25):
            d = pol.select(ctx)
            fb = RoundFeedback(
                t=t,
                selected=d.selected,
                tau_realized=tau,
                local_etas=np.where(d.selected, 0.4, np.nan),
                local_losses=np.full(m, 0.4),
                population_loss=0.4,
                cost_spent=float(ctx.costs[d.selected].sum()),
                epoch_latency=float(tau[d.selected].max() * d.iterations),
            )
            pol.update(fb)
        frac = pol.phi.x
        assert frac[:3].sum() > frac[3:].sum()

    def test_independent_rounding_config(self, rng):
        from repro.config import FedLConfig

        pol = FedLPolicy(
            num_clients=10, budget=100.0, min_participants=3, theta=0.5, rng=rng,
            config=FedLConfig(rounding="independent"),
        )
        d = pol.select(make_ctx(n=3))
        assert d.selected.sum() >= 3
