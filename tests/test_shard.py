"""Property tests for the sharded selection path (PR 8).

Covers the contracts promised in ``repro.fl.shard``:

* the registry builds the flat ``FedLPolicy`` at one shard and
  ``ShardedFedLPolicy`` from two on, which rejects a single shard;
* hierarchical ``shard_combine`` equals the flat mean;
* ``decompose_budget`` / ``decompose_floor`` never overshoot and
  redistribute deterministically;
* ``ClientStateArrays`` updates reproduce the legacy runner formulas;
* ``step_into`` / ``sample_into`` are bit-identical to their
  allocating counterparts.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import ShardConfig
from repro.core.fedl import FedLPolicy
from repro.env.dynamics import DataVolumeProcess, PriceProcess
from repro.env.state import ClientStateArrays
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import experiment_config, make_policy
from repro.fl.hierarchy import shard_combine
from repro.fl.shard import (
    ShardedFedLPolicy,
    build_shard_plan,
    decompose_budget,
    decompose_floor,
)


def scaled_config(num_shards=1, engine="auto", **kwargs):
    defaults = dict(budget=200.0, num_clients=24, min_participants=4, max_epochs=8)
    defaults.update(kwargs)
    cfg = experiment_config(**defaults)
    cfg = cfg.replace(training=replace(cfg.training, engine=engine))
    return cfg.replace(shard=replace(cfg.shard, num_shards=num_shards))


def fedl_pair(cfg, num_shards):
    """A flat policy and a sharded one, constructed with the registry's
    exact arguments and identically-seeded generators."""
    def build(sharded):
        rng = np.random.default_rng(99)
        common = dict(
            num_clients=cfg.population.num_clients,
            budget=cfg.budget,
            min_participants=cfg.min_participants,
            theta=cfg.training.theta,
            rng=rng,
            config=cfg.fedl,
            cost_range=cfg.population.cost_range,
        )
        if sharded:
            return ShardedFedLPolicy(
                **common, shard=ShardConfig(num_shards=num_shards)
            )
        return FedLPolicy(**common)

    return build(False), build(True)


class TestShardPlan:
    def test_contiguous_partitions_ids(self):
        plan = build_shard_plan(101, 7)
        assert plan.num_shards == 7
        all_ids = np.sort(np.concatenate(plan.members))
        np.testing.assert_array_equal(all_ids, np.arange(101))
        for s, m in enumerate(plan.members):
            np.testing.assert_array_equal(plan.shard_of[m], s)

    def test_contiguous_near_equal_sizes(self):
        plan = build_shard_plan(100, 6)
        sizes = [m.size for m in plan.members]
        assert max(sizes) - min(sizes) <= 1

    def test_kmeans_partitions_ids(self, rng):
        pos = rng.normal(size=(60, 2))
        plan = build_shard_plan(60, 4, "kmeans", positions=pos, rng=rng)
        all_ids = np.sort(np.concatenate(plan.members))
        np.testing.assert_array_equal(all_ids, np.arange(60))
        for s, m in enumerate(plan.members):
            np.testing.assert_array_equal(plan.shard_of[m], s)

    def test_kmeans_deterministic_and_covers_population(self):
        # The shard geometry study (examples/shard_geometry_study.py)
        # relies on kmeans plans being a pure function of (positions,
        # seed) and a true partition of the real population layout.
        from repro.config import PopulationConfig
        from repro.env import build_population
        from repro.rng import RngFactory

        pop = build_population(
            PopulationConfig(num_clients=50), RngFactory(23).get("pop")
        )
        plans = [
            build_shard_plan(
                50, 5, "kmeans",
                positions=pop.positions_m,
                rng=np.random.default_rng(7),
            )
            for _ in range(2)
        ]
        np.testing.assert_array_equal(plans[0].shard_of, plans[1].shard_of)
        for a, b in zip(plans[0].members, plans[1].members):
            np.testing.assert_array_equal(a, b)
        covered = np.sort(np.concatenate(plans[0].members))
        np.testing.assert_array_equal(covered, np.arange(50))
        assert all(m.size > 0 for m in plans[0].members)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            build_shard_plan(10, 0)
        with pytest.raises(ValueError):
            build_shard_plan(10, 11)
        with pytest.raises(ValueError):
            build_shard_plan(10, 2, "kmeans")  # missing positions/rng
        with pytest.raises(ValueError):
            build_shard_plan(10, 2, "mystery")


class TestDecomposeBudget:
    def test_fuzz_never_overshoots(self, rng):
        for _ in range(200):
            s = int(rng.integers(1, 12))
            masses = rng.uniform(0, 5, s)
            demands = rng.uniform(0, 50, s)
            total = float(rng.uniform(0, 120))
            alloc = decompose_budget(total, masses, demands)
            assert alloc.sum() <= total + 1e-9
            assert np.all(alloc <= demands + 1e-9)
            assert np.all(alloc >= 0)

    def test_slack_redistributed_to_unsaturated(self):
        # Shard 0 caps out at 1; its slack must flow to shard 1.
        alloc = decompose_budget(10.0, np.array([1.0, 1.0]), np.array([1.0, 20.0]))
        np.testing.assert_allclose(alloc, [1.0, 9.0])

    def test_exhausts_pool_when_demand_suffices(self, rng):
        for _ in range(50):
            s = int(rng.integers(1, 8))
            masses = rng.uniform(0.1, 5, s)
            demands = rng.uniform(0, 30, s)
            total = float(rng.uniform(0, demands.sum()))
            alloc = decompose_budget(total, masses, demands)
            np.testing.assert_allclose(alloc.sum(), min(total, demands.sum()), atol=1e-8)

    def test_deterministic(self, rng):
        masses = rng.uniform(0, 3, 9)
        demands = rng.uniform(0, 20, 9)
        a = decompose_budget(42.0, masses, demands)
        b = decompose_budget(42.0, masses, demands)
        np.testing.assert_array_equal(a, b)

    def test_zero_mass_splits_evenly(self):
        alloc = decompose_budget(6.0, np.zeros(3), np.full(3, 10.0))
        np.testing.assert_allclose(alloc, [2.0, 2.0, 2.0])


class TestDecomposeFloor:
    def test_fuzz_sums_and_caps(self, rng):
        for _ in range(200):
            s = int(rng.integers(1, 10))
            caps = rng.integers(0, 20, s)
            if caps.sum() == 0:
                caps[0] = 1
            n = int(rng.integers(0, 30))
            floors = decompose_floor(n, caps, offset=int(rng.integers(0, 100)))
            assert floors.sum() == min(n, caps.sum())
            assert np.all(floors <= caps)
            assert np.all(floors >= 0)

    def test_rotation_covers_all_shards(self):
        # n < S with equal caps: the single quota must circulate so no
        # shard is starved forever.
        hits = np.zeros(4, dtype=int)
        caps = np.full(4, 5)
        for t in range(8):
            hits += decompose_floor(1, caps, offset=t)
        assert np.all(hits > 0)

    def test_deterministic(self):
        caps = np.array([3, 7, 2, 9])
        a = decompose_floor(5, caps, offset=3)
        b = decompose_floor(5, caps, offset=3)
        np.testing.assert_array_equal(a, b)


class TestShardCombine:
    def test_equals_flat_weighted_average(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 40))
            d = int(rng.integers(1, 50))
            num_shards = int(rng.integers(1, 8))
            updates = [rng.normal(size=d) for _ in range(n)]
            labels = rng.integers(0, num_shards, n)
            combined = shard_combine(updates, labels, num_shards)
            flat = np.mean(np.stack(updates), axis=0)
            np.testing.assert_allclose(combined, flat, rtol=1e-10, atol=1e-12)


class TestOneShardIsFlat:
    """One shard is the flat policy; the sharded class starts at two."""

    def test_make_policy_picks_the_class_by_shard_count(self):
        flat, sharded = (
            make_policy("FedL", scaled_config(num_shards=s), np.random.default_rng(0))
            for s in (1, 2)
        )
        assert type(flat) is FedLPolicy
        assert type(sharded) is ShardedFedLPolicy

    def test_sharded_policy_rejects_one_shard(self):
        with pytest.raises(ValueError, match="num_shards >= 2"):
            fedl_pair(scaled_config(num_shards=1), num_shards=1)


class TestShardedRun:
    """S > 1 exercises budget decomposition + hierarchical aggregation."""

    def test_run_completes_and_respects_budget(self):
        cfg = scaled_config(num_shards=3)
        _, sharded = fedl_pair(cfg, num_shards=3)
        result = run_experiment(sharded, cfg)
        tr = result.trace
        assert tr.total_spend <= cfg.budget + 1e-6
        assert np.all(tr.column("num_selected") >= 1)
        assert np.all(np.isfinite(result.final_w))

    def test_engines_agree(self):
        results = []
        for engine in ("loop", "batched"):
            cfg = scaled_config(num_shards=3, engine=engine)
            _, sharded = fedl_pair(cfg, num_shards=3)
            results.append(run_experiment(sharded, cfg))
        assert results[0].trace.equals(results[1].trace)
        np.testing.assert_array_equal(results[0].final_w, results[1].final_w)

    def test_deterministic_across_runs(self):
        runs = []
        for _ in range(2):
            cfg = scaled_config(num_shards=4)
            _, sharded = fedl_pair(cfg, num_shards=4)
            runs.append(run_experiment(sharded, cfg))
        assert runs[0].trace.equals(runs[1].trace)


class TestClientStateArrays:
    """Flat state updates == the legacy per-epoch formulas."""

    def test_trajectory_matches_legacy(self, rng):
        k, epochs, ema = 40, 25, 0.5
        state = ClientStateArrays(k, tau_prior=1.0)
        tau_legacy = np.full(k, 1.0)
        loss_legacy = np.full(k, np.nan)
        rel_legacy = np.ones(k)
        for _ in range(epochs):
            avail = rng.random(k) < 0.8
            tau_real = rng.uniform(0.1, 3.0, k)
            new_losses = np.where(rng.random(k) < 0.5, rng.uniform(0, 2, k), np.nan)
            contributors = avail & (rng.random(k) < 0.6)
            clean = rng.random(k) < 0.9

            state.observe_latency(tau_real, avail)
            state.observe_losses(new_losses)
            state.observe_reliability(contributors, clean, ema)

            tau_legacy = np.where(avail, tau_real, tau_legacy)
            loss_legacy = np.where(np.isnan(new_losses), loss_legacy, new_losses)
            rel_legacy[contributors] = (
                (1.0 - ema) * rel_legacy[contributors] + ema * clean[contributors]
            )

            np.testing.assert_array_equal(state.tau_last, tau_legacy)
            np.testing.assert_array_equal(state.local_losses, loss_legacy)
            np.testing.assert_array_equal(state.reliability, rel_legacy)

    def test_charge_accumulates(self, rng):
        state = ClientStateArrays(10)
        total_sel = np.zeros(10, dtype=np.int64)
        total_spend = np.zeros(10)
        for _ in range(5):
            sel = rng.random(10) < 0.4
            costs = rng.uniform(0.1, 5, 10)
            state.charge(sel, costs)
            total_sel[sel] += 1
            total_spend[sel] += costs[sel]
        np.testing.assert_array_equal(state.cum_selected, total_sel)
        np.testing.assert_array_equal(state.spend, total_spend)


class TestInPlaceDynamics:
    """``step_into`` / ``sample_into`` == allocating ``step`` / ``sample``."""

    def test_price_step_into_bit_identical(self):
        base = np.random.default_rng(3).uniform(0.5, 8.0, 30)
        a = PriceProcess(base, rng=np.random.default_rng(7))
        b = PriceProcess(base, rng=np.random.default_rng(7))
        out = np.empty(30)
        for _ in range(20):
            np.testing.assert_array_equal(a.step(), b.step_into(out))

    def test_volume_sample_into_bit_identical(self):
        a = DataVolumeProcess(30, 40.0, rng=np.random.default_rng(11))
        b = DataVolumeProcess(30, 40.0, rng=np.random.default_rng(11))
        out = np.empty(30, dtype=np.int64)
        for _ in range(20):
            np.testing.assert_array_equal(a.sample(), b.sample_into(out))
