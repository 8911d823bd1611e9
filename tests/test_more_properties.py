"""Additional property-based tests across substrates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.offline import epoch_frontier
from repro.fl.compression import topk_sparsify, uniform_quantize
from repro.fl.shard import kmeans
from repro.nn.models import build_model
from repro.nn.serialization import load_checkpoint, save_checkpoint


class TestFrontierProperties:
    @given(st.integers(0, 5_000))
    @settings(max_examples=60, deadline=None)
    def test_frontier_dominates_random_subsets(self, seed):
        """No random n-subset beats the frontier in both cost and latency."""
        rng = np.random.default_rng(seed)
        m, n = 8, 3
        tau = rng.uniform(0.1, 2.0, m)
        costs = rng.uniform(0.5, 3.0, m)
        options = epoch_frontier(tau, costs, np.ones(m, bool), n)
        for _ in range(10):
            pick = rng.choice(m, size=n, replace=False)
            cost = costs[pick].sum()
            lat = tau[pick].max()
            dominated = any(
                opt.cost <= cost + 1e-12 and opt.latency <= lat + 1e-12
                for opt in options
            )
            assert dominated

    @given(st.integers(0, 2_000))
    @settings(max_examples=40, deadline=None)
    def test_frontier_latencies_increasing(self, seed):
        rng = np.random.default_rng(seed)
        tau = rng.uniform(0.1, 2.0, 8)
        costs = rng.uniform(0.5, 3.0, 8)
        options = epoch_frontier(tau, costs, np.ones(8, bool), 2)
        lats = [o.latency for o in options]
        assert lats == sorted(lats)


class TestCompressionProperties:
    @given(st.integers(0, 2_000), st.integers(1, 31))
    @settings(max_examples=60)
    def test_topk_bits_monotone_in_k(self, seed, k):
        rng = np.random.default_rng(seed)
        d = rng.normal(size=32)
        k = min(k, 31)
        b1 = topk_sparsify(d, k).bits
        b2 = topk_sparsify(d, k + 1).bits
        assert b2 > b1

    @given(st.integers(0, 2_000))
    @settings(max_examples=60)
    def test_quantize_idempotent_on_levels(self, seed):
        """Quantizing an already-quantized vector is lossless."""
        rng = np.random.default_rng(seed)
        d = rng.normal(size=20)
        once = uniform_quantize(d, 6).vector
        twice = uniform_quantize(once, 6).vector
        np.testing.assert_allclose(once, twice, atol=1e-10)

    @given(st.integers(0, 2_000))
    @settings(max_examples=40)
    def test_topk_preserves_kept_values_exactly(self, seed):
        rng = np.random.default_rng(seed)
        d = rng.normal(size=24)
        out = topk_sparsify(d, 8).vector
        nz = out != 0
        np.testing.assert_array_equal(out[nz], d[nz])


class TestKMeansProperties:
    @given(st.integers(0, 1_000), st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_assignment_cost_beats_single_cluster(self, seed, k):
        """k-means (k >= 2) cost is no worse than putting every point in
        one cluster at the global mean — the k = 1 optimum.  (Lloyd's can
        land in a local optimum, but never one worse than merging all
        clusters, since each centroid is its members' mean.)"""
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(30, 2))
        C, assign = kmeans(pts, k, rng)
        cost = (((pts - C[assign]) ** 2).sum(-1)).sum()
        single = (((pts - pts.mean(axis=0)) ** 2).sum(-1)).sum()
        assert cost <= single + 1e-9


class TestCheckpointProperties:
    def test_round_trip_exact_many_seeds(self, tmp_path):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            model = build_model("mlp", 5, 3, rng, hidden=(4,))
            w = rng.normal(size=model.num_params)
            path = tmp_path / f"m{seed}.npz"
            save_checkpoint(model, path, w=w)
            loaded, _ = load_checkpoint(path)
            np.testing.assert_array_equal(loaded, w)
