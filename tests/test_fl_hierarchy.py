"""Tests for hierarchical FL: k-means, clustering, two-level latency."""

import numpy as np
import pytest

from repro.config import NetworkConfig, PopulationConfig
from repro.env import build_population
from repro.fl.hierarchy import (
    Clustering,
    cluster_clients,
    hierarchical_epoch_latency,
    kmeans,
)


class TestKMeans:
    def test_recovers_separated_blobs(self, rng):
        a = rng.normal(0, 0.1, size=(30, 2))
        b = rng.normal(10, 0.1, size=(30, 2))
        pts = np.vstack([a, b])
        centroids, assign = kmeans(pts, 2, rng)
        # The two blobs end in different clusters.
        assert len(set(assign[:30])) == 1
        assert len(set(assign[30:])) == 1
        assert assign[0] != assign[30]

    def test_centroid_is_cluster_mean(self, rng):
        pts = rng.normal(size=(40, 2))
        centroids, assign = kmeans(pts, 3, rng)
        for j in range(3):
            members = pts[assign == j]
            if len(members):
                np.testing.assert_allclose(centroids[j], members.mean(axis=0), atol=1e-6)

    def test_k_equals_n(self, rng):
        pts = rng.normal(size=(5, 2))
        centroids, assign = kmeans(pts, 5, rng)
        assert len(set(assign.tolist())) == 5

    def test_k_one(self, rng):
        pts = rng.normal(size=(20, 2))
        centroids, assign = kmeans(pts, 1, rng)
        np.testing.assert_allclose(centroids[0], pts.mean(axis=0), atol=1e-8)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            kmeans(np.zeros(5), 2, rng)
        with pytest.raises(ValueError):
            kmeans(np.zeros((5, 2)), 6, rng)

    def test_assignments_nearest_centroid(self, rng):
        pts = rng.normal(size=(50, 2)) * 5
        centroids, assign = kmeans(pts, 4, rng)
        d2 = ((pts[:, None, :] - centroids[None]) ** 2).sum(-1)
        np.testing.assert_array_equal(assign, d2.argmin(axis=1))


class TestClustering:
    def test_distances_to_edge_shorter_than_to_center(self, rng):
        pop = build_population(PopulationConfig(num_clients=60), rng)
        clustering = cluster_clients(pop.positions_m, 4, rng)
        to_edge = clustering.distances_to_edge(pop.positions_m)
        to_center = pop.distances_m()
        assert to_edge.mean() < to_center.mean()


class TestHierarchicalLatency:
    def _setup(self, rng, m=40, k=4):
        pop = build_population(PopulationConfig(num_clients=m), rng)
        clustering = cluster_clients(pop.positions_m, k, rng)
        tau_loc = np.full(m, 0.001)
        return pop, clustering, tau_loc

    def test_zero_when_nothing_selected(self, rng):
        pop, clustering, tau_loc = self._setup(rng)
        lat = hierarchical_epoch_latency(
            clustering, pop.positions_m, np.zeros(40, bool), NetworkConfig(), tau_loc
        )
        assert lat == 0.0

    def test_backhaul_floor(self, rng):
        pop, clustering, tau_loc = self._setup(rng)
        sel = np.zeros(40, bool)
        sel[0] = True
        cfg = NetworkConfig()
        lat = hierarchical_epoch_latency(
            clustering, pop.positions_m, sel, cfg, tau_loc,
            backhaul_rate_bps=1e6,
        )
        assert lat >= cfg.upload_bits / 1e6  # at least the backhaul time

    def test_hierarchical_beats_flat_on_average(self, rng):
        """Shorter radio links + spatial band reuse beat the single macro
        cell for the same participant set."""
        from repro.net import ChannelModel, achievable_rate, transmission_latency

        pop, clustering, tau_loc = self._setup(rng, m=60, k=5)
        cfg = NetworkConfig()
        sel = np.zeros(60, bool)
        sel[rng.choice(60, size=20, replace=False)] = True
        # Flat: all 20 share the macro band; mean channel (no shadowing).
        chan = ChannelModel(pop.distances_m(), cfg, rng)
        snr = chan.mean_state().snr_per_hz()
        rates = np.asarray(achievable_rate(cfg.bandwidth_hz / 20, snr))
        flat = float(
            np.max(tau_loc[sel] + np.asarray(
                transmission_latency(cfg.upload_bits, rates))[sel])
        )
        hier = hierarchical_epoch_latency(
            clustering, pop.positions_m, sel, cfg, tau_loc
        )
        assert hier < flat

    def test_validation(self, rng):
        pop, clustering, tau_loc = self._setup(rng)
        with pytest.raises(ValueError):
            hierarchical_epoch_latency(
                clustering, pop.positions_m, np.ones(40, bool), NetworkConfig(),
                tau_loc, backhaul_rate_bps=0.0,
            )
