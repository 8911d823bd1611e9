"""Hierarchical federated learning across edge clusters (related work [2]).

Abad et al. [2] aggregate across heterogeneous cellular networks in two
levels: clients upload to a nearby small-cell **edge server**, which
aggregates locally and forwards one update over a backhaul to the cloud.
Shorter radio links mean better channels, so the intra-cluster uploads
are faster than the flat client→macro-cell uploads of the paper's model.

This module provides:

* :func:`kmeans` — plain Lloyd's algorithm (from scratch; used to place
  the edge servers at client-density centroids),
* :func:`cluster_clients` — k-means placement + assignment,
* :func:`hierarchical_epoch_latency` — two-level latency:
  ``max over clusters ( max over its participants τ_client→edge
  + τ_edge→cloud )``, with the intra-cluster FDMA band shared only among
  the cluster's participants,
* :func:`shard_combine` — the sharded round's two-level mean of the
  model differences (per-shard partial sums, then one global merge).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.config import NetworkConfig
from repro.net.fdma import achievable_rate
from repro.net.latency import transmission_latency
from repro.net.pathloss import db_to_linear, dbm_to_watt, pathloss_db

__all__ = [
    "kmeans",
    "Clustering",
    "cluster_clients",
    "hierarchical_epoch_latency",
    "shard_combine",
]


def kmeans(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator,
    max_iters: int = 100,
    tol: float = 1e-8,
) -> Tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm: returns ``(centroids (k,d), assignments (N,))``.

    Initialized by sampling k distinct points (k-means++-lite: the first
    uniformly, the rest proportional to squared distance).  Empty clusters
    are re-seeded at the farthest point.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be (N, d)")
    n = pts.shape[0]
    if not (1 <= k <= n):
        raise ValueError("k must be in [1, N]")
    # k-means++ seeding.
    centroids = [pts[rng.integers(n)]]
    for _ in range(k - 1):
        d2 = np.min(
            ((pts[:, None, :] - np.stack(centroids)[None]) ** 2).sum(-1), axis=1
        )
        total = d2.sum()
        if total <= 0:
            centroids.append(pts[rng.integers(n)])
            continue
        centroids.append(pts[rng.choice(n, p=d2 / total)])
    C = np.stack(centroids)
    assign = np.zeros(n, dtype=int)
    for _ in range(max_iters):
        d2 = ((pts[:, None, :] - C[None]) ** 2).sum(-1)
        assign = np.argmin(d2, axis=1)
        new_C = C.copy()
        for j in range(k):
            members = pts[assign == j]
            if members.size == 0:
                # Re-seed at the globally farthest point.
                new_C[j] = pts[np.argmax(d2.min(axis=1))]
            else:
                new_C[j] = members.mean(axis=0)
        shift = float(np.max(np.abs(new_C - C)))
        C = new_C
        if shift <= tol:
            break
    d2 = ((pts[:, None, :] - C[None]) ** 2).sum(-1)
    return C, np.argmin(d2, axis=1)


@dataclass(frozen=True)
class Clustering:
    """Edge-server placement and client assignment."""

    centroids: np.ndarray       # (k, 2) edge-server positions
    assignments: np.ndarray     # (M,) cluster index per client

    def __post_init__(self) -> None:
        object.__setattr__(self, "centroids", np.asarray(self.centroids, dtype=float))
        object.__setattr__(
            self, "assignments", np.asarray(self.assignments, dtype=int)
        )

    @property
    def num_clusters(self) -> int:
        return self.centroids.shape[0]

    def distances_to_edge(self, positions: np.ndarray) -> np.ndarray:
        """Each client's distance to its own edge server."""
        pos = np.asarray(positions, dtype=float)
        return np.linalg.norm(pos - self.centroids[self.assignments], axis=1)


def cluster_clients(
    positions: np.ndarray,
    num_clusters: int,
    rng: np.random.Generator,
) -> Clustering:
    """Place ``num_clusters`` edge servers by k-means over client positions."""
    centroids, assignments = kmeans(positions, num_clusters, rng)
    return Clustering(centroids=centroids, assignments=assignments)


def hierarchical_epoch_latency(
    clustering: Clustering,
    positions: np.ndarray,
    selected: np.ndarray,
    config: NetworkConfig,
    tau_loc: np.ndarray,
    backhaul_rate_bps: float = 100e6,
    min_distance_m: float = 1.0,
) -> float:
    """Two-level epoch latency for one global iteration.

    Each cluster's participants share that cluster's FDMA band equally
    (every edge server reuses the full ``B`` — spatial reuse); the edge
    server forwards one aggregate of ``upload_bits`` over the backhaul.
    """
    sel = np.asarray(selected, dtype=bool)
    if not sel.any():
        return 0.0
    if backhaul_rate_bps <= 0:
        raise ValueError("backhaul rate must be positive")
    pos = np.asarray(positions, dtype=float)
    dist = np.maximum(clustering.distances_to_edge(pos), min_distance_m)
    pl = np.asarray(pathloss_db(dist), dtype=float)
    gains = np.asarray(db_to_linear(-pl), dtype=float)
    p_watt = float(dbm_to_watt(config.tx_power_dbm))
    n0 = float(dbm_to_watt(config.noise_psd_dbm_hz))
    snr_hz = gains * p_watt / n0

    backhaul = config.upload_bits / backhaul_rate_bps
    worst = 0.0
    for j in range(clustering.num_clusters):
        members = sel & (clustering.assignments == j)
        count = int(members.sum())
        if count == 0:
            continue
        share = config.bandwidth_hz / count
        rates = np.asarray(achievable_rate(share, snr_hz[members]), dtype=float)
        tau_cm = np.asarray(
            transmission_latency(config.upload_bits, rates), dtype=float
        )
        cluster_latency = float(np.max(tau_loc[members] + tau_cm)) + backhaul
        worst = max(worst, cluster_latency)
    return worst


def shard_combine(
    updates: np.ndarray,
    labels: np.ndarray,
    num_shards: int,
) -> np.ndarray:
    """Two-level mean: per-shard partial sums, then a global combine over
    the shard aggregates.

    Mathematically equal to the flat mean of the update rows — what
    changes is the summation structure (each shard reduces its own
    members first, as an edge aggregator would), property-tested for
    random shard counts.  Used by the sharded round path where updates
    arrive grouped by shard.
    """
    stacked = np.asarray(updates, dtype=float)
    lab = np.asarray(labels, dtype=np.int64)
    if stacked.ndim != 2 or stacked.shape[0] != lab.size:
        raise ValueError("need one shard label per update row")
    if lab.size == 0:
        raise ValueError("need at least one update")
    partial = np.zeros((num_shards, stacked.shape[1]))
    np.add.at(partial, lab, stacked)
    return partial.sum(axis=0) / float(lab.size)
