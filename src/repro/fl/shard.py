"""Sharded FedL selection: O(S·(K/S)²) per epoch instead of O(K²).

The flat :class:`~repro.core.fedl.FedLPolicy` solves one global selection
subproblem per epoch; its cost that grows faster than the population is
the K-dimensional FISTA solve and the constraint work inside the descent
step (Theorem 4's ``O(K²)``).  That is what sharding buys: S solves of
size K/S.  RDCS rounding is linear in the number of fractional coordinates
and costs the same flat or sharded.

:class:`ShardedFedLPolicy` partitions the fleet into ``S`` shards
(deterministic under the experiment seed), decomposes the global
per-epoch budget across shards proportionally to shard belief-cost mass
(with a redistribution pass for unspent slack), and runs an independent
FedL subproblem per shard — each with its own online learner and
warm-started FISTA state.  Shard decisions are combined into one global
:class:`~repro.strategies.base.Decision` (union of masks, max of
iteration counts).  The cost-aware decomposition follows Luo et al.,
"Cost-Effective Federated Learning Design"; the shard-then-select
structure follows the FedCS resource-pooling idea (see PAPERS.md).

The module also holds the two pieces of edge-aggregation geometry a
sharded run uses: :func:`kmeans` (Lloyd's algorithm) places the
``"kmeans"`` shards at client-density centroids, and :func:`shard_combine`
is the sharded round's mean of the model differences (per-shard partial
sums, then one global merge).

Contracts:

* ``num_shards >= 2``: one shard is the flat ``FedLPolicy``, which the
  registry builds instead (:meth:`~repro.core.fedl.FedLPolicy.from_config`).
* ``decompose_budget`` never allocates more than the global remaining
  budget, never allocates a shard more than its demand, and
  redistributes slack deterministically (property-tested).
* The participation floor ``n`` is decomposed exactly
  (``Σ_s n_s = min(n, available)``) proportionally to shard availability;
  when ``n < S`` the floor rotates deterministically across shards with
  the epoch index so every shard participates over time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.strategies.base import Decision, EpochContext, RoundFeedback
from repro.config import FedLConfig, ShardConfig
from repro.core.fedl import RELIABILITY_PENALTY, FedLPolicy
from repro.core.phi import Phi
from repro.obs import get_telemetry

__all__ = [
    "ShardPlan",
    "build_shard_plan",
    "decompose_budget",
    "decompose_floor",
    "ShardedFedLPolicy",
    "kmeans",
    "shard_combine",
]


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of client ids into shards."""

    shard_of: np.ndarray                # (K,) shard index per client
    members: Tuple[np.ndarray, ...]     # per-shard ascending client-id arrays

    def __post_init__(self) -> None:
        object.__setattr__(self, "shard_of", np.asarray(self.shard_of, dtype=np.int64))
        object.__setattr__(
            self,
            "members",
            tuple(np.asarray(m, dtype=np.int64) for m in self.members),
        )
        if sum(m.size for m in self.members) != self.shard_of.size:
            raise ValueError("members must partition the client ids")

    @property
    def num_clients(self) -> int:
        return self.shard_of.size

    @property
    def num_shards(self) -> int:
        return len(self.members)


def build_shard_plan(
    num_clients: int,
    num_shards: int,
    assignment: str = "contiguous",
    positions: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
) -> ShardPlan:
    """Partition ``num_clients`` ids into ``num_shards`` shards.

    ``"contiguous"`` splits the id range into near-equal blocks;
    ``"kmeans"`` clusters client positions (Lloyd's algorithm,
    :func:`kmeans`) so shards align with the edge-aggregator
    geometry.  Both are deterministic given ``rng``.
    """
    if not 1 <= num_shards <= num_clients:
        raise ValueError("num_shards must be in [1, num_clients]")
    if assignment == "contiguous":
        members = np.array_split(np.arange(num_clients, dtype=np.int64), num_shards)
        shard_of = np.empty(num_clients, dtype=np.int64)
        for s, m in enumerate(members):
            shard_of[m] = s
        return ShardPlan(shard_of=shard_of, members=tuple(members))
    if assignment == "kmeans":
        if positions is None or rng is None:
            raise ValueError("kmeans assignment needs positions and rng")
        pos = np.asarray(positions, dtype=float)
        if pos.shape[0] != num_clients:
            raise ValueError("positions must have one row per client")
        _, labels = kmeans(pos, num_shards, rng)
        members = tuple(
            np.flatnonzero(labels == s).astype(np.int64) for s in range(num_shards)
        )
        return ShardPlan(shard_of=labels.astype(np.int64), members=members)
    raise ValueError(f"unknown shard assignment: {assignment!r}")


def decompose_budget(
    total: float,
    masses: np.ndarray,
    demands: np.ndarray,
) -> np.ndarray:
    """Split ``total`` across shards proportionally to ``masses``, capped
    by ``demands``, redistributing unspent slack deterministically.

    Each pass grants every unsaturated shard its mass-proportional share
    of the remaining pool (capped by its residual demand); slack from
    shards that hit their cap funds the next pass.  A pass either
    exhausts the pool or saturates at least one shard, so the fixed point
    is reached in at most ``S`` passes.  Guarantees ``Σ alloc ≤ total``
    and ``alloc_s ≤ demand_s``.
    """
    masses = np.asarray(masses, dtype=float)
    demands = np.asarray(demands, dtype=float)
    if masses.shape != demands.shape:
        raise ValueError("masses and demands must have the same shape")
    alloc = np.zeros_like(demands)
    remaining = float(total)
    for _ in range(masses.size):
        headroom = demands - alloc
        open_ = headroom > 1e-12
        if remaining <= 1e-12 or not open_.any():
            break
        weights = np.where(open_, masses, 0.0)
        weight_sum = float(weights.sum())
        if weight_sum <= 0.0:
            # Degenerate zero-mass shards with demand left: split evenly.
            weights = open_.astype(float)
            weight_sum = float(weights.sum())
        grant = np.minimum(remaining * weights / weight_sum, headroom)
        grant[~open_] = 0.0
        alloc += grant
        remaining -= float(grant.sum())
    return alloc


def decompose_floor(
    n: int,
    caps: np.ndarray,
    offset: int = 0,
) -> np.ndarray:
    """Split the participation floor ``n`` across shards.

    Proportional to capacity (``caps``, the per-shard available-client
    counts) by largest remainder, capped per shard, with the top-up order
    rotated by ``offset`` so that when ``n < S`` the sub-unit quotas
    circulate across shards over epochs instead of starving a fixed
    suffix.  Returns integer floors with ``Σ n_s = min(n, Σ caps)``.
    """
    caps = np.asarray(caps, dtype=np.int64)
    s = caps.size
    target = int(min(int(n), int(caps.sum())))
    floors = np.zeros(s, dtype=np.int64)
    if target <= 0:
        return floors
    quota = target * caps / float(caps.sum())
    floors = np.minimum(np.floor(quota).astype(np.int64), caps)
    short = target - int(floors.sum())
    order = np.argsort(-(quota - np.floor(quota)), kind="stable")
    order = np.roll(order, -(int(offset) % s))
    i = 0
    while short > 0:
        j = int(order[i % s])
        if floors[j] < caps[j]:
            floors[j] += 1
            short -= 1
        i += 1
    return floors


class ShardedFedLPolicy:
    """FedL with per-shard selection subproblems and budget decomposition.

    Drop-in :class:`~repro.strategies.base.SelectionPolicy`; constructed
    transparently by the strategy registry whenever
    ``config.shard.num_shards > 1`` so sweeps, tournaments, and the CLI
    all gain sharding without code changes.
    """

    def __init__(
        self,
        num_clients: int,
        budget: float,
        min_participants: int,
        theta: float,
        rng: np.random.Generator,
        config: Optional[FedLConfig] = None,
        cost_range: tuple[float, float] = (0.1, 12.0),
        *,
        shard: ShardConfig,
        positions: Optional[np.ndarray] = None,
    ) -> None:
        num_shards = int(shard.num_shards)
        if num_shards < 2:
            raise ValueError(
                "ShardedFedLPolicy needs num_shards >= 2 (one shard is FedLPolicy)"
            )
        self.name = "FedL"
        self.rng = rng
        self.num_clients = int(num_clients)
        # One deterministic draw block from the policy stream seeds every
        # shard's child generator (and the k-means assignment).
        seeds = rng.integers(0, 2**63 - 1, size=num_shards + 1)
        if shard.assignment == "kmeans":
            if positions is None:
                raise ValueError("kmeans shard assignment needs client positions")
            plan = build_shard_plan(
                num_clients,
                num_shards,
                "kmeans",
                positions=positions,
                rng=np.random.default_rng(int(seeds[num_shards])),
            )
        else:
            plan = build_shard_plan(num_clients, num_shards, "contiguous")
        self.plan = plan
        children = []
        for s, members in enumerate(plan.members):
            if members.size == 0:
                children.append(None)
                continue
            share = members.size / num_clients
            children.append(
                FedLPolicy(
                    num_clients=members.size,
                    budget=budget * share,
                    min_participants=max(1, min(members.size, round(min_participants * share))),
                    theta=theta,
                    rng=np.random.default_rng(int(seeds[s])),
                    config=config,
                    cost_range=cost_range,
                )
            )
        self.children: Tuple[Optional[FedLPolicy], ...] = tuple(children)
        self._participated = np.zeros(num_shards, dtype=bool)

    # ------------------------------------------------------------------ select --

    def select(self, ctx: EpochContext) -> Decision:
        if ctx.num_clients != self.plan.num_clients:
            raise ValueError("context population does not match the shard plan")
        tel = get_telemetry()
        plan = self.plan
        num_shards = plan.num_shards
        avail_counts = np.array(
            [int(ctx.available[m].sum()) for m in plan.members], dtype=np.int64
        )
        floors = decompose_floor(ctx.min_participants, avail_counts, offset=ctx.t)
        active = floors >= 1
        # Belief-cost mass: the same reliability-inflated prices the
        # flat learner descends on, so unreliable shards draw less budget.
        belief = ctx.costs
        if ctx.reliability is not None:
            belief = belief * (1.0 + RELIABILITY_PENALTY * (1.0 - ctx.reliability))
        masses = np.zeros(num_shards)
        demands = np.zeros(num_shards)
        for s, members in enumerate(plan.members):
            if not active[s]:
                continue
            avail_members = members[ctx.available[members]]
            masses[s] = float(belief[avail_members].sum())
            demands[s] = float(ctx.costs[avail_members].sum())
        allocs = decompose_budget(ctx.remaining_budget, masses, demands)

        mask = np.zeros(self.num_clients, dtype=bool)
        frac = np.zeros(self.num_clients)
        iterations = 1
        rho = float("nan")
        self._participated = active & (avail_counts > 0)
        selected_per_shard = np.zeros(num_shards, dtype=np.int64)
        with tel.timer("shard.select"):
            for s, members in enumerate(plan.members):
                child = self.children[s]
                if child is None or not self._participated[s]:
                    continue
                sub_ctx = EpochContext(
                    t=ctx.t,
                    available=ctx.available[members],
                    costs=ctx.costs[members],
                    remaining_budget=float(allocs[s]),
                    min_participants=int(floors[s]),
                    tau_last=ctx.tau_last[members],
                    local_losses=ctx.local_losses[members],
                    tau_oracle=None if ctx.tau_oracle is None else ctx.tau_oracle[members],
                    reliability=None if ctx.reliability is None else ctx.reliability[members],
                )
                with tel.timer(f"shard.select.s{s}"):
                    decision = child.select(sub_ctx)
                mask[members[decision.selected]] = True
                if decision.fractional_x is not None:
                    frac[members] = decision.fractional_x
                iterations = max(iterations, decision.iterations)
                if np.isnan(rho) or decision.rho > rho:
                    rho = decision.rho
                selected_per_shard[s] = int(decision.selected.sum())
        tel.emit(
            "shard.select",
            data={
                "num_shards": num_shards,
                "active_shards": int(self._participated.sum()),
                "selected_per_shard": selected_per_shard,
                "alloc_total": float(allocs.sum()),
            },
            epoch=ctx.t,
        )
        return Decision(
            selected=mask, iterations=iterations, rho=rho, fractional_x=frac
        )

    # ------------------------------------------------------------------ update --

    def update(self, feedback: RoundFeedback) -> None:
        for s, members in enumerate(self.plan.members):
            child = self.children[s]
            if child is None or not self._participated[s]:
                continue
            child.update(
                RoundFeedback(
                    t=feedback.t,
                    selected=feedback.selected[members],
                    tau_realized=feedback.tau_realized[members],
                    local_etas=feedback.local_etas[members],
                    local_losses=feedback.local_losses[members],
                    population_loss=feedback.population_loss,
                    cost_spent=feedback.cost_spent,
                    epoch_latency=feedback.epoch_latency,
                )
            )

    # ---------------------------------------------------------------- accessors --

    @property
    def phi(self) -> Phi:
        """Global view of the per-shard fractional decisions."""
        x = np.zeros(self.num_clients)
        rho = 1.0
        for s, members in enumerate(self.plan.members):
            child = self.children[s]
            if child is None:
                continue
            x[members] = child.phi.x
            rho = max(rho, child.phi.rho)
        return Phi(x=x, rho=rho)

    @property
    def mu(self) -> np.ndarray:
        return np.concatenate(
            [child.mu for child in self.children if child is not None]
        )


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
