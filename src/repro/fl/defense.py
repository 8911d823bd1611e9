"""Update validation and Byzantine-robust aggregation.

Every upload crosses this layer before it can touch the global model:

1. **Validation gate** — every update is checked for finite values.  With
   no defense configured a non-finite update raises a *typed*
   :class:`CorruptUpdateError` naming the client, epoch and iteration
   (fast-fail for honest LR blow-ups as much as for attacks); with a
   defense active the update is *quarantined* — dropped from the
   aggregate and recorded against the client — so a NaN/Inf payload can
   never reach aggregation in any engine.
2. **Norm clipping** — under the ``norm-clip`` aggregator, updates whose
   L2 norm exceeds the median survivor norm are rescaled onto it and
   recorded as clipped.
3. **Robust aggregation** — pluggable combiners over the surviving
   updates: coordinate-wise ``median``, ``trimmed-mean`` (drop the
   ``⌊0.2·n⌋`` extremes per coordinate), ``norm-clip``-ed mean, and
   ``krum`` (Blanchard et al.: the update closest to its ``n−f−2``
   nearest neighbors, ``f = ⌈n/5⌉``).  ``mean`` keeps the plain average
   but still applies the quarantine gate.

The aggregator comes from :class:`repro.config.DefenseConfig`.  The
``none``/no-defense path performs only the finite check and leaves
values and aggregation order untouched — the attack-free pipeline stays
bit-identical to a build without this module (bench-gated).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.config import DefenseConfig

__all__ = [
    "AGGREGATORS",
    "CorruptUpdateError",
    "TrainingDivergedError",
    "DefenseRoundReport",
    "ScreenedUpdates",
    "screen_updates",
    "coordinate_median",
    "trimmed_mean",
    "krum",
    "robust_aggregate",
]

#: Robust aggregators selectable from :class:`repro.config.DefenseConfig`
#: and the CLI.  ``none`` disables the defense layer (gate still fast-fails
#: on non-finite updates); ``mean`` keeps plain averaging but quarantines.
AGGREGATORS = ("none", "mean", "median", "trimmed-mean", "norm-clip", "krum")


class CorruptUpdateError(RuntimeError):
    """A client uploaded a non-finite update and no defense is active."""

    def __init__(self, client_id: int, epoch: int, iteration: int) -> None:
        self.client_id = int(client_id)
        self.epoch = int(epoch)
        self.iteration = int(iteration)
        super().__init__(
            f"client {client_id} uploaded a non-finite update at epoch "
            f"{epoch}, iteration {iteration} (enable a defense aggregator "
            "to quarantine instead of aborting)"
        )


class TrainingDivergedError(RuntimeError):
    """The global model left the finite range (LR blow-up / overflow)."""

    def __init__(self, epoch: int, iteration: int) -> None:
        self.epoch = int(epoch)
        self.iteration = int(iteration)
        super().__init__(
            f"global model became non-finite at epoch {epoch}, iteration "
            f"{iteration} — training diverged"
        )


@dataclass
class DefenseRoundReport:
    """Per-round quarantine bookkeeping (one entry per client id)."""

    aggregator: str
    rejected: np.ndarray                # (M,) int — non-finite uploads dropped
    clipped: np.ndarray                 # (M,) int — norm-clipped uploads
    empty_iterations: int = 0           # iterations where every update died

    @classmethod
    def empty(cls, num_clients: int, aggregator: str) -> "DefenseRoundReport":
        return cls(
            aggregator=aggregator,
            rejected=np.zeros(num_clients, dtype=int),
            clipped=np.zeros(num_clients, dtype=int),
        )

    @property
    def num_quarantined(self) -> int:
        """Distinct clients with at least one rejected upload."""
        return int((self.rejected > 0).sum())

    @property
    def total_rejected(self) -> int:
        return int(self.rejected.sum())

    @property
    def total_clipped(self) -> int:
        return int(self.clipped.sum())


@dataclass
class ScreenedUpdates:
    """Output of the validation gate for one global iteration.

    With no defense ``updates`` is what the gate was given; with one it is
    the first rows of the ``(n, P)`` block the survivors were moved up into.
    """

    updates: Union[np.ndarray, Sequence[np.ndarray]]
    client_ids: List[int]
    rejected_ids: List[int] = field(default_factory=list)
    clipped_ids: List[int] = field(default_factory=list)


def screen_updates(
    updates: Sequence[np.ndarray],
    client_ids: Sequence[int],
    *,
    defense: Optional[DefenseConfig],
    epoch: int,
    iteration: int,
) -> ScreenedUpdates:
    """Run the validation gate over one iteration's uploads.

    With ``defense=None`` this is a pure check: the first non-finite
    update raises :class:`CorruptUpdateError` and finite inputs pass
    through untouched (the same list or block, same order — the
    bit-identity contract of the undefended path).  With a defense,
    non-finite updates are quarantined and — under ``norm-clip`` —
    oversized survivors are rescaled onto the bound.  The updates are read
    as one ``(n, P)`` block (an upload block as it is, a list stacked into
    a new one) and screened in place: the surviving rows move up, in
    order, and are rescaled where they lie, so the survivors are a view of
    the block.
    """
    if len(updates) != len(client_ids):
        raise ValueError("one client id per update required")
    if defense is None:
        # Benign fast path: a single fused reduction per update.  Any
        # NaN/Inf poisons the sum, so a finite sum certifies the whole
        # vector without materializing an elementwise boolean temp.  A
        # non-finite sum can also mean finite values overflowed, so only
        # the exact elementwise scan decides whether to raise.
        for pos, d in enumerate(updates):
            if not np.isfinite(np.sum(d)) and not np.all(np.isfinite(d)):
                raise CorruptUpdateError(client_ids[pos], epoch, iteration)
        return ScreenedUpdates(
            updates=updates, client_ids=[int(c) for c in client_ids]
        )
    updates = np.asarray(updates, dtype=float)
    finite = [bool(np.isfinite(d).all()) for d in updates]
    kept_ids = [int(c) for c, ok in zip(client_ids, finite) if ok]
    rejected = [int(c) for c, ok in zip(client_ids, finite) if not ok]
    for row, pos in enumerate(np.flatnonzero(finite)):
        if row != pos:
            updates[row] = updates[pos]
    kept = updates[: len(kept_ids)]
    clipped: List[int] = []
    if defense.aggregator == "norm-clip" and len(kept):
        norms = np.asarray([float(np.linalg.norm(d)) for d in kept])
        bound = float(np.median(norms))
        if bound > 0.0:
            for pos, (d, norm) in enumerate(zip(kept, norms)):
                if norm > bound:
                    kept[pos] = d * (bound / norm)
                    clipped.append(kept_ids[pos])
    return ScreenedUpdates(
        updates=kept,
        client_ids=kept_ids,
        rejected_ids=rejected,
        clipped_ids=clipped,
    )


# -- robust combiners ----------------------------------------------------------


def _stacked(updates: Sequence[np.ndarray]) -> np.ndarray:
    """The updates as one ``(n, P)`` array: an upload block is read as it
    is, not copied (so the combiners sort or partition it in place); a list
    is stacked into a new one."""
    if len(updates) == 0:
        raise ValueError("no updates to aggregate")
    return np.asarray(updates, dtype=float)


def coordinate_median(updates: Sequence[np.ndarray]) -> np.ndarray:
    """Coordinate-wise median of the updates (unweighted).  An ``(n, P)``
    block is partitioned in place."""
    return np.median(_stacked(updates), axis=0, overwrite_input=True)


def trimmed_mean(
    updates: Sequence[np.ndarray], trim_fraction: float = 0.2
) -> np.ndarray:
    """Coordinate-wise mean after dropping the ``⌊trim·n⌋`` extremes per side.

    Degenerates to the plain (unweighted) mean when ``⌊trim·n⌋ = 0`` and
    to the coordinate median when trimming would exhaust the sample.  An
    ``(n, P)`` block is sorted in place; a list is left as it was.
    """
    if not (0.0 <= trim_fraction < 0.5):
        raise ValueError("trim_fraction must be in [0, 0.5)")
    stacked = _stacked(updates)
    n = stacked.shape[0]
    k = int(np.floor(trim_fraction * n))
    if 2 * k >= n:
        return np.median(stacked, axis=0, overwrite_input=True)
    if k == 0:
        return stacked.mean(axis=0)
    stacked.sort(axis=0)  # the round's block or a fresh stack: no copy
    return stacked[k : n - k].mean(axis=0)


#: Row-tile budget for the blocked pairwise-distance computation: the
#: difference buffer holds at most this many floats (32 MiB of float64),
#: so Krum never materializes the full (n, n, d) tensor at large
#: selected-set sizes.
_KRUM_TILE_FLOATS = 1 << 22


def _pairwise_sq_dists(stacked: np.ndarray) -> np.ndarray:
    """Blocked ``‖u_i − u_j‖²`` matrix.

    Identical output to the monolithic
    ``einsum("ijk,ijk->ij", diffs, diffs)`` over the full difference
    tensor — each (i, j) entry is the same elementwise subtract followed
    by the same k-ordered product sum — computed one fixed-size row tile
    at a time, so peak memory is O(tile·n·d) instead of O(n²·d).
    """
    n, d = stacked.shape
    rows = max(1, min(n, _KRUM_TILE_FLOATS // max(1, n * d)))
    sq = np.empty((n, n))
    buf = np.empty((rows, n, d))
    for i0 in range(0, n, rows):
        i1 = min(n, i0 + rows)
        r = i1 - i0
        np.subtract(stacked[i0:i1, None, :], stacked[None, :, :], out=buf[:r])
        np.einsum("ijk,ijk->ij", buf[:r], buf[:r], out=sq[i0:i1])
    return sq


def krum(updates: Sequence[np.ndarray], f: Optional[int] = None) -> np.ndarray:
    """Krum (Blanchard et al. 2017): the single update with the smallest
    summed squared distance to its ``n − f − 2`` nearest neighbors.

    ``f=None`` assumes ``⌈n/5⌉`` Byzantine clients.  When ``n < f + 3``
    (too few updates for the Krum guarantee) the combiner falls back to
    the coordinate median, which stays bounded for any minority of
    outliers.
    """
    stacked = _stacked(updates)
    n = stacked.shape[0]
    f_eff = int(np.ceil(n / 5)) if f is None else int(f)
    if n - f_eff - 2 < 1:
        return np.median(stacked, axis=0, overwrite_input=True)
    sq = _pairwise_sq_dists(stacked)
    np.fill_diagonal(sq, np.inf)
    neighbor_d = np.sort(sq, axis=1)[:, : n - f_eff - 2]
    scores = neighbor_d.sum(axis=1)
    return stacked[int(np.argmin(scores))].copy()


def robust_aggregate(
    updates: Sequence[np.ndarray], defense: DefenseConfig
) -> np.ndarray:
    """Combined model delta for the non-mean robust aggregators."""
    if defense.aggregator == "median":
        return coordinate_median(updates)
    if defense.aggregator == "trimmed-mean":
        return trimmed_mean(updates)
    if defense.aggregator == "krum":
        return krum(updates)
    raise ValueError(
        f"aggregator {defense.aggregator!r} is not a robust combiner "
        "(mean/norm-clip delegate to the server's average)"
    )
