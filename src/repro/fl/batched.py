"""Vectorized execution of many clients' local solves at once.

The per-client loop in :mod:`repro.fl.round_runner` evaluates the same
small network dozens of times per global iteration — once per client for
the local gradient, then one or two evaluations per inner step of every
DANE solve.  Each evaluation is a handful of tiny GEMMs, so the run is
dominated by Python and BLAS call overhead rather than arithmetic.

:class:`BatchedClientEngine` sorts the participants by local dataset size,
stacks each run of equal-length datasets into one contiguous ``(k, n, D)``
tensor and drives all K solves step-synchronously through the model's
:class:`repro.nn.kernel.BatchedSequentialKernel` — the flat-parameter
forward/backward for dense networks that lives in :mod:`repro.nn` and that
the loop path evaluates single clients with as well
(:class:`repro.nn.models.ClassifierModel`); this module stacks it, it does
not own it.  Every numpy batched op the kernel and the solve use is
*per-slice bit-identical* to its one-client equivalent:

* GEMMs never see padded rows: clients are evaluated in equal-length
  sub-batches, because BLAS derives its panel blocking (and hence the
  floating-point accumulation grouping) from the matrix shape — padding
  the sample axis changes low-order bits even for rows that carry real
  data;
* ``np.matmul`` on exact-length stacked operands computes each slice
  with the same GEMM as the sequential 2-D call;
* elementwise ops and per-row reductions (``max``/``sum``/``exp`` along
  the class axis) do not mix rows;
* scalar reductions (the CE mean over samples, the bias-gradient sum)
  are taken over per-client contiguous slices.

Every ``(w, batch)`` point is evaluated once, as in :mod:`repro.fl.dane`.
Nothing is evaluated at ``d = 0``: :meth:`BatchedClientEngine.local_grads`
keeps the ``(F_k(w), ∇F_k(w))`` of its sweep and the solves at the same
``w`` start from them (a solve at a point no sweep covered pays one sweep of
its own).  From there a solve of ``J`` steps costs a client ``J`` kernel
evaluations when its minibatch is its whole local set (``n_k ≤
batch_size``: one fused value+gradient pass at ``w + d_{j+1}`` gives
``G(d_{j+1})`` and step ``j+1``'s gradient) and ``2J`` when it subsamples
(a minibatch gradient plus a full-batch value per step); a client that
stopped early is not evaluated again.

Per-client RNG streams are preserved exactly: each subsampling client
draws its own minibatch indices from its own generator in step order, a
client that never subsamples never touches (or creates) its generator, and
a client that early-stops (reached ``target_eta``) simply leaves the active
set, so its draw count matches the sequential loop.

The end-of-round loss sweep (:func:`batched_local_losses`) uses the same
equal-length runs, but one bucket at a time through one reused buffer: an
evaluation-only client — swept, not a contributor — holds no data
(:mod:`repro.fl.client`), and its dataset is drawn straight into the
buffer rows the kernel then reads, so the sweep never holds more than one
bucket of data beside the contributors'.

The engine only supports shared models that have a kernel — ``Sequential``
stacks of ``Linear`` and elementwise activations with 2-D inputs
(``logreg``/``mlp``); the round runner falls back to the loop for anything
else (CNNs).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fl.client import LocalSolveSpec
from repro.fl.convergence import estimate_local_accuracy
from repro.nn.kernel import BatchedSequentialKernel
from repro.nn.models import ClassifierModel

__all__ = ["BatchedSequentialKernel", "BatchedClientEngine", "batched_local_losses"]


def _equal_count_runs(clients: Sequence) -> Tuple[List[int], List[Tuple[int, int]]]:
    """The positions of ``clients`` sorted by sample count (a stable sort),
    and the ``(start, end)`` ranges of that order with one count — the
    buckets."""
    order = sorted(range(len(clients)), key=lambda j: clients[j].num_samples)
    lengths = [clients[j].num_samples for j in order]
    runs = []
    start = 0
    for j in range(1, len(order) + 1):
        if j == len(order) or lengths[j] != lengths[start]:
            runs.append((start, j))
            start = j
    return order, runs


class _ClientGroup:
    """Participants sharing one :class:`~repro.fl.client.LocalSolveSpec`.

    Members are stored sorted by local dataset size and stacked one
    equal-length run at a time (``buckets``, in the ``runs`` format of
    :meth:`BatchedSequentialKernel.evaluate_sorted`): only real samples are
    copied, nothing is padded.  The sort is pure bookkeeping — which
    clients share a GEMM never changes a result, because batched ops are
    computed per slice.
    """

    __slots__ = ("positions", "clients", "lengths", "buckets")

    def __init__(self, positions: List[int], clients: List) -> None:
        order, runs = _equal_count_runs(clients)
        self.positions = [positions[j] for j in order]
        self.clients = [clients[j] for j in order]
        self.lengths = np.asarray([c.num_samples for c in self.clients])
        self.buckets: List[Tuple[int, int, np.ndarray, np.ndarray]] = [
            (
                start,
                end,
                np.stack([c.data.x for c in self.clients[start:end]]),
                np.stack([c.data.y for c in self.clients[start:end]]),
            )
            for start, end in runs
        ]

    def runs(self, rows: np.ndarray) -> List[Tuple[int, int, np.ndarray, np.ndarray]]:
        """``buckets`` restricted to the ascending group rows ``rows``:
        ``(lo, hi, x, y)`` with ``rows[lo:hi]`` the rows of one bucket and
        ``x``/``y`` their data — the bucket's own arrays when all of it is
        there, else one gathered copy."""
        runs = []
        lo = 0
        ends = [e for _, e, _, _ in self.buckets]
        for (s, e, x, y), hi in zip(self.buckets, np.searchsorted(rows, ends)):
            if hi == lo:
                continue
            if hi - lo < e - s:
                sel = rows[lo:hi] - s
                x, y = x[sel], y[sel]
            runs.append((lo, int(hi), x, y))
            lo = hi
        return runs


def batched_local_losses(
    model: ClassifierModel, clients: Sequence, w: np.ndarray
) -> np.ndarray:
    """Per-client ``F_{t,k}(w)`` for many clients, one bucket at a time.

    A bucket (the clients with one sample count) is written into one
    buffer the sweep owns, sized for the largest bucket: an
    evaluation-only client's dataset is drawn straight into its rows
    (:meth:`repro.fl.client.FLClient.sweep_data`), a contributor's held
    dataset is copied in.  The bucket is evaluated and the next one
    overwrites it, so the sweep holds one bucket of data beside the
    contributors', and no dataset is allocated and freed per client.  Each
    bucket is one exact-length run of
    :meth:`BatchedSequentialKernel.evaluate_sorted`, so the losses are the
    floats a stack of the whole sweep gives.
    """
    w = np.asarray(w, dtype=float)
    order, runs = _equal_count_runs(clients)
    shapes = [
        (end - start, clients[order[start]].num_samples,
         clients[order[start]].num_features)
        for start, end in runs
    ]
    x_buf = np.empty(max(k * n * d for k, n, d in shapes))
    y_buf = np.empty(max(k * n for k, n, _ in shapes), dtype=np.int64)
    losses = np.empty(len(clients))
    for (start, end), (k, n, d) in zip(runs, shapes):
        x = x_buf[: k * n * d].reshape(k, n, d)
        y = y_buf[: k * n].reshape(k, n)
        members = order[start:end]
        for row, j in enumerate(members):
            out = x[row]
            data = clients[j].sweep_data(out=out)
            if data.x is not out:  # a contributor's held dataset
                out[...] = data.x
            y[row] = data.y
        losses[members], _ = model.kernel.evaluate_sorted(
            w, [(0, k, x, y)], model.l2_reg, want_grad=False
        )
    return losses


class BatchedClientEngine:
    """Round-scoped vectorized executor for one participant set."""

    def __init__(self, model: ClassifierModel, participants: Sequence) -> None:
        self.model = model
        self.kernel: BatchedSequentialKernel = model.kernel
        self.participants = list(participants)
        by_spec: Dict[LocalSolveSpec, List[int]] = {}
        for pos, c in enumerate(self.participants):
            by_spec.setdefault(c.spec, []).append(pos)
        self.groups = [
            _ClientGroup(positions, [self.participants[p] for p in positions])
            for positions in by_spec.values()
        ]
        # (w, per-group (loss, grad)) of the last local_grads() sweep, so the
        # solve at the same broadcast point reuses it instead of recomputing.
        self._eval_cache: Optional[Tuple[np.ndarray, List[Tuple]]] = None

    @staticmethod
    def supported(model, participants: Sequence) -> bool:
        """True when every participant can run through the batched kernel."""
        if not isinstance(model, ClassifierModel) or model.kernel is None:
            return False
        for c in participants:
            if c.model is not model:
                return False
            if c.holds_data:
                if c.data.x.ndim != 2:
                    return False
            elif c.num_features != model.kernel.in_dim:
                # Not drawn yet: its stream's rows are num_features wide.
                return False
        return True

    # -- full-batch gradients at a shared point ---------------------------------

    def local_grads(self, w: np.ndarray) -> List[np.ndarray]:
        """``[∇F_{t,k}(w)]`` in participant order (single batched sweep)."""
        w = np.asarray(w, dtype=float)
        per_group: List[Tuple] = []
        grads: List[Optional[np.ndarray]] = [None] * len(self.participants)
        for group in self.groups:
            losses, flat = self.kernel.evaluate_sorted(
                w, group.buckets, self.model.l2_reg
            )
            per_group.append((losses, flat))
            for j, pos in enumerate(group.positions):
                grads[pos] = flat[j]
        self._eval_cache = (w.copy(), per_group)
        return grads  # type: ignore[return-value]

    # -- one global iteration ----------------------------------------------------

    def train_iteration_all(
        self,
        w_global: np.ndarray,
        global_grad: np.ndarray,
        target_eta: Optional[float] = None,
    ) -> List[Tuple[np.ndarray, float, List[float]]]:
        """All participants' DANE solves at the broadcast point.

        Returns ``(d, η̂, trajectory)`` per participant, matching
        :meth:`repro.fl.client.FLClient.train_iteration` bit-for-bit.
        """
        w_global = np.asarray(w_global, dtype=float)
        global_grad = np.asarray(global_grad, dtype=float)
        cache = self._eval_cache
        reuse = cache is not None and np.array_equal(cache[0], w_global)
        out: List[Optional[Tuple]] = [None] * len(self.participants)
        for gi, group in enumerate(self.groups):
            if reuse:
                f0, g0 = cache[1][gi]
            else:
                f0, g0 = self.kernel.evaluate_sorted(
                    w_global, group.buckets, self.model.l2_reg
                )
            ds, etas, trajs = self._solve_group(
                group, w_global, global_grad, target_eta, f0, g0
            )
            for j, pos in enumerate(group.positions):
                out[pos] = (ds[j], etas[j], trajs[j])
        return out  # type: ignore[return-value]

    def _solve_group(
        self,
        group: _ClientGroup,
        w_global: np.ndarray,
        global_grad: np.ndarray,
        target_eta: Optional[float],
        f0: np.ndarray,
        g0: np.ndarray,
    ) -> Tuple[np.ndarray, List[float], List[List[float]]]:
        """:func:`repro.fl.dane.dane_local_step` for every client of the
        group at once, from the sweep's ``(f0, g0) = (F_k(w), ∇F_k(w))``.

        The per-step state — ``d``, the linear term ``lt``, the gradient
        ``g`` in use, the velocity and one scratch ``t`` — holds one row per
        *active* client, in group (length-sorted) order, so the full-batch
        clients stay a prefix ``[:nf]``; every update below is the loop's
        elementwise IEEE operation applied in place.  Rows leave only when
        a client reaches ``target_eta``.
        """
        c0 = group.clients[0]
        spec = c0.spec
        k_count = len(group.clients)
        p = w_global.size
        sigma1 = spec.sigma1
        lr = spec.sgd_lr
        momentum = spec.momentum
        batch_size = spec.batch_size
        reg = self.model.l2_reg
        exact = self.kernel._evaluate_exact
        if spec.local_solver == "dane":
            lt = g0 - spec.sigma2 * global_grad[None, :]
        else:  # fedprox: the gradient-correction linear term is dropped
            lt = np.zeros((k_count, p))
        d = np.zeros((k_count, p))
        velocity = np.zeros((k_count, p)) if momentum > 0.0 else None
        t = np.empty((k_count, p))
        # A full-batch client's first gradient is the sweep's; each later
        # one comes out of the fused pass that also yields G(d)'s value.
        n_full = int(np.searchsorted(group.lengths, batch_size, side="right"))
        g = np.empty((k_count, p))
        g[:n_full] = g0[:n_full]
        # Minibatch stack of the subsampling clients (all draw batch_size).
        dim = c0.data.x.shape[1]
        xb = np.empty((k_count - n_full, batch_size, dim))
        yb = np.empty((k_count - n_full, batch_size), dtype=np.int64)
        trajs: List[List[float]] = [[float(f)] for f in f0]  # G(0) = F_k(w)
        fb = np.empty(k_count)
        rows = np.arange(k_count)       # group row of each active state row
        out = None                      # (K, P) result once a row has left
        nf, runs = n_full, group.buckets
        for step in range(spec.sgd_steps):
            if nf < rows.size:
                np.add(w_global, d[nf:], out=t[nf:])
                for j, k in enumerate(rows[nf:].tolist()):
                    c = group.clients[k]
                    idx = c.rng.choice(c.num_samples, size=batch_size, replace=False)
                    xb[j] = c.data.x[idx]
                    yb[j] = c.data.y[idx]
                ns = rows.size - nf
                exact(t[nf:], xb[:ns], yb[:ns], reg, True, out=g[nf:])
            # ∇G(d) = g + σ1 d − lt, then the (heavy-ball) step, into t.
            np.multiply(d, sigma1, out=t)
            t += g
            t -= lt
            t *= lr
            if velocity is not None:
                velocity *= momentum
                velocity -= t
                d += velocity
            else:
                d -= t
            np.add(w_global, d, out=t)
            # G(d)'s value on the full local set; for a full-batch client
            # the same pass yields the gradient of its next step.
            for lo, hi, x, y in runs:
                fused = lo < nf
                fb[lo:hi], _ = exact(
                    t[lo:hi], x, y, reg, fused, out=g[lo:hi] if fused else None
                )
            check = target_eta is not None and step >= 1
            stop = np.zeros(rows.size, dtype=bool)
            for j, k in enumerate(rows.tolist()):
                traj = trajs[k]
                traj.append(
                    float(fb[j])
                    + 0.5 * sigma1 * float(d[j] @ d[j])
                    - float(lt[j] @ d[j])
                )
                stop[j] = check and estimate_local_accuracy(traj) <= target_eta
            if stop.any():
                if out is None:
                    out = np.empty((k_count, p))
                out[rows[stop]] = d[stop]
                keep = ~stop
                rows = rows[keep]
                d, lt, g = d[keep], lt[keep], g[keep]
                if velocity is not None:
                    velocity = velocity[keep]
                t, fb = t[: rows.size], fb[: rows.size]
                nf = int(np.count_nonzero(rows < n_full))
                if rows.size == 0:
                    break
                runs = group.runs(rows)
        if out is None:
            out = d
        else:
            out[rows] = d
        return out, [estimate_local_accuracy(traj) for traj in trajs], trajs
