"""Vectorized execution of many clients' local solves at once.

The per-client loop in :mod:`repro.fl.round_runner` evaluates the same
small network dozens of times per global iteration — once per client for
the local gradient, then one or two evaluations per inner step of every
DANE solve.  Each evaluation is a handful of tiny GEMMs, so the run is
dominated by Python and BLAS call overhead rather than arithmetic.

:class:`BatchedClientEngine` sorts the participants by local dataset size
into *buckets* — the clients with one sample count — and runs one
bucket's solves to completion before it starts the next, so the solve
state is one bucket wide, through the model's
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

A bucket's data is one contiguous ``(k, n, D)`` / ``(k, n)`` array pair:
the epoch's install (``runner._install_epoch_data``) draws the
contributors of one sample count into one such pair and gives each
client row views, and the engine evaluates those arrays as they are.
Only clients installed otherwise (one array each) are stacked into a
copy.

Per-client RNG streams are preserved exactly: each subsampling client
draws its own minibatch indices from its own generator in step order
(streams are first drawn in bucket order, ascending sample count), a
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


def _rows_of(views: List[np.ndarray]) -> Optional[np.ndarray]:
    """The array whose rows ``0 .. m−1`` are ``views``, in order, else None."""
    base = views[0].base
    if base is None or base.shape != (len(views),) + views[0].shape:
        return None
    start, step = base.__array_interface__["data"][0], base.strides[0]
    for j, v in enumerate(views):
        if v.base is not base or v.__array_interface__["data"][0] != start + j * step:
            return None
    return base


def _bucket_data(clients: Sequence) -> Tuple[np.ndarray, np.ndarray]:
    """One bucket's ``(m, n, D)`` / ``(m, n)`` data: the arrays the epoch's
    install drew it into (``runner._install_epoch_data``), else a stack."""
    xs, ys = [c.data.x for c in clients], [c.data.y for c in clients]
    x, y = _rows_of(xs), _rows_of(ys)
    if x is None or y is None:
        return np.stack(xs), np.stack(ys)
    return x, y


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
    bucket is one exact-length kernel evaluation, so the losses are the
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
        losses[members], _ = model.kernel._evaluate_exact(
            w, x, y, model.l2_reg, False
        )
    return losses


class BatchedClientEngine:
    """Round-scoped vectorized executor for one participant set.

    ``buckets`` are ``(positions, x, y)``: the participants (by position)
    sharing one :class:`~repro.fl.client.LocalSolveSpec` and one sample
    count, ascending count, and their data — only real samples, nothing
    padded.  Which clients share a GEMM never changes a result, because
    batched ops are computed per slice.
    """

    def __init__(self, model: ClassifierModel, participants: Sequence) -> None:
        self.model = model
        self.kernel: BatchedSequentialKernel = model.kernel
        self.participants = list(participants)
        by_key: Dict[Tuple[LocalSolveSpec, int], List[int]] = {}
        for pos, c in sorted(
            enumerate(self.participants), key=lambda pc: pc[1].num_samples
        ):
            by_key.setdefault((c.spec, c.num_samples), []).append(pos)
        self.buckets = [
            (positions, *_bucket_data([self.participants[p] for p in positions]))
            for positions in by_key.values()
        ]
        # (w, per-bucket (loss, grad)) of the last local_grads() sweep, so the
        # next solve at the same broadcast point takes it instead of
        # recomputing.
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

    def _sweep(self, w: np.ndarray, x: np.ndarray, y: np.ndarray) -> Tuple:
        return self.kernel._evaluate_exact(w, x, y, self.model.l2_reg, True)

    # -- full-batch gradients at a shared point ---------------------------------

    def local_grads(self, w: np.ndarray) -> List[np.ndarray]:
        """``[∇F_{t,k}(w)]`` in participant order (one pass per bucket)."""
        w = np.asarray(w, dtype=float)
        starts = [self._sweep(w, x, y) for _, x, y in self.buckets]
        grads: List[Optional[np.ndarray]] = [None] * len(self.participants)
        for (positions, _, _), (_, flat) in zip(self.buckets, starts):
            for j, pos in enumerate(positions):
                grads[pos] = flat[j]
        self._eval_cache = (w.copy(), starts)
        return grads  # type: ignore[return-value]

    # -- one global iteration ----------------------------------------------------

    def train_iteration_all(
        self,
        w_global: np.ndarray,
        global_grad: np.ndarray,
        out: np.ndarray,
        target_eta: Optional[float] = None,
    ) -> List[Tuple[np.ndarray, float, List[float]]]:
        """All participants' DANE solves at the broadcast point, one
        bucket's to completion before the next, each ``d`` written into its
        participant's row of ``out`` (an ``(m, P)`` block) as its solve
        ends.  Returns ``(d, η̂, trajectory)`` per participant, ``d`` a view
        of its row, matching :meth:`repro.fl.client.FLClient.train_iteration`
        bit-for-bit."""
        w_global = np.asarray(w_global, dtype=float)
        global_grad = np.asarray(global_grad, dtype=float)
        # The sweep's pairs are taken out of the cache, and bucket b's is
        # dropped once its solve has read it: the solves never hold more
        # than the unread buckets' pairs beside their own state.
        cache, self._eval_cache = self._eval_cache, None
        reuse = cache is not None and np.array_equal(cache[0], w_global)
        pairs = cache[1] if reuse else None
        solved: List[Optional[Tuple]] = [None] * len(self.participants)
        for b, (positions, x, y) in enumerate(self.buckets):
            if pairs is None:
                f0, g0 = self._sweep(w_global, x, y)
            else:
                (f0, g0), pairs[b] = pairs[b], None
            etas, trajs = self._solve_bucket(
                [self.participants[p] for p in positions], x, y,
                w_global, global_grad, target_eta, f0, g0,
                out, np.asarray(positions),
            )
            for j, pos in enumerate(positions):
                solved[pos] = (out[pos], etas[j], trajs[j])
        return solved  # type: ignore[return-value]

    def _solve_bucket(
        self,
        clients: Sequence,
        x: np.ndarray,
        y: np.ndarray,
        w_global: np.ndarray,
        global_grad: np.ndarray,
        target_eta: Optional[float],
        f0: np.ndarray,
        g0: np.ndarray,
        out: np.ndarray,
        positions: np.ndarray,
    ) -> Tuple[List[float], List[List[float]]]:
        """:func:`repro.fl.dane.dane_local_step` for every client of one
        bucket (one spec, one sample count, data ``x`` / ``y``) at once,
        from the sweep's ``(f0, g0) = (F_k(w), ∇F_k(w))``, into rows
        ``positions`` of ``out``.

        The bucket is all full-batch or all subsampling.  The per-step
        state — ``d``, the linear term ``lt``, the gradient ``g`` in use,
        the velocity and one scratch ``t`` — holds one row per *active*
        client of the bucket; every update below is the loop's elementwise
        IEEE operation applied in place.  Rows leave only when a client
        reaches ``target_eta``.
        """
        spec = clients[0].spec
        m, p = g0.shape
        sigma1 = spec.sigma1
        lr = spec.sgd_lr
        momentum = spec.momentum
        batch_size = spec.batch_size
        reg = self.model.l2_reg
        exact = self.kernel._evaluate_exact
        full = x.shape[1] <= batch_size
        if spec.local_solver == "dane":
            lt = g0 - spec.sigma2 * global_grad[None, :]
        else:  # fedprox: the gradient-correction linear term is dropped
            lt = np.zeros((m, p))
        d = np.zeros((m, p))
        velocity = np.zeros((m, p)) if momentum > 0.0 else None
        t = np.empty((m, p))
        if full:
            # The first gradient is the sweep's; each later one comes out
            # of the fused pass that also yields G(d)'s value.
            g = g0.copy()
        else:
            g = np.empty((m, p))
            xb = np.empty((m, batch_size, x.shape[2]))
            yb = np.empty((m, batch_size), dtype=np.int64)
        trajs: List[List[float]] = [[float(f)] for f in f0]  # G(0) = F_k(w)
        rows = np.arange(m)             # bucket row of each active state row
        xs, ys = x, y                   # the active rows' data
        for step in range(spec.sgd_steps):
            if not full:
                np.add(w_global, d, out=t)
                for j, k in enumerate(rows.tolist()):
                    idx = clients[k].rng.choice(
                        x.shape[1], size=batch_size, replace=False
                    )
                    xb[j] = x[k, idx]
                    yb[j] = y[k, idx]
                exact(t, xb[: rows.size], yb[: rows.size], reg, True, out=g)
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
            fb, _ = exact(t, xs, ys, reg, full, out=g if full else None)
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
                out[positions[rows[stop]]] = d[stop]
                keep = ~stop
                rows = rows[keep]
                d, lt, g = d[keep], lt[keep], g[keep]
                if velocity is not None:
                    velocity = velocity[keep]
                t = t[: rows.size]
                if rows.size == 0:
                    break
                xs, ys = x[rows], y[rows]
        out[positions[rows]] = d
        return [estimate_local_accuracy(traj) for traj in trajs], trajs
