"""Flat-parameter evaluation of dense ``Sequential`` networks.

:class:`BatchedSequentialKernel` re-implements the forward/backward of a
``Sequential`` stack of ``Linear`` and elementwise activations directly on
the flat parameter vector ``w ∈ R^P``: weights are read as views into
``w``, gradients are written straight into their slots of one flat output,
and no ``Parameter`` is touched.  It is the one dense evaluation path of
the repo:

* :class:`repro.nn.models.ClassifierModel` evaluates ``logits`` / ``loss``
  / ``loss_and_grad`` of one batch through :meth:`BatchedSequentialKernel.
  logits` and :meth:`~BatchedSequentialKernel.loss_and_grad` — the ``K = 1``
  slice of the stacked entry points, behind the argument checks the
  ``Module`` path makes on its way through the layers;
* :mod:`repro.fl.batched` evaluates many clients' equal-length datasets
  at once, one ``(K, n, D)`` bucket per call.

Every numpy batched op used here is *per-slice bit-identical* to the 2-D
op of the ``Module`` path (:mod:`repro.fl.batched` lists why), so which
entry point evaluated a ``(w, batch)`` point never shows in a result.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.nn.activations import ReLU, Sigmoid, Tanh
from repro.nn.linear import Linear
from repro.nn.losses import check_labels
from repro.nn.module import Sequential

__all__ = ["BatchedSequentialKernel"]

_ACTIVATIONS = {ReLU: "relu", Tanh: "tanh", Sigmoid: "sigmoid"}

#: One read-only ``np.arange``, grown to the largest length asked for: the
#: label gather in :meth:`BatchedSequentialKernel._evaluate_exact` takes the
#: same small index base tens of thousands of times per experiment.
_ARANGE = np.arange(0)


def _flat_arange(size: int) -> np.ndarray:
    """Read-only ``np.arange(size)``, a view of the shared table."""
    global _ARANGE
    if size > _ARANGE.size:
        _ARANGE = np.arange(size)
        _ARANGE.setflags(write=False)
    return _ARANGE[:size]


class BatchedSequentialKernel:
    """Batched loss/gradient evaluation for a dense ``Sequential`` network.

    Evaluates F(w) = mean-CE + (reg/2)‖w‖² and ∇F for K clients at once,
    at either one shared parameter vector ``w ∈ R^P`` or per-client rows
    ``w ∈ R^{K×P}``, bit-identical to K sequential ``Module``
    forward/backward passes.
    """

    def __init__(self, network: Sequential) -> None:
        if not self.supports(network):
            raise ValueError("network not supported by the batched kernel")
        self.specs: List[Tuple] = []
        self.in_dim = network.layers[0].weight.value.shape[0]
        offset = 0
        for layer in network.layers:
            if isinstance(layer, Linear):
                din, dout = layer.weight.value.shape
                w_off = offset
                b_off = offset + din * dout
                self.specs.append(("linear", din, dout, w_off, b_off))
                offset = b_off + dout
                self.out_dim = dout  # of the last Linear: the logits' width
            else:
                self.specs.append((_ACTIVATIONS[type(layer)],))
        self.num_params = offset

    @staticmethod
    def supports(network) -> bool:
        """True when every layer is Linear or an elementwise activation."""
        if not isinstance(network, Sequential):
            return False
        for layer in network.layers:
            if not isinstance(layer, (Linear, ReLU, Tanh, Sigmoid)):
                return False
        return isinstance(network.layers[0], Linear)

    # -- one client, unvalidated arguments ---------------------------------------

    def _check_point(self, w: np.ndarray, x: np.ndarray) -> None:
        if w.shape != (self.num_params,):
            raise ValueError(
                f"flat vector has {w.size} entries, model has {self.num_params}"
            )
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"Linear expected (N, {self.in_dim}), got {x.shape}")

    def logits(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The network's output on one ``(N, D)`` batch at a flat ``w``."""
        self._check_point(w, x)
        return self._forward(w, x[None], need_cache=False)[0][0]

    def loss_and_grad(
        self, w: np.ndarray, x: np.ndarray, y: np.ndarray, reg: float
    ) -> Tuple[float, np.ndarray]:
        """F(w) and ∇F(w) on one ``(N, D)`` batch with ``(N,)`` labels.

        The label check is load-bearing: the flat gather in
        :meth:`_evaluate_exact` would read another row's logit for a label
        outside ``[0, C)`` instead of failing.
        """
        self._check_point(w, x)
        y = check_labels(y, len(x), self.out_dim)
        losses, flat = self._evaluate_exact(w, x[None], y[None], reg, True)
        return float(losses[0]), flat[0]

    # -- forward / backward ----------------------------------------------------

    def _weights(self, w: np.ndarray, spec: Tuple) -> Tuple[np.ndarray, np.ndarray]:
        _, din, dout, w_off, b_off = spec
        if w.ndim == 1:
            return w[w_off:b_off].reshape(din, dout), w[b_off : b_off + dout]
        return (
            w[:, w_off:b_off].reshape(-1, din, dout),
            w[:, b_off : b_off + dout],
        )

    def _forward(
        self, w: np.ndarray, x: np.ndarray, need_cache: bool
    ) -> Tuple[np.ndarray, List[Tuple]]:
        shared = w.ndim == 1
        h = x
        caches: List[Tuple] = []
        for spec in self.specs:
            kind = spec[0]
            if kind == "linear":
                weight, bias = self._weights(w, spec)
                if need_cache:
                    caches.append((h, weight))
                h = np.matmul(h, weight)
                # In-place broadcast add: same elementwise op as `+ bias`.
                h += bias if shared else bias[:, None, :]
            elif kind == "relu":
                mask = h > 0
                if need_cache:
                    caches.append((mask,))
                h = np.where(mask, h, 0.0)
            elif kind == "tanh":
                h = np.tanh(h)
                if need_cache:
                    caches.append((h,))
            else:  # sigmoid
                out = np.empty_like(h, dtype=float)
                pos = h >= 0
                out[pos] = 1.0 / (1.0 + np.exp(-h[pos]))
                ex = np.exp(h[~pos])
                out[~pos] = ex / (1.0 + ex)
                if need_cache:
                    caches.append((out,))
                h = out
        return h, caches

    def _evaluate_exact(
        self,
        w: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        reg: float,
        want_grad: bool,
        out: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """F / ∇F for clients sharing one exact sample count: ``x`` is
        ``(K, n, D)`` and ``y`` ``(K, n)``, no padded rows (a padded sample
        axis changes BLAS's blocking and with it low-order bits; see
        :mod:`repro.fl.batched`).  Returns ``(loss (K,), grad (K, P) |
        None)``.

        The gradient is written into ``out`` (``(K, P)``, every entry
        overwritten) when given, else into a fresh array.
        """
        k_count, n, _ = x.shape
        logits, caches = self._forward(w, x, need_cache=want_grad)
        # Row-stable softmax pieces, identical to losses.softmax_cross_entropy.
        z = logits - logits.max(axis=2, keepdims=True)
        # Flat elementwise gather of z[k, i, y[k, i]] (pure indexing, no
        # arithmetic — values identical to take_along_axis).
        num_classes = z.shape[2]
        flat_pick = _flat_arange(k_count * n) * num_classes + y.ravel()
        picked = z.reshape(-1)[flat_pick].reshape(k_count, n)
        # exp/softmax computed in place on z (picked was gathered above, so
        # z is otherwise dead); elementwise values unchanged.
        e = np.exp(z, out=z)
        se = e.sum(axis=2)
        diff = np.log(se)
        diff -= picked
        # Reducing the last axis of a contiguous 2-D array applies the same
        # pairwise summation per row as the loop's 1-D np.mean (a sum
        # divided by the count) — bitwise identical to per-client means.
        losses = np.add.reduce(diff, axis=1) / n
        if reg > 0.0:
            if w.ndim == 1:
                losses += 0.5 * reg * float(w @ w)
            else:
                for k in range(k_count):
                    losses[k] += 0.5 * reg * float(w[k] @ w[k])
        if not want_grad:
            return losses, None
        probs = np.divide(e, se[:, :, None], out=e)
        # One label per row, so the flat scatter matches the loop's
        # probs[arange(n), y] -= 1 (no duplicate index pairs).
        probs.reshape(-1)[flat_pick] -= 1.0
        g = np.divide(probs, float(n), out=probs)
        flat = np.empty((k_count, self.num_params)) if out is None else out
        for i in range(len(self.specs) - 1, -1, -1):
            spec, cache = self.specs[i], caches[i]
            kind = spec[0]
            if kind == "linear":
                _, din, dout, w_off, b_off = spec
                h_in, weight = cache
                # The weight gradient lands in its slot of ``flat`` directly
                # (a strided view, one contiguous (din, dout) block per
                # client): the same GEMM per slice, no K×P copy after it.
                np.matmul(
                    h_in.transpose(0, 2, 1),
                    g,
                    out=flat[:, w_off:b_off].reshape(k_count, din, dout),
                )
                # Last-axis-contiguous reduction: per-slice bitwise equal
                # to each client's g[k].sum(axis=0).
                flat[:, b_off : b_off + dout] = g.sum(axis=1)
                if i > 0:
                    if weight.ndim == 2:
                        g = np.matmul(g, weight.T)
                    else:
                        g = np.matmul(g, weight.transpose(0, 2, 1))
            elif kind == "relu":
                g = np.where(cache[0], g, 0.0)
            elif kind == "tanh":
                g = g * (1.0 - cache[0] ** 2)
            else:  # sigmoid
                g = g * cache[0] * (1.0 - cache[0])
        if reg > 0.0:
            flat += reg * w
        return losses, flat
