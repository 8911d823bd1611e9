"""Classifier facade and model factories.

:class:`ClassifierModel` wraps a :class:`repro.nn.module.Sequential` with
softmax cross-entropy + L2 and exposes the *functional* interface the FL
machinery needs: evaluate loss/gradient at an arbitrary flat parameter
vector ``w`` without the caller touching layer internals.

There is one evaluation path per kind of network, chosen from its layer
types.  A ``Sequential`` of ``Linear`` and elementwise activations
(``logreg``, ``mlp``, any hand-built dense stack) evaluates ``logits`` /
``loss`` / ``loss_and_grad`` through :class:`repro.nn.kernel.
BatchedSequentialKernel`, which reads the weights as views into ``w`` and
writes the gradient into one flat vector: the network's ``Parameter``
objects are neither read nor written, so evaluating at ``w`` leaves
``get_params()`` what it was and concurrent evaluations on one model do not
interact.  Before the kernel runs, the arguments are checked as the layers
would check them — ``w`` a flat vector of the parameter count, ``x`` 2-D
with the first layer's input width, labels ``(N,)`` within ``[0, C)`` — each
a ``ValueError``.  Anything else (the CNNs) takes the ``Module`` path: load
``w`` into the layers, ``forward`` / ``backward``, gather the gradients;
bit-identical where both apply.

Factories:

* ``logreg`` — multinomial logistic regression.  With ``l2_reg > 0`` the
  objective is γ-strongly convex, matching the paper's DANE assumptions;
  used in the theory-validation benches.
* ``mlp`` — ReLU MLP (default experiment model; fast under NumPy).
* ``cnn`` — the paper's CNN family, scaled: the paper uses
  [conv5×5(32) → pool2 → conv5×5(64) → pool2 → fc1024 → fc10] for FMNIST
  and [conv5×5(64) → pool3 → conv5×5(64) → fc384 → fc192 → fc10] for
  CIFAR-10.  Pure-NumPy training of those exact widths over hundreds of
  federated rounds is impractical, so the factory keeps the topology
  (conv-pool-conv-pool-fc-fc) with reduced channel counts controlled by
  ``cnn_scale``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.activations import ReLU
from repro.nn.conv import Conv2D
from repro.nn.kernel import BatchedSequentialKernel
from repro.nn.linear import Flatten, Linear, Reshape
from repro.nn.losses import l2_penalty, softmax, softmax_cross_entropy
from repro.nn.module import Module, Sequential
from repro.nn.pooling import MaxPool2D

__all__ = ["ClassifierModel", "build_model"]


class ClassifierModel:
    """A classification model with loss/gradient evaluation at any ``w``."""

    def __init__(self, network: Module, num_classes: int, l2_reg: float = 0.0) -> None:
        if num_classes < 2:
            raise ValueError("need at least two classes")
        if l2_reg < 0:
            raise ValueError("l2_reg must be nonnegative")
        self.network = network
        self.num_classes = num_classes
        self.l2_reg = l2_reg
        #: The flat-parameter evaluator of a dense network; ``None`` sends
        #: evaluation down the ``Module`` path.
        self.kernel: Optional[BatchedSequentialKernel] = (
            BatchedSequentialKernel(network)
            if BatchedSequentialKernel.supports(network)
            else None
        )

    # -- parameter plumbing --------------------------------------------------

    @property
    def num_params(self) -> int:
        return self.network.num_params

    def get_params(self) -> np.ndarray:
        return self.network.get_flat_params()

    def set_params(self, w: np.ndarray) -> None:
        self.network.set_flat_params(w)

    # -- functional evaluation -------------------------------------------------

    def logits(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The network's forward pass on ``x`` at parameters ``w``."""
        if self.kernel is not None:
            return self.kernel.logits(np.asarray(w, dtype=float), x)
        self.network.set_flat_params(w)
        return self.network.forward(x)

    def loss(
        self,
        w: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        logits: Optional[np.ndarray] = None,
    ) -> float:
        """F(w) on the batch: mean CE + (reg/2)‖w‖².

        Value only — no gradient is formed — and bit-equal to
        ``loss_and_grad(w, x, y)[0]``.  ``logits`` is ``self.logits(w, x)``
        for a caller that already holds it.
        """
        w = np.asarray(w, dtype=float)
        if logits is None:
            logits = self.logits(w, x)
        ce, _ = softmax_cross_entropy(logits, y, want_grad=False)
        return ce + 0.5 * self.l2_reg * float(w @ w)

    def loss_and_grad(
        self, w: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """F(w) and ∇F(w) on the batch."""
        w = np.asarray(w, dtype=float)
        if self.kernel is not None:
            return self.kernel.loss_and_grad(w, x, y, self.l2_reg)
        self.network.set_flat_params(w)
        self.network.zero_grad()
        logits = self.network.forward(x)
        ce, dlogits = softmax_cross_entropy(logits, y)
        self.network.backward(dlogits)
        grad = self.network.get_flat_grads()
        pen, dpen = l2_penalty(w, self.l2_reg)
        return ce + pen, grad + dpen

    def predict(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Argmax class predictions at parameters ``w``."""
        return np.argmax(self.logits(w, x), axis=1)

    def predict_proba(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        return softmax(self.logits(w, x))

    def accuracy(
        self,
        w: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        logits: Optional[np.ndarray] = None,
    ) -> float:
        """Top-1 accuracy; ``logits`` as in :meth:`loss`."""
        if logits is None:
            logits = self.logits(w, x)
        return float(np.mean(np.argmax(logits, axis=1) == np.asarray(y)))


def _mlp_network(
    input_dim: int,
    num_classes: int,
    hidden: Tuple[int, ...],
    rng: np.random.Generator,
) -> Sequential:
    layers: list[Module] = []
    prev = input_dim
    for h in hidden:
        layers.append(Linear(prev, h, rng=rng))
        layers.append(ReLU())
        prev = h
    layers.append(Linear(prev, num_classes, rng=rng))
    return Sequential(layers)


def _cnn_network(
    image_shape: Tuple[int, int, int],
    num_classes: int,
    rng: np.random.Generator,
    scale: float,
) -> Sequential:
    h, w, c = image_shape
    c1 = max(2, int(round(8 * scale)))
    c2 = max(2, int(round(16 * scale)))
    fc = max(8, int(round(64 * scale)))
    k = 3 if min(h, w) < 16 else 5
    layers: list[Module] = [Reshape((h, w, c))]
    layers.append(Conv2D(c, c1, kernel_size=k, rng=rng))
    layers.append(ReLU())
    h1, w1 = h - k + 1, w - k + 1
    pool1 = 2 if (h1 % 2 == 0 and w1 % 2 == 0) else 1
    if pool1 > 1:
        layers.append(MaxPool2D(pool1))
        h1, w1 = h1 // pool1, w1 // pool1
    layers.append(Conv2D(c1, c2, kernel_size=3, rng=rng))
    layers.append(ReLU())
    h2, w2 = h1 - 2, w1 - 2
    pool2 = 2 if (h2 % 2 == 0 and w2 % 2 == 0) else 1
    if pool2 > 1:
        layers.append(MaxPool2D(pool2))
        h2, w2 = h2 // pool2, w2 // pool2
    layers.append(Flatten())
    layers.append(Linear(h2 * w2 * c2, fc, rng=rng))
    layers.append(ReLU())
    layers.append(Linear(fc, num_classes, rng=rng))
    return Sequential(layers)


def build_model(
    name: str,
    input_dim: int,
    num_classes: int,
    rng: np.random.Generator,
    hidden: Tuple[int, ...] = (64,),
    image_shape: Optional[Tuple[int, int, int]] = None,
    l2_reg: float = 1e-4,
    cnn_scale: float = 1.0,
) -> ClassifierModel:
    """Construct a :class:`ClassifierModel` by name.

    Parameters
    ----------
    name:
        ``"logreg"``, ``"mlp"`` or ``"cnn"``.
    input_dim:
        Flattened feature dimension of the dataset rows.
    image_shape:
        Required for ``"cnn"``; must satisfy ``prod(image_shape) == input_dim``.
    """
    if name == "logreg":
        net: Module = Sequential([Linear(input_dim, num_classes, rng=rng)])
    elif name == "mlp":
        net = _mlp_network(input_dim, num_classes, hidden, rng)
    elif name == "cnn":
        if image_shape is None:
            raise ValueError("cnn requires image_shape")
        if int(np.prod(image_shape)) != input_dim:
            raise ValueError("image_shape does not match input_dim")
        net = _cnn_network(image_shape, num_classes, rng, cnn_scale)
    else:
        raise ValueError(f"unknown model: {name!r}")
    return ClassifierModel(net, num_classes=num_classes, l2_reg=l2_reg)
