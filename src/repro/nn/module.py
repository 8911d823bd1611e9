"""Parameter and Module base classes with flat-vector views.

Federated aggregation, DANE's surrogate objective, and the paper's
convergence bookkeeping all treat the model as one flat parameter vector
``w ∈ R^P``.  ``Module`` therefore exposes::

    get_flat_params() / set_flat_params(w)
    get_flat_grads()
    num_params

alongside the usual ``forward`` / ``backward`` layer protocol.  ``backward``
receives the gradient of the scalar loss w.r.t. the layer output and must
return the gradient w.r.t. the layer input while accumulating parameter
gradients into ``Parameter.grad``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = ["Parameter", "Module", "Sequential"]


class Parameter:
    """A trainable tensor with an accumulated gradient."""

    __slots__ = ("value", "grad", "name")

    def __init__(self, value: np.ndarray, name: str = "") -> None:
        self.value = np.asarray(value, dtype=float)
        self.grad = np.zeros_like(self.value)
        self.name = name

    @property
    def size(self) -> int:
        return self.value.size

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name or 'unnamed'}, shape={self.value.shape})"


class Module:
    """Base class for layers and models."""

    def parameters(self) -> List[Parameter]:
        """All trainable parameters, in a stable order."""
        return []

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # ---- flat-vector interface -------------------------------------------------

    @property
    def num_params(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def get_flat_params(self) -> np.ndarray:
        """Concatenate all parameter values into one vector (copy)."""
        ps = self.parameters()
        if not ps:
            return np.zeros(0)
        return np.concatenate([p.value.ravel() for p in ps])

    def set_flat_params(self, w: np.ndarray) -> None:
        """Load parameter values from a flat vector."""
        w = np.asarray(w, dtype=float)
        ps = self.parameters()
        num_params = sum(p.size for p in ps)
        if w.size != num_params:
            raise ValueError(
                f"flat vector has {w.size} entries, model has {num_params}"
            )
        offset = 0
        for p in ps:
            chunk = w[offset : offset + p.size]
            p.value[...] = chunk.reshape(p.value.shape)
            offset += p.size

    def get_flat_grads(self) -> np.ndarray:
        """Concatenate all parameter gradients into one vector (copy)."""
        ps = self.parameters()
        if not ps:
            return np.zeros(0)
        return np.concatenate([p.grad.ravel() for p in ps])


class Sequential(Module):
    """A chain of modules applied in order."""

    def __init__(self, layers: Sequence[Module]) -> None:
        self.layers: List[Module] = list(layers)
        if not self.layers:
            raise ValueError("Sequential needs at least one layer")

    def parameters(self) -> List[Parameter]:
        out: List[Parameter] = []
        for layer in self.layers:
            out.extend(layer.parameters())
        return out

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(type(layer).__name__ for layer in self.layers)
        return f"Sequential([{inner}], params={self.num_params})"
