"""Max pooling (NHWC, non-overlapping windows)."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.module import Module

__all__ = ["MaxPool2D"]


def _window_view(x: np.ndarray, size: int) -> np.ndarray:
    """Reshape (N, H, W, C) into (N, H/s, s, W/s, s, C) windows."""
    n, h, w, c = x.shape
    if h % size or w % size:
        raise ValueError(
            f"pooling size {size} must divide spatial dims ({h}, {w})"
        )
    return x.reshape(n, h // size, size, w // size, size, c)


class MaxPool2D(Module):
    """Non-overlapping max pooling with window ``size × size``."""

    def __init__(self, size: int = 2) -> None:
        if size < 1:
            raise ValueError("pool size must be positive")
        self.size = size
        self._cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        win = _window_view(x, self.size)
        out = win.max(axis=(2, 4))
        # Mask of the argmax positions; backward splits ties evenly.
        mask = win == out[:, :, None, :, None, :]
        self._cache = (mask, np.asarray(x.shape))
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        mask, x_shape = self._cache
        # Normalize ties so total routed gradient equals grad_out.
        counts = mask.sum(axis=(2, 4), keepdims=True)
        g = (mask / counts) * grad_out[:, :, None, :, None, :]
        n, h, w, c = x_shape
        return g.reshape(n, h, w, c)
