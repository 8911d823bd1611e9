"""Per-epoch online client data streams.

The paper makes training data time-varying: "all data are then transformed
into online data followed by Poisson distribution".  A
:class:`ClientDataStream` couples a client's class distribution with the
shared generator; each epoch it yields a fresh local dataset whose size is
supplied by :class:`repro.env.dynamics.DataVolumeProcess`.

A client's data is a row: :func:`build_client_streams` validates and
normalises the partitioner's ``(K, C)`` class-distribution matrix once, and
client ``k``'s stream object is built from row ``k`` the first time the run
reads it (:class:`LazyRows`), so set-up pays for the matrix, not for K
Python objects.

There is one draw path, :meth:`ClientDataStream.draw`, and it can write a
dataset's features into a caller's buffer (``out``) instead of a fresh
array: the loss sweep draws an evaluation-only client's data straight into
the one buffer it evaluates a bucket from.  With or without ``out`` a draw
consumes the same numbers from the client's stream and yields the same
bytes (:meth:`repro.datasets.synthetic.ClassConditionalGenerator.sample_from_cdf`).
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from typing import Any, Callable, List, Optional

import numpy as np

from repro.datasets.synthetic import ClassConditionalGenerator, Dataset

__all__ = ["ClientDataStream", "LazyRows", "build_client_streams"]


class LazyRows(Sequence):
    """A population of ``n`` per-client objects, each built the first time
    its index is read.

    ``rows[k]`` calls ``make(k)`` once and returns that same object on every
    later read, so a client the run never touches never exists.  Iterating
    builds every row.
    """

    __slots__ = ("_make", "_rows")

    def __init__(self, n: int, make: Callable[[int], Any]) -> None:
        self._make = make
        self._rows: List[Any] = [None] * n

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, k):
        k = operator.index(k)
        row = self._rows[k]
        if row is None:
            row = self._rows[k] = self._make(k % len(self._rows))
        return row


class ClientDataStream:
    """On-demand sampler of one client's per-epoch local dataset.

    ``class_probs`` is one row of the class-distribution matrix that
    :func:`build_client_streams` has already validated and normalised.
    """

    def __init__(
        self,
        generator: ClassConditionalGenerator,
        class_probs: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        self.generator = generator
        self.class_probs = class_probs
        self._label_cdf: Optional[np.ndarray] = None  # built by the first draw
        self._rng = rng  # a Generator, or an RngFactory.defer(key) source

    @property
    def rng(self) -> np.random.Generator:
        """This stream's generator.  A deferred source is called at every
        read and its generator never kept (the holder rule of
        :mod:`repro.rng`): the call marks the stream for the next snapshot."""
        rng = self._rng
        return rng if isinstance(rng, np.random.Generator) else rng()

    def draw(self, num_samples: int, out: Optional[np.ndarray] = None) -> Dataset:
        """Sample this epoch's local dataset (``num_samples`` examples),
        its features written into ``out`` (``(num_samples, num_features)``
        float64, C-contiguous) when given."""
        if self._label_cdf is None:
            # What ``generator.sample(class_probs=self.class_probs)`` would
            # validate, re-normalise and accumulate on every call.
            self._label_cdf = self.generator.label_cdf(self.class_probs)
        return self.generator.sample_from_cdf(
            num_samples, self._label_cdf, self.rng, out=out
        )


def build_client_streams(
    generator: ClassConditionalGenerator,
    class_distributions: np.ndarray,
    rng_factory,
) -> LazyRows:
    """One stream per client, each with an independent RNG stream.

    The ``(K, C)`` matrix is checked and normalised here, once; row ``k``
    is bit-for-bit what a per-client ``probs / probs.sum()`` gives (the
    C-order copy makes every row sum the same contiguous reduction).
    ``rng_factory`` is a :class:`repro.rng.RngFactory`; streams are keyed
    ``data.client.<k>`` so adding clients never perturbs existing streams,
    and deferred so a client that never draws never creates one.
    """
    dists = np.asarray(class_distributions, dtype=float, order="C")
    if dists.ndim != 2 or dists.shape[1] != generator.num_classes:
        raise ValueError("class_distributions must be (M, num_classes)")
    sums = dists.sum(axis=1)
    if np.any(dists < 0) or np.any(sums <= 0):
        raise ValueError("class_probs must be a nonnegative distribution")
    probs = dists / sums[:, None]
    return LazyRows(
        probs.shape[0],
        lambda k: ClientDataStream(
            generator, probs[k], rng_factory.defer(f"data.client.{k}")
        ),
    )
