"""Per-epoch online client data streams.

The paper makes training data time-varying: "all data are then transformed
into online data followed by Poisson distribution".  A
:class:`ClientDataStream` couples a client's class distribution with the
client's generator; each epoch it yields a fresh local dataset whose size
is supplied by :class:`repro.env.dynamics.DataVolumeProcess`.

Between epochs a client's data is a row: :func:`build_client_streams`
validates the ``(K, C)`` class-distribution matrix and builds its
label-cdf table once, and ``data.client`` streams are rows of an RNG state
table (:class:`repro.rng.StreamRows`).  ``streams[k]`` is a
:class:`ClientDataStream` over row ``k``, built for the draw that reads it.

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
from typing import Optional

import numpy as np

from repro.datasets.synthetic import ClassConditionalGenerator, Dataset
from repro.rng import RowSource

__all__ = ["ClientDataStream", "ClientStreams", "build_client_streams"]


class ClientDataStream:
    """On-demand sampler of one client's per-epoch local dataset.

    ``label_cdf`` is the client's label cdf, as
    ``generator.label_cdf(class_probs)`` builds it (one row of the table
    :func:`build_client_streams` builds).
    """

    def __init__(
        self,
        generator: ClassConditionalGenerator,
        label_cdf: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        self.generator = generator
        self._label_cdf = label_cdf
        self._rng = rng  # a Generator, or a repro.rng.RowSource

    @property
    def rng(self) -> np.random.Generator:
        """This stream's generator.  A row source is called at every
        read and its generator never kept (the holder rule of
        :mod:`repro.rng`)."""
        rng = self._rng
        return rng if isinstance(rng, np.random.Generator) else rng()

    def draw(self, num_samples: int, out: Optional[np.ndarray] = None) -> Dataset:
        """Sample this epoch's local dataset (``num_samples`` examples),
        its features written into ``out`` (``(num_samples, num_features)``
        float64, C-contiguous) when given."""
        return self.generator.sample_from_cdf(
            num_samples, self._label_cdf, self.rng, out=out
        )


class ClientStreams(Sequence):
    """One stream per client, each with an independent RNG stream:
    ``streams[k]`` is a fresh :class:`ClientDataStream` over row ``k`` of
    the label-cdf table and of the ``data.client`` table.

    The ``(K, C)`` matrix is checked here, once, and only its label-cdf
    table is kept: row ``k`` is bit-for-bit
    ``generator.label_cdf(probs[k])`` of the normalised row
    ``probs[k] = dists[k] / dists[k].sum()`` (the C-order copy makes every
    row sum the same contiguous reduction).
    ``rng_factory`` is a :class:`repro.rng.RngFactory`; streams are keyed
    ``data.client.<k>`` so adding clients never perturbs existing streams,
    and deferred so a client that never draws never creates one.
    """

    def __init__(
        self,
        generator: ClassConditionalGenerator,
        class_distributions: np.ndarray,
        rng_factory,
    ) -> None:
        dists = np.asarray(class_distributions, dtype=float, order="C")
        if dists.ndim != 2 or dists.shape[1] != generator.num_classes:
            raise ValueError("class_distributions must be (M, num_classes)")
        sums = dists.sum(axis=1)
        if np.any(dists < 0) or np.any(sums <= 0) or not np.all(np.isfinite(dists)):
            raise ValueError("class_probs must be a nonnegative distribution")
        self.generator = generator
        # probs, then label_cdf(probs) row by row, in one buffer.
        cdf = self.label_cdf = dists / sums[:, None]
        cdf /= cdf.sum(axis=1)[:, None]
        np.cumsum(cdf, axis=1, out=cdf)
        cdf /= cdf[:, -1:]
        self.rows = rng_factory.rows("data.client", cdf.shape[0])

    def __len__(self) -> int:
        return len(self.label_cdf)

    def __getitem__(self, k) -> ClientDataStream:
        k = range(len(self.label_cdf))[operator.index(k)]
        return ClientDataStream(self.generator, self.label_cdf[k], RowSource(self.rows, k))


build_client_streams = ClientStreams
