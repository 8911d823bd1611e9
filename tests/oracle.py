"""Differential check of a rewritten function against its frozen original.

A performance PR that must not change behaviour keeps the pre-change
function verbatim in its test file as the *oracle* and asserts, on
generated inputs, that the rewrite returns the same outputs **and** leaves
every random stream where the oracle left it (same draws, same order — a
stream that is merely statistically equivalent would still shift every
later epoch of an experiment).  :func:`assert_matches_oracle` is that
assertion; the test supplies the two callables and a ``build`` that makes
the arguments from the drawn case::

    @given(cases)
    def test_rewrite(case):
        assert_matches_oracle(old_fn, new_fn, lambda: make_args(case))

``build`` is called twice — once per side — so each side consumes its own,
identically seeded generators.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Tuple

import numpy as np

__all__ = [
    "PerRowClientDataStream",
    "assert_matches_oracle",
    "assert_same",
    "per_row_client_streams",
    "stream_state",
]


def stream_state(gen: np.random.Generator) -> dict:
    """The comparable position of a generator's stream."""
    return gen.bit_generator.state


def assert_same(expected: Any, actual: Any, where: str = "output") -> None:
    """Structural bit-equality: arrays by dtype, shape and bytes; floats by
    type and value with NaN equal to NaN (``0.0 == -0.0``: the sign of a
    zero is not asserted); generators by stream position; sequences and
    dataclasses field by field; anything else by ``==``."""
    if isinstance(expected, np.ndarray):
        assert isinstance(actual, np.ndarray), f"{where}: {type(actual)} is not an array"
        assert expected.dtype == actual.dtype, f"{where}: dtype {actual.dtype} != {expected.dtype}"
        assert expected.shape == actual.shape, f"{where}: shape {actual.shape} != {expected.shape}"
        assert expected.tobytes() == actual.tobytes(), f"{where}: array bytes differ"
    elif isinstance(expected, np.random.Generator):
        assert stream_state(expected) == stream_state(actual), f"{where}: stream position differs"
    elif isinstance(expected, float):
        assert type(actual) is type(expected), f"{where}: {type(actual)} != {type(expected)}"
        assert expected == actual or (expected != expected and actual != actual), (
            f"{where}: {actual!r} != {expected!r}"
        )
    elif isinstance(expected, (list, tuple)):
        assert type(actual) is type(expected), f"{where}: {type(actual)} != {type(expected)}"
        assert len(actual) == len(expected), f"{where}: length {len(actual)} != {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            assert_same(e, a, f"{where}[{i}]")
    elif dataclasses.is_dataclass(expected) and not isinstance(expected, type):
        assert type(actual) is type(expected), f"{where}: {type(actual)} != {type(expected)}"
        for field in dataclasses.fields(expected):
            assert_same(
                getattr(expected, field.name), getattr(actual, field.name),
                f"{where}.{field.name}",
            )
    else:
        assert expected == actual, f"{where}: {actual!r} != {expected!r}"


def assert_matches_oracle(
    oracle: Callable,
    candidate: Callable,
    build: Callable[[], Tuple],
    state: Callable[..., Any] = lambda *args: [
        a for a in args if isinstance(a, np.random.Generator)
    ],
) -> None:
    """``candidate(*build())`` returns what ``oracle(*build())`` returns and
    leaves the same ``state(*args)`` behind — by default the position of
    every generator among the arguments; pass ``state`` to read streams (or
    anything else the call may touch) held inside the arguments."""
    args_o, args_c = build(), build()
    assert_same(oracle(*args_o), candidate(*args_c))
    assert_same(state(*args_o), state(*args_c), "state")


class PerRowClientDataStream:
    """``ClientDataStream.__init__`` as shipped when every client checked and
    normalised its own class vector, verbatim: the oracle for the matrix
    path of ``repro.datasets.streams.build_client_streams``."""

    def __init__(self, generator, class_probs, rng) -> None:
        probs = np.asarray(class_probs, dtype=float)
        if probs.shape != (generator.num_classes,):
            raise ValueError("class_probs shape mismatch")
        if np.any(probs < 0) or probs.sum() <= 0:
            raise ValueError("class_probs must be a nonnegative distribution")
        self.generator = generator
        self.class_probs = probs / probs.sum()
        self._label_cdf = None  # built by the first draw
        self._rng = rng  # a Generator, or RngFactory.defer(key) until first read


def per_row_client_streams(generator, class_distributions, rng_factory) -> list:
    """``build_client_streams`` as shipped with one eager stream per row."""
    dists = np.asarray(class_distributions, dtype=float)
    if dists.ndim != 2 or dists.shape[1] != generator.num_classes:
        raise ValueError("class_distributions must be (M, num_classes)")
    return [
        PerRowClientDataStream(
            generator=generator,
            class_probs=dists[k],
            rng=rng_factory.defer(f"data.client.{k}"),
        )
        for k in range(dists.shape[0])
    ]
