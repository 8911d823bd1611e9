"""Seeded random-number-generation discipline.

Every stochastic component in the simulator (channel fading, client
availability, data generation, rounding, SGD shuffling, ...) draws from its
own :class:`numpy.random.Generator`, spawned deterministically from a single
experiment seed.  This gives two properties that matter for a reproduction:

* **Bitwise reproducibility** — the same seed always yields the same
  trajectory, regardless of how many other components consume randomness.
* **Component independence** — adding a new random consumer does not perturb
  the streams of existing ones, because each stream is keyed by a stable
  string label rather than by call order.

Usage::

    root = RngFactory(seed=42)
    chan_rng = root.get("net.channel")
    avail_rng = root.get("env.availability")

``get`` is memoized: asking twice for the same key returns the same
generator object (so a component can keep drawing from where it left off).
Streams are created on first use and creation order never matters — a
stream's state is a function of ``(seed, key)`` alone.  The per-client
families (``data.client.<k>``, ``fl.client.<k>``) are handed out through
:meth:`RngFactory.defer` and created at their owner's first draw, so set-up
and snapshots pay for the clients that have drawn, not for the population.

Every stream is PCG64 (``default_rng``'s bit generator); the factory's
restore rule and :class:`PCG64Stream` both refuse any other.
:class:`PCG64Stream` reads a generator's stream from Python draw for draw as
numpy's C code does, for loops whose per-draw numpy call overhead dominates.
"""

from __future__ import annotations

import copy
import functools
import hashlib
from operator import length_hint
from typing import Callable, Dict, Tuple

import numpy as np

__all__ = ["PCG64Stream", "RngFactory", "UnsupportedBitGenerator", "derive_seed"]


def derive_seed(seed: int, key: str) -> int:
    """Derive a 64-bit child seed from ``seed`` and a string ``key``.

    Uses SHA-256 over the (seed, key) pair so distinct keys give
    statistically independent child seeds.  Stable across Python versions
    and platforms (unlike ``hash``).
    """
    payload = f"{seed}:{key}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little")


class RngFactory:
    """Deterministic factory of named, independent random generators."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._cache: Dict[str, np.random.Generator] = {}

    def get(self, key: str) -> np.random.Generator:
        """Return the memoized generator for ``key`` (create on first use)."""
        gen = self._cache.get(key)
        if gen is None:
            gen = np.random.default_rng(derive_seed(self.seed, key))
            self._cache[key] = gen
        return gen

    def defer(self, key: str) -> Callable[[], np.random.Generator]:
        """A source for ``key``'s stream that calls :meth:`get` only when
        called itself: naming a stream this way does not create it."""
        return functools.partial(self.get, key)

    def fresh(self, key: str) -> np.random.Generator:
        """Return a *new* generator for ``key``, resetting its stream."""
        gen = np.random.default_rng(derive_seed(self.seed, key))
        self._cache[key] = gen
        return gen

    def child(self, key: str) -> "RngFactory":
        """Return a sub-factory whose streams are independent of this one."""
        return RngFactory(derive_seed(self.seed, f"child:{key}"))

    # -- checkpointing -----------------------------------------------------------

    def state_dict(self) -> Dict[str, dict]:
        """Bit-generator state of every stream created so far.

        The values are the nested plain-python dicts numpy exposes via
        ``Generator.bit_generator.state`` (for the default PCG64: the
        128-bit state/increment integers plus the cached-uint32 pair), so
        the result is JSON-serializable as-is.  Streams not yet created
        are absent — they are deterministic functions of ``seed`` and
        their key, so a resumed factory recreates them identically on
        first ``get``.
        """
        # The .state property builds a fresh nested dict on every access,
        # so no defensive copy is needed on capture (restore still copies:
        # the caller's dict must not be mutated by the setter).
        return {
            key: gen.bit_generator.state for key, gen in self._cache.items()
        }

    def load_state(self, states: Dict[str, dict]) -> None:
        """Restore streams captured by :meth:`state_dict`.

        Each named stream is (re)created through :meth:`get` and its bit
        generator fast-forwarded to the saved state, so subsequent draws
        continue bit-identically from the capture point.  Streams already
        handed out keep their object identity (holders see the restored
        stream); cached streams absent from ``states`` are left alone.
        """
        for key, state in states.items():
            gen = self.get(key)
            name = type(gen.bit_generator).__name__
            if state["bit_generator"] != name:
                raise ValueError(
                    f"stream {key!r}: bit generator "
                    f"{state['bit_generator']!r} does not match the "
                    f"factory's {name!r}"
                )
            gen.bit_generator.state = copy.deepcopy(state)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"RngFactory(seed={self.seed}, streams={sorted(self._cache)})"


class UnsupportedBitGenerator(TypeError):
    """A stream reader was handed a generator whose bit generator it cannot
    read (the message names it)."""


_U32 = 0xFFFFFFFF
_DOUBLE_UNIT = 2.0**-53
_PCG64_PERIOD = 1 << 128
_FIRST_BLOCK, _MAX_BLOCK = 64, 4096


class PCG64Stream:
    """Scalar draws from a PCG64 generator's stream, word for word as numpy's
    C code makes them, without a numpy call per draw.

    * ``random()`` is ``Generator.random()``: ``(u64 >> 11)·2⁻⁵³``.
    * ``bounded(r)``, ``r`` in ``[0, 2³²−2]``, is
      ``Generator.integers(0, r, endpoint=True)``: Lemire's multiply-shift
      with rejection on ``next_uint32``, and ``bounded(0)`` draws nothing.
      ``next_uint32`` hands out the low then the high half of one 64-bit
      word, keeping the unused half in the bit generator's
      ``has_uint32``/``uinteger`` pair across any other draws.
    * ``pair(n)`` is ``Generator.choice(n, 2, replace=False)``: Floyd's
      sampler then a two-element shuffle.

    Raw words come from ``bit_generator.random_raw`` in blocks that grow
    from 64 to 4096 words.  Nothing else may draw from the generator while
    the reader is open.  :meth:`close` (leaving the ``with`` block, also by
    an exception) rewinds the bit generator to exactly the words consumed
    and sets the buffered half where numpy would have left it, so the
    generator continues as if every draw had been a numpy call.  Any bit
    generator other than PCG64 raises :class:`UnsupportedBitGenerator`.
    """

    __slots__ = ("_bitgen", "_has", "_half", "_words", "_next_word", "_block")

    def __init__(self, rng: np.random.Generator) -> None:
        bitgen = rng.bit_generator
        if type(bitgen) is not np.random.PCG64:
            raise UnsupportedBitGenerator(
                f"PCG64Stream reads PCG64 streams only, not "
                f"{type(bitgen).__name__}"
            )
        state = bitgen.state
        self._bitgen = bitgen
        self._has, self._half = state["has_uint32"], state["uinteger"]
        self._words = iter(())
        self._next_word = self._words.__next__
        self._block = _FIRST_BLOCK

    def __enter__(self) -> "PCG64Stream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _refill(self) -> int:
        """Fetch the next block of raw words and return its first."""
        block = self._block
        self._block = min(2 * block, _MAX_BLOCK)
        self._words = iter(self._bitgen.random_raw(block).tolist())
        self._next_word = self._words.__next__
        return self._next_word()

    def _uint32(self) -> int:
        """numpy's ``next_uint32``: the buffered high half, else the low
        half of a fresh word (buffering its high half)."""
        if self._has:
            self._has = 0
            return self._half
        try:
            word = self._next_word()
        except StopIteration:
            word = self._refill()
        self._has, self._half = 1, word >> 32
        return word & _U32

    def random(self) -> float:
        """A double in ``[0, 1)``, as ``Generator.random()``."""
        try:
            word = self._next_word()
        except StopIteration:
            word = self._refill()
        return (word >> 11) * _DOUBLE_UNIT

    def bounded(self, r: int) -> int:
        """An integer in ``[0, r]``, as ``Generator.integers(0, r, endpoint=True)``."""
        if not 0 <= r <= _U32 - 1:
            raise ValueError(f"bounded(r) needs 0 <= r <= 2**32 - 2, not {r}")
        return self._lemire(r + 1) if r else 0

    def _lemire(self, span: int) -> int:
        """numpy's ``buffered_bounded_lemire_uint32`` for ``span = r + 1``."""
        m = self._uint32() * span
        if (m & _U32) < span:
            threshold = (_U32 + 1 - span) % span
            while (m & _U32) < threshold:
                m = self._uint32() * span
        return m >> 32

    def pair(self, n: int) -> Tuple[int, int]:
        """Two distinct integers in ``[0, n)``, as
        ``Generator.choice(n, 2, replace=False)`` (``n >= 2``)."""
        # Floyd: a = bounded(n - 2), then b = bounded(n - 1) or n - 1 if
        # it repeats a.
        a = self._lemire(n - 1) if n > 2 else 0
        b = self._lemire(n)
        if b == a:
            b = n - 1
        # The shuffle swaps on bounded(1) == 0, the top bit of one uint32
        # (span 2 never rejects).
        return (a, b) if self._uint32() >> 31 else (b, a)

    def close(self) -> None:
        """Rewind the bit generator to the words consumed (idempotent)."""
        bitgen = self._bitgen
        unused = length_hint(self._words)
        if unused:
            # The LCG's period is 2¹²⁸: stepping that many words less
            # ``unused`` steps back ``unused`` words.
            bitgen.advance(_PCG64_PERIOD - unused)
            self._words = iter(())
            self._next_word = self._words.__next__
        # advance() clears the buffered half; set it where numpy would be.
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = self._has, self._half
        bitgen.state = state
