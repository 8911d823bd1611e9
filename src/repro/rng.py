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

**The holder rule.**  A holder of a deferred source calls it at each use
and never stores the generator it returns: each call tells the factory that
the stream may have moved.  A snapshot's capture (:meth:`RngFactory.capture`)
re-reads only the streams handed out by :meth:`~RngFactory.get` (long-lived
holders: env, net, the eval panel, policies, faults) and the deferred
streams called since the previous capture; every other stream reuses the
``rng.json`` entry encoded when it last moved.  So capture cost follows the
streams drawn since the last snapshot, not every stream the run has made.

Every stream is PCG64 (``default_rng``'s bit generator); the factory's
restore rule and :class:`PCG64Stream` both refuse any other.
:class:`PCG64Stream` reads a generator's stream from Python draw for draw as
numpy's C code does, for loops whose per-draw numpy call overhead dominates.
"""

from __future__ import annotations

import hashlib
import json
from operator import length_hint
from typing import Dict, Optional, Set, Tuple

import numpy as np

__all__ = [
    "DeferredStream",
    "PCG64Stream",
    "RngFactory",
    "UnsupportedBitGenerator",
    "derive_seed",
]


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
        self._streams: Dict[str, np.random.Generator] = {}
        # Each stream's ``"key": {...}`` rng.json entry as of the last
        # capture, in creation order (None until its first capture).
        self._entries: Dict[str, Optional[str]] = {}
        # Re-read at every capture: streams handed to long-lived holders.
        self._held: Set[str] = set()
        # Re-read at the next capture: created or called through a deferred
        # source since the last one.
        self._touched: Set[str] = set()

    def _stream(self, key: str) -> np.random.Generator:
        gen = self._streams.get(key)
        if gen is None:
            gen = self._streams[key] = np.random.default_rng(
                derive_seed(self.seed, key)
            )
            self._entries[key] = None
            self._touched.add(key)
        return gen

    def get(self, key: str) -> np.random.Generator:
        """Return the memoized generator for ``key`` (create on first use).

        The caller may keep the generator: every capture re-reads it.
        """
        self._held.add(key)
        return self._stream(key)

    def defer(self, key: str) -> "DeferredStream":
        """A source for ``key``'s stream that creates it only when called:
        naming a stream this way does not create it.  Holders call the
        source at each use and never keep what it returns."""
        return DeferredStream(self, key)

    def fresh(self, key: str) -> np.random.Generator:
        """Return a *new* generator for ``key``, resetting its stream (kept
        by the caller, so re-read at every capture, like :meth:`get`)."""
        gen = np.random.default_rng(derive_seed(self.seed, key))
        self._streams[key] = gen
        self._entries.setdefault(key, None)
        self._held.add(key)
        return gen

    def child(self, key: str) -> "RngFactory":
        """Return a sub-factory whose streams are independent of this one."""
        return RngFactory(derive_seed(self.seed, f"child:{key}"))

    # -- checkpointing -----------------------------------------------------------

    def capture(self, overlay: Optional[Dict[str, dict]] = None) -> str:
        """``rng.json``: the JSON object of every created stream's
        bit-generator state, in creation order.

        Exactly ``json.dumps(states, default=int)`` of a full read of every
        stream with ``overlay`` applied by ``dict.update`` (states owned
        outside this process), but only held streams and streams touched
        since the last capture are read and encoded again.  Streams not yet
        created are absent — they are deterministic functions of ``seed``
        and their key, so a resumed factory recreates them identically on
        first use.
        """
        entries, streams = self._entries, self._streams
        for key in self._held | self._touched:
            entries[key] = _entry(key, _read_state(streams[key]))
        self._touched.clear()
        if overlay:
            entries = {
                **entries,
                **{key: _entry(key, state) for key, state in overlay.items()},
            }
        return "{" + ", ".join(entries.values()) + "}"

    def state_dict(self) -> Dict[str, dict]:
        """:meth:`capture` as a dict: the nested plain-python state dicts
        numpy exposes via ``Generator.bit_generator`` (for PCG64: the
        128-bit state/increment integers plus the cached-uint32 pair)."""
        return json.loads(self.capture())

    def load_state(self, states: Dict[str, dict]) -> None:
        """Restore streams captured by :meth:`capture`.

        Each named stream is (re)created and its bit generator
        fast-forwarded to the saved state, so subsequent draws continue
        bit-identically from the capture point.  Streams already handed
        out keep their object identity (holders see the restored stream);
        cached streams absent from ``states`` are left alone.  A state the
        stream's bit generator rejects raises :class:`ValueError` naming
        the stream.  The restored states seed the entry cache, so the next
        capture re-reads only what moves after the restore.
        """
        for key, state in states.items():
            gen = self._stream(key)
            name = type(gen.bit_generator).__name__
            try:
                found = state["bit_generator"]
                if found != name:
                    raise ValueError(
                        f"bit generator {found!r} does not match the "
                        f"factory's {name!r}"
                    )
                # The setter copies the values into the bit generator and
                # keeps no reference to the caller's dict.
                gen.bit_generator.state = state
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(
                    f"stream {key!r}: {name} rejects the saved state "
                    f"({type(exc).__name__}: {exc})"
                ) from None
            self._entries[key] = _entry(key, _read_state(gen))
            self._touched.discard(key)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"RngFactory(seed={self.seed}, streams={sorted(self._streams)})"


class DeferredStream:
    """A named stream of an :class:`RngFactory`, created at the first call.

    Calling it returns the stream's generator and marks the stream for the
    next capture (one dict lookup plus one set add), which is why holders
    call it at every use instead of keeping the generator.
    """

    __slots__ = ("_factory", "key")

    def __init__(self, factory: RngFactory, key: str) -> None:
        self._factory = factory
        self.key = key

    def __call__(self) -> np.random.Generator:
        factory, key = self._factory, self.key
        factory._touched.add(key)
        gen = factory._streams.get(key)
        return gen if gen is not None else factory._stream(key)

    @property
    def created(self) -> bool:
        """Whether the stream exists (has been called, or restored)."""
        return self.key in self._factory._streams


_encode = json.JSONEncoder(default=int).encode


def _entry(key: str, state: dict) -> str:
    """One stream's ``rng.json`` entry, as ``json.dumps(..., default=int)``
    writes it inside the object."""
    return f"{_encode(key)}: {_encode(state)}"


def _read_state(gen: np.random.Generator) -> dict:
    """A fresh dict of ``gen``'s bit-generator state (the one read a
    capture makes per stream)."""
    return gen.bit_generator.state


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
