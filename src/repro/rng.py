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
stream's state is a function of ``(seed, key)`` alone.

**Between epochs a client is a row.**  A per-client family
(``data.client.<k>``, ``fl.client.<k>``) registered with
:meth:`RngFactory.rows` is one PCG64 state table (:class:`StreamRows`)
drawn through one shared generator.  A row's source (:class:`RowSource`)
writes the previous holder's row back, loads its own (created at the first
call) and returns the shared generator.  Naming a row creates nothing:
a client that never draws never has a stream.

**The holder rule.**  A holder of a row source calls it at each use and
never stores the generator it returns.  The rule is load-bearing: a kept
generator would, after another client's call, draw that client's stream
(``tests/test_rng_rows.py`` pins this).  A call also marks the row for the
next snapshot: a capture (:meth:`RngFactory.capture`) re-reads only the
streams handed out by :meth:`~RngFactory.get` (long-lived holders: env,
net, the eval panel, policies, faults) and the rows called since the
previous capture; every other stream reuses the ``rng.json`` entry encoded
when it last moved.  So capture cost follows the streams drawn since the last
snapshot, not every stream the run has made.

Every stream is PCG64 (``default_rng``'s bit generator); the factory's
restore rule and :class:`PCG64Stream` both refuse any other.
:class:`PCG64Stream` reads a generator's stream from Python draw for draw as
numpy's C code does, for loops whose per-draw numpy call overhead dominates.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from operator import length_hint
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

__all__ = [
    "PCG64Stream",
    "RngFactory",
    "RowSource",
    "StreamRows",
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
        # Per stream outside the row tables: its ``"key": {...}`` rng.json
        # entry as of the last capture, and its creation index (rng.json
        # lists streams in creation order; rows keep theirs in the table).
        self._entries: Dict[str, Optional[str]] = {}
        self._index: Dict[str, int] = {}
        self._count = itertools.count()
        # Re-read at every capture: streams handed to long-lived holders;
        # at the next one: streams created since the last.
        self._held: Set[str] = set()
        self._touched: Set[str] = set()
        self._rows: Dict[str, StreamRows] = {}

    def _stream(self, key: str) -> np.random.Generator:
        gen = self._streams.get(key)
        if gen is None:
            if self._row_of(key)[0] is not None:
                raise ValueError(f"stream {key!r} is a table row: draw it through a RowSource")
            gen = self._streams[key] = np.random.default_rng(
                derive_seed(self.seed, key)
            )
            self._entries[key] = None
            self._index[key] = next(self._count)
            self._touched.add(key)
        return gen

    def _row_of(self, key: str) -> Tuple[Optional["StreamRows"], int]:
        """``(table, k)`` when ``key`` is row ``k`` of a registered family."""
        family, _, index = key.rpartition(".")
        rows = self._rows.get(family)
        k = int(index) if index.isdecimal() and str(int(index)) == index else -1
        return (rows, k) if rows is not None and 0 <= k < len(rows.index) else (None, -1)

    def rows(self, family: str, n: int) -> "StreamRows":
        """Register ``<family>.<k>``, ``k < n``, as one table's rows."""
        rows = self._rows.setdefault(family, StreamRows(self, family, n))
        if len(rows.index) != n:
            raise ValueError(f"{family!r} has {len(rows.index)} rows, not {n}")
        return rows

    def get(self, key: str) -> np.random.Generator:
        """Return the memoized generator for ``key`` (create on first use).
        The caller may keep it: every capture re-reads it (so not a row)."""
        gen = self._stream(key)
        self._held.add(key)
        return gen

    def fresh(self, key: str) -> np.random.Generator:
        """Return a *new* generator for ``key``, resetting its stream (kept
        by the caller, so re-read at every capture, like :meth:`get`)."""
        self._stream(key)
        gen = self._streams[key] = np.random.default_rng(derive_seed(self.seed, key))
        self._held.add(key)
        return gen

    def child(self, key: str) -> "RngFactory":
        """Return a sub-factory whose streams are independent of this one."""
        return RngFactory(derive_seed(self.seed, f"child:{key}"))

    # -- checkpointing -----------------------------------------------------------

    def capture(self, overlay: Optional[Dict[str, dict]] = None) -> str:
        """``rng.json``: every created stream's bit-generator state, in
        creation order — exactly ``json.dumps(states, default=int)`` of a
        full read with ``overlay`` (states owned outside this process)
        applied by ``dict.update``, but only held streams and streams
        touched since the last capture are read and encoded again.  A stream
        not yet created is absent: a resumed factory recreates it from
        ``seed`` and its key on first use."""
        entries, streams = self._entries, self._streams
        for key in self._held | self._touched:
            entries[key] = _entry(key, _read_state(streams[key]))
        self._touched.clear()
        keys, texts = list(entries), list(entries.values())
        index = [np.fromiter(map(self._index.__getitem__, keys), np.int64, len(keys))]
        for rows in self._rows.values():
            created, row_texts = rows.capture()
            index.append(rows.index[created])
            texts += row_texts
            keys += [f"{rows.family}.{k}" for k in created.tolist()] if overlay else []
        ordered = {i: texts[i] for i in np.argsort(np.concatenate(index)).tolist()}
        if overlay:
            ordered = {keys[i]: text for i, text in ordered.items()}
            ordered.update({key: _entry(key, state) for key, state in overlay.items()})
        return "{" + ", ".join(ordered.values()) + "}"

    def state_dict(self) -> Dict[str, dict]:
        """:meth:`capture` as a dict: the nested plain-python state dicts
        numpy exposes via ``Generator.bit_generator`` (for PCG64: the
        128-bit state/increment integers plus the cached-uint32 pair)."""
        return json.loads(self.capture())

    def load_state(self, states: Dict[str, dict]) -> None:
        """Restore streams captured by :meth:`capture`: each named stream
        (or row) is created if new and set to the saved state, so draws
        continue bit-identically; generators already handed out keep their
        identity, and streams absent from ``states`` are left alone.  A
        rejected state raises :class:`ValueError` naming the stream.  The
        restored states seed the entry cache."""
        for key, state in states.items():
            rows, k = self._row_of(key)
            gen = rows.load(k) if rows is not None else self._stream(key)
            _set_state(key, gen, state)
            entry = _entry(key, _read_state(gen))
            if rows is not None:
                rows.touched[k], rows.entries[k] = False, entry
            else:
                self._entries[key] = entry
                self._touched.discard(key)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"RngFactory(seed={self.seed}, streams={sorted(self._streams)})"


def _set_state(key: str, gen: np.random.Generator, state: dict) -> None:
    """Set ``gen``'s bit-generator state, or raise :class:`ValueError`
    naming stream ``key``."""
    name = type(gen.bit_generator).__name__
    try:
        found = state["bit_generator"]
        if found != name:
            raise ValueError(
                f"bit generator {found!r} does not match the factory's {name!r}"
            )
        gen.bit_generator.state = state  # copies; keeps no reference
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(
            f"stream {key!r}: {name} rejects the saved state "
            f"({type(exc).__name__}: {exc})"
        ) from None


_U64 = (1 << 64) - 1


class StreamRows:
    """One family's PCG64 streams, ``<family>.<k>`` for ``k < n``: per row
    the 128-bit state and increment as uint64 pairs and the buffered uint32
    pair (``has_uint32 << 32 | uinteger``), the creation index (−1 until
    created) and whether it was called since the last capture.  The
    holder's row is stale until written back, at the next swap or capture."""

    def __init__(self, factory: RngFactory, family: str, n: int) -> None:
        self._factory = factory
        self.family = family
        self.words = np.zeros((n, 5), dtype=np.uint64)
        self.index = np.full(n, -1, dtype=np.int32)
        self.touched = np.zeros(n, dtype=bool)
        self.entries: Dict[int, str] = {}  # as of the last capture
        self.gen = np.random.default_rng(0)
        self.holder = -1

    def _state(self, k: int) -> dict:
        """Row ``k`` as the dict ``PCG64.state`` reads and writes."""
        sh, sl, ih, il, buf = self.words[k].tolist()
        pcg = {"state": sh << 64 | sl, "inc": ih << 64 | il}
        has, half = buf >> 32, buf & _U32
        return {"bit_generator": "PCG64", "state": pcg, "has_uint32": has, "uinteger": half}

    def _put(self, k: int, state: dict) -> None:
        s, i = state["state"]["state"], state["state"]["inc"]
        buf = state["has_uint32"] << 32 | state["uinteger"]
        self.words[k] = (s >> 64, s & _U64, i >> 64, i & _U64, buf)

    def _write_back(self) -> None:
        if self.holder >= 0:
            self._put(self.holder, _read_state(self.gen))

    def create(self, k: int) -> None:
        """Seed row ``k`` from ``(seed, key)`` unless it exists."""
        if self.index[k] < 0:
            seed = derive_seed(self._factory.seed, f"{self.family}.{k}")
            self._put(k, np.random.PCG64(seed).state)
            self.index[k] = next(self._factory._count)
            self.touched[k] = True

    def load(self, k: int) -> np.random.Generator:
        """Make row ``k`` (created if new) the shared generator's holder."""
        self._write_back()
        self.create(k)
        self.gen.bit_generator.state = self._state(k)
        self.holder = k
        return self.gen

    def capture(self) -> Tuple[np.ndarray, List[str]]:
        """The created rows and their entries (re-encoding touched rows)."""
        self._write_back()
        touched = np.flatnonzero(self.touched)
        self.touched[touched] = False
        for k in touched.tolist():
            self.entries[k] = _entry(f"{self.family}.{k}", self._state(k))
        created = np.flatnonzero(self.index >= 0)
        return created, [self.entries[k] for k in created.tolist()]


class RowSource:
    """Row ``row``'s source: a call creates the row if new, marks it for
    the next capture and returns the shared generator holding it."""

    __slots__ = ("_rows", "row")

    def __init__(self, rows: StreamRows, row: int) -> None:
        self._rows = rows
        self.row = row

    def __call__(self) -> np.random.Generator:
        rows, k = self._rows, self.row
        rows.touched[k] = True
        return rows.gen if rows.holder == k else rows.load(k)

    @property
    def created(self) -> bool:
        """Whether the stream exists (has been called, or restored)."""
        return bool(self._rows.index[self.row] >= 0)


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
