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
"""

from __future__ import annotations

import copy
import functools
import hashlib
from typing import Callable, Dict

import numpy as np

__all__ = ["RngFactory", "derive_seed"]


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
