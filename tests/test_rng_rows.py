"""Per-client streams as rows of one state table per family.

A registered family's streams live in a :class:`repro.rng.StreamRows`
table and are drawn through one shared generator; a source call loads its
row after writing the previous holder's back.  Two oracles hold the tables
to what one ``Generator`` per stream gave:

* **Draws.**  Any interleaving of draws through the sources — ``random``,
  ``integers`` (leaving a buffered uint32 half), ``choice``,
  ``standard_normal`` and :class:`repro.rng.PCG64Stream` reads — equals
  the draws of each stream's own ``default_rng(derive_seed(seed, key))``
  (:func:`tests.oracle.independent_stream`).
* **Capture.**  ``capture()`` writes the bytes the per-``Generator``
  factory (:class:`tests.oracle.PerGeneratorRngFactory`) writes after the
  same calls, with overlays and after ``load_state``.

The holder rule is load-bearing here: a generator kept past another
client's call draws that client's stream.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import Simulation, run_experiment
from repro.experiments.scenarios import experiment_config, make_policy
from repro.fl.client import FLClient
from repro.rng import PCG64Stream, RngFactory, RowSource
from tests.oracle import (
    PerGeneratorRngFactory,
    assert_same,
    independent_stream,
    stream_state,
)

FAMILIES = ("data.client", "fl.client")
KINDS = ("random", "integer", "integers", "choice", "normal", "stream")


def row_sources(factory, n):
    """``{key: source}`` for rows ``k < n`` of both families' tables."""
    return {
        f"{family}.{k}": RowSource(factory.rows(family, n), k)
        for family in FAMILIES
        for k in range(n)
    }


def draw(kind, n, gen):
    """One draw of ``kind`` sized by ``n`` (1..8) from ``gen``."""
    if kind == "random":
        return gen.random(n)
    if kind == "integer":  # one uint32: leaves (or uses) a buffered half
        return gen.integers(0, n + 1)
    if kind == "integers":
        return gen.integers(0, 1000, size=n)
    if kind == "choice":
        return gen.choice(n + 8, size=min(n, 4), replace=False)
    if kind == "normal":
        return gen.standard_normal(n)
    with PCG64Stream(gen) as stream:
        return [stream.random(), stream.bounded(n), stream.pair(n + 1)]


class TestInterleavedDraws:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
        st.lists(
            st.tuples(
                st.sampled_from(FAMILIES),
                st.integers(0, 5),
                st.sampled_from(KINDS),
                st.integers(1, 8),
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_each_row_draws_its_own_stream(self, seed, n, ops):
        factory = RngFactory(seed)
        sources = row_sources(factory, n)
        oracles = {key: independent_stream(seed, key) for key in sources}
        held = factory.get("env")         # unrelated traffic in between
        held_oracle = independent_stream(seed, "env")
        for family, k, kind, size in ops:
            key = f"{family}.{k % n}"
            got = draw(kind, size, sources[key]())
            assert_same(draw(kind, size, oracles[key]), got, f"{key} {kind}")
            assert_same(held_oracle.random(), held.random(), "env")
        for key, source in sources.items():
            if source.created:
                assert stream_state(source()) == stream_state(oracles[key])

    def test_a_kept_generator_draws_another_clients_stream(self):
        """The holder rule pinned: a generator kept past another row's call
        is the shared generator, now holding that other row."""
        rows = RngFactory(5).rows("fl.client", 2)
        kept = RowSource(rows, 0)()
        RowSource(rows, 1)()
        assert kept.random() == independent_stream(5, "fl.client.1").random()

    def test_rows_refuse_to_be_kept(self):
        factory = RngFactory(1)
        factory.rows("fl.client", 3)
        for hand_out in (factory.get, factory.fresh):
            with pytest.raises(ValueError, match="RowSource"):
                hand_out("fl.client.2")
        # Outside the table's index range a key is an ordinary stream.
        assert factory.get("fl.client.3") is factory.get("fl.client.3")
        assert factory.get("fl.client.01") is factory.get("fl.client.01")
        assert factory.rows("fl.client", 3) is factory.rows("fl.client", 3)
        with pytest.raises(ValueError, match="3 rows, not 4"):
            factory.rows("fl.client", 4)


PLAIN = ("env", "net")
ROWS = tuple(f"{family}.{k}" for family in FAMILIES for k in range(3))


class TestCaptureOracle:
    """``capture`` against the per-``Generator`` factory, call for call."""

    @given(
        st.integers(0, 2**32 - 1),
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["call", "integer", "get", "fresh", "capture", "overlay", "save", "restore"]
                ),
                st.integers(0, len(ROWS) - 1),
                st.integers(0, 5),
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_capture_is_the_per_generator_capture(self, seed, ops):
        new, old = RngFactory(seed), PerGeneratorRngFactory(seed)
        sources = row_sources(new, 3)
        kept = {}
        saved = {}
        for op, i, n in ops:
            key, plain = ROWS[i], PLAIN[i % len(PLAIN)]
            for gen_new, gen_old in kept.values():
                gen_new.random(n)
                gen_old.random(n)
            if op in ("call", "integer"):
                for source in (sources[key], old.defer(key)):
                    gen = source()
                    if op == "call":
                        gen.random(n)
                    else:
                        gen.integers(0, 7)
            elif op in ("get", "fresh"):
                kept[plain] = (getattr(new, op)(plain), getattr(old, op)(plain))
            elif op == "restore":
                new.load_state(saved)
                old.load_state(saved)
            else:
                # A live worker's states: one replaces a row in place, one
                # is a stream this process never made.
                overlay = (
                    {key: independent_stream(n, key).bit_generator.state,
                     "live.extra": {"n": n}}
                    if op == "overlay"
                    else None
                )
                written = new.capture(overlay)
                assert written == old.capture(overlay)
                if op == "save":
                    saved = json.loads(written)
        assert new.capture() == old.capture()
        assert new.state_dict() == json.loads(old.capture())

    def test_a_resumed_factory_writes_the_same_bytes(self):
        """``load_state`` fills rows that later captures keep in place."""
        src = RngFactory(3)
        src_rows = row_sources(src, 4)
        src.get("env").random(2)
        for k in (2, 0, 3):
            src_rows[f"fl.client.{k}"]().integers(0, 9, size=k + 1)
        states = src.state_dict()
        dst, old = RngFactory(3), PerGeneratorRngFactory(3)
        dst_rows = row_sources(dst, 4)
        dst.load_state(states)
        old.load_state(states)
        assert dst.capture() == old.capture() == src.capture()
        old_rows = {key: old.defer(key) for key in dst_rows}
        for sources in (dst_rows, old_rows, src_rows):
            sources["fl.client.1"]().random(3)
            sources["fl.client.0"]().random(3)
        assert dst.capture() == old.capture() == src.capture()

    def test_a_rejected_row_state_names_the_stream(self):
        factory = RngFactory(0)
        source = RowSource(factory.rows("fl.client", 2), 1)
        source().random(4)
        with pytest.raises(ValueError, match="'fl.client.0'.*KeyError"):
            factory.load_state({"fl.client.0": {"bit_generator": "PCG64"}})
        # The holder's stream was written back before the failed restore.
        assert stream_state(source()) == stream_state(
            _advanced(independent_stream(0, "fl.client.1"), 4)
        )


def _advanced(gen, n):
    gen.random(n)
    return gen


def test_a_client_that_keeps_its_generator_changes_the_run(monkeypatch):
    """The holder rule at run level: batched solves interleave their
    clients' minibatch draws, so an ``FLClient`` that keeps the shared
    generator trains on other clients' minibatches."""
    cfg = experiment_config(budget=1e9, num_clients=12, max_epochs=3, seed=0)
    cfg = cfg.replace(training=dataclasses.replace(cfg.training, engine="batched"))

    def run():
        sim = Simulation(cfg)
        result = run_experiment(
            make_policy("FedAvg", cfg, RngFactory(0).get("p")), cfg, simulation=sim
        )
        drew = [key for key in sim.rng.state_dict() if key.startswith("fl.client.")]
        return result.final_w, len(drew)

    reference, drew = run()
    assert drew >= 2

    def kept_rng(self):
        if not isinstance(self._rng, np.random.Generator):
            self._rng = self._rng()
        return self._rng

    monkeypatch.setattr(FLClient, "rng", property(kept_rng))
    mutant, _ = run()
    assert mutant.tobytes() != reference.tobytes()
