"""Tests for the seeded RNG factory."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import (
    PCG64Stream,
    RngFactory,
    RowSource,
    UnsupportedBitGenerator,
    derive_seed,
)
from tests.oracle import full_read, predrawn_rng


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a") == derive_seed(42, "a")

    def test_distinct_keys_distinct_seeds(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_distinct_seeds_distinct_outputs(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_fits_uint64(self):
        s = derive_seed(2**31, "x" * 100)
        assert 0 <= s < 2**64

    @given(st.integers(min_value=0, max_value=2**32), st.text(max_size=30))
    def test_always_valid_seed(self, seed, key):
        s = derive_seed(seed, key)
        np.random.default_rng(s)  # must not raise


class TestRngFactory:
    def test_same_key_same_object(self):
        f = RngFactory(0)
        assert f.get("a") is f.get("a")

    def test_different_keys_independent_streams(self):
        f = RngFactory(0)
        a = f.get("a").random(100)
        b = f.get("b").random(100)
        assert not np.allclose(a, b)

    def test_reproducible_across_factories(self):
        x = RngFactory(7).get("k").random(10)
        y = RngFactory(7).get("k").random(10)
        np.testing.assert_array_equal(x, y)

    def test_consume_order_does_not_matter(self):
        f1 = RngFactory(5)
        f1.get("other").random(50)  # consume an unrelated stream
        a = f1.get("target").random(10)
        f2 = RngFactory(5)
        b = f2.get("target").random(10)
        np.testing.assert_array_equal(a, b)

    def test_fresh_resets_stream(self):
        f = RngFactory(3)
        first = f.get("s").random(5)
        f.fresh("s")
        second = f.get("s").random(5)
        np.testing.assert_array_equal(first, second)

    def test_child_independent(self):
        f = RngFactory(9)
        a = f.get("x").random(20)
        b = f.child("sub").get("x").random(20)
        assert not np.allclose(a, b)

    def test_child_deterministic(self):
        a = RngFactory(9).child("sub").get("x").random(5)
        b = RngFactory(9).child("sub").get("x").random(5)
        np.testing.assert_array_equal(a, b)


class TestDeferredStreams:
    """A row's source names a stream; only its first call (the owner's
    first draw) creates it — the per-client families' contract."""

    def test_defer_creates_nothing_until_called(self):
        factory = RngFactory(2)
        source = RowSource(factory.rows("fl.client", 5), 4)
        assert factory.state_dict() == {} and not source.created
        source()
        assert source.created and list(factory.state_dict()) == ["fl.client.4"]
        assert source() is source()

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1), (1, 2, 0)])
    def test_draws_match_eager_streams_whatever_the_resolve_order(self, order):
        keys = [f"data.client.{k}" for k in range(3)]
        eager = RngFactory(9)
        expected = {key: eager.get(key).random(6) for key in keys}
        lazy = RngFactory(9)
        rows = lazy.rows("data.client", 3)
        sources = {key: RowSource(rows, k) for k, key in enumerate(keys)}
        lazy.get("other").random(5)     # unrelated traffic in between
        for k in order:
            np.testing.assert_array_equal(
                sources[keys[k]]().random(6), expected[keys[k]]
            )

    def test_state_dict_lists_only_resolved_streams(self):
        factory = RngFactory(4)
        rows = factory.rows("fl.client", 100)
        sources = [RowSource(rows, k) for k in range(100)]
        sources[17]().random(3)
        sources[3]()                    # resolved, not yet drawn from
        assert set(factory.state_dict()) == {"fl.client.17", "fl.client.3"}

    def test_deferred_stream_picks_up_a_restored_state(self):
        src = RngFactory(6)
        src.get("fl.client.1").random(50)
        states = src.state_dict()
        expected = src.get("fl.client.1").random(5)
        dst = RngFactory(6)
        source = RowSource(dst.rows("fl.client", 2), 1)  # handed out before the restore
        dst.load_state(states)
        np.testing.assert_array_equal(source().random(5), expected)


class TestStateRoundTrip:
    """state_dict/load_state: the checkpointing contract for RNG streams."""

    def test_state_dict_is_json_safe(self):
        factory = RngFactory(3)
        factory.get("a").random(7)
        factory.get("fl.client.2").integers(0, 9, size=5)
        wire = json.loads(json.dumps(factory.state_dict()))
        assert set(wire) == {"a", "fl.client.2"}

    def test_loaded_factory_continues_bit_identically(self):
        src = RngFactory(11)
        src.get("x").random(100)
        states = src.state_dict()
        expected = src.get("x").random(16)
        dst = RngFactory(11)
        dst.load_state(states)
        np.testing.assert_array_equal(dst.get("x").random(16), expected)

    def test_uncaptured_streams_recreate_from_seed(self):
        src = RngFactory(5)
        src.get("seen").random(3)
        dst = RngFactory(5)
        dst.load_state(src.state_dict())
        np.testing.assert_array_equal(
            dst.get("never_drawn").random(4),
            RngFactory(5).get("never_drawn").random(4),
        )

    def test_load_state_does_not_alias_caller_dict(self):
        src = RngFactory(7)
        src.get("k").random(9)
        states = src.state_dict()
        dst = RngFactory(7)
        dst.load_state(states)
        expected = dst.get("k").random(8)
        # Mutating the caller's dict after load must not reach the stream.
        states["k"]["state"]["state"] = 0
        again = RngFactory(7)
        again.load_state(src.state_dict())
        np.testing.assert_array_equal(again.get("k").random(8), expected)

    def test_load_state_rejects_a_foreign_bit_generator(self):
        states = {"k": np.random.Generator(np.random.MT19937(1)).bit_generator.state}
        with pytest.raises(ValueError, match="MT19937.*PCG64"):
            RngFactory(0).load_state(states)

    @pytest.mark.parametrize(
        "drift", [("state", "inc"), (None, "has_uint32"), (None, "state")]
    )
    def test_load_state_names_the_stream_whose_state_is_rejected(self, drift):
        src = RngFactory(3)
        src.get("net.channel").random(2)
        src.get("fl.client.7").random(2)
        states = json.loads(json.dumps(src.state_dict()))
        inner, field = drift
        del (states["fl.client.7"][inner] if inner else states["fl.client.7"])[field]
        with pytest.raises(ValueError, match=r"stream 'fl\.client\.7'.*PCG64"):
            RngFactory(3).load_state(states)

    @given(
        seed=st.integers(0, 2**32 - 1),
        plan=st.dictionaries(
            st.sampled_from(["a", "b", "fl.client.3", "policy.FedL", "env"]),
            st.integers(0, 64),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, seed, plan):
        """After any draw pattern, a JSON-serialized capture restored into
        a fresh factory continues every stream bit-identically."""
        src = RngFactory(seed)
        for key, n in plan.items():
            src.get(key).random(n)
        wire = json.loads(json.dumps(src.state_dict()))
        expected = {key: src.get(key).random(8) for key in plan}
        dst = RngFactory(seed)
        dst.load_state(wire)
        for key in plan:
            np.testing.assert_array_equal(dst.get(key).random(8), expected[key])


PLAIN_KEYS = ("env", "net")
ROW_KEYS = ("fl.client.0", "fl.client.1", "data.client.0", "data.client.1")


def row_sources(factory):
    """A source per ``ROW_KEYS`` key: two rows of each per-client family."""
    tables = {family: factory.rows(family, 2) for family in ("fl.client", "data.client")}
    return {f"{f}.{k}": RowSource(rows, k) for f, rows in tables.items() for k in (0, 1)}


class TestIncrementalCapture:
    """``capture`` re-reads only held and touched streams, yet always
    writes what a full re-read of every stream would
    (:func:`tests.oracle.full_read`)."""

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["call", "get", "fresh", "capture", "save", "restore"]),
                st.integers(0, 5),
                st.integers(0, 5),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_capture_equals_a_full_read_after_any_sequence(self, ops):
        factory = RngFactory(1)
        sources = row_sources(factory)
        kept = {}                       # what get/fresh holders keep drawing from
        saved = {}
        for op, i, n in ops:
            row_key, plain_key = ROW_KEYS[i % len(ROW_KEYS)], PLAIN_KEYS[i % len(PLAIN_KEYS)]
            for gen in kept.values():
                gen.random(n)
            if op == "call":
                sources[row_key]().random(n)
            elif op == "get":
                kept[plain_key] = factory.get(plain_key)
            elif op == "fresh":
                kept[plain_key] = factory.fresh(plain_key)
            elif op == "restore":
                factory.load_state(saved)
            else:
                written = factory.capture()
                assert written == full_read(factory)
                if op == "save":
                    saved = json.loads(written)
        assert factory.capture() == full_read(factory)

    def test_restoring_an_older_capture_replaces_the_cached_entries(self):
        factory = RngFactory(1)
        held, source = factory.get("env"), row_sources(factory)["data.client.0"]
        source().random(2)
        saved = json.loads(factory.capture())
        held.random(3)
        source().random(3)
        assert factory.capture() == full_read(factory)
        factory.load_state(saved)
        assert factory.capture() == full_read(factory)
        assert factory.state_dict() == saved

    def test_overlay_replaces_in_place_and_appends_new_keys(self):
        factory = RngFactory(2)
        factory.get("a").random(3)
        RowSource(factory.rows("b", 1), 0)().random(1)
        factory.capture()
        overlay = {"b.0": {"x": 1}, "c": {"y": np.int64(2)}}
        assert factory.capture(overlay) == full_read(factory, overlay)
        assert list(json.loads(factory.capture(overlay))) == ["a", "b.0", "c"]


# Bounds for ``bounded``: the smallest, 2³¹ + 1 (about half its draws are
# rejected and redrawn) and the largest Lemire range numpy serves from one
# uint32.
BOUNDS = (0, 1, 2, 2**31 + 1, 2**32 - 2)

draw_ops = st.one_of(
    st.just(("random", None)),
    st.tuples(st.just("bounded"), st.sampled_from(BOUNDS)),
    st.tuples(st.just("pair"), st.integers(2, 10**6)),
)


def numpy_draw(gen: np.random.Generator, op: str, arg):
    """What ``PCG64Stream`` promises each operation equals."""
    if op == "random":
        return gen.random()
    if op == "bounded":
        return int(gen.integers(0, arg, endpoint=True))
    return tuple(gen.choice(arg, size=2, replace=False).tolist())


def stream_draw(stream: PCG64Stream, op: str, arg):
    return stream.random() if op == "random" else getattr(stream, op)(arg)


def assert_same_state(expected: np.random.Generator, actual: np.random.Generator):
    # The whole state: 128-bit position, has_uint32 and uinteger.
    assert actual.bit_generator.state == expected.bit_generator.state


class TestPCG64Stream:
    """The reader against numpy's own draws on the same stream."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        predraws=st.integers(0, 3),
        ops=st.lists(draw_ops, max_size=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_draws_and_final_state_match_numpy(self, seed, predraws, ops):
        ref, gen = predrawn_rng(seed, predraws), predrawn_rng(seed, predraws)
        with PCG64Stream(gen) as stream:
            for op, arg in ops:
                assert stream_draw(stream, op, arg) == numpy_draw(ref, op, arg), op
        assert_same_state(ref, gen)
        # The generator continues where numpy's calls would have left it.
        assert gen.integers(0, 7) == ref.integers(0, 7)
        assert gen.random() == ref.random()

    @pytest.mark.parametrize("r", BOUNDS)
    def test_bounded_matches_integers(self, r):
        ref, gen = np.random.default_rng(r), np.random.default_rng(r)
        with PCG64Stream(gen) as stream:
            got = [stream.bounded(r) for _ in range(301)]
        assert got == [int(ref.integers(0, r, endpoint=True)) for _ in range(301)]
        assert_same_state(ref, gen)

    def test_bounded_zero_draws_nothing(self):
        gen = np.random.default_rng(5)
        before = gen.bit_generator.state
        with PCG64Stream(gen) as stream:
            assert [stream.bounded(0) for _ in range(10)] == [0] * 10
        assert gen.bit_generator.state == before

    @pytest.mark.parametrize("r", [-1, 2**32 - 1, 2**40])
    def test_bounded_refuses_a_range_beyond_one_uint32(self, r):
        with PCG64Stream(np.random.default_rng(0)) as stream:
            with pytest.raises(ValueError, match="2\\*\\*32 - 2"):
                stream.bounded(r)

    def test_random_matches_generator_random(self):
        ref, gen = np.random.default_rng(9), np.random.default_rng(9)
        with PCG64Stream(gen) as stream:
            got = [stream.random() for _ in range(500)]
        assert got == ref.random(500).tolist()
        assert_same_state(ref, gen)

    @pytest.mark.parametrize("leading", [62, 63, 64, 65, 191, 192])
    @pytest.mark.parametrize("predraws", [0, 1])
    def test_runs_across_block_boundaries(self, leading, predraws):
        """Words come in blocks of 64, 128, ...: end a run just before, on
        and after a boundary, with a uint32 pair straddling it."""
        ref, gen = predrawn_rng(leading, predraws), predrawn_rng(leading, predraws)
        ops = [("random", None)] * leading + [("bounded", 2**31 + 1)] * 3
        with PCG64Stream(gen) as stream:
            for op, arg in ops:
                assert stream_draw(stream, op, arg) == numpy_draw(ref, op, arg)
        assert_same_state(ref, gen)

    @pytest.mark.parametrize("uint32_draws", [1, 2, 3])
    def test_rewinds_when_the_loop_raises(self, uint32_draws):
        """An exception inside the ``with`` block still leaves the generator
        on the words consumed, buffered half (has_uint32 and uinteger)
        included."""
        ref, gen = np.random.default_rng(17), np.random.default_rng(17)
        ref.random(3)
        for _ in range(uint32_draws):
            ref.integers(0, 1000, endpoint=True)
        with pytest.raises(RuntimeError, match="mid-loop"):
            with PCG64Stream(gen) as stream:
                for _ in range(3):
                    stream.random()
                for _ in range(uint32_draws):
                    stream.bounded(1000)
                raise RuntimeError("mid-loop")
        state = gen.bit_generator.state
        assert state["has_uint32"] == uint32_draws % 2
        assert state == ref.bit_generator.state

    def test_close_is_idempotent(self):
        ref, gen = np.random.default_rng(3), np.random.default_rng(3)
        ref.integers(0, 7)
        ref.random()
        stream = PCG64Stream(gen)
        stream.bounded(6)
        stream.random()
        stream.close()
        stream.close()
        assert_same_state(ref, gen)

    @pytest.mark.parametrize(
        "bitgen", [np.random.MT19937, np.random.Philox, np.random.PCG64DXSM]
    )
    def test_other_bit_generators_raise_a_typed_error(self, bitgen):
        gen = np.random.Generator(bitgen(1))
        with pytest.raises(UnsupportedBitGenerator, match=bitgen.__name__):
            PCG64Stream(gen)
        assert issubclass(UnsupportedBitGenerator, TypeError)
        # Nothing was drawn.
        assert gen.random() == np.random.Generator(bitgen(1)).random()
