"""A round holds its uploads once.

The server's ḡ is a running sum, the robust combiners read an
iteration's ``(m, P)`` upload block instead of stacking a copy of it, and
the block dies before the next gradient sweep.  The stacked forms these
replace are kept in :mod:`tests.oracle`; on generated uploads every
rewrite returns their bytes, from a block and from a plain list alike.
A defended round's traced peak stays at two ``m × P`` blocks (the sweep's
pairs while the block fills) plus the size of its installed data, and a
batched round screens the one block its solves wrote into.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DefenseConfig
from repro.datasets.synthetic import ClassConditionalGenerator
from repro.fl.adversary import Adversary
from repro.fl.client import FLClient, LocalSolveSpec
from repro.fl.defense import coordinate_median, krum, screen_updates, trimmed_mean
from repro.fl import round_runner
from repro.fl.round_runner import run_federated_round
from repro.fl.server import FLServer
from repro.nn.models import build_model
from repro.rng import RngFactory

from tests.oracle import (
    assert_same,
    stacked_coordinate_median,
    stacked_gradient_mean,
    stacked_krum,
    stacked_trimmed_mean,
)

#: (m, P, seed).  P starts at 2: for a single coordinate the stacked mean
#: reduces an ``(m, 1)`` array along its contiguous axis, which numpy sums
#: pairwise, while a running sum adds in order; no model has one parameter.
cases = st.tuples(st.integers(1, 64), st.integers(2, 40), st.integers(0, 2**32 - 1))


def uploads(case) -> np.ndarray:
    """An ``(m, P)`` block of mixed magnitudes (1e-12 .. 1e12) with
    scattered ``+0.0`` and ``-0.0`` entries."""
    m, p, seed = case
    rng = np.random.default_rng(seed)
    block = rng.normal(size=(m, p)) * 10.0 ** rng.integers(-12, 13, size=(m, p))
    block[rng.random((m, p)) < 0.05] = 0.0
    block[rng.random((m, p)) < 0.05] = -0.0
    return block


@settings(max_examples=60, deadline=None)
@given(cases)
def test_streaming_gradient_mean_is_the_stacked_mean(case):
    block = uploads(case)
    expected = stacked_gradient_mean(list(block))
    assert_same(expected, FLServer.aggregate_gradients(list(block)))
    assert_same(expected, FLServer.aggregate_gradients(block))


@pytest.mark.parametrize(
    "combiner, oracle",
    [
        (trimmed_mean, stacked_trimmed_mean),
        (coordinate_median, stacked_coordinate_median),
        (krum, stacked_krum),
    ],
    ids=["trimmed_mean", "coordinate_median", "krum"],
)
@settings(max_examples=60, deadline=None)
@given(case=cases)
def test_combiner_on_a_block_or_a_list_is_the_stacked_combiner(combiner, oracle, case):
    block = uploads(case)
    expected = oracle(list(block))
    rows = list(block.copy())
    assert_same(expected, combiner(rows))
    assert_same(block, np.stack(rows), "a list argument")
    assert_same(expected, combiner(block.copy()))


def test_screen_moves_the_survivors_up_the_block_in_place():
    block = np.arange(12.0).reshape(4, 3)
    block[1, 2] = np.nan
    expected = block[[0, 2, 3]] * 1.0
    out = screen_updates(
        block, [7, 8, 9, 10], defense=DefenseConfig("median"), epoch=0, iteration=0
    )
    assert out.rejected_ids == [8] and out.client_ids == [7, 9, 10]
    assert np.shares_memory(out.updates, block)
    assert_same(expected, np.asarray(out.updates))


def small_round(m: int, n: int) -> tuple:
    """``m`` clients with ``n`` samples of 36 features each, a 36-32-10
    MLP, its server and a sign-flip adversary over 30% of the clients."""
    factory = RngFactory(11)
    gen = ClassConditionalGenerator((6, 6, 1), 10, factory.get("gen"), noise=0.3)
    model = build_model("mlp", 36, 10, factory.get("model"), hidden=(32,))
    clients = [
        FLClient(k, model, factory.get(f"c{k}"), LocalSolveSpec(sgd_steps=3, sgd_lr=0.05))
        for k in range(m)
    ]
    for c in clients:
        c.set_data(gen.sample(n, rng=factory.get(f"d{c.client_id}")))
    server = FLServer(model, model.get_params(), gen.test_set(20, rng=factory.get("t")))
    adversary = Adversary("sign-flip", m, 0.3, factory.get("adversary.roster"), factory)
    return server, clients, adversary


def defended_round_peak(m: int, n: int) -> tuple:
    """Traced peak of a 2-iteration loop-engine round of ``small_round(m,
    n)`` behind trimmed-mean screening, with P and the installed data's
    bytes."""
    server, clients, adversary = small_round(m, n)
    data = sum(c.data.x.nbytes + c.data.y.nbytes for c in clients)
    everyone = np.ones(m, dtype=bool)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_federated_round(
            server, clients, everyone, everyone, iterations=2, engine="loop",
            adversary=adversary, defense=DefenseConfig("trimmed-mean"),
        )
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak, server.w.size, data


def test_a_defended_round_holds_at_most_two_upload_blocks():
    """The sweep's pairs and the upload block overlap while the block
    fills; the stacked ḡ and the stacked combiner input were a third
    block.  One client's solve works in ~10 P-vectors of its own, which
    at m = 32 fits inside the data allowance."""
    m = 32
    peak, p, data = defended_round_peak(m, n=32)
    assert peak <= 2 * m * p * 8 + data, (peak, m * p * 8, data)


def test_a_batched_round_screens_one_upload_block(monkeypatch):
    """On the batched engine each solve writes its ``d`` into its row of
    the round's block, so when the gate screens an iteration's uploads the
    round holds that one block beside the engine's stacked copy of the
    data (these clients were installed one by one).  The per-bucket result
    arrays stayed alive beside it until the iteration returned: 2.98
    blocks at m = 32, where this round holds 1.98."""
    m = 32
    server, clients, adversary = small_round(m, n=32)
    data = sum(c.data.x.nbytes + c.data.y.nbytes for c in clients)
    held = []
    screen = round_runner.screen_updates

    def recorded_screen(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0] - base)
        return screen(*args, **kwargs)

    monkeypatch.setattr(round_runner, "screen_updates", recorded_screen)
    everyone = np.ones(m, dtype=bool)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_federated_round(
            server, clients, everyone, everyone, iterations=2, engine="batched",
            adversary=adversary, defense=DefenseConfig("trimmed-mean"),
        )
    finally:
        tracemalloc.stop()
    block = m * server.w.size * 8
    assert len(held) == 2
    assert max(held) <= 1.5 * block + data, (max(held) / block, data / block)


def test_an_upload_of_another_shape_is_refused_not_broadcast():
    """A one-float payload would fill a whole block row if it were simply
    assigned; it is refused as the per-update average refused it."""

    class Truncating:
        kind = "truncate"

        def corrupt_update(self, client_id, d):
            return d[:1]

        def is_adversary(self, client_id):
            return True

    server, clients, _ = small_round(3, 8)
    everyone = np.ones(3, dtype=bool)
    with pytest.raises(ValueError, match="update shape mismatch"):
        run_federated_round(
            server, clients, everyone, everyone, iterations=1, engine="loop",
            adversary=Truncating(),
        )
