"""Property tests for the simulated round (repro.sim.entities).

The load-bearing invariants of the event-driven runtime:

* **sync exactness** — with no faults and no deadline, the simulated
  completion time equals the paper's closed-form
  ``epoch_latency``/``client_latency`` *bit-for-bit*, over randomized
  draws (the run-tracking barrier arithmetic, not approximately);
* **async exactness** — fault-free K-quorum rounds complete at exactly
  ``l · (K-th smallest per-iteration latency)``;
* **deadline monotonicity** — a binding deadline strictly reduces the
  round latency versus the sync barrier;
* the participation floor (3b) is never silently violated — a typed
  :class:`ParticipationFloorError` is raised instead.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live import LiveRoundSpec
from repro.net.latency import client_latency, epoch_latency
from repro.sim import (
    FaultProfile,
    ParticipationFloorError,
    SimRoundSpec,
    simulate_round,
)


def draw_taus(seed: int, m: int):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.01, 3.0, m), rng.uniform(0.005, 1.0, m)


class TestSyncExactness:
    @given(
        seed=st.integers(0, 10_000),
        m=st.integers(1, 12),
        iterations=st.integers(1, 30),
    )
    @settings(max_examples=120, deadline=None)
    def test_completion_matches_epoch_latency_bitwise(self, seed, m, iterations):
        tau_loc, tau_cm = draw_taus(seed, m)
        out = simulate_round(
            SimRoundSpec(
                client_ids=np.arange(m),
                tau_loc=tau_loc,
                tau_cm=tau_cm,
                iterations=iterations,
            )
        )
        per_client = client_latency(iterations, tau_loc, tau_cm)
        expected = epoch_latency(np.atleast_1d(per_client), np.ones(m, bool))
        assert out.completion_time == expected  # bit-exact, no tolerance
        # Per-client completed work matches d_k(t) = l(τ_loc + τ_cm) exactly.
        for pos in range(m):
            assert out.client_busy_s[pos] == float(np.atleast_1d(per_client)[pos])
        # Every iteration kept the full participant set.
        assert len(out.contributors) == iterations
        for ids in out.contributors:
            assert np.array_equal(ids, np.arange(m))
        assert out.dropped == {} and out.num_retries == 0
        assert out.deadline_hits == 0

    @given(seed=st.integers(0, 10_000), iterations=st.integers(1, 50))
    @settings(max_examples=60, deadline=None)
    def test_iteration_durations_are_constant_width(self, seed, iterations):
        tau_loc, tau_cm = draw_taus(seed, 6)
        out = simulate_round(
            SimRoundSpec(
                client_ids=np.arange(6),
                tau_loc=tau_loc,
                tau_cm=tau_cm,
                iterations=iterations,
            )
        )
        width = float(np.max(tau_loc + tau_cm))
        assert out.iteration_durations == [width] * iterations


class TestAsyncExactness:
    @given(
        seed=st.integers(0, 10_000),
        m=st.integers(2, 12),
        iterations=st.integers(1, 30),
        k_frac=st.floats(0.1, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_quorum_completion_is_kth_smallest(self, seed, m, iterations, k_frac):
        tau_loc, tau_cm = draw_taus(seed, m)
        quorum = max(1, int(round(k_frac * m)))
        out = simulate_round(
            SimRoundSpec(
                client_ids=np.arange(m),
                tau_loc=tau_loc,
                tau_cm=tau_cm,
                iterations=iterations,
                aggregation="async",
                quorum=quorum,
            )
        )
        kth = float(np.sort(tau_loc + tau_cm)[quorum - 1])
        assert out.completion_time == iterations * kth  # bit-exact
        # Exactly the quorum-fastest clients contribute each iteration.
        fastest = set(np.argsort(tau_loc + tau_cm, kind="stable")[:quorum].tolist())
        for ids in out.contributors:
            assert len(ids) == quorum
            assert set(ids.tolist()) == fastest
        # Slow clients are cancelled, not dropped: all survive the round.
        assert out.dropped == {}


class TestDeadline:
    @given(seed=st.integers(0, 10_000), iterations=st.integers(1, 20))
    @settings(max_examples=80, deadline=None)
    def test_binding_deadline_strictly_reduces_latency(self, seed, iterations):
        rng = np.random.default_rng(seed)
        m = 6
        tau_loc = rng.uniform(0.01, 1.0, m)
        tau_cm = rng.uniform(0.005, 0.2, m)
        total = tau_loc + tau_cm
        # Deadline strictly between the fastest and slowest client, so it
        # binds (someone is dropped) but at least one upload lands.
        lo, hi = float(np.min(total)), float(np.max(total))
        if lo == hi:  # pragma: no cover - measure-zero draw
            return
        deadline = lo + 0.5 * (hi - lo)
        sync = simulate_round(
            SimRoundSpec(
                client_ids=np.arange(m), tau_loc=tau_loc, tau_cm=tau_cm,
                iterations=iterations,
            )
        )
        capped = simulate_round(
            SimRoundSpec(
                client_ids=np.arange(m), tau_loc=tau_loc, tau_cm=tau_cm,
                iterations=iterations, aggregation="deadline",
                deadline_s=deadline,
            )
        )
        assert capped.completion_time < sync.completion_time
        assert capped.deadline_hits >= 1
        assert capped.dropped and all(
            r == "deadline" for r in capped.dropped.values()
        )
        # Dropped stragglers are exactly the clients slower than the deadline.
        assert set(capped.dropped) == set(np.flatnonzero(total > deadline).tolist())

    def test_first_iteration_deadline_width_is_deadline(self):
        out = simulate_round(
            SimRoundSpec(
                client_ids=np.arange(3),
                tau_loc=np.array([0.5, 1.0, 4.0]),
                tau_cm=np.array([0.5, 1.0, 1.0]),
                iterations=4,
                aggregation="deadline",
                deadline_s=1.5,
            )
        )
        # Iteration 0 closes at the deadline (1.5s), dropping clients 1
        # and 2 (totals 2.0 and 5.0); the remaining iterations run clean
        # with only client 0 (total 1.0).
        assert out.iteration_durations == [1.5, 1.0, 1.0, 1.0]
        assert out.completion_time == 1.5 + 3 * 1.0
        assert out.dropped == {1: "deadline", 2: "deadline"}
        assert [len(ids) for ids in out.contributors] == [1, 1, 1, 1]


class TestParticipationFloor:
    def test_deadline_below_everyone_raises_typed_error(self):
        with pytest.raises(ParticipationFloorError) as err:
            simulate_round(
                SimRoundSpec(
                    client_ids=np.arange(4),
                    tau_loc=np.full(4, 1.0),
                    tau_cm=np.full(4, 0.5),
                    iterations=2,
                    aggregation="deadline",
                    deadline_s=0.25,
                    min_participants=4,
                )
            )
        assert err.value.floor == 4
        assert err.value.survivors < 4
        assert err.value.reason == "deadline"

    def test_initial_selection_below_floor_raises(self):
        with pytest.raises(ParticipationFloorError) as err:
            simulate_round(
                SimRoundSpec(
                    client_ids=np.arange(2),
                    tau_loc=np.ones(2),
                    tau_cm=np.ones(2),
                    iterations=1,
                    min_participants=3,
                )
            )
        assert err.value.reason == "initial selection"


class TestSpecValidation:
    spec_cls = SimRoundSpec

    def base(self, **kw):
        args = dict(
            client_ids=np.arange(3),
            tau_loc=np.ones(3),
            tau_cm=np.ones(3),
            iterations=2,
        )
        args.update(kw)
        return self.spec_cls(**args)

    def test_unknown_aggregation(self):
        with pytest.raises(ValueError, match="aggregation"):
            self.base(aggregation="gossip")

    def test_deadline_requires_deadline_s(self):
        with pytest.raises(ValueError, match="deadline_s"):
            self.base(aggregation="deadline")

    def test_async_requires_quorum(self):
        with pytest.raises(ValueError, match="quorum"):
            self.base(aggregation="async")

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            self.base(tau_loc=np.ones(2))

    def test_negative_tau(self):
        with pytest.raises(ValueError, match="nonnegative"):
            self.base(tau_cm=np.array([0.1, -0.1, 0.2]))

    def test_iterations_positive(self):
        with pytest.raises(ValueError, match="iterations"):
            self.base(iterations=0)

    def test_stochastic_profile_requires_rng(self):
        spec = self.base(faults=FaultProfile(upload_failure_prob=0.2))
        with pytest.raises(ValueError, match="RNG"):
            simulate_round(spec)


class TestLiveSpecValidation(TestSpecValidation):
    """The live spec is the DES spec plus ``time_scale``: every bad-input
    case above is rejected by the same validation."""

    spec_cls = LiveRoundSpec

    @pytest.mark.parametrize("scale", [0.0, -1.0])
    def test_time_scale_positive(self, scale):
        with pytest.raises(ValueError, match="time_scale"):
            self.base(time_scale=scale)

    def test_is_a_sim_round_spec(self):
        spec = self.base(time_scale=2.0)
        assert isinstance(spec, SimRoundSpec)
        assert spec.time_scale == 2.0
