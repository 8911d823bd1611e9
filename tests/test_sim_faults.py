"""Fault-layer tests: profiles, retries, dropout, and the Markov
availability bridge (sojourn-consistent hazard, untouched marginals)."""

import numpy as np
import pytest

from repro.env.availability import MarkovAvailabilityProcess
from repro.sim import (
    FAULT_PROFILES,
    FaultProfile,
    ParticipationFloorError,
    SimRoundSpec,
    fault_profile,
    sample_dropout_times,
    simulate_round,
)


class TestFaultProfile:
    def test_named_presets_resolve(self):
        for name in FAULT_PROFILES:
            assert fault_profile(name) is FAULT_PROFILES[name]

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown fault profile"):
            fault_profile("meteor-strike")

    def test_none_profile_is_deterministic(self):
        assert not fault_profile("none").stochastic
        assert fault_profile("flaky-uplink").stochastic
        assert fault_profile("churn").stochastic

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dropout_hazard": -0.1},
            {"upload_failure_prob": 1.0},
            {"upload_failure_prob": -0.2},
            {"max_retries": -1},
            {"retry_backoff_s": -0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultProfile(**kwargs)


class TestDropoutSampling:
    def test_zero_hazard_never_drops(self):
        times = sample_dropout_times(5, 0.0, 10.0, None)
        assert np.all(np.isinf(times))

    def test_positive_hazard_requires_rng(self):
        with pytest.raises(ValueError, match="RNG"):
            sample_dropout_times(5, 0.5, 10.0, None)

    def test_finite_draws_land_inside_the_round(self):
        times = sample_dropout_times(2000, 0.5, 10.0, np.random.default_rng(1))
        finite = times[np.isfinite(times)]
        assert finite.size > 0
        assert np.all((finite >= 0.0) & (finite < 10.0))

    def test_survival_probability_matches_hazard(self):
        hazard = 0.7
        times = sample_dropout_times(
            20_000, hazard, 1.0, np.random.default_rng(2)
        )
        survive_frac = float(np.mean(np.isinf(times)))
        assert survive_frac == pytest.approx(np.exp(-hazard), abs=0.02)

    def test_deterministic_under_seed(self):
        a = sample_dropout_times(50, 0.4, 5.0, np.random.default_rng(7))
        b = sample_dropout_times(50, 0.4, 5.0, np.random.default_rng(7))
        assert np.array_equal(a, b)


def flaky_spec(**kw):
    args = dict(
        client_ids=np.arange(4),
        tau_loc=np.array([0.5, 0.6, 0.7, 0.4]),
        tau_cm=np.full(4, 0.1),
        iterations=3,
        faults=FaultProfile(
            upload_failure_prob=0.5, max_retries=1, retry_backoff_s=0.05
        ),
        min_participants=1,
    )
    args.update(kw)
    return SimRoundSpec(**args)


class TestUploadRetries:
    def test_graceful_degradation_after_retry_exhaustion(self):
        # Seed pinned: client 0 exhausts its retries and drops, the
        # round still completes with the survivors.
        out = simulate_round(flaky_spec(), np.random.default_rng(0))
        assert out.dropped == {0: "upload_failed"}
        assert out.num_retries == 3
        assert 0 not in set(out.survivors.tolist())
        assert len(out.contributors) == 3
        # Retry time is real work: a retrying client's busy seconds
        # exceed the fault-free closed form, a clean client's match it.
        assert out.client_busy_s[1] > 3 * (0.6 + 0.1)
        assert out.client_busy_s[3] == 3 * (0.4 + 0.1)

    def test_floor_violation_raises_typed_error(self):
        # Seed pinned: every client exhausts retries -> floor breach.
        with pytest.raises(ParticipationFloorError) as err:
            simulate_round(flaky_spec(), np.random.default_rng(8))
        assert err.value.reason == "upload_failed"

    def test_same_seed_bit_identical(self):
        a = simulate_round(flaky_spec(), np.random.default_rng(5))
        b = simulate_round(flaky_spec(), np.random.default_rng(5))
        assert a.completion_time == b.completion_time
        assert a.dropped == b.dropped and a.num_retries == b.num_retries
        assert a.client_busy_s == b.client_busy_s
        assert [i.tolist() for i in a.contributors] == [
            i.tolist() for i in b.contributors
        ]

    def test_retries_break_the_exact_run_but_stay_consistent(self):
        out = simulate_round(flaky_spec(), np.random.default_rng(0))
        # Widths are still the slowest accepted offset per iteration, so
        # completion is their (run-grouped) sum.
        assert out.completion_time == pytest.approx(
            sum(out.iteration_durations)
        )


class TestMarkovBridge:
    def make_chain(self, seed):
        return MarkovAvailabilityProcess(
            12, 0.55, np.random.default_rng(seed), mean_on_epochs=3.0
        )

    def test_hazard_is_sojourn_consistent(self):
        chain = self.make_chain(0)
        # P(drop during round) == the chain's one-step off-transition.
        assert 1.0 - np.exp(-chain.intra_round_hazard()) == pytest.approx(
            chain.p_on_off, rel=1e-12
        )

    def test_epoch_marginals_unchanged_by_hazard_queries(self):
        """Regression: wiring intra-round dropout must not perturb the
        epoch-granular availability sequence (the hazard is a pure
        function of the transition matrix, consuming no RNG)."""
        plain = self.make_chain(42)
        bridged = self.make_chain(42)
        masks_plain, masks_bridged = [], []
        drop_rng = np.random.default_rng(1234)
        for _ in range(25):
            masks_plain.append(plain.sample())
            # Interleave hazard queries and dropout draws at that hazard.
            sample_dropout_times(6, bridged.intra_round_hazard(), 2.5, drop_rng)
            masks_bridged.append(bridged.sample())
        assert all(
            np.array_equal(a, b)
            for a, b in zip(masks_plain, masks_bridged)
        )
