"""Unit and property tests for the update-validation/defense layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DefenseConfig
from repro.fl.defense import (
    AGGREGATORS,
    CorruptUpdateError,
    DefenseRoundReport,
    TrainingDivergedError,
    coordinate_median,
    krum,
    robust_aggregate,
    screen_updates,
    trimmed_mean,
)


class TestDefenseConfig:
    def test_unknown_aggregator_rejected(self):
        with pytest.raises(ValueError, match="unknown defense aggregator"):
            DefenseConfig(aggregator="majority-vote")

    def test_all_aggregators_constructible(self):
        for name in AGGREGATORS:
            assert DefenseConfig(aggregator=name).aggregator == name


class TestScreenGate:
    def test_no_defense_passthrough_is_identity(self):
        updates = [np.ones(4), np.full(4, 2.0)]
        out = screen_updates(updates, [0, 1], defense=None, epoch=0, iteration=0)
        # Same objects, same order — the bit-identity contract.
        assert out.updates[0] is updates[0]
        assert out.updates[1] is updates[1]
        assert out.rejected_ids == [] and out.clipped_ids == []

    def test_no_defense_nan_raises_typed_error(self):
        bad = np.array([1.0, np.nan])
        with pytest.raises(CorruptUpdateError) as err:
            screen_updates(
                [np.zeros(2), bad], [3, 7], defense=None, epoch=5, iteration=2
            )
        assert err.value.client_id == 7
        assert err.value.epoch == 5
        assert err.value.iteration == 2

    def test_no_defense_inf_raises(self):
        with pytest.raises(CorruptUpdateError):
            screen_updates(
                [np.array([np.inf, 0.0])], [0], defense=None, epoch=0, iteration=0
            )

    @pytest.mark.parametrize("agg", ["mean", "median", "trimmed-mean", "krum"])
    def test_defense_quarantines_nonfinite(self, agg):
        spec = DefenseConfig(aggregator=agg)
        updates = [np.ones(3), np.full(3, np.nan), np.full(3, 2.0)]
        out = screen_updates(
            updates, [4, 5, 6], defense=spec, epoch=1, iteration=0
        )
        assert out.rejected_ids == [5]
        assert out.client_ids == [4, 6]
        assert all(np.isfinite(d).all() for d in out.updates)

    def test_norm_clip_adaptive_uses_median_norm(self):
        spec = DefenseConfig(aggregator="norm-clip")
        updates = [np.array([1.0, 0.0]), np.array([0.0, 2.0]), np.array([30.0, 40.0])]
        out = screen_updates(
            updates, [0, 1, 2], defense=spec, epoch=0, iteration=0
        )
        # Median norm is 2 — only the norm-50 outlier gets rescaled.
        assert out.clipped_ids == [2]
        assert np.linalg.norm(out.updates[2]) == pytest.approx(2.0)

    def test_mismatched_ids_rejected(self):
        with pytest.raises(ValueError):
            screen_updates([np.ones(2)], [0, 1], defense=None, epoch=0, iteration=0)


class TestCombiners:
    def test_median_small_case(self):
        out = coordinate_median([np.array([0.0, 10.0]), np.array([1.0, -10.0]),
                                 np.array([2.0, 0.0])])
        assert np.allclose(out, [1.0, 0.0])

    def test_trimmed_mean_drops_extremes(self):
        ups = [np.array([v]) for v in (0.0, 1.0, 2.0, 3.0, 1000.0)]
        out = trimmed_mean(ups, trim_fraction=0.2)   # k=1: drop 0.0 and 1000.0
        assert out[0] == pytest.approx(2.0)

    def test_trimmed_mean_zero_trim_is_mean(self):
        ups = [np.array([1.0]), np.array([3.0])]
        assert trimmed_mean(ups, trim_fraction=0.0)[0] == pytest.approx(2.0)

    def test_trimmed_mean_exhausted_falls_back_to_median(self):
        ups = [np.array([0.0]), np.array([100.0])]
        # k=⌊0.49*2⌋=0 → mean; force exhaustion with 3 updates and 0.4 → k=1, 2k<3
        ups3 = [np.array([0.0]), np.array([5.0]), np.array([100.0])]
        assert trimmed_mean(ups3, trim_fraction=0.4)[0] == pytest.approx(5.0)
        assert trimmed_mean(ups, trim_fraction=0.49)[0] == pytest.approx(50.0)

    def test_krum_picks_cluster_member(self):
        honest = [np.array([0.0, 0.0]), np.array([0.1, 0.0]),
                  np.array([0.0, 0.1]), np.array([0.1, 0.1])]
        outlier = np.array([1e6, -1e6])
        out = krum(honest + [outlier], f=1)
        assert np.abs(out).max() <= 0.2

    def test_krum_too_few_falls_back_to_median(self):
        ups = [np.array([0.0]), np.array([1.0]), np.array([50.0])]
        # n=3, f=1 → n-f-2=0 < 1 → median fallback
        assert krum(ups, f=1)[0] == pytest.approx(1.0)

    def test_blocked_pairwise_matches_monolithic(self):
        from repro.fl.defense import _pairwise_sq_dists

        rng = np.random.default_rng(5)
        stacked = rng.normal(size=(37, 19))
        diffs = stacked[:, None, :] - stacked[None, :, :]
        reference = np.einsum("ijk,ijk->ij", diffs, diffs)
        np.testing.assert_array_equal(_pairwise_sq_dists(stacked), reference)

    @pytest.mark.parametrize("tile", [1, 7, 10**9])
    def test_blocked_pairwise_tile_boundaries(self, tile, monkeypatch):
        # Force tiny (1 row), partial-final (7 rows over n=10), and
        # single-pass tiles; output must be invariant to tiling.
        import repro.fl.defense as defense_mod

        rng = np.random.default_rng(8)
        stacked = rng.normal(size=(10, 6))
        reference = defense_mod._pairwise_sq_dists(stacked)
        monkeypatch.setattr(
            defense_mod, "_KRUM_TILE_FLOATS", tile * stacked.shape[0] * 6
        )
        np.testing.assert_array_equal(
            defense_mod._pairwise_sq_dists(stacked), reference
        )

    def test_krum_blocked_equals_unblocked(self, monkeypatch):
        import repro.fl.defense as defense_mod

        rng = np.random.default_rng(13)
        ups = [rng.normal(size=40) for _ in range(25)]
        full = krum(ups, f=3)
        monkeypatch.setattr(defense_mod, "_KRUM_TILE_FLOATS", 25 * 40 * 2)
        np.testing.assert_array_equal(krum(ups, f=3), full)

    def test_robust_aggregate_rejects_mean(self):
        with pytest.raises(ValueError):
            robust_aggregate([np.ones(2)], DefenseConfig(aggregator="mean"))

    def test_empty_updates_rejected(self):
        with pytest.raises(ValueError):
            coordinate_median([])


class TestRoundReport:
    def test_quarantine_counts(self):
        report = DefenseRoundReport.empty(4, "median")
        report.rejected[1] += 3
        report.rejected[2] += 1
        report.clipped[0] += 2
        assert report.num_quarantined == 2
        assert report.total_rejected == 4
        assert report.total_clipped == 2


class TestTypedErrors:
    def test_diverged_error_fields(self):
        err = TrainingDivergedError(7, 3)
        assert err.epoch == 7 and err.iteration == 3
        assert "epoch 7" in str(err)


# -- hypothesis properties ------------------------------------------------------

finite_floats = st.floats(
    min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False
)


def _update_lists(min_n=3, max_n=9, dim=4):
    return st.lists(
        st.lists(finite_floats, min_size=dim, max_size=dim),
        min_size=min_n,
        max_size=max_n,
    )


@settings(max_examples=50, deadline=None)
@given(data=_update_lists(), seed=st.integers(0, 2**16))
def test_median_and_trimmed_mean_permutation_invariant(data, seed):
    updates = [np.asarray(row) for row in data]
    perm = np.random.default_rng(seed).permutation(len(updates))
    shuffled = [updates[i] for i in perm]
    assert np.allclose(coordinate_median(updates), coordinate_median(shuffled))
    assert np.allclose(
        trimmed_mean(updates, 0.2), trimmed_mean(shuffled, 0.2)
    )


@settings(max_examples=50, deadline=None)
@given(
    vec=st.lists(finite_floats, min_size=3, max_size=6),
    n=st.integers(3, 8),
)
def test_aggregators_agree_with_mean_on_identical_updates(vec, n):
    v = np.asarray(vec)
    updates = [v.copy() for _ in range(n)]
    mean = np.mean(np.stack(updates), axis=0)
    assert np.allclose(coordinate_median(updates), mean)
    assert np.allclose(trimmed_mean(updates, 0.2), mean)
    assert np.allclose(krum(updates, f=1), mean)


@settings(max_examples=50, deadline=None)
@given(
    honest=_update_lists(min_n=5, max_n=11, dim=3),
    f=st.integers(1, 3),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_aggregators_bounded_under_f_outliers(honest, f, sign):
    """With f arbitrary outliers (and enough honest updates), the robust
    aggregates stay inside the honest values' coordinate range."""
    honest_arr = [np.asarray(row) for row in honest]
    h = len(honest_arr)
    n = h + f
    # Keep the Byzantine assumptions satisfiable: median needs the middle
    # order statistics honest, trimmed-mean needs ⌊trim·n⌋ >= f, Krum
    # needs n >= 2f + 3.
    if h < f + 3 or n // 2 >= h - (1 - n % 2):
        return
    outliers = [np.full(3, sign * 1e7 * (i + 1)) for i in range(f)]
    updates = honest_arr + outliers
    lo = np.min(np.stack(honest_arr), axis=0)
    hi = np.max(np.stack(honest_arr), axis=0)
    med = coordinate_median(updates)
    assert np.all(med >= lo - 1e-9) and np.all(med <= hi + 1e-9)
    trim = 0.49 if f / n >= 0.4 else max(0.2, (f + 0.5) / n)
    if int(np.floor(trim * n)) >= f and 2 * int(np.floor(trim * n)) < n:
        tm = trimmed_mean(updates, trim)
        assert np.all(tm >= lo - 1e-9) and np.all(tm <= hi + 1e-9)
    kr = krum(updates, f=f)
    assert np.all(kr >= lo - 1e-9) and np.all(kr <= hi + 1e-9)
