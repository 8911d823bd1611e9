"""Property-based tests for RDCS (paper Alg. 2 / Theorem 3 guarantees)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.rounding import _ATOL, _snap, independent_round, rdcs_round
from repro.rng import UnsupportedBitGenerator
from tests.oracle import assert_matches_oracle, predrawn_rng

fractions = hnp.arrays(
    np.float64,
    st.integers(min_value=1, max_value=15),
    elements=st.floats(0.0, 1.0, allow_nan=False),
)

# Up to 600 coordinates: exact 0/1, values within 1e-13 of them (inside the
# snapping tolerance), and ordinary fractions.
stream_fractions = hnp.arrays(
    np.float64,
    st.integers(min_value=1, max_value=600),
    elements=st.one_of(
        st.floats(0.0, 1.0, allow_nan=False),
        st.sampled_from([0.0, 1.0]),
        st.floats(0.0, 1e-13),
        st.floats(0.0, 1e-13).map(lambda e: 1.0 - e),
    ),
    fill=st.nothing(),
)


def rdcs_round_oracle(x_frac: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Frozen literal Alg. 2 loop (the pre-PR-12 ``rdcs_round``, verbatim).

    O(F²) per call: it rebuilds the fractional-index list after every
    pairing.  ``rdcs_round`` must consume the generator exactly as this does.
    """
    x = np.asarray(x_frac, dtype=float).copy()
    if x.ndim != 1:
        raise ValueError("x_frac must be 1-D")
    if np.any((x < -_ATOL) | (x > 1.0 + _ATOL)):
        raise ValueError("fractions must lie in [0, 1]")
    x = _snap(np.clip(x, 0.0, 1.0))

    frac_idx = list(np.flatnonzero((x > 0.0) & (x < 1.0)))
    while len(frac_idx) >= 2:
        pos_i, pos_j = rng.choice(len(frac_idx), size=2, replace=False)
        i, j = frac_idx[pos_i], frac_idx[pos_j]
        zeta1 = min(1.0 - x[i], x[j])
        zeta2 = min(x[i], 1.0 - x[j])
        total = zeta1 + zeta2
        if total <= _ATOL:
            x[i], x[j] = round(x[i]), round(x[j])
        elif rng.random() < zeta2 / total:
            x[i] += zeta1
            x[j] -= zeta1
        else:
            x[i] -= zeta2
            x[j] += zeta2
        x[i] = _snap(np.asarray([x[i]]))[0]
        x[j] = _snap(np.asarray([x[j]]))[0]
        frac_idx = [k for k in frac_idx if 0.0 < x[k] < 1.0]

    if frac_idx:
        k = frac_idx[0]
        x[k] = 1.0 if rng.random() < x[k] else 0.0
    return x


class TestRdcsStreamIdentity:
    """The linear-bookkeeping loop is the literal one, draw for draw."""

    @given(stream_fractions, st.integers(0, 2**32 - 1), st.integers(0, 3))
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_same_output_and_generator_state_as_oracle(self, x, seed, predraws):
        assert_matches_oracle(
            rdcs_round_oracle, rdcs_round, lambda: (x, predrawn_rng(seed, predraws))
        )

    def test_both_entry_states_are_exercised(self):
        # FedL's generator usually enters rdcs_round holding a buffered half.
        assert predrawn_rng(0, 0).bit_generator.state["has_uint32"] == 0
        assert predrawn_rng(0, 1).bit_generator.state["has_uint32"] == 1


class TestRdcsInvariants:
    @given(fractions, st.integers(0, 2**32 - 1))
    @settings(max_examples=200)
    def test_output_is_binary(self, x, seed):
        out = rdcs_round(x, np.random.default_rng(seed))
        assert np.all((out == 0.0) | (out == 1.0))

    @given(fractions, st.integers(0, 2**32 - 1))
    @settings(max_examples=200)
    def test_sum_in_floor_ceil(self, x, seed):
        out = rdcs_round(x, np.random.default_rng(seed))
        total = x.sum()
        assert np.floor(total) - 1e-9 <= out.sum() <= np.ceil(total) + 1e-9

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_integer_sum_preserved_exactly(self, seed):
        rng = np.random.default_rng(seed)
        # Construct fractions with an exactly integral sum.
        x = rng.uniform(0.05, 0.95, size=6)
        x = x / x.sum() * 3.0
        x = np.clip(x, 0.0, 1.0)
        if not np.isclose(x.sum(), 3.0):
            return  # clipping broke the construction; skip this draw
        out = rdcs_round(x, rng)
        assert out.sum() == pytest.approx(3.0)

    def test_integral_input_unchanged(self, rng):
        x = np.array([0.0, 1.0, 1.0, 0.0])
        np.testing.assert_array_equal(rdcs_round(x, rng), x)

    def test_rejects_out_of_range(self, rng):
        with pytest.raises(ValueError):
            rdcs_round(np.array([1.5]), rng)
        with pytest.raises(ValueError):
            rdcs_round(np.array([[0.5]]), rng)

    def test_rejects_a_non_pcg64_generator(self):
        with pytest.raises(UnsupportedBitGenerator, match="MT19937"):
            rdcs_round(np.array([0.5, 0.5]), np.random.Generator(np.random.MT19937(0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, rng, bad):
        # A NaN passes the [0, 1] range check; it must not come out as
        # neither 0 nor 1.
        with pytest.raises(ValueError, match="finite"):
            rdcs_round(np.array([0.5, bad, 0.5]), rng)

    def test_theorem3_marginals(self):
        """E[x_k] = x̃_k — the headline RDCS guarantee (Theorem 3)."""
        x = np.array([0.15, 0.5, 0.85, 0.3, 0.7])
        trials = 20_000
        rng = np.random.default_rng(7)
        acc = np.zeros_like(x)
        for _ in range(trials):
            acc += rdcs_round(x, rng)
        emp = acc / trials
        # 3.5-sigma confidence band for each Bernoulli marginal.
        sigma = np.sqrt(x * (1 - x) / trials)
        assert np.all(np.abs(emp - x) < 3.5 * sigma + 1e-3)

    def test_sum_constant_through_pairings(self):
        """For non-integral totals, realized sum ∈ {floor, ceil} with the
        right probability (mean of sums = fractional total)."""
        x = np.array([0.3, 0.3, 0.3])  # total 0.9
        rng = np.random.default_rng(3)
        sums = [rdcs_round(x, rng).sum() for _ in range(5000)]
        assert set(np.unique(sums)).issubset({0.0, 1.0})
        assert np.mean(sums) == pytest.approx(0.9, abs=0.03)


class TestIndependentRound:
    @given(fractions, st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_output_is_binary(self, x, seed):
        out = independent_round(x, np.random.default_rng(seed))
        assert np.all((out == 0.0) | (out == 1.0))

    def test_marginals(self):
        x = np.array([0.2, 0.8])
        rng = np.random.default_rng(11)
        acc = sum(independent_round(x, rng) for _ in range(20_000))
        np.testing.assert_allclose(acc / 20_000, x, atol=0.02)

    def test_rejects_out_of_range(self, rng):
        with pytest.raises(ValueError):
            independent_round(np.array([-0.5]), rng)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, rng, bad):
        # A NaN would otherwise round to 0 without a word.
        with pytest.raises(ValueError, match="finite"):
            independent_round(np.array([0.5, bad]), rng)

    def test_sum_variance_larger_than_rdcs(self):
        """The motivating property: RDCS concentrates the selection count,
        independent rounding does not."""
        x = np.full(10, 0.5)
        rng = np.random.default_rng(21)
        rd = np.array([rdcs_round(x, rng).sum() for _ in range(2000)])
        ind = np.array([independent_round(x, rng).sum() for _ in range(2000)])
        assert rd.std() < 0.1          # sum exactly 5 every time
        assert ind.std() > 1.0         # binomial(10, .5) spread
