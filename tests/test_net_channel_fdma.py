"""Tests for the channel model and the FDMA rate."""

import numpy as np
import pytest

from repro.config import NetworkConfig
from repro.net.channel import ChannelModel, ChannelState
from repro.net.fdma import achievable_rate


def make_channel(rng, distances=(50.0, 200.0, 480.0), **kwargs):
    cfg = NetworkConfig(**kwargs)
    return ChannelModel(np.asarray(distances), cfg, rng)


class TestChannelState:
    def test_validates_shapes(self):
        with pytest.raises(ValueError):
            ChannelState(
                gains=np.ones(3),
                tx_power_watt=np.ones(2),
                noise_psd_watt_hz=1e-20,
            )

    def test_rejects_nonpositive_gains(self):
        with pytest.raises(ValueError):
            ChannelState(
                gains=np.array([0.0]),
                tx_power_watt=np.array([1.0]),
                noise_psd_watt_hz=1e-20,
            )

    def test_snr_per_hz_formula(self):
        st = ChannelState(
            gains=np.array([2e-10]),
            tx_power_watt=np.array([0.01]),
            noise_psd_watt_hz=4e-21,
        )
        assert st.snr_per_hz()[0] == pytest.approx(2e-10 * 0.01 / 4e-21)


class TestChannelModel:
    def test_nearer_client_stronger_on_average(self, rng):
        ch = make_channel(rng)
        mean = ch.mean_state()
        assert mean.gains[0] > mean.gains[1] > mean.gains[2]

    def test_min_distance_clamp(self, rng):
        ch = make_channel(rng, distances=(0.0, 100.0))
        assert ch.distances_m[0] == NetworkConfig().min_distance_m

    def test_shadowing_ar1_is_correlated(self, rng):
        ch = make_channel(rng, distances=tuple([250.0] * 200))
        s1 = np.log10(ch.sample().gains)
        s2 = np.log10(ch.sample().gains)
        corr = np.corrcoef(s1, s2)[0, 1]
        assert corr > 0.6  # φ = 0.9 by default

    def test_zero_corr_is_iid(self, rng):
        ch = make_channel(rng, distances=tuple([250.0] * 300), shadowing_corr=0.0)
        s1 = np.log10(ch.sample().gains)
        s2 = np.log10(ch.sample().gains)
        corr = np.corrcoef(s1, s2)[0, 1]
        assert abs(corr) < 0.25

    def test_stationary_std_matches_config(self, rng):
        ch = make_channel(rng, distances=tuple([250.0] * 2000))
        for _ in range(20):  # burn in
            st = ch.sample()
        shadow_db = -10.0 * np.log10(st.gains) - 128.1 - 37.6 * np.log10(0.25)
        assert np.std(shadow_db) == pytest.approx(8.0, rel=0.15)

    def test_rejects_negative_distance(self, rng):
        with pytest.raises(ValueError):
            make_channel(rng, distances=(-5.0,))


class TestAchievableRate:
    def test_shannon_formula_hand_check(self):
        # b = 1 MHz, snr/Hz = 1 MHz → r = 1e6 · log2(2) = 1e6 bit/s.
        assert achievable_rate(1e6, 1e6) == pytest.approx(1e6)

    def test_zero_bandwidth_zero_rate(self):
        assert achievable_rate(0.0, 1e6) == 0.0

    def test_monotone_in_bandwidth(self):
        r1 = achievable_rate(1e6, 5e6)
        r2 = achievable_rate(2e6, 5e6)
        assert r2 > r1

    def test_diminishing_returns(self):
        # Concavity: doubling bandwidth less than doubles the rate.
        r1 = achievable_rate(1e6, 5e6)
        r2 = achievable_rate(2e6, 5e6)
        assert r2 < 2 * r1

    def test_capacity_limit(self):
        # As b → ∞, r → snr/ln2.
        snr = 1e6
        r = achievable_rate(1e12, snr)
        assert r == pytest.approx(snr / np.log(2), rel=1e-3)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            achievable_rate(-1.0, 1.0)
        with pytest.raises(ValueError):
            achievable_rate(1.0, -1.0)
