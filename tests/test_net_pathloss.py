"""Tests for path loss and unit conversions against hand calculations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.pathloss import db_to_linear, dbm_to_watt, pathloss_db


class TestPathloss:
    def test_one_km_reference(self):
        # At d = 1 km the log term vanishes: PL = 128.1 dB exactly.
        assert pathloss_db(1000.0) == pytest.approx(128.1)

    def test_slope_per_decade(self):
        # One decade of distance adds exactly 37.6 dB.
        assert pathloss_db(1000.0) - pathloss_db(100.0) == pytest.approx(37.6)

    def test_hand_computed_value(self):
        # d = 500 m: 128.1 + 37.6·log10(0.5) = 128.1 − 11.318... dB
        expected = 128.1 + 37.6 * np.log10(0.5)
        assert pathloss_db(500.0) == pytest.approx(expected)

    def test_vectorized(self):
        d = np.array([100.0, 1000.0])
        out = pathloss_db(d)
        assert out.shape == (2,)
        assert out[1] - out[0] == pytest.approx(37.6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pathloss_db(0.0)

    @given(st.floats(1.0, 5000.0))
    @settings(max_examples=40)
    def test_monotone_in_distance(self, d):
        assert pathloss_db(d + 1.0) > pathloss_db(d)


class TestConversions:
    def test_dbm_to_watt_reference_points(self):
        assert dbm_to_watt(0.0) == pytest.approx(1e-3)     # 0 dBm = 1 mW
        assert dbm_to_watt(30.0) == pytest.approx(1.0)     # 30 dBm = 1 W
        assert dbm_to_watt(10.0) == pytest.approx(1e-2)    # 10 dBm = 10 mW

    def test_db_linear_round_trip(self):
        for db in (-20.0, 0.0, 13.0):
            assert 10.0 * np.log10(db_to_linear(db)) == pytest.approx(db)

    def test_watt_dbm_round_trip(self):
        for w in (1e-6, 1e-3, 2.5):
            assert dbm_to_watt(10.0 * np.log10(w) + 30.0) == pytest.approx(w)

    def test_noise_psd_at_minus_174(self):
        # kT at 290K ≈ 4e-21 W/Hz = -174 dBm/Hz (the paper's N0).
        assert dbm_to_watt(-174.0) == pytest.approx(3.98e-21, rel=1e-2)
