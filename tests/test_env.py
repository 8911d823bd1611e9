"""Tests for the client population and environment processes."""

import numpy as np
import pytest

from repro.config import PopulationConfig
from repro.env.availability import AvailabilityProcess
from repro.env.dynamics import DataVolumeProcess, PriceProcess
from repro.env.population import Population, build_population


class TestPopulation:
    def test_build_respects_config(self, rng):
        cfg = PopulationConfig(num_clients=50)
        pop = build_population(cfg, rng)
        assert pop.num_clients == 50
        assert np.all(pop.cycles_per_bit >= 10.0)
        assert np.all(pop.cycles_per_bit <= 30.0)
        assert np.all(pop.base_cost >= 0.1)
        assert np.all(pop.base_cost <= 12.0)
        assert np.all(pop.cpu_freq_hz <= 2e9 + 1)

    def test_clients_inside_cell(self, rng):
        pop = build_population(PopulationConfig(num_clients=200), rng, cell_radius_m=500.0)
        assert np.all(pop.distances_m() <= 500.0 + 1e-9)

    def test_area_uniform_placement(self, rng):
        # Under area-uniform placement, E[d] = 2R/3; reject the r=R·u bug
        # (which gives E[d] = R/2).
        pop = build_population(PopulationConfig(num_clients=4000), rng, cell_radius_m=300.0)
        assert pop.distances_m().mean() == pytest.approx(200.0, rel=0.05)

    def test_validation_shapes(self):
        with pytest.raises(ValueError):
            Population(
                positions_m=np.zeros((3, 2)),
                cpu_freq_hz=np.ones(2),
                cycles_per_bit=np.ones(3),
                base_cost=np.ones(3),
                bits_per_sample=100.0,
            )

    def test_validation_positive(self):
        with pytest.raises(ValueError):
            Population(
                positions_m=np.zeros((2, 2)),
                cpu_freq_hz=np.array([1.0, -1.0]),
                cycles_per_bit=np.ones(2),
                base_cost=np.ones(2),
                bits_per_sample=100.0,
            )


class TestAvailability:
    def test_mask_shape_and_dtype(self, rng):
        p = AvailabilityProcess(20, 0.8, rng)
        mask = p.sample()
        assert mask.shape == (20,)
        assert mask.dtype == bool

    def test_floor_enforced(self, rng):
        p = AvailabilityProcess(10, 0.05, rng, min_available=4)
        for _ in range(50):
            assert p.sample().sum() >= 4

    def test_bernoulli_mean(self, rng):
        p = AvailabilityProcess(1000, 0.7, rng)
        fractions = [p.sample().mean() for _ in range(30)]
        assert np.mean(fractions) == pytest.approx(0.7, abs=0.03)

    def test_full_availability(self, rng):
        p = AvailabilityProcess(5, 1.0, rng)
        assert p.sample().all()

    def test_expected_available(self, rng):
        assert AvailabilityProcess(10, 0.5, rng).expected_available() == 5.0

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            AvailabilityProcess(0, 0.5, rng)
        with pytest.raises(ValueError):
            AvailabilityProcess(5, 0.0, rng)
        with pytest.raises(ValueError):
            AvailabilityProcess(5, 0.5, rng, min_available=6)


class TestPriceProcess:
    def test_stays_in_clip_range(self, rng):
        p = PriceProcess(np.array([0.2, 6.0, 11.9]), rng, volatility=0.5)
        for _ in range(100):
            c = p.step()
            assert np.all((c >= 0.1) & (c <= 12.0))

    def test_zero_volatility_converges_to_base(self, rng):
        base = np.array([3.0, 7.0])
        p = PriceProcess(base, rng, volatility=0.0, mean_reversion=0.5)
        for _ in range(60):
            c = p.step()
        np.testing.assert_allclose(c, base, atol=1e-6)

    def test_current_is_read_only(self, rng):
        p = PriceProcess(np.array([1.0]), rng)
        with pytest.raises(ValueError):
            p.current[0] = 5.0

    def test_mean_reversion_toward_base(self, rng):
        base = np.full(500, 6.0)
        p = PriceProcess(base, rng, volatility=0.1, mean_reversion=0.7)
        for _ in range(200):
            c = p.step()
        assert c.mean() == pytest.approx(6.0, rel=0.1)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            PriceProcess(np.array([-1.0]), rng)
        with pytest.raises(ValueError):
            PriceProcess(np.array([1.0]), rng, mean_reversion=1.5)
        with pytest.raises(ValueError):
            PriceProcess(np.array([1.0]), rng, clip_range=(2.0, 1.0))


class TestDataVolumeProcess:
    def test_shape_and_floor(self, rng):
        p = DataVolumeProcess(10, 5.0, rng, min_samples=2)
        counts = p.sample()
        assert counts.shape == (10,)
        assert np.all(counts >= 2)
        assert counts.dtype == np.int64

    def test_heterogeneous_means_spread(self, rng):
        p = DataVolumeProcess(500, 40.0, rng)
        assert p.means.min() < 30.0
        assert p.means.max() > 50.0

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            DataVolumeProcess(0, 5.0, rng)
        with pytest.raises(ValueError):
            DataVolumeProcess(5, 0.0, rng)
        with pytest.raises(ValueError):
            DataVolumeProcess(5, 5.0, rng, min_samples=0)
