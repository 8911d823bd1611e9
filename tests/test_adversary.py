"""Tests for the deterministic Byzantine client behaviors."""

import numpy as np
import pytest

from repro.config import AttackConfig
from repro.datasets.synthetic import Dataset
from repro.fl.adversary import ATTACK_SCALE, ATTACKS, Adversary
from repro.rng import RngFactory


def make_adversary(kind="sign-flip", m=10, fraction=0.2, seed=3):
    factory = RngFactory(seed)
    return Adversary(kind, m, fraction, factory.get("adversary.roster"), factory)


class TestRoster:
    def test_roster_size_is_ceil_fraction(self):
        adv = make_adversary(fraction=0.25, m=10)
        assert adv.mask.sum() == 3          # ceil(2.5)

    def test_roster_never_everyone(self):
        adv = make_adversary(fraction=0.99, m=5)
        assert 1 <= adv.mask.sum() <= 4

    def test_roster_deterministic_per_seed(self):
        a = make_adversary(seed=11)
        b = make_adversary(seed=11)
        c = make_adversary(seed=12)
        assert np.array_equal(a.mask, b.mask)
        assert a.mask.shape == c.mask.shape

    def test_is_adversary_matches_mask(self):
        adv = make_adversary()
        for k in range(adv.num_clients):
            assert adv.is_adversary(k) == bool(adv.mask[k])


class TestFromConfig:
    def test_none_kind_builds_nothing(self):
        factory = RngFactory(0)
        assert Adversary.from_config(AttackConfig(kind="none"), 10, factory) is None
        assert Adversary.from_config(None, 10, factory) is None

    def test_config_fields_forwarded(self):
        cfg = AttackConfig(kind="scale", fraction=0.3)
        adv = Adversary.from_config(cfg, 10, RngFactory(0))
        assert adv.kind == "scale"
        assert adv.mask.sum() == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            make_adversary(kind="replay")
        with pytest.raises(ValueError):
            make_adversary(kind="none")
        with pytest.raises(ValueError):
            make_adversary(fraction=1.0)


class TestCorruption:
    def test_honest_client_gets_same_object(self):
        adv = make_adversary()
        honest = int(np.flatnonzero(~adv.mask)[0])
        d = np.ones(4)
        assert adv.corrupt_update(honest, d) is d

    def test_sign_flip_scales_negatively(self):
        adv = make_adversary(kind="sign-flip")
        bad = int(np.flatnonzero(adv.mask)[0])
        d = np.array([1.0, -2.0])
        assert np.allclose(adv.corrupt_update(bad, d), [-10.0, 20.0])

    def test_scale_attack(self):
        adv = make_adversary(kind="scale")
        bad = int(np.flatnonzero(adv.mask)[0])
        assert ATTACK_SCALE == 10.0
        assert np.allclose(adv.corrupt_update(bad, np.ones(2)), [10.0, 10.0])

    def test_gauss_attack_deterministic_per_client(self):
        a = make_adversary(kind="gauss", seed=9)
        b = make_adversary(kind="gauss", seed=9)
        bad = int(np.flatnonzero(a.mask)[0])
        da = a.corrupt_update(bad, np.zeros(8))
        db = b.corrupt_update(bad, np.zeros(8))
        assert np.array_equal(da, db)
        assert not np.allclose(da, 0.0)

    def test_nan_attack_nonfinite_payload(self):
        adv = make_adversary(kind="nan")
        bad = int(np.flatnonzero(adv.mask)[0])
        out = adv.corrupt_update(bad, np.ones(5))
        assert not np.isfinite(out).all()
        assert np.isinf(out[0])
        assert np.isnan(out[1:]).all()

    def test_label_flip_leaves_update_untouched(self):
        adv = make_adversary(kind="label-flip")
        bad = int(np.flatnonzero(adv.mask)[0])
        d = np.ones(3)
        assert adv.corrupt_update(bad, d) is d


class TestDataPoisoning:
    def _data(self):
        return Dataset(x=np.zeros((4, 2)), y=np.array([0, 1, 2, 3]))

    def test_label_flip_mirrors_labels(self):
        adv = make_adversary(kind="label-flip")
        bad = int(np.flatnonzero(adv.mask)[0])
        flipped = adv.poison_data(bad, self._data(), num_classes=4)
        assert np.array_equal(flipped.y, [3, 2, 1, 0])
        assert flipped.x is not None

    def test_label_flip_is_involution(self):
        adv = make_adversary(kind="label-flip")
        bad = int(np.flatnonzero(adv.mask)[0])
        once = adv.poison_data(bad, self._data(), num_classes=4)
        twice = adv.poison_data(bad, once, num_classes=4)
        assert np.array_equal(twice.y, self._data().y)

    def test_other_attacks_never_touch_data(self):
        adv = make_adversary(kind="sign-flip")
        bad = int(np.flatnonzero(adv.mask)[0])
        data = self._data()
        assert adv.poison_data(bad, data, num_classes=4) is data

    def test_honest_client_data_untouched(self):
        adv = make_adversary(kind="label-flip")
        honest = int(np.flatnonzero(~adv.mask)[0])
        data = self._data()
        assert adv.poison_data(honest, data, num_classes=4) is data


class TestAttackKinds:
    def test_all_attack_kinds_known(self):
        assert set(ATTACKS) == {
            "none", "sign-flip", "label-flip", "scale", "gauss", "nan"
        }
