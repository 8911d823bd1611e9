"""Tests for the synthetic datasets, partitioners, and streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.cifar10 import CIFAR10_SHAPE, synthetic_cifar10
from repro.datasets.fmnist import FMNIST_SHAPE, synthetic_fmnist
from repro.datasets.partition import (
    dirichlet_class_distributions,
    iid_class_distributions,
    non_iid_class_distributions,
)
from repro.datasets.streams import ClientDataStream, build_client_streams
from repro.datasets.synthetic import ClassConditionalGenerator, Dataset
from repro.rng import RngFactory
from tests.oracle import assert_matches_oracle, sample_from_cdf_signed_zero_pass


class TestDataset:
    def test_validates_shapes(self):
        with pytest.raises(ValueError):
            Dataset(x=np.zeros((3, 4)), y=np.zeros(2))

    def test_subset_and_concat(self):
        ds = Dataset(x=np.arange(12.0).reshape(4, 3), y=np.arange(4))
        sub = ds.subset(np.array([0, 2]))
        assert len(sub) == 2
        both = sub.concat(sub)
        assert len(both) == 4

    def test_concat_dim_mismatch(self):
        a = Dataset(x=np.zeros((2, 3)), y=np.zeros(2, dtype=int))
        b = Dataset(x=np.zeros((2, 4)), y=np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            a.concat(b)


class TestGenerator:
    def test_sample_shapes(self, rng):
        gen = ClassConditionalGenerator((8, 8, 1), 10, rng)
        ds = gen.sample(32)
        assert ds.x.shape == (32, 64)
        assert ds.y.shape == (32,)
        assert set(np.unique(ds.y)).issubset(range(10))

    def test_pixels_in_unit_interval(self, rng):
        gen = ClassConditionalGenerator((8, 8, 3), 4, rng, noise=2.0)
        ds = gen.sample(50)
        assert np.all((ds.x >= 0.0) & (ds.x <= 1.0))

    def test_class_probs_respected(self, rng):
        gen = ClassConditionalGenerator((6, 6, 1), 3, rng)
        probs = np.array([1.0, 0.0, 0.0])
        ds = gen.sample(40, class_probs=probs)
        assert np.all(ds.y == 0)

    def test_zero_noise_separable(self, rng):
        """With no noise, nearest-prototype classification is perfect."""
        gen = ClassConditionalGenerator((10, 10, 1), 5, rng, noise=0.0)
        ds = gen.sample(100)
        protos = gen.prototypes.reshape(5, -1)
        pred = np.argmin(
            ((ds.x[:, None, :] - protos[None]) ** 2).sum(-1), axis=1
        )
        # Intensity jitter shifts samples but prototypes stay nearest.
        assert (pred == ds.y).mean() > 0.9

    def test_test_set_balanced(self, rng):
        gen = ClassConditionalGenerator((6, 6, 1), 5, rng)
        ts = gen.test_set(100)
        counts = np.bincount(ts.y, minlength=5)
        assert np.all(counts == counts[0])

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            ClassConditionalGenerator((1, 8, 1), 10, rng)
        with pytest.raises(ValueError):
            ClassConditionalGenerator((8, 8, 1), 1, rng)
        with pytest.raises(ValueError):
            ClassConditionalGenerator((8, 8, 1), 10, rng, noise=-1.0)
        gen = ClassConditionalGenerator((8, 8, 1), 3, rng)
        with pytest.raises(ValueError):
            gen.sample(0)
        with pytest.raises(ValueError):
            gen.sample(5, class_probs=np.array([1.0, 0.0]))  # wrong length
        with pytest.raises(ValueError):
            gen.sample(5, class_probs=np.array([-1.0, 1.0, 1.0]))


class TestNamedDatasets:
    def test_fmnist_geometry(self, rng):
        gen = synthetic_fmnist(rng)
        assert gen.image_shape == FMNIST_SHAPE
        assert gen.num_features == 784

    def test_cifar_geometry(self, rng):
        gen = synthetic_cifar10(rng)
        assert gen.image_shape == CIFAR10_SHAPE
        assert gen.num_features == 3072

    def test_downscale(self, rng):
        gen = synthetic_fmnist(rng, downscale=2)
        assert gen.image_shape == (14, 14, 1)

    def test_bad_downscale(self, rng):
        with pytest.raises(ValueError):
            synthetic_fmnist(rng, downscale=3)
        with pytest.raises(ValueError):
            synthetic_cifar10(rng, downscale=3)

    def test_determinism(self):
        a = synthetic_fmnist(np.random.default_rng(5)).sample(
            10, rng=np.random.default_rng(9)
        )
        b = synthetic_fmnist(np.random.default_rng(5)).sample(
            10, rng=np.random.default_rng(9)
        )
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)


class TestPartitions:
    def test_iid_uniform(self):
        d = iid_class_distributions(4, 10)
        np.testing.assert_allclose(d, 0.1)

    def test_non_iid_principal_mass(self, rng):
        d = non_iid_class_distributions(8, 10, rng, principal_frac=0.8, principal_classes=2)
        assert d.shape == (8, 10)
        np.testing.assert_allclose(d.sum(axis=1), 1.0)
        # Top-2 classes of each client hold 80%.
        top2 = np.sort(d, axis=1)[:, -2:].sum(axis=1)
        np.testing.assert_allclose(top2, 0.8)

    def test_non_iid_extreme(self, rng):
        d = non_iid_class_distributions(4, 10, rng, principal_frac=1.0, principal_classes=1)
        assert np.all(np.sort(d, axis=1)[:, -1] == 1.0)

    def test_dirichlet_rows_are_distributions(self, rng):
        d = dirichlet_class_distributions(6, 10, rng, alpha=0.3)
        np.testing.assert_allclose(d.sum(axis=1), 1.0)
        assert np.all(d >= 0)

    def test_dirichlet_large_alpha_near_uniform(self, rng):
        d = dirichlet_class_distributions(50, 10, rng, alpha=1000.0)
        np.testing.assert_allclose(d, 0.1, atol=0.02)

    @pytest.mark.parametrize("fn", [iid_class_distributions])
    def test_validation_iid(self, fn):
        with pytest.raises(ValueError):
            fn(0, 10)
        with pytest.raises(ValueError):
            fn(5, 1)

    def test_validation_non_iid(self, rng):
        with pytest.raises(ValueError):
            non_iid_class_distributions(5, 10, rng, principal_frac=1.5)
        with pytest.raises(ValueError):
            non_iid_class_distributions(5, 10, rng, principal_classes=10)

    def test_validation_dirichlet(self, rng):
        with pytest.raises(ValueError):
            dirichlet_class_distributions(5, 10, rng, alpha=0.0)


class TestStreams:
    def test_draw_respects_distribution(self, rng_factory):
        gen = ClassConditionalGenerator((6, 6, 1), 4, rng_factory.get("g"))
        probs = np.array([0.0, 1.0, 0.0, 0.0])
        stream = ClientDataStream(gen, gen.label_cdf(probs), rng_factory.get("s"))
        ds = stream.draw(30)
        assert np.all(ds.y == 1)

    def test_build_streams_independent(self, rng_factory):
        gen = ClassConditionalGenerator((6, 6, 1), 4, rng_factory.get("g"))
        dists = iid_class_distributions(3, 4)
        streams = build_client_streams(gen, dists, rng_factory)
        a = streams[0].draw(10)
        b = streams[1].draw(10)
        assert not np.allclose(a.x, b.x)

    def test_stream_validation(self, rng_factory):
        gen = ClassConditionalGenerator((6, 6, 1), 4, rng_factory.get("g"))
        with pytest.raises(ValueError):
            build_client_streams(gen, np.array([[1.0, 0.0]]), rng_factory)
        with pytest.raises(ValueError):
            build_client_streams(gen, np.ones((3, 7)), rng_factory)


def sample_oracle(self, n, class_probs=None, rng=None, flatten=True):
    """``ClassConditionalGenerator.sample`` as shipped before the label draw
    moved to a kept cdf, verbatim: validation, re-normalisation and
    ``Generator.choice(p=...)`` on every call."""
    if n < 1:
        raise ValueError("n must be >= 1")
    gen = rng if rng is not None else self.rng
    if class_probs is None:
        probs = np.full(self.num_classes, 1.0 / self.num_classes)
    else:
        probs = np.asarray(class_probs, dtype=float)
        if probs.shape != (self.num_classes,):
            raise ValueError("class_probs must have shape (num_classes,)")
        if np.any(probs < 0) or probs.sum() <= 0:
            raise ValueError("class_probs must be a nonnegative distribution")
        probs = probs / probs.sum()
    labels = gen.choice(self.num_classes, size=n, p=probs)
    base = self.prototypes[labels]  # (n, H, W, C), a fresh copy
    eps = gen.normal(0.0, self.noise, size=base.shape)
    gain = gen.uniform(0.85, 1.15, size=(n, 1, 1, 1))
    bias = gen.uniform(-0.05, 0.05, size=(n, 1, 1, 1))
    np.multiply(base, gain, out=base)
    base += bias
    base += eps
    imgs = np.clip(base, 0.0, 1.0, out=base)
    x = imgs.reshape(n, -1) if flatten else imgs
    return Dataset(x=x if flatten else x.reshape(n, -1), y=labels)


GENERATORS = {
    c: ClassConditionalGenerator((3, 4, 1), c, np.random.default_rng(c))
    for c in (2, 5, 10)
}

#: (num_classes, unnormalised class weights with exact zeros and tiny/huge
#: entries, at least one positive).
label_weights = st.sampled_from(sorted(GENERATORS)).flatmap(
    lambda c: st.tuples(
        st.just(c),
        st.lists(
            st.one_of(
                st.floats(0.0, 1.0),
                st.sampled_from([0.0, 1.0, 1e-300, 1e-12, 1e6]),
            ),
            min_size=c,
            max_size=c,
        ).filter(lambda ws: sum(ws) > 0),
    )
)
draw_sizes = st.lists(st.integers(1, 70), min_size=1, max_size=4)


class TestLabelCdfStreamIdentity:
    """Labels by inverse cdf are ``Generator.choice(p=...)``'s, draw for draw."""

    @given(label_weights, draw_sizes, st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_stream_draws_match_original_sample(self, weights, sizes, seed):
        num_classes, ws = weights
        gen = GENERATORS[num_classes]
        probs = np.asarray(ws, dtype=float)
        probs /= probs.sum()  # the row build_client_streams normalises
        assert_matches_oracle(
            lambda stream: [
                sample_oracle(gen, n, class_probs=probs, rng=stream.rng)
                for n in sizes
            ],
            lambda stream: [stream.draw(n) for n in sizes],
            lambda: (build_client_streams(gen, np.asarray([ws]), RngFactory(seed))[0],),
            state=lambda stream: stream.rng,
        )

    @given(
        st.one_of(label_weights, st.sampled_from(sorted(GENERATORS)).map(lambda c: (c, None))),
        st.integers(1, 70),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_sample_keeps_signature_and_stream(self, weights, n, flatten, seed):
        num_classes, ws = weights
        gen = GENERATORS[num_classes]
        assert_matches_oracle(
            lambda p, rng: sample_oracle(gen, n, p, rng, flatten),
            lambda p, rng: gen.sample(n, class_probs=p, rng=rng, flatten=flatten),
            lambda: (ws, np.random.default_rng(seed)),
        )

    def test_non_finite_weights_still_rejected(self):
        """``Generator.choice`` refused a NaN ``p``; the cdf path must too."""
        gen = GENERATORS[2]
        for bad in ([float("nan"), 1.0], [float("inf"), 1.0]):
            with pytest.raises(ValueError):
                gen.sample(3, class_probs=np.array(bad))


NOISY_GENERATORS = {
    (c, noise): ClassConditionalGenerator((3, 4, 2), c, np.random.default_rng(c), noise=noise)
    for c in (2, 5, 10)
    for noise in (0.0, 1e-3, 0.35, 2.0)
}


class TestDrawIntoBuffer:
    """``draw(n, out=buf)`` is ``draw(n)`` with the features written into
    the caller's buffer: same bytes (signed zeros included), same labels,
    same stream position afterwards."""

    @given(
        label_weights,
        st.sampled_from([0.0, 1e-3, 0.35, 2.0]),
        draw_sizes,
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_buffered_draw_is_the_fresh_draw(self, weights, noise, sizes, seed):
        num_classes, ws = weights
        gen = NOISY_GENERATORS[num_classes, noise]
        twins = [
            build_client_streams(gen, np.asarray([ws]), RngFactory(seed))[0]
            for _ in range(2)
        ]
        dim = gen.num_features
        # One reused buffer, left holding garbage between draws.
        buf = np.full(max(sizes) * dim, np.nan)
        for n in sizes:
            out = buf[: n * dim].reshape(n, dim)
            got = twins[0].draw(n, out=out)
            want = twins[1].draw(n)
            assert got.x is out
            assert got.x.tobytes() == want.x.tobytes()
            assert got.y.tobytes() == want.y.tobytes()
            buf[: n * dim] = -0.0
        assert twins[0].rng.bit_generator.state == twins[1].rng.bit_generator.state

    @given(
        label_weights,
        st.sampled_from([0.0, 1e-3, 0.35, 2.0]),
        st.integers(1, 70),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_no_signed_zero_pass_same_bytes(self, weights, noise, n, into, seed):
        """Without ``eps += 0.0`` the draw is the same bytes, signed zeros
        included: adding the jittered prototypes clears a ``−0.0`` noise
        term (noise 0 makes one for every negative ``z``)."""
        num_classes, ws = weights
        gen = NOISY_GENERATORS[num_classes, noise]
        cdf = gen.label_cdf(np.asarray(ws, dtype=float))
        out = (lambda: np.full((n, gen.num_features), np.nan)) if into else lambda: None
        assert_matches_oracle(
            lambda rng, buf: sample_from_cdf_signed_zero_pass(gen, n, cdf, rng, out=buf),
            lambda rng, buf: gen.sample_from_cdf(n, cdf, rng, out=buf),
            lambda: (np.random.default_rng(seed), out()),
        )

    def test_rejects_a_buffer_of_the_wrong_shape_or_layout(self):
        gen = NOISY_GENERATORS[2, 0.35]
        stream = ClientDataStream(
            gen, gen.label_cdf(np.array([0.5, 0.5])), np.random.default_rng(0)
        )
        dim = gen.num_features
        for bad in (
            np.empty((4, dim + 1)),
            np.empty((5, dim)),
            np.empty((4, dim), dtype=np.float32),
            np.empty((dim, 4)).T,
        ):
            with pytest.raises(ValueError, match="out must be"):
                stream.draw(4, out=bad)
