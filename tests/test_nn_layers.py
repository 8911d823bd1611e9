"""Layer-level tests: forward shapes and finite-difference gradient checks.

Every backward pass is verified against central finite differences on both
the input and the parameters — the strongest correctness evidence a
hand-derived backprop can have.
"""

import numpy as np
import pytest

from repro.nn.activations import ReLU, Sigmoid, Tanh
from repro.nn.conv import Conv2D, col2im, im2col
from repro.nn.linear import Flatten, Linear, Reshape
from repro.nn.module import Module, Parameter, Sequential
from repro.nn.pooling import MaxPool2D


def numerical_input_grad(layer: Module, x: np.ndarray, seed=0, eps=1e-6):
    """Finite-difference gradient of sum(layer(x) * R) w.r.t. x."""
    rng = np.random.default_rng(seed)
    r = rng.normal(size=layer.forward(x).shape)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        up = float((layer.forward(x) * r).sum())
        flat[i] = old - eps
        dn = float((layer.forward(x) * r).sum())
        flat[i] = old
        gflat[i] = (up - dn) / (2 * eps)
    return r, grad


def check_layer_grads(layer: Module, x: np.ndarray, atol=1e-5):
    """Compare analytic backward() to finite differences (input + params)."""
    r, num_gx = numerical_input_grad(layer, x)
    layer.zero_grad()
    layer.forward(x)
    ana_gx = layer.backward(r)
    np.testing.assert_allclose(ana_gx, num_gx, atol=atol)
    # parameter grads
    for p in layer.parameters():
        num = np.zeros_like(p.value)
        flat = p.value.ravel()
        nflat = num.ravel()
        eps = 1e-6
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + eps
            up = float((layer.forward(x) * r).sum())
            flat[i] = old - eps
            dn = float((layer.forward(x) * r).sum())
            flat[i] = old
            nflat[i] = (up - dn) / (2 * eps)
        np.testing.assert_allclose(p.grad, num, atol=atol)


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(4, 3, rng=rng)
        assert layer.forward(np.zeros((5, 4))).shape == (5, 3)

    def test_forward_value(self):
        layer = Linear(2, 2)
        layer.weight.value[...] = np.eye(2)
        layer.bias.value[...] = [1.0, -1.0]
        out = layer.forward(np.array([[2.0, 3.0]]))
        np.testing.assert_allclose(out, [[3.0, 2.0]])

    def test_gradients(self, rng):
        check_layer_grads(Linear(3, 2, rng=rng), rng.normal(size=(4, 3)))

    def test_rejects_wrong_input_dim(self, rng):
        with pytest.raises(ValueError):
            Linear(3, 2, rng=rng).forward(np.zeros((4, 5)))

    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            Linear(3, 2, rng=rng).backward(np.zeros((4, 2)))


class TestShapeAdapters:
    def test_flatten_round_trip(self, rng):
        f = Flatten()
        x = rng.normal(size=(2, 3, 4))
        out = f.forward(x)
        assert out.shape == (2, 12)
        back = f.backward(out)
        assert back.shape == x.shape

    def test_reshape_round_trip(self, rng):
        r = Reshape((3, 4, 1))
        x = rng.normal(size=(2, 12))
        out = r.forward(x)
        assert out.shape == (2, 3, 4, 1)
        assert r.backward(out).shape == (2, 12)

    def test_reshape_validation(self):
        with pytest.raises(ValueError):
            Reshape((0, 3))


class TestActivations:
    @pytest.mark.parametrize("cls", [ReLU, Tanh, Sigmoid])
    def test_gradients(self, cls, rng):
        check_layer_grads(cls(), rng.normal(size=(3, 5)))

    def test_relu_values(self):
        out = ReLU().forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_sigmoid_stable_extremes(self):
        out = Sigmoid().forward(np.array([[-1000.0, 1000.0]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[0.0, 1.0]], atol=1e-12)

    def test_tanh_range(self, rng):
        out = Tanh().forward(rng.normal(size=(10, 10)) * 100)
        assert np.all(np.abs(out) <= 1.0)


class TestIm2Col:
    def test_round_trip_adjointness(self, rng):
        """<im2col(x), y> == <x, col2im(y)> — exact adjoint pair."""
        x = rng.normal(size=(2, 6, 6, 3))
        cols, oh, ow = im2col(x, 3, 3, 1)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        back = col2im(y, x.shape, 3, 3, 1)
        rhs = float((x * back).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_output_size(self, rng):
        x = rng.normal(size=(1, 5, 7, 2))
        cols, oh, ow = im2col(x, 3, 3, 2)
        assert (oh, ow) == (2, 3)
        assert cols.shape == (1, 6, 18)

    def test_kernel_too_large(self, rng):
        with pytest.raises(ValueError):
            im2col(rng.normal(size=(1, 2, 2, 1)), 3, 3, 1)


class TestConv2D:
    def test_forward_shape(self, rng):
        conv = Conv2D(2, 4, kernel_size=3, rng=rng)
        out = conv.forward(rng.normal(size=(2, 6, 6, 2)))
        assert out.shape == (2, 4, 4, 4)

    def test_known_convolution(self):
        conv = Conv2D(1, 1, kernel_size=2)
        conv.kernel.value[...] = 1.0   # sums each 2x2 window
        conv.bias.value[...] = 0.0
        x = np.arange(9.0).reshape(1, 3, 3, 1)
        out = conv.forward(x)
        # windows: [0,1,3,4]=8, [1,2,4,5]=12, [3,4,6,7]=20, [4,5,7,8]=24
        np.testing.assert_allclose(out[0, :, :, 0], [[8, 12], [20, 24]])

    def test_gradients(self, rng):
        conv = Conv2D(2, 3, kernel_size=2, rng=rng)
        check_layer_grads(conv, rng.normal(size=(2, 4, 4, 2)))

    def test_strided_gradients(self, rng):
        conv = Conv2D(1, 2, kernel_size=2, stride=2, rng=rng)
        check_layer_grads(conv, rng.normal(size=(2, 4, 4, 1)))

    def test_rejects_wrong_channels(self, rng):
        with pytest.raises(ValueError):
            Conv2D(3, 2, 3, rng=rng).forward(np.zeros((1, 5, 5, 2)))


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16.0).reshape(1, 4, 4, 1)
        out = MaxPool2D(2).forward(x)
        np.testing.assert_allclose(out[0, :, :, 0], [[5, 7], [13, 15]])

    def test_max_pool_gradients(self, rng):
        check_layer_grads(MaxPool2D(2), rng.normal(size=(2, 4, 4, 3)))

    def test_max_pool_tie_gradient_sums_to_one(self):
        """Equal window values share the gradient (sums preserved)."""
        pool = MaxPool2D(2)
        x = np.ones((1, 2, 2, 1))
        pool.forward(x)
        g = pool.backward(np.ones((1, 1, 1, 1)))
        assert g.sum() == pytest.approx(1.0)

    def test_indivisible_raises(self):
        with pytest.raises(ValueError):
            MaxPool2D(3).forward(np.zeros((1, 4, 4, 1)))


class TestModuleFlatVector:
    def test_round_trip(self, rng):
        net = Sequential([Linear(4, 3, rng=rng), ReLU(), Linear(3, 2, rng=rng)])
        w = net.get_flat_params()
        assert w.size == net.num_params == 4 * 3 + 3 + 3 * 2 + 2
        w2 = rng.normal(size=w.size)
        net.set_flat_params(w2)
        np.testing.assert_allclose(net.get_flat_params(), w2)

    def test_set_wrong_size(self, rng):
        net = Sequential([Linear(2, 2, rng=rng)])
        with pytest.raises(ValueError):
            net.set_flat_params(np.zeros(3))

    def test_set_walks_the_parameter_list_once(self, rng, monkeypatch):
        net = Sequential([Linear(4, 3, rng=rng), ReLU(), Linear(3, 2, rng=rng)])
        size, calls, original = net.num_params, [], net.parameters
        monkeypatch.setattr(
            net, "parameters", lambda: calls.append(1) or original()
        )
        net.set_flat_params(np.zeros(size))
        assert len(calls) == 1
        with pytest.raises(ValueError, match="3 entries, model has 23"):
            net.set_flat_params(np.zeros(3))

    def test_zero_grad(self, rng):
        net = Sequential([Linear(2, 2, rng=rng)])
        net.forward(np.ones((1, 2)))
        net.backward(np.ones((1, 2)))
        assert np.any(net.get_flat_grads() != 0)
        net.zero_grad()
        np.testing.assert_array_equal(net.get_flat_grads(), 0.0)

    def test_empty_sequential_rejected(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_grad_accumulation(self, rng):
        """Two backward passes without zero_grad accumulate."""
        layer = Linear(2, 1, rng=rng)
        x = np.ones((1, 2))
        layer.forward(x)
        layer.backward(np.ones((1, 1)))
        g1 = layer.weight.grad.copy()
        layer.forward(x)
        layer.backward(np.ones((1, 1)))
        np.testing.assert_allclose(layer.weight.grad, 2 * g1)
