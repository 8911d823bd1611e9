"""The dense kernel under :class:`ClassifierModel`: same bits as the ``Module``
path it replaced, the same argument checks in front of it, and the routing
(dense stacks through the kernel, CNNs through the layers)."""

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.synthetic import ClassConditionalGenerator
from repro.fl.client import FLClient, LocalSolveSpec
from repro.fl.round_runner import run_federated_round
from repro.fl.server import FLServer
from repro.nn.activations import ReLU, Sigmoid, Tanh
from repro.nn.linear import Linear
from repro.nn.losses import l2_penalty, softmax_cross_entropy
from repro.nn.models import ClassifierModel, build_model
from repro.nn.module import Sequential
from tests.oracle import assert_matches_oracle

DIM, CLASSES = 12, 4


def logits_oracle(model, w, x):
    """``ClassifierModel.logits`` as shipped before the kernel took over."""
    model.network.set_flat_params(w)
    return model.network.forward(x)


def loss_oracle(model, w, x, y):
    """``ClassifierModel.loss`` as shipped before the kernel took over."""
    w = np.asarray(w, dtype=float)
    logits = logits_oracle(model, w, x)
    ce, _ = softmax_cross_entropy(logits, y, want_grad=False)
    return ce + 0.5 * model.l2_reg * float(w @ w)


def loss_and_grad_oracle(model, w, x, y):
    """``ClassifierModel.loss_and_grad`` as shipped before the kernel took over."""
    w = np.asarray(w, dtype=float)
    model.network.set_flat_params(w)
    model.network.zero_grad()
    logits = model.network.forward(x)
    ce, dlogits = softmax_cross_entropy(logits, y)
    model.network.backward(dlogits)
    grad = model.network.get_flat_grads()
    pen, dpen = l2_penalty(w, model.l2_reg)
    return ce + pen, grad + dpen


@dataclass(frozen=True)
class EvalCase:
    """One drawn dense network, batch and evaluation point."""

    hidden: Tuple[int, ...]     # () is logreg
    activations: Tuple[str, ...]  # one per hidden layer; all "relu" = build_model's mlp
    n: int
    l2_reg: float
    w_as_list: bool
    seed: int

    def build(self):
        rng = np.random.default_rng(self.seed)
        if not self.hidden:
            model = build_model("logreg", DIM, CLASSES, rng, l2_reg=self.l2_reg)
        elif set(self.activations) == {"relu"}:
            model = build_model(
                "mlp", DIM, CLASSES, rng, hidden=self.hidden, l2_reg=self.l2_reg
            )
        else:
            layers, prev = [], DIM
            kinds = {"relu": ReLU, "tanh": Tanh, "sigmoid": Sigmoid}
            for width, act in zip(self.hidden, self.activations):
                layers += [Linear(prev, width, rng=rng), kinds[act]()]
                prev = width
            layers.append(Linear(prev, CLASSES, rng=rng))
            model = ClassifierModel(Sequential(layers), CLASSES, l2_reg=self.l2_reg)
        w = model.get_params() + 0.3 * rng.normal(size=model.num_params)
        x = rng.normal(size=(self.n, DIM))
        y = rng.integers(0, CLASSES, size=self.n)
        return model, (w.tolist() if self.w_as_list else w), x, y


eval_cases = st.sampled_from([(), (7,), (64,), (16, 8)]).flatmap(
    lambda hidden: st.builds(
        EvalCase,
        hidden=st.just(hidden),
        activations=st.tuples(
            *[st.sampled_from(["relu", "tanh", "sigmoid"])] * len(hidden)
        ),
        n=st.integers(1, 70),
        l2_reg=st.sampled_from([0.0, 1e-4]),
        w_as_list=st.booleans(),
        seed=st.integers(0, 2**16),
    )
)


def through_oracle(model, w, x, y):
    return (
        loss_and_grad_oracle(model, w, x, y),
        loss_oracle(model, w, x, y),
        logits_oracle(model, w, x),
    )


def through_model(model, w, x, y):
    assert model.kernel is not None
    pair = model.loss_and_grad(w, x, y)
    loss = model.loss(w, x, y)
    assert loss == pair[0]
    return pair, loss, model.logits(w, x)


class TestKernelMatchesModulePath:
    @given(eval_cases)
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_pre_kernel_bodies(self, case):
        """Equal loss (value and ``float`` type), gradient bytes and logits."""
        assert_matches_oracle(through_oracle, through_model, case.build)

    @given(eval_cases)
    @settings(max_examples=25, deadline=None)
    def test_evaluation_leaves_the_parameters_alone(self, case):
        model, w, x, y = case.build()
        before = model.get_params()
        through_model(model, w, x, y)
        assert model.get_params().tobytes() == before.tobytes()


@pytest.fixture(params=["kernel", "module"])
def path_model(request, rng):
    """A model on each evaluation path, with a valid ``(w, x, y)``."""
    if request.param == "kernel":
        model = build_model("mlp", 64, CLASSES, rng, hidden=(5,))
    else:
        model = build_model("cnn", 64, CLASSES, rng, image_shape=(8, 8, 1))
    assert (model.kernel is not None) == (request.param == "kernel")
    x = rng.normal(size=(9, 64))
    y = rng.integers(0, CLASSES, size=9)
    return model, model.get_params(), x, y


class TestValidationParity:
    """The four checks the layers make stay in front of the kernel."""

    def test_valid_point_evaluates(self, path_model):
        model, w, x, y = path_model
        loss, grad = model.loss_and_grad(w, x, y)
        assert np.isfinite(loss) and grad.shape == w.shape
        assert model.loss(w, x, y) == loss
        assert model.logits(w, x).shape == (9, CLASSES)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda w, x, y: (w[:-1], x, y),                 # parameter count
            lambda w, x, y: (np.append(w, 0.0), x, y),
            lambda w, x, y: (w, x[0], y[:1]),               # x not 2-D
            lambda w, x, y: (w, x[:, :-1], y),              # x of the wrong width
        ],
    )
    def test_bad_point_rejected_by_every_entry(self, path_model, bad):
        model, w, x, y = path_model
        w, x, y = bad(w, x, y)
        with pytest.raises(ValueError):
            model.logits(w, x)
        with pytest.raises(ValueError):
            model.loss(w, x, y)
        with pytest.raises(ValueError):
            model.loss_and_grad(w, x, y)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda y: y[:, None],                           # (N, 1), not (N,)
            lambda y: y[:-1],
            lambda y: np.where(np.arange(y.size) == 3, CLASSES, y),  # == C
            lambda y: np.where(np.arange(y.size) == 3, -1, y),
        ],
    )
    def test_bad_labels_rejected(self, path_model, bad):
        model, w, x, y = path_model
        with pytest.raises(ValueError):
            model.loss(w, x, bad(y))
        with pytest.raises(ValueError):
            model.loss_and_grad(w, x, bad(y))


def count_calls(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)
    monkeypatch.setattr(
        cls, name, lambda self, *a, **k: calls.append(1) or original(self, *a, **k)
    )
    return calls


class TestRouting:
    def test_loop_round_of_an_mlp_never_enters_the_layers(
        self, monkeypatch, rng_factory
    ):
        gen = ClassConditionalGenerator((6, 6, 1), CLASSES, rng_factory.get("gen"))
        model = build_model("mlp", 36, CLASSES, rng_factory.get("model"), hidden=(8,))
        clients = []
        for k, n in enumerate([20, 45, 32]):  # full-batch and subsampling solves
            c = FLClient(
                k, model, rng_factory.get(f"c{k}"),
                LocalSolveSpec(sgd_steps=3, batch_size=32),
            )
            c.set_data(gen.sample(n, rng=rng_factory.get(f"d{k}")))
            clients.append(c)
        server = FLServer(
            model, model.get_params(), gen.sample(40, rng=rng_factory.get("t"))
        )
        before = model.get_params()
        forwards = count_calls(monkeypatch, Linear, "forward")
        res = run_federated_round(
            server, clients, np.ones(3, bool), np.ones(3, bool), 2, engine="loop"
        )
        assert np.isfinite(res.test_loss) and np.any(server.w != before)
        assert forwards == []
        assert model.get_params().tobytes() == before.tobytes()

    def test_cnn_still_runs_through_the_layers(self, monkeypatch, rng):
        model = build_model("cnn", 64, CLASSES, rng, image_shape=(8, 8, 1))
        assert model.kernel is None
        x, y = rng.normal(size=(5, 64)), rng.integers(0, CLASSES, size=5)
        w = model.get_params() + 0.1
        forwards = count_calls(monkeypatch, Sequential, "forward")
        model.loss_and_grad(w, x, y)
        model.loss(w, x, y)
        assert len(forwards) == 2
        # The Module path loads ``w`` into the layers; that is its contract.
        assert model.get_params().tobytes() == w.tobytes()
