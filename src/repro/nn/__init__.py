"""From-scratch NumPy neural-network substrate.

The paper trains two small CNNs (on Fashion-MNIST and CIFAR-10) inside its
FL simulator.  With no deep-learning framework available offline, this
package implements the needed pieces directly on NumPy:

* :mod:`repro.nn.module` — ``Parameter`` / ``Module`` base classes with
  flat-vector (de)serialization (FL aggregation and DANE operate on flat
  parameter vectors).
* layers: :mod:`repro.nn.linear`, :mod:`repro.nn.conv` (im2col),
  :mod:`repro.nn.pooling`, :mod:`repro.nn.activations`.
* :mod:`repro.nn.losses` — softmax cross-entropy with fused gradient,
  L2 regularization.
* :mod:`repro.nn.kernel` — forward/backward of dense stacks directly on the
  flat parameter vector, for one batch or K stacked clients; what
  ``ClassifierModel`` and the batched FL engine both evaluate with.
* :mod:`repro.nn.models` — ``ClassifierModel`` facade plus factories for
  logistic regression, MLP, and the paper's two CNNs (scaled).
* :mod:`repro.nn.metrics` — accuracy.

Backward passes are hand-derived and verified against central finite
differences in the test suite.
"""

from repro.nn.module import Parameter, Module, Sequential
from repro.nn.linear import Linear, Flatten, Reshape
from repro.nn.conv import Conv2D
from repro.nn.pooling import MaxPool2D
from repro.nn.activations import ReLU, Tanh, Sigmoid
from repro.nn.serialization import save_checkpoint, load_checkpoint
from repro.nn.losses import softmax_cross_entropy, softmax, l2_penalty
from repro.nn.kernel import BatchedSequentialKernel
from repro.nn.models import ClassifierModel, build_model
from repro.nn.metrics import accuracy

__all__ = [
    "Parameter",
    "Module",
    "Sequential",
    "Linear",
    "Flatten",
    "Reshape",
    "Conv2D",
    "MaxPool2D",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "save_checkpoint",
    "load_checkpoint",
    "softmax_cross_entropy",
    "softmax",
    "l2_penalty",
    "BatchedSequentialKernel",
    "ClassifierModel",
    "build_model",
    "accuracy",
]
