"""Data substrate: synthetic stand-ins for Fashion-MNIST and CIFAR-10.

No network access is available offline, so the paper's two public datasets
are replaced by deterministic synthetic generators with the same shapes
(28×28×1 and 32×32×3), the same 10-class structure, and controllable
difficulty (see DESIGN.md §2).  The client-selection dynamics the paper
studies depend on loss/accuracy *trajectories* and data heterogeneity,
both of which the generators reproduce.

* :mod:`repro.datasets.synthetic` — class-conditional smooth-prototype
  image generator.
* :mod:`repro.datasets.fmnist`, :mod:`repro.datasets.cifar10` — the two
  named configurations.
* :mod:`repro.datasets.partition` — IID and non-IID (principal-class mix,
  Dirichlet) client partitioners.
* :mod:`repro.datasets.streams` — per-epoch online data streams (Poisson
  volumes, per the paper) over the rows of the class-distribution matrix,
  its label-cdf table and the clients' RNG state table.
"""

from repro.datasets.synthetic import ClassConditionalGenerator, Dataset
from repro.datasets.fmnist import synthetic_fmnist
from repro.datasets.cifar10 import synthetic_cifar10
from repro.datasets.partition import (
    iid_class_distributions,
    non_iid_class_distributions,
    dirichlet_class_distributions,
)
from repro.datasets.streams import ClientDataStream, ClientStreams, build_client_streams

__all__ = [
    "ClassConditionalGenerator",
    "Dataset",
    "synthetic_fmnist",
    "synthetic_cifar10",
    "iid_class_distributions",
    "non_iid_class_distributions",
    "dirichlet_class_distributions",
    "ClientDataStream",
    "ClientStreams",
    "build_client_streams",
]
