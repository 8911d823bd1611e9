"""Paper scenario parameterizations and policy factory.

The paper runs M = 100 clients with real CNN training; at NumPy speed we
scale the *experiment* defaults down (M = 30, 14×14 / 16×16 images, MLP)
while keeping every structural knob — availability, pricing, FDMA sharing,
Poisson volumes, IID/non-IID — at the paper's values.  The config builder
exposes all of it, so paper-scale runs are one ``replace`` away.

``make_policy(name, config, rng, params=None)`` is the strategy registry's
one build function, :func:`repro.strategies.build_strategy`.
"""

from __future__ import annotations

from repro.config import (
    DataConfig,
    ExperimentConfig,
    FedLConfig,
    PopulationConfig,
    TrainingConfig,
)
from repro.strategies import build_strategy as make_policy

__all__ = [
    "experiment_config",
    "paper_scale_config",
    "make_policy",
    "POLICY_NAMES",
]

#: The paper's comparison set (Sec. 6): FedL and its three baselines.
POLICY_NAMES = ("FedL", "FedAvg", "FedCS", "Pow-d")


def experiment_config(
    dataset: str = "fmnist",
    iid: bool = True,
    budget: float = 2500.0,
    seed: int = 0,
    num_clients: int = 30,
    min_participants: int = 5,
    max_epochs: int = 300,
    model: str = "mlp",
) -> ExperimentConfig:
    """Experiment-scale config mirroring the paper's Sec. 6.1 setting."""
    # Difficulty calibrated so a run takes tens of federated rounds to
    # plateau (CIFAR-like harder than FMNIST-like, as in the paper).
    noise = 0.8 if dataset == "fmnist" else 1.1
    return ExperimentConfig(
        seed=seed,
        budget=budget,
        min_participants=min_participants,
        max_epochs=max_epochs,
        population=PopulationConfig(num_clients=num_clients),
        data=DataConfig(
            dataset=dataset, iid=iid, feature_noise=noise, samples_per_client=30
        ),
        training=TrainingConfig(model=model),
        fedl=FedLConfig(),
    )


def paper_scale_config(
    dataset: str = "fmnist",
    iid: bool = True,
    budget: float = 20_000.0,
    seed: int = 0,
) -> ExperimentConfig:
    """The paper's full Sec. 6.1 setting: M = 100 clients, full-resolution
    28×28 / 32×32 images, the CNN model family, n = 10 participants.

    A complete run takes tens of minutes of NumPy time — use
    :func:`experiment_config` for development and benches.
    """
    return ExperimentConfig(
        seed=seed,
        budget=budget,
        min_participants=10,
        max_epochs=500,
        population=PopulationConfig(num_clients=100),
        data=DataConfig(
            dataset=dataset,
            iid=iid,
            feature_noise=0.8 if dataset == "fmnist" else 1.1,
            samples_per_client=60,
            downscale=1,
        ),
        training=TrainingConfig(model="cnn"),
        fedl=FedLConfig(),
    )
