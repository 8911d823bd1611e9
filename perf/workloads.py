"""The five benchmark workloads: what runs, and why each exists.

Names are fixed; later issues refer to them.  A workload is one
``ExperimentConfig`` plus a policy name, built from the seed alone — the
program under test sees only the config.  ``nominal_s`` is the measured
part of one run (first ``select`` → return) on the 2-core reference box;
``run.py`` turns ``--seconds`` into a whole number of runs with it, so the
repeat count never depends on how fast the machine happens to be.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

from repro.config import (
    AttackConfig,
    DefenseConfig,
    ExperimentConfig,
    LiveConfig,
    ShardConfig,
    SimConfig,
)
from repro.experiments.scenarios import experiment_config

#: Accuracy whose simulated time-to-reach is the paper's headline quantity.
TARGET_ACCURACY = 0.85


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    policy: str
    build: Callable[[int, bool], ExperimentConfig]   # (seed, tiny) -> config
    nominal_s: float
    interrupt_at: Optional[tuple] = None    # ckpt: (full, tiny) epoch whose
                                            # select raises the planned stop
    measured_trace_fields: tuple = ()       # wall-clock fields (live engine)


def with_engine(config: ExperimentConfig, engine: str, **training) -> ExperimentConfig:
    return config.replace(
        training=dataclasses.replace(config.training, engine=engine, **training)
    )


def _train_k100(seed: int, tiny: bool) -> ExperimentConfig:
    if tiny:
        config = experiment_config(
            num_clients=20, min_participants=3, budget=400, max_epochs=60, seed=seed
        )
    else:
        config = experiment_config(
            num_clients=100, min_participants=5, budget=9000, max_epochs=400, seed=seed
        )
    return with_engine(config, "batched")


def _select_k10000(seed: int, tiny: bool) -> ExperimentConfig:
    if tiny:
        config = experiment_config(
            num_clients=400, min_participants=8, budget=1e9, max_epochs=4,
            seed=seed, model="logreg",
        )
        shard = ShardConfig(num_shards=4, eval_sample=40)
    else:
        config = experiment_config(
            num_clients=10000, min_participants=100, budget=1e9, max_epochs=20,
            seed=seed, model="logreg",
        )
        shard = ShardConfig(num_shards=20, eval_sample=500)
    return with_engine(config, "batched").replace(shard=shard)


def _robust_des_k100(seed: int, tiny: bool) -> ExperimentConfig:
    config = experiment_config(
        num_clients=20 if tiny else 100,
        min_participants=3 if tiny else 5,
        budget=1e6,
        max_epochs=5 if tiny else 50,
        seed=seed,
    )
    return with_engine(config, "des", compression="topk").replace(
        sim=SimConfig(aggregation="sync", faults="flaky-uplink"),
        attack=AttackConfig("sign-flip", 0.2),
        defense=DefenseConfig("trimmed-mean"),
    )


def _live_k16(seed: int, tiny: bool) -> ExperimentConfig:
    config = experiment_config(
        num_clients=6 if tiny else 16,
        min_participants=2 if tiny else 4,
        budget=1e6,
        max_epochs=5 if tiny else 40,
        seed=seed,
    )
    # One worker + the parent = nproc processes on the 2-core box; a second
    # worker only adds scheduler noise there.
    return with_engine(config, "live").replace(
        live=LiveConfig(workers=1, time_scale=0.01, transport="unix")
    )


def _ckpt_k10000(seed: int, tiny: bool) -> ExperimentConfig:
    config = experiment_config(
        num_clients=400 if tiny else 10000,
        min_participants=4 if tiny else 10,
        budget=1e9,
        max_epochs=8 if tiny else 60,
        seed=seed,
        model="logreg",
    )
    # The checkpoint directory is filled in by the worker (it owns the
    # scratch space); interval/keep are the workload's.
    return with_engine(config, "batched").replace(
        shard=ShardConfig(eval_sample=20 if tiny else 50)
    )


WORKLOADS = (
    Workload(
        name="train_k100",
        why=(
            "Paper-scale FedL (K=100, budget-bound): batched local training, the "
            "evaluation sweep and data install do the work; selection is ~6%."
        ),
        policy="FedL",
        build=_train_k100,
        nominal_s=15.0,
    ),
    Workload(
        name="select_k10000",
        why=(
            "Sharded FedL at K=1e4: selection (rounding, learner, solver, shards) "
            "is ~60% and local training <10% - the mirror image of train_k100."
        ),
        policy="FedL",
        build=_select_k10000,
        nominal_s=15.5,
    ),
    Workload(
        name="robust_des_k100",
        why=(
            "FedCS on a flaky DES network: the per-client loop path with top-k "
            "compression, sign-flip attackers and trimmed-mean screening."
        ),
        policy="FedCS",
        build=_robust_des_k100,
        nominal_s=16.0,
    ),
    Workload(
        name="live_k16",
        why=(
            "FedAvg over real unix sockets to one forked worker at time_scale "
            "0.01: fork, frames, shaper and barrier overhead are what is timed."
        ),
        policy="FedAvg",
        build=_live_k16,
        nominal_s=10.0,
        measured_trace_fields=("epoch_latency", "cumulative_time"),
    ),
    Workload(
        name="ckpt_k10000",
        why=(
            "Snapshot every cheap epoch of a K=1e4 state, interrupt at epoch 30 "
            "and resume: write_snapshot dominates; resume times load+rebuild."
        ),
        policy="FedAvg",
        build=_ckpt_k10000,
        nominal_s=8.5,
        interrupt_at=(30, 4),
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
