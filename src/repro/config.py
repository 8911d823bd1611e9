"""Configuration dataclasses for the FedL simulator.

Groups the paper's experimental knobs (Sec. 6.1 "Basic Setting") into typed,
validated config objects.  Defaults follow the paper where stated:

* ``M = 100`` clients uniformly placed in a disc of radius 500 m,
* path loss ``128.1 + 37.6 log10 d`` (d in km), 8 dB shadowing,
* noise PSD ``N0 = -174`` dBm/Hz, bandwidth ``B = 20`` MHz,
* CPU cycles/bit uniform in ``[10, 30]``, max CPU 2 GHz, tx power 10 dBm,
* rental cost uniform in ``[0.1, 12]`` ("dynamic price of Amazon"),
* availability i.i.d. Bernoulli per epoch.

All configs are frozen.  Derived experiment variants are built with
:meth:`ExperimentConfig.override`, which takes dotted-path changes such as
``{"sim.faults": "churn", "attack.fraction": 0.25}`` and resolves them
against this dataclass tree — the one description of an experiment that
the CLI, sweeps, tournaments and persistence all share.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple, Union

__all__ = [
    "ConfigPathError",
    "NetworkConfig",
    "PopulationConfig",
    "DataConfig",
    "TrainingConfig",
    "SimConfig",
    "LiveConfig",
    "AttackConfig",
    "DefenseConfig",
    "FedLConfig",
    "ShardConfig",
    "CheckpointConfig",
    "ExperimentConfig",
]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


@dataclass(frozen=True)
class NetworkConfig:
    """Wireless edge-network parameters (paper Sec. 3.2 / 6.1).

    The uplink is the paper's: the uploaders share the band in equal FDMA
    shares (:meth:`repro.experiments.runner.Simulation.realized_tau`).
    """

    bandwidth_hz: float = 20e6          # B, total FDMA bandwidth
    noise_psd_dbm_hz: float = -174.0    # N0
    cell_radius_m: float = 500.0
    shadowing_std_db: float = 8.0
    shadowing_corr: float = 0.9         # AR(1) epoch-to-epoch correlation
                                        # (shadowing is quasi-static; 0 = the
                                        # i.i.d.-per-epoch extreme)
    tx_power_dbm: float = 10.0          # p_k^max for every client
    upload_bits: float = 80e3           # s, per-iteration model upload size
    min_distance_m: float = 1.0         # keep path loss finite at the center

    def __post_init__(self) -> None:
        _require(self.bandwidth_hz > 0, "bandwidth_hz must be positive")
        _require(self.cell_radius_m > 0, "cell_radius_m must be positive")
        _require(self.upload_bits > 0, "upload_bits must be positive")
        _require(
            0 < self.min_distance_m <= self.cell_radius_m,
            "min_distance_m must be in (0, cell_radius_m]",
        )
        _require(
            0.0 <= self.shadowing_corr < 1.0, "shadowing_corr must be in [0, 1)"
        )


@dataclass(frozen=True)
class PopulationConfig:
    """Client fleet parameters (paper Sec. 6.1)."""

    num_clients: int = 100              # M
    cycles_per_bit_range: Tuple[float, float] = (10.0, 30.0)   # e_k
    cpu_freq_hz: float = 2e9            # f_k^max
    cpu_freq_jitter: float = 0.5        # heterogeneity: freq ~ U[(1-j), 1]*max
    cost_range: Tuple[float, float] = (0.1, 12.0)              # c_{t,k}
    availability_prob: float = 0.8      # per-epoch availability probability
    availability_model: str = "bernoulli"   # "bernoulli" (paper) | "markov"
    availability_sojourn: float = 5.0   # mean on-stretch (markov model only)
    bits_per_sample: float = 512.0      # dataset sample size in bits
    cost_volatility: float = 0.15       # AR(1) innovation scale for prices
    failure_prob: float = 0.0           # per-epoch chance a SELECTED client
                                        # crashes mid-round (update lost,
                                        # rent still paid)

    def __post_init__(self) -> None:
        _require(self.num_clients >= 1, "need at least one client")
        lo, hi = self.cycles_per_bit_range
        _require(0 < lo <= hi, "cycles_per_bit_range must be 0 < lo <= hi")
        lo, hi = self.cost_range
        _require(0 < lo <= hi, "cost_range must be 0 < lo <= hi")
        _require(0 < self.availability_prob <= 1, "availability_prob in (0,1]")
        _require(
            self.availability_model in ("bernoulli", "markov"),
            "unknown availability_model",
        )
        _require(self.availability_sojourn >= 1.0, "availability_sojourn >= 1")
        _require(
            not (self.availability_model == "markov" and self.availability_prob >= 1.0),
            "markov availability needs prob < 1",
        )
        _require(0 <= self.cpu_freq_jitter < 1, "cpu_freq_jitter in [0,1)")
        _require(self.cost_volatility >= 0, "cost_volatility must be >= 0")
        _require(0.0 <= self.failure_prob < 1.0, "failure_prob in [0,1)")


@dataclass(frozen=True)
class DataConfig:
    """Dataset / partition parameters (paper Sec. 6.1 "Data")."""

    dataset: str = "fmnist"             # "fmnist" | "cifar10"
    iid: bool = True
    partition: str = "paper"            # non-IID scheme: "paper" | "dirichlet"
    non_iid_principal_frac: float = 0.8  # share drawn from the principal class pool
    dirichlet_alpha: float = 0.5        # concentration for the dirichlet scheme
    samples_per_client: int = 60        # mean of the Poisson per-epoch data volume
    num_classes: int = 10
    test_samples: int = 1000
    feature_noise: float = 0.35         # generator noise scale (task difficulty)
    downscale: int = 2                  # spatial downscale factor (1 = the
                                        # paper's full 28×28 / 32×32 images)

    def __post_init__(self) -> None:
        _require(self.dataset in ("fmnist", "cifar10"), "unknown dataset")
        _require(
            0.0 <= self.non_iid_principal_frac <= 1.0,
            "non_iid_principal_frac in [0,1]",
        )
        _require(self.samples_per_client >= 1, "samples_per_client >= 1")
        _require(self.num_classes >= 2, "num_classes >= 2")
        _require(self.test_samples >= 1, "test_samples >= 1")
        _require(self.downscale in (1, 2, 4), "downscale must be 1, 2 or 4")
        _require(self.partition in ("paper", "dirichlet"), "unknown partition")
        _require(self.dirichlet_alpha > 0, "dirichlet_alpha must be positive")


@dataclass(frozen=True)
class TrainingConfig:
    """Local-training / DANE parameters (paper Sec. 3.1-2)."""

    model: str = "mlp"                  # "logreg" | "mlp" | "cnn"
    hidden_units: Tuple[int, ...] = (64,)
    local_solver: str = "dane"          # "dane" (paper) | "fedprox" [15]
    momentum: float = 0.0               # heavy-ball inner momentum [17]
    compression: str = "none"           # "none" | "topk" | "quantize" | "cmfl" [28]
    topk_fraction: float = 0.1
    quantize_bits: int = 8
    cmfl_threshold: float = 0.6
    local_sgd_steps: int = 10           # max gradient steps j per iteration
                                        # (cap; the η_t target stops earlier)
    engine: str = "auto"                # round execution: "auto" | "loop" |
                                        # "batched" (bit-identical engines) |
                                        # "des" | "live"
    sgd_lr: float = 0.05                # α
    sigma1: float = 1.0                 # DANE proximal weight σ1
    sigma2: float = 1.0                 # DANE gradient-correction weight σ2
    batch_size: int = 32
    l2_reg: float = 1e-4
    theta0: float = 0.1                 # global convergence accuracy θ0
    theta: float = 0.5                  # desired global-loss upper bound θ

    def __post_init__(self) -> None:
        _require(self.model in ("logreg", "mlp", "cnn"), "unknown model")
        _require(
            all(h >= 1 for h in self.hidden_units),
            "training.hidden_units must be positive",
        )
        _require(self.local_sgd_steps >= 1, "local_sgd_steps >= 1")
        _require(self.sgd_lr > 0, "sgd_lr must be positive")
        _require(self.sigma1 >= 0 and self.sigma2 >= 0, "sigmas must be >= 0")
        _require(0 < self.theta0 < 1, "theta0 in (0,1)")
        _require(self.theta > 0, "theta must be positive")
        _require(self.local_solver in ("dane", "fedprox"), "unknown local_solver")
        _require(
            self.engine in ("auto", "loop", "batched", "des", "live"),
            "unknown engine",
        )
        _require(0.0 <= self.momentum < 1.0, "momentum in [0,1)")
        _require(
            self.compression in ("none", "topk", "quantize", "cmfl"),
            "unknown compression",
        )
        _require(0.0 < self.topk_fraction <= 1.0, "topk_fraction in (0,1]")
        _require(1 <= self.quantize_bits <= 32, "quantize_bits in [1,32]")
        _require(0.0 <= self.cmfl_threshold <= 1.0, "cmfl_threshold in [0,1]")


@dataclass(frozen=True)
class SimConfig:
    """Network-timeline knobs (``TrainingConfig.engine`` ``"des"`` or ``"live"``).

    ``aggregation`` is the barrier policy — when an iteration closes —
    not the update rule: every engine applies the uniform average of the
    contributors' differences (paper Alg. 1).  The closed-form
    loop/batched engines have no timeline, so ``repro run``/``sweep``
    reject a non-default section on them.  ``faults`` names a
    preset from :data:`repro.sim.faults.FAULT_PROFILES`; under the
    Markov availability model the preset's dropout hazard is replaced by
    the chain's sojourn-consistent intra-round hazard.
    """

    aggregation: str = "sync"           # "sync" | "deadline" | "async"
    deadline_s: Optional[float] = None  # per-iteration barrier deadline
    quorum: Optional[int] = None        # async: aggregate after K uploads
    faults: str = "none"                # named fault profile

    def __post_init__(self) -> None:
        _require(
            self.aggregation in ("sync", "deadline", "async"),
            "unknown sim aggregation",
        )
        if self.aggregation == "deadline":
            _require(
                self.deadline_s is not None and self.deadline_s > 0,
                "deadline aggregation needs deadline_s > 0",
            )
        else:
            _require(
                self.deadline_s is None,
                "deadline_s only applies with deadline aggregation",
            )
        if self.aggregation == "async":
            _require(
                self.quorum is not None and self.quorum >= 1,
                "async aggregation needs quorum >= 1",
            )
        else:
            _require(self.quorum is None, "quorum only applies with async aggregation")
        # Lazy import: repro.sim.faults depends only on numpy, so this
        # cannot cycle back into the config layer.
        from repro.sim.faults import FAULT_PROFILES

        _require(
            self.faults in FAULT_PROFILES,
            f"unknown fault profile (known: {sorted(FAULT_PROFILES)})",
        )


@dataclass(frozen=True)
class LiveConfig:
    """Live multi-process runtime knobs (``TrainingConfig.engine = "live"``,
    e.g. ``repro run --set training.engine=live --set live.workers=4``).

    Ignored by every other engine.  The live engine forks ``workers``
    client processes and *measures* round timelines instead of computing
    them; ``time_scale`` maps one simulated second to that many wall
    seconds (0.01 = run 100x faster than the modeled hardware, at the
    cost of shaping resolution).  Barrier policy and fault profile come
    from :class:`SimConfig` — the live engine shares the DES's physics.
    """

    workers: int = 2                    # forked client processes
    time_scale: float = 1.0             # wall seconds per simulated second
    transport: str = "unix"             # "unix" socketpair | "tcp" loopback
    chunk_bytes: int = 16384            # shaped-upload chunk size
    round_timeout_s: float = 60.0       # wall safety cap per iteration barrier
    worker_heartbeat_s: float = 0.5     # worker liveness beacon period (wall);
                                        # 0 disables the staleness watchdog
    worker_stale_s: float = 0.0         # silence -> wedged threshold;
                                        # 0 = auto (see LiveRuntime)
    max_worker_restarts: int = 2        # per-worker supervised restart budget
    restart_backoff_s: float = 0.1      # exponential restart backoff base

    def __post_init__(self) -> None:
        _require(self.workers >= 1, "workers must be >= 1")
        _require(self.time_scale > 0, "time_scale must be positive")
        _require(self.transport in ("unix", "tcp"), "unknown live transport")
        _require(self.chunk_bytes >= 1024, "chunk_bytes must be >= 1024")
        _require(self.round_timeout_s > 0, "round_timeout_s must be positive")
        _require(self.worker_heartbeat_s >= 0, "worker_heartbeat_s must be >= 0")
        _require(self.worker_stale_s >= 0, "worker_stale_s must be >= 0")
        _require(self.max_worker_restarts >= 0, "max_worker_restarts must be >= 0")
        _require(self.restart_backoff_s >= 0, "restart_backoff_s must be >= 0")


@dataclass(frozen=True)
class AttackConfig:
    """Adversarial client injection (see :mod:`repro.fl.adversary`).

    ``kind = "none"`` (default) disables the adversary entirely — no RNG
    stream is touched and the run is bit-identical to an attack-free
    build.  The roster (``⌈fraction · M⌉`` compromised clients) is fixed
    per experiment and attacks every epoch, with the magnitude
    :data:`repro.fl.adversary.ATTACK_SCALE`.  With ``kind = "none"``
    ``fraction`` must keep its default, so a knob set without an attack is
    an error rather than a silent no-op; a fraction set to its own default
    cannot be told from an unset one and is accepted.
    """

    kind: str = "none"                  # member of repro.fl.adversary.ATTACKS
    fraction: float = 0.2               # compromised share of the fleet

    def __post_init__(self) -> None:
        # Lazy import keeps config importable without the fl package cycle.
        from repro.fl.adversary import ATTACKS

        _require(self.kind in ATTACKS, f"unknown attack (known: {ATTACKS})")
        if self.kind != "none":
            _require(0.0 < self.fraction < 1.0, "attack fraction in (0,1)")
        else:
            _require(
                self.fraction == AttackConfig.fraction,
                "attack fraction only applies with an attack kind",
            )


@dataclass(frozen=True)
class DefenseConfig:
    """Update-validation gate + robust aggregation (:mod:`repro.fl.defense`).

    ``aggregator = "none"`` (default) keeps the paper's plain pipeline:
    the finite-value gate still fast-fails on corrupt updates, but values
    and aggregation order are untouched (bit-identical, bench-gated).
    The round runner takes this section as is.  Each aggregator runs with
    its fixed setting: ``trimmed-mean`` drops 20% per side, ``norm-clip``
    clips to the survivors' median norm and ``krum`` assumes ``⌈n/5⌉``
    Byzantine clients.
    """

    aggregator: str = "none"            # member of repro.fl.defense.AGGREGATORS

    def __post_init__(self) -> None:
        from repro.fl.defense import AGGREGATORS

        _require(
            self.aggregator in AGGREGATORS,
            f"unknown defense aggregator (known: {AGGREGATORS})",
        )


@dataclass(frozen=True)
class FedLConfig:
    """FedL controller hyper-parameters (Sec. 4.3 / Corollary 1)."""

    beta: Optional[float] = None        # primal step size; None → step_scale·T_C^{-1/3}
    delta: Optional[float] = None       # dual step size;  None → step_scale·T_C^{-1/3}
    step_scale: float = 3.0             # the O(·) constant in Corollary 1's rule
    rho_max: float = 8.0                # cap on ρ_t = 1/(1-η_t)
    solver: str = "projected_gradient"  # "projected_gradient" | "interior_point"
    solver_max_iters: int = 200
    solver_tol: float = 1e-7
    rounding: str = "rdcs"              # "rdcs" | "independent"
    objective: str = "sum"              # "sum" (paper eq. 4) | "softmax" (ablation)
    solver_warm_start: bool = True      # carry Φ̃/step-size/iteration state
                                        # across epochs in descent_step

    def __post_init__(self) -> None:
        if self.beta is not None:
            _require(self.beta > 0, "beta must be positive")
        if self.delta is not None:
            _require(self.delta > 0, "delta must be positive")
        _require(self.step_scale > 0, "step_scale must be positive")
        _require(self.rho_max >= 1, "rho_max must be >= 1 (ρ = 1/(1-η) >= 1)")
        _require(
            self.solver in ("projected_gradient", "interior_point"),
            "unknown solver",
        )
        _require(self.rounding in ("rdcs", "independent"), "unknown rounding")
        _require(self.objective in ("sum", "softmax"), "unknown objective")


@dataclass(frozen=True)
class ShardConfig:
    """Sharded-selection architecture for large client populations.

    ``num_shards = 1`` (default) is the flat path: selection runs as a
    single global FedL subproblem and every output is bit-identical to
    pre-shard builds.  With ``num_shards = S > 1`` the fleet is
    partitioned into S shards (deterministic under the experiment seed),
    the per-epoch budget is split across shards in proportion to their
    belief-cost mass, and the O(K²) selection subproblem runs per shard —
    O(S·(K/S)²) total.

    ``eval_sample`` bounds the per-epoch full-population loss sweep (and
    the matching data installation) to a random subsample of the
    available clients; ``None`` keeps the exact legacy sweep.  Only
    meaningful at large K where the sweep itself dominates.
    """

    num_shards: int = 1
    assignment: str = "contiguous"      # "contiguous" | "kmeans" (positions)
    eval_sample: Optional[int] = None   # None = exact full-population sweep

    def __post_init__(self) -> None:
        _require(self.num_shards >= 1, "num_shards must be >= 1")
        _require(
            self.assignment in ("contiguous", "kmeans"), "unknown shard assignment"
        )
        if self.eval_sample is not None:
            _require(self.eval_sample >= 1, "eval_sample must be >= 1")


@dataclass(frozen=True)
class CheckpointConfig:
    """Round-granular checkpointing (:mod:`repro.checkpoint`).

    ``directory = None`` (default) disables checkpointing entirely — no
    state capture, no extra I/O, trajectories untouched.  With a
    directory set, the runner snapshots the *full* experiment state
    (model, learner duals, RNG streams, reliability EWMAs, budget,
    partial trace) every ``interval`` completed epochs, atomically, and
    ``repro run --resume <dir>`` restarts the run
    bit-identically from the newest snapshot.  Checkpointing never
    perturbs the trajectory, so the sweep cache fingerprint excludes
    this section.
    """

    directory: Optional[str] = None     # None = checkpointing disabled
    interval: int = 10                  # epochs between snapshots
    keep: int = 2                       # retained snapshots (older pruned)

    def __post_init__(self) -> None:
        _require(self.interval >= 1, "checkpoint interval must be >= 1")
        _require(self.keep >= 1, "checkpoint keep must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    """Top-level experiment description."""

    seed: int = 0
    budget: float = 400.0               # C
    min_participants: int = 5           # n
    max_epochs: int = 500               # safety cap on the budget-driven loop
    network: NetworkConfig = field(default_factory=NetworkConfig)
    population: PopulationConfig = field(default_factory=PopulationConfig)
    data: DataConfig = field(default_factory=DataConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    live: LiveConfig = field(default_factory=LiveConfig)
    attack: AttackConfig = field(default_factory=AttackConfig)
    defense: DefenseConfig = field(default_factory=DefenseConfig)
    fedl: FedLConfig = field(default_factory=FedLConfig)
    shard: ShardConfig = field(default_factory=ShardConfig)
    checkpoint: CheckpointConfig = field(default_factory=CheckpointConfig)

    def __post_init__(self) -> None:
        _require(self.budget > 0, "budget must be positive")
        _require(self.min_participants >= 1, "min_participants >= 1")
        _require(
            self.min_participants <= self.population.num_clients,
            "min_participants cannot exceed the number of clients",
        )
        _require(self.max_epochs >= 1, "max_epochs >= 1")
        _require(
            self.shard.num_shards <= self.population.num_clients,
            "num_shards cannot exceed the number of clients",
        )

    def replace(self, **kwargs) -> "ExperimentConfig":
        """Convenience alias for :func:`dataclasses.replace`."""
        return dataclasses.replace(self, **kwargs)

    def override(self, changes: Mapping[str, Any]) -> "ExperimentConfig":
        """This config with ``changes`` applied, validation re-run.

        Keys are dotted field paths (``"sim.faults"``, ``"budget"``); a
        section name may also map to a dict of its fields, so
        ``override(dataclasses.asdict(cfg)) == cfg``.  All of a section's
        changes land in one constructor call — ``SimConfig`` validates
        aggregation and quorum together.  JSON lists become tuples on
        tuple fields and ints become floats on float fields.  An unknown
        path raises :class:`ConfigPathError`; a value of the wrong type
        or one the section's validation rejects raises ``ValueError``.
        """
        return _override(self, changes, "")


class ConfigPathError(ValueError):
    """Raised when an override names no field of :class:`ExperimentConfig`."""

    def __init__(self, path: str, known: Iterable[str]) -> None:
        self.path = path
        super().__init__(
            f"unknown config path {path!r} (known here: {', '.join(known)})"
        )


@functools.lru_cache(maxsize=None)
def _field_types(cls) -> Dict[str, Any]:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _leaf(path: str, kind, value):
    """``value`` checked against the field annotation ``kind``; a tuple's
    elements are checked one by one, and a fixed-length tuple's arity."""
    if typing.get_origin(kind) is Union:  # Optional[X]
        if value is None:
            return None
        kind = typing.get_args(kind)[0]
    if typing.get_origin(kind) is tuple:
        if isinstance(value, (list, tuple)):
            args = typing.get_args(kind)
            if args[-1] is Ellipsis:
                args = args[:1] * len(value)
            elif len(args) != len(value):
                raise ValueError(
                    f"config path {path!r}: expected {len(args)} values, "
                    f"got {value!r}"
                )
            return tuple(
                _leaf(f"{path}[{i}]", k, v)
                for i, (k, v) in enumerate(zip(args, value))
            )
    elif kind is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    elif isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    raise ValueError(
        f"config path {path!r}: expected {getattr(kind, '__name__', kind)}, "
        f"got {value!r}"
    )


def _override(base, changes: Mapping[str, Any], prefix: str):
    types = _field_types(type(base))
    leaves: Dict[str, Any] = {}
    sections: Dict[str, Dict[str, Any]] = {}
    for key, value in changes.items():
        name, dot, rest = key.partition(".")
        kind = types.get(name)
        is_section = kind is not None and dataclasses.is_dataclass(kind)
        if kind is None or (dot and not is_section):
            raise ConfigPathError(prefix + key, types)
        if not is_section:
            leaves[name] = _leaf(prefix + key, kind, value)
        elif dot:
            sections.setdefault(name, {})[rest] = value
        elif isinstance(value, Mapping):
            sections.setdefault(name, {}).update(value)
        else:
            raise ValueError(
                f"config path {prefix + key!r} is a section: give a dict of "
                "its fields or dotted paths"
            )
    for name, sub in sections.items():
        leaves[name] = _override(getattr(base, name), sub, f"{prefix}{name}.")
    return dataclasses.replace(base, **leaves) if leaves else base
