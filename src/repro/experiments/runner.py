"""The online federated-learning experiment loop (paper Alg. 1 end-to-end).

``Simulation`` wires every substrate together from an
:class:`repro.config.ExperimentConfig`; ``run_experiment`` drives one
policy through the budget-constrained FL process:

per epoch t (while budget lasts):
  1. draw the environment: availability E_t, prices c_{t,k}, data volumes
     D_{t,k}, channel gains;
  2. hand the policy its 0-lookahead context (last epoch's realized
     latencies/losses) and get back (participants, l_t);
  3. charge the budget; stop if the epoch cannot be paid;
  4. draw this epoch's local data on the clients the round reads, run l_t
     federated iterations (DANE local solves + aggregation), and release
     the data when the round returns;
  5. realize the epoch latency — bandwidth is shared FDMA-equally among
     the actual uploaders, so τ_cm depends on the selection size;
  6. record metrics, feed the realized observables back to the policy.

Latency is *simulated* wall-clock computed from the paper's model; the
experiment itself runs as fast as NumPy allows.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import signal
import sys
import threading
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.strategies.base import Decision, EpochContext, RoundFeedback, SelectionPolicy
from repro.config import ExperimentConfig
from repro.datasets import (
    Dataset,
    build_client_streams,
    dirichlet_class_distributions,
    iid_class_distributions,
    non_iid_class_distributions,
    synthetic_cifar10,
    synthetic_fmnist,
)
from repro.env import (
    AvailabilityProcess,
    DataVolumeProcess,
    MarkovAvailabilityProcess,
    PriceProcess,
    build_population,
)
from repro.experiments.metrics import EpochRecord, Trace
from repro.fl import FLClient, FLServer, LocalSolveSpec, run_federated_round
from repro.fl.client import EpochClients
from repro.fl.adversary import Adversary
from repro.fl.compression import CompressionSpec
from repro.live.runtime import LiveRoundSpec, LiveRuntime
from repro.net import ChannelModel, achievable_rate, compute_latency, transmission_latency
from repro.nn import build_model
from repro.obs import get_telemetry
from repro.rng import RngFactory, RowSource
from repro.sim.entities import SimRoundSpec
from repro.sim.faults import fault_profile

__all__ = ["Simulation", "ExperimentResult", "run_experiment"]

#: EWMA weight of the newest "clean round" observation in the per-client
#: reliability score fed back into selection when a defense is active.
RELIABILITY_EMA = 0.5


@dataclass
class ExperimentResult:
    """Everything a figure/table needs from one run.

    ``policy`` is an optional JSON-ready description of how the policy
    was built (the sweep engine's :class:`~repro.experiments.sweep.
    PolicySpec` as a dict) so persisted results stay self-describing even
    for parameterized strategies; plain ``run_experiment`` calls leave it
    ``None``.
    """

    trace: Trace
    config: ExperimentConfig
    stop_reason: str
    final_w: np.ndarray
    policy: Optional[dict] = None


class Simulation:
    """All substrates instantiated for one experiment configuration."""

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config
        self.rng = RngFactory(config.seed)
        # --- environment ---------------------------------------------------
        self.population = build_population(
            config.population, self.rng.get("env.population"),
            cell_radius_m=config.network.cell_radius_m,
        )
        self.channel = ChannelModel(
            self.population.distances_m(), config.network, self.rng.get("net.channel")
        )
        if config.population.availability_model == "markov":
            self.availability = MarkovAvailabilityProcess(
                config.population.num_clients,
                config.population.availability_prob,
                self.rng.get("env.availability"),
                mean_on_epochs=config.population.availability_sojourn,
                min_available=config.min_participants,
            )
        else:
            self.availability = AvailabilityProcess(
                config.population.num_clients,
                config.population.availability_prob,
                self.rng.get("env.availability"),
                min_available=config.min_participants,
            )
        self.prices = PriceProcess(
            self.population.base_cost,
            self.rng.get("env.prices"),
            volatility=config.population.cost_volatility,
            clip_range=config.population.cost_range,
        )
        self.volumes = DataVolumeProcess(
            config.population.num_clients,
            config.data.samples_per_client,
            self.rng.get("env.volumes"),
        )
        # --- data ------------------------------------------------------------
        data_rng = self.rng.get("data.generator")
        downscale = config.data.downscale  # 1 = paper-scale images
        if config.data.dataset == "fmnist":
            self.generator = synthetic_fmnist(
                data_rng, noise=config.data.feature_noise, downscale=downscale
            )
            image_shape = (28 // downscale, 28 // downscale, 1)
        else:
            self.generator = synthetic_cifar10(
                data_rng, noise=config.data.feature_noise, downscale=downscale
            )
            image_shape = (32 // downscale, 32 // downscale, 3)
        m = config.population.num_clients
        if config.data.iid:
            dists = iid_class_distributions(m, config.data.num_classes)
        elif config.data.partition == "dirichlet":
            dists = dirichlet_class_distributions(
                m,
                config.data.num_classes,
                self.rng.get("data.partition"),
                alpha=config.data.dirichlet_alpha,
            )
        else:
            dists = non_iid_class_distributions(
                m,
                config.data.num_classes,
                self.rng.get("data.partition"),
                principal_frac=config.data.non_iid_principal_frac,
            )
        self.streams = build_client_streams(self.generator, dists, self.rng)
        self.test_set = self.generator.test_set(
            config.data.test_samples, rng=self.rng.get("data.test")
        )
        # --- model & FL actors -----------------------------------------------
        self.model = build_model(
            config.training.model,
            self.generator.num_features,
            config.data.num_classes,
            self.rng.get("model.init"),
            hidden=config.training.hidden_units,
            image_shape=image_shape,
            l2_reg=config.training.l2_reg,
            cnn_scale=0.5,
        )
        # Between epochs a client is a row: its FLClient lives for the epoch
        # that reads clients[k], and its stream is a row of a state table.
        spec = LocalSolveSpec.from_config(config.training)
        model, rows = self.model, self.rng.rows("fl.client", m)
        self.clients = EpochClients(
            m, lambda k: FLClient(k, model, RowSource(rows, k), spec)
        )
        self.server = FLServer(self.model, self.model.get_params(), self.test_set)
        tc = config.training
        self.compression = (
            CompressionSpec(
                scheme=tc.compression,
                topk_fraction=tc.topk_fraction,
                quantize_bits=tc.quantize_bits,
                cmfl_threshold=tc.cmfl_threshold,
            )
            if tc.compression != "none"
            else None
        )
        # --- robustness ------------------------------------------------------
        # None for attack "none": the adversary draws only from its own RNG
        # streams, so attack-free runs stay bit-identical.
        self.adversary = Adversary.from_config(config.attack, m, self.rng)

    # ------------------------------------------------------------------------

    def realized_tau(
        self,
        data_counts: np.ndarray,
        channel_state,
        num_sharing: int,
        upload_ratio: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-iteration latency τ_loc + τ_cm for every client (see
        :meth:`realized_tau_components` for the split)."""
        tau_loc, tau_cm = self.realized_tau_components(
            data_counts, channel_state, num_sharing, upload_ratio=upload_ratio
        )
        return tau_loc + tau_cm

    def realized_tau_components(
        self,
        data_counts: np.ndarray,
        channel_state,
        num_sharing: int,
        upload_ratio: Optional[np.ndarray] = None,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Per-iteration ``(τ_loc, τ_cm)`` for every client, each priced at
        an equal ``B / num_sharing`` FDMA share of the band (paper Sec. 3.2)."""
        bits = data_counts * self.population.bits_per_sample
        tau_loc = compute_latency(
            self.population.cycles_per_bit, bits, self.population.cpu_freq_hz
        )
        net = self.config.network
        band = net.bandwidth_hz / max(1, num_sharing)
        rates = np.asarray(
            achievable_rate(band, channel_state.snr_per_hz()), dtype=float
        )
        tau_cm = np.asarray(transmission_latency(net.upload_bits, rates), dtype=float)
        if upload_ratio is not None:
            # Compressed uploads shrink the payload proportionally.
            tau_cm = tau_cm * np.asarray(upload_ratio, dtype=float)
        return np.asarray(tau_loc, dtype=float), tau_cm

    @property
    def bits_per_sample(self) -> float:
        return self.population.bits_per_sample


#: What a freed block must exceed for the C heap to keep a round's working
#: set between rounds (:func:`_keep_round_heap`).
_ROUND_HEAP_BYTES = 8 << 20


def _keep_round_heap() -> None:
    """Let the C allocator keep what a round frees for the next round
    instead of handing it back to the OS.

    glibc trims the top of its heap once more than its trim threshold is
    free there.  That threshold is twice the mmap threshold, which starts
    at 128 kB and rises to the size of any larger mmapped block that is
    freed (mallopt(3), dynamic mmap threshold).  A round allocates and
    frees a few MB — the batched solves' state, the sweep's bucket
    buffer, the contributors' data — so from the 128 kB start every round
    gave that memory back and faulted it in again.  Freeing one 8 MB block
    raises the thresholds to 8 and 16 MB, as a larger array freed by the
    run would.  Under another allocator it is one allocation and one free.
    """
    np.empty(_ROUND_HEAP_BYTES // 8)  # allocated and freed at once


def _epoch_data(
    sim: Simulation,
    adversary: Optional[Adversary],
    k: int,
    n: int,
    num_classes: int,
    out: Optional[np.ndarray] = None,
) -> Dataset:
    """Client ``k``'s D_{t,k}: ``n`` samples from its stream, features into
    ``out`` when given.  A label-flipping adversary poisons it here; every
    other attack corrupts the upload inside the round instead."""
    data = sim.streams[k].draw(n, out=out)
    if adversary is not None:
        data = adversary.poison_data(k, data, num_classes)
    return data


def _install_epoch_data(
    sim: Simulation,
    adversary: Optional[Adversary],
    ids: np.ndarray,
    counts: np.ndarray,
    num_classes: int,
    eval_only: np.ndarray,
) -> None:
    """Install this epoch's local data (released by the caller when the
    round returns): the contributors ``ids`` draw theirs now; each
    evaluation-only client in ``eval_only`` is handed the draw the loss
    sweep makes.  Every one of these clients' streams is created here, in
    ascending id order over both sets, as when all of them drew here:
    ``rng.json`` lists streams in creation order.

    The contributors with one sample count ``n`` draw into one ``(m, n,
    D)`` features / ``(m, n)`` labels pair, ascending id, and each holds
    its row views: the batched engine evaluates that pair as one bucket
    (:mod:`repro.fl.batched`) instead of stacking a copy.  Every stream is
    the client's own, so the draw order changes no byte."""
    drawn = set(ids.tolist())
    dim = sim.streams.generator.num_features
    for k in np.sort(np.concatenate((ids, eval_only))).tolist():
        sim.streams.rows.create(k)
        if k not in drawn:
            n = int(counts[k])
            sim.clients[k].defer_data(
                n,
                dim,
                functools.partial(_epoch_data, sim, adversary, k, n, num_classes),
            )
    for n in sorted(set(counts[ids].tolist())):
        members = ids[counts[ids] == n].tolist()
        x = np.empty((len(members), n, dim))
        y = np.empty((len(members), n), dtype=np.int64)
        for row, k in enumerate(members):
            y[row] = _epoch_data(sim, adversary, k, n, num_classes, out=x[row]).y
            sim.clients[k].set_data(Dataset(x=x[row], y=y[row]))


def run_experiment(
    policy: SelectionPolicy,
    config: ExperimentConfig,
    simulation: Optional[Simulation] = None,
    target_accuracy: Optional[float] = None,
    heartbeat_s: Optional[float] = None,
    resume=None,
) -> ExperimentResult:
    """Drive ``policy`` through the budget-constrained FL process.

    ``heartbeat_s`` (the ``repro run`` progress heartbeat)
    prints an epoch-throughput line to stderr at most every that many
    seconds; ``None`` (the default, and under ``--quiet``) stays silent.

    With ``training.engine = "live"`` the epoch loop runs on a forked
    worker fleet (:mod:`repro.live`): the fleet is forked once up front —
    before any client RNG stream is consumed, so worker-side streams stay
    continuous with the loop engine's — reused across every epoch, and
    torn down on exit even when the run raises.

    With ``config.checkpoint.directory`` set, the loop snapshots the
    full experiment state every ``config.checkpoint.interval`` completed
    epochs (see :mod:`repro.checkpoint`), and a SIGTERM/SIGINT flushes a
    final snapshot before raising
    :class:`~repro.checkpoint.errors.ExperimentInterrupted`.

    ``resume`` (a :class:`repro.checkpoint.ResumeState`, normally via
    :func:`repro.checkpoint.snapshot.resume_experiment`) restarts the
    loop mid-run; callers must pass a ``simulation`` whose RNG streams
    and carried state were restored from the same snapshot, and the
    resumed run is then bit-identical to an uninterrupted one.
    """
    sim = simulation if simulation is not None else Simulation(config)
    live_runtime = None
    if config.training.engine == "live":
        live_runtime = LiveRuntime(
            sim.clients,
            num_workers=config.live.workers,
            transport=config.live.transport,
            chunk_bytes=config.live.chunk_bytes,
            round_timeout_s=config.live.round_timeout_s,
            worker_heartbeat_s=config.live.worker_heartbeat_s,
            worker_stale_s=config.live.worker_stale_s,
            max_worker_restarts=config.live.max_worker_restarts,
            restart_backoff_s=config.live.restart_backoff_s,
        )
    try:
        with _deferred_signals(config.checkpoint.directory is not None) as interrupted:
            return _run_experiment_loop(
                policy, config, sim, target_accuracy, heartbeat_s, live_runtime,
                resume, interrupted,
            )
    finally:
        if live_runtime is not None:
            live_runtime.close()


@contextlib.contextmanager
def _deferred_signals(enabled: bool):
    """Collect SIGTERM/SIGINT names in the yielded list instead of dying, so
    a checkpointing run can flush a final snapshot at the next epoch
    boundary; the previous handlers come back on exit.  Handlers can only
    be installed from the main thread; elsewhere (and when not ``enabled``)
    the list just stays empty."""
    caught: list = []
    prev_handlers = {}
    if enabled and threading.current_thread() is threading.main_thread():
        for sig in (signal.SIGTERM, signal.SIGINT):
            prev_handlers[sig] = signal.signal(
                sig, lambda signum, frame: caught.append(signal.Signals(signum).name)
            )
    try:
        yield caught
    finally:
        for sig, handler in prev_handlers.items():
            signal.signal(sig, handler)


def _run_experiment_loop(
    policy: SelectionPolicy,
    config: ExperimentConfig,
    sim: Simulation,
    target_accuracy: Optional[float],
    heartbeat_s: Optional[float],
    live_runtime,
    resume,
    interrupted: list,
) -> ExperimentResult:
    m = config.population.num_clients
    if resume is not None:
        trace = resume.trace
    else:
        trace = Trace(policy_name=getattr(policy, "name", type(policy).__name__))
    tel = get_telemetry()
    if tel.enabled:
        tel.emit(
            "run.start",
            data={
                "policy": trace.policy_name,
                "budget": config.budget,
                "max_epochs": config.max_epochs,
                "num_clients": m,
                "seed": config.seed,
            },
        )
    remaining = config.budget
    cumulative_time = 0.0
    # Flat preallocated per-client state (tau_last / local_losses /
    # reliability / costs / spend), updated in place every epoch — no
    # per-client Python objects or reallocation on the hot path.
    state = sim.population.state_arrays()
    if resume is None:
        # Prior latency estimate before anything is observed: mean data
        # volume, mean channel, band shared n ways.
        mean_counts = np.full(m, config.data.samples_per_client, dtype=float)
        np.copyto(
            state.tau_last,
            sim.realized_tau(
                mean_counts, sim.channel.mean_state(), config.min_participants
            ),
        )
    else:
        remaining = resume.remaining
        cumulative_time = resume.cumulative_time
        for name, values in resume.arrays.items():
            np.copyto(getattr(state, name), values)
    counts_buf = np.empty(m, dtype=np.int64)
    stop_reason = "max_epochs"
    final_w = (
        resume.final_w.copy() if resume is not None else sim.server.w.copy()
    )
    epochs_done = resume.epochs_done if resume is not None else 0
    done_at_start = epochs_done
    start_epoch = resume.next_epoch if resume is not None else 0
    run_t0 = time.monotonic()
    last_beat = run_t0

    # Checkpointing is enabled only when a directory is configured; the
    # disabled path does no work per epoch beyond one None check.
    ckpt = config.checkpoint
    ckpt_dir = None
    if ckpt.directory is not None:
        from repro.checkpoint import (
            ExperimentInterrupted,
            prepare_checkpoint_dir,
            write_snapshot,
        )

        ckpt_dir = prepare_checkpoint_dir(ckpt.directory)
    # Per-client reliability (EWMA of "this round produced no rejected or
    # clipped updates"); only maintained — and only surfaced to policies —
    # when a defense aggregator is active, so the default path is unchanged.
    track_reliability = config.defense.aggregator != "none"
    # Hoisted once: the adversary (or its absence) is fixed for the whole
    # run, so the benign path never re-tests it inside per-client loops.
    adversary = sim.adversary
    # Client data lives for one round.  It is installed once per epoch,
    # after selection, on exactly the clients the round reads, and
    # released when the round returns: the contributors draw theirs at
    # install, and every other client of the end-of-round loss sweep draws
    # its own inside the sweep.  Selection never reads client data and
    # every client's data stream is its own RNG, so neither the draw point
    # nor the order across clients changes a byte.  The sweep covers every
    # available client; with shard.eval_sample set (large-K observability
    # bound) it shrinks to a freshly sampled panel plus the contributors.
    eval_sample = config.shard.eval_sample
    eval_rng = sim.rng.get("env.eval") if eval_sample is not None else None
    _keep_round_heap()
    # Sharded runs aggregate hierarchically (per-shard partial sums, then
    # a global combine) using the policy's shard labels.
    shard_of = (
        policy.plan.shard_of
        if config.shard.num_shards > 1 and hasattr(policy, "plan")
        else None
    )
    # The DES and live engines play every round from a network-timeline
    # spec; its fault profile is a function of the fixed config.
    timeline_engine = config.training.engine in ("des", "live")
    if timeline_engine:
        profile = fault_profile(config.sim.faults)
        if profile.dropout_hazard > 0.0 and isinstance(
            sim.availability, MarkovAvailabilityProcess
        ):
            # Sojourn-consistent churn: reuse the Markov chain's
            # intra-round hazard instead of the preset's generic rate.
            profile = dataclasses.replace(
                profile,
                dropout_hazard=float(sim.availability.intra_round_hazard()),
            )
        # Live fault realizations are drawn with the same machinery as the
        # DES's but from a dedicated stream, so calibration compares two
        # honest samples.
        fault_stream = "sim.runtime" if live_runtime is None else "live.faults"

    # 0-lookahead by construction: this epoch's true τ reaches only a
    # policy that declares it needs the oracle (read through getattr, so a
    # wrapper that forwards attributes is asked too).
    needs_oracle = bool(getattr(policy, "needs_oracle", False))

    for t in range(start_epoch, config.max_epochs):
        if tel.enabled:
            tel.set_epoch(t)
        available = sim.availability.sample()
        costs = sim.prices.step_into(state.costs)
        counts = sim.volumes.sample_into(counts_buf)
        channel_state = sim.channel.sample()

        if tel.enabled:
            tel.emit(
                "epoch.start",
                data={
                    "num_available": int(available.sum()),
                    "remaining_budget": remaining,
                },
            )
        tau_oracle = (
            sim.realized_tau(counts, channel_state, config.min_participants)
            if needs_oracle
            else None
        )
        ctx = EpochContext(
            t=t,
            available=available,
            costs=costs,
            remaining_budget=remaining,
            min_participants=config.min_participants,
            tau_last=state.tau_last,
            local_losses=state.local_losses,
            tau_oracle=tau_oracle,
            reliability=state.reliability.copy() if track_reliability else None,
        )
        with tel.timer("strategies.select"):
            decision: Decision = policy.select(ctx)
        sel = decision.selected & available
        if int(sel.sum()) < 1:
            stop_reason = "no_selection"
            break
        cost = float(costs[sel].sum())
        if cost > remaining + 1e-9:
            stop_reason = "budget_exhausted"
            break
        if tel.enabled:
            tel.emit(
                "epoch.decision",
                data={
                    "selected": np.flatnonzero(sel),
                    "num_selected": int(sel.sum()),
                    "iterations": decision.iterations,
                    "rho": decision.rho,
                    "cost": cost,
                },
            )

        # Failure injection: rented clients may crash mid-round.  Rent is
        # still charged (the rental happened); the crashed clients' updates
        # are lost and they do not gate the epoch latency.  At least one
        # survivor is guaranteed so the round remains defined.
        survivors = sel.copy()
        if config.population.failure_prob > 0.0:
            fail_rng = sim.rng.get("env.failures")
            crashed = sel & (
                fail_rng.random(m) < config.population.failure_prob
            )
            if crashed.all() or not (sel & ~crashed).any():
                keep = fail_rng.choice(np.flatnonzero(sel))
                crashed[keep] = False
            survivors = sel & ~crashed

        # Quorum semantics (over-selection): the epoch ends once the
        # quorum fastest survivors finish; the remaining stragglers are
        # rented but their updates are discarded.
        contributors = survivors
        if decision.quorum is not None and decision.quorum < int(survivors.sum()):
            tau_rank = sim.realized_tau(counts, channel_state, int(survivors.sum()))
            surv_idx = np.flatnonzero(survivors)
            fastest = surv_idx[np.argsort(tau_rank[surv_idx], kind="stable")]
            contributors = np.zeros(m, dtype=bool)
            contributors[fastest[: decision.quorum]] = True

        # Tolerated local accuracy from the iteration decision: η = 1 − 1/ρ
        # (fractional ρ when the policy provides one, else the integer l_t).
        rho_eff = decision.rho if np.isfinite(decision.rho) else float(decision.iterations)
        target_eta = max(0.0, 1.0 - 1.0 / max(rho_eff, 1.0))

        # Timeline engines: build the round spec from the same τ components
        # the closed-form latency below uses, so that a fault-free sync
        # round reproduces epoch_latency bit-exactly (DES) or tracks it up
        # to host overhead (live).  ``source_args`` is what the engine's
        # solve source needs beyond its name.
        source_args: dict = {}
        if timeline_engine:
            tau_loc_c, tau_cm_c = sim.realized_tau_components(
                counts, channel_state, int(contributors.sum())
            )
            ids = np.flatnonzero(contributors)
            physics = dict(
                client_ids=ids,
                tau_loc=tau_loc_c[ids],
                tau_cm=tau_cm_c[ids],
                iterations=decision.iterations,
                aggregation=config.sim.aggregation,
                deadline_s=config.sim.deadline_s,
                quorum=config.sim.quorum,
                faults=profile,
                # Only guard the runtime's own drops: the pre-existing
                # failure injection may already run below the global floor.
                min_participants=min(config.min_participants, int(ids.size)),
            )
            fault_rng = sim.rng.get(fault_stream) if profile.stochastic else None
            if live_runtime is None:
                source_args = dict(
                    # The per-message timeline only feeds sim.* telemetry
                    # and gantt views — skip the allocations when nobody
                    # listens.
                    sim_spec=SimRoundSpec(**physics, record_timeline=tel.enabled),
                    sim_rng=fault_rng,
                )

        avail_idx = np.flatnonzero(available)
        eval_mask: Optional[np.ndarray] = None
        if eval_sample is None:
            swept = avail_idx
        else:
            # This epoch's evaluation panel, sampled from the available
            # clients.
            eval_mask = np.zeros(m, dtype=bool)
            n_panel = min(int(eval_sample), int(avail_idx.size))
            if n_panel > 0:
                eval_mask[
                    eval_rng.choice(avail_idx, size=n_panel, replace=False)
                ] = True
            swept = np.flatnonzero(contributors | eval_mask)
        _install_epoch_data(
            sim,
            adversary,
            np.flatnonzero(contributors),
            counts,
            config.data.num_classes,
            swept[~contributors[swept]],
        )

        if live_runtime is not None:
            # Ship this epoch's (possibly poisoned) contributor datasets
            # to the owning workers — the exact arrays the parent-side
            # clients hold, so worker solves match the loop engine's.
            live_runtime.install_data(
                {int(k): sim.clients[k].data for k in ids}
            )
            live_spec = LiveRoundSpec(**physics, time_scale=config.live.time_scale)
            source_args = dict(
                live_round=live_runtime.begin_round(live_spec, fault_rng)
            )

        with tel.timer("fl.round"):
            result = run_federated_round(
                sim.server,
                sim.clients,
                contributors,
                available,
                iterations=decision.iterations,
                target_eta=target_eta,
                compression=sim.compression,
                engine=config.training.engine,
                adversary=sim.adversary,
                defense=config.defense,
                epoch=t,
                eval_mask=eval_mask,
                shard_of=shard_of,
                **source_args,
            )
        sim.clients.release()
        final_w = result.w
        # Realized latencies: the band was shared by the actual uploaders
        # (crashed clients never finished; quorum stragglers' uploads are
        # cut off, so neither gates the epoch), with compressed payloads
        # charged their realized size.
        tau_real = sim.realized_tau(
            counts,
            channel_state,
            int(contributors.sum()),
            upload_ratio=result.upload_ratio,
        )
        if result.timeline is not None:
            # The simulated (DES) or measured (live) timeline realizes
            # the epoch latency directly (equal to the closed form below
            # when fault-free and sync; shorter with deadline/async,
            # longer with retries or host overhead).
            epoch_latency = float(result.completion_time)
        else:
            epoch_latency = decision.iterations * float(np.max(tau_real[contributors]))
        remaining -= cost
        cumulative_time += epoch_latency
        state.charge(sel, costs)

        # Refresh the 0-lookahead observables for the next epoch (in
        # place; identical to the old np.where reassignments).
        state.observe_latency(tau_real, available)
        # The round already swept every available client's loss at the
        # final model for its population loss; reuse instead of recomputing.
        new_losses = result.local_losses.copy()
        state.observe_losses(new_losses)

        num_failed = int(sel.sum()) - int(survivors.sum())
        if result.timeline is not None:
            num_failed += len(result.timeline.dropped)

        num_quarantined = 0
        if result.defense is not None:
            num_quarantined = result.defense.num_quarantined
            if track_reliability:
                # A participant's round was "clean" when none of its
                # uploads were rejected or clipped; the EWMA of that signal
                # is the reliability score the FedL policy converts into a
                # cost-side penalty (quarantined clients price themselves
                # out of the selection).
                flagged = (
                    result.defense.rejected + result.defense.clipped
                ) > 0
                clean = np.where(flagged, 0.0, 1.0)
                state.observe_reliability(contributors, clean, RELIABILITY_EMA)

        trace.append(
            EpochRecord(
                t=t,
                test_accuracy=result.test_accuracy,
                test_loss=result.test_loss,
                population_loss=result.population_loss,
                epoch_latency=epoch_latency,
                cumulative_time=cumulative_time,
                cost_spent=cost,
                remaining_budget=remaining,
                num_selected=int(sel.sum()),
                num_available=int(available.sum()),
                iterations=decision.iterations,
                rho=decision.rho,
                eta_max=result.eta_max,
                num_failed=num_failed,
                num_quarantined=num_quarantined,
            )
        )
        if tel.enabled:
            tel.emit(
                "epoch.complete",
                data={
                    "test_accuracy": result.test_accuracy,
                    "test_loss": result.test_loss,
                    "population_loss": result.population_loss,
                    "epoch_latency": epoch_latency,
                    "cumulative_time": cumulative_time,
                    "remaining_budget": remaining,
                    "num_failed": num_failed,
                    "num_quarantined": num_quarantined,
                },
            )
        feedback_mask = contributors
        if result.timeline is not None:
            # Clients the runtime dropped before any upload landed have no
            # observed η̂/τ — don't feed them back as if they participated.
            feedback_mask = contributors & ~np.isnan(result.local_etas)
        policy.update(
            RoundFeedback(
                t=t,
                selected=feedback_mask,
                tau_realized=tau_real,
                local_etas=result.local_etas,
                local_losses=new_losses,
                population_loss=result.population_loss,
                cost_spent=cost,
                epoch_latency=epoch_latency,
            )
        )
        epochs_done += 1
        if heartbeat_s is not None:
            now = time.monotonic()
            if now - last_beat >= heartbeat_s:
                rate = (epochs_done - done_at_start) / max(now - run_t0, 1e-9)
                print(
                    f"[repro] epoch {t + 1}/{config.max_epochs} | "
                    f"{rate:.2f} epochs/s | "
                    f"budget {remaining:.1f}/{config.budget:.1f} | "
                    f"acc {result.test_accuracy:.3f}",
                    file=sys.stderr,
                    flush=True,
                )
                last_beat = now
        if target_accuracy is not None and result.test_accuracy >= target_accuracy:
            stop_reason = "target_accuracy"
            break
        # Paper Alg. 1: loop while C >= 0; stop when even the cheapest
        # feasible epoch cannot be paid.  np.partition + small sort avoids
        # the full O(K log K) sort at large K; the ascending summation
        # order (and hence the value) is bit-identical to the old
        # np.sort(...)[:n].sum().
        avail_costs = costs[available]
        n_min = config.min_participants
        if avail_costs.size > n_min:
            cheapest = np.sort(
                np.partition(avail_costs, n_min - 1)[:n_min]
            ).sum()
        else:
            cheapest = np.sort(avail_costs).sum()
        if remaining < float(cheapest):
            stop_reason = "budget_exhausted"
            break
        # Snapshot at the epoch boundary, *after* every stop condition:
        # a run that stops here never resumes past its own stopping
        # point, so resume stays bit-identical to uninterrupted runs.
        if ckpt_dir is not None:
            flush = bool(interrupted)
            if flush or (t + 1) % ckpt.interval == 0:
                with tel.timer("checkpoint.write"):
                    extra = (
                        live_runtime.client_rng_states()
                        if live_runtime is not None
                        else None
                    )
                    write_snapshot(
                        ckpt_dir,
                        sim=sim,
                        policy=policy,
                        state=state,
                        trace=trace,
                        next_epoch=t + 1,
                        remaining=remaining,
                        cumulative_time=cumulative_time,
                        epochs_done=epochs_done,
                        final_w=final_w,
                        keep=ckpt.keep,
                        extra_rng_states=extra,
                    )
            if flush:
                raise ExperimentInterrupted(interrupted[0], str(ckpt_dir), t + 1)

    if tel.enabled:
        tel.set_epoch(None)
        tel.emit(
            "run.complete",
            data={
                "stop_reason": stop_reason,
                "epochs": len(trace),
                "final_accuracy": (
                    trace.final_accuracy if len(trace) else None
                ),
                "total_spend": trace.total_spend,
            },
        )
    return ExperimentResult(
        trace=trace, config=config, stop_reason=stop_reason, final_w=final_w
    )
