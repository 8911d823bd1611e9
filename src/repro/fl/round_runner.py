"""Execution of one federated epoch (paper Alg. 1, lines 2-5).

An epoch consists of ``l_t`` global iterations; each iteration:

1. the server broadcasts ``w^{i-1}`` and the aggregated gradient ``ḡ``,
2. every *selected* client runs its DANE local solve and uploads
   ``d^i_{t,k}`` (plus its fresh local gradient),
3. the server aggregates: ``w^i = w^{i-1} + avg(d)``, ``ḡ = avg(∇F_k(w^i))``
   — ``ḡ`` only when a next iteration will read it, so an epoch of ``l_t``
   iterations makes ``l_t`` gradient sweeps (one before the first solve,
   none after the last).

On the loop path each ``(w, batch)`` point is evaluated once: the
``(F_k(w^i), ∇F_k(w^i))`` pair a sweep computes is handed to that client's
next solve, which therefore evaluates nothing at ``d = 0`` and makes ``J``
network evaluations for ``J`` inner steps when its minibatch is its whole
local set, ``2J`` when it subsamples (:mod:`repro.fl.dane`).  A client the
sweep did not cover (DES contributor sets change between iterations; live
workers solve in their own process) evaluates its own starting pair.

The runner also records everything the FedL controller needs to observe
*after* acting: per-client local accuracies ``η̂^i_{t,k}``, the participant
loss ``F̃_t(w^{l_t})``, and the all-available-clients loss ``F_t(w^{l_t})``
for constraint (3d).

Two execution engines produce bit-identical results: ``"loop"`` runs the
clients sequentially (the reference implementation), ``"batched"`` drives
all local solves through :class:`repro.fl.batched.BatchedClientEngine` in
stacked numpy ops.  ``"auto"`` (default) picks batched whenever the model
supports it (dense ``Sequential`` stacks; CNNs fall back to the loop).

A third engine, ``"des"``, first simulates the round on the event-driven
network runtime (:mod:`repro.sim`) and then trains with the *per-
iteration contributor sets* the simulation produced: stragglers dropped
by a deadline, clients lost to mid-round faults, or uploads cancelled by
an async quorum simply stop contributing from that iteration on.  With
faults and deadlines disabled under sync aggregation every contributor
set is the full participant list and the engine is bit-identical to
``"loop"`` (per-client RNG streams are isolated, so skipping one
client's solve never perturbs another's draw).

The fourth engine, ``"live"``, delegates every local solve to forked
worker processes (:mod:`repro.live`): each iteration broadcasts
``(w, ḡ)`` over sockets and the arrivals — real serialized updates that
survived the shaped upload path — take the place of the in-process
solves.  Aggregation, DP, compression, adversary and defense all still
run here in the server process, in ascending-client-id order, so a
fault-free sync live round is bit-identical to ``"loop"`` while the
round's *timeline* is measured off the wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fl.batched import BatchedClientEngine, batched_local_losses
from repro.fl.client import FLClient
from repro.fl.compression import FLOAT_BITS, compress_update
from repro.fl.defense import (
    DefenseRoundReport,
    DefenseSpec,
    TrainingDivergedError,
    robust_aggregate,
    screen_updates,
)
from repro.fl.hierarchy import shard_combine
from repro.fl.privacy import gaussian_mechanism
from repro.live.runtime import LiveRound, LiveRoundOutcome
from repro.fl.server import FLServer
from repro.obs import get_telemetry
from repro.sim.entities import RoundOutcome, SimRoundSpec, simulate_round

__all__ = ["RoundResult", "run_federated_round"]

ENGINES = ("auto", "loop", "batched", "des", "live")


@dataclass(frozen=True)
class RoundResult:
    """Observables of one epoch, available once the epoch has run."""

    w: np.ndarray                       # w_t^{l_t}
    iterations: int                     # l_t actually performed
    local_etas: np.ndarray              # max-over-iterations η̂_{t,k} (NaN if not selected)
    participant_loss: float             # F̃_t(w^{l_t}) (selected clients, x-weighted)
    population_loss: float              # F_t(w^{l_t}) over all available clients
    test_accuracy: float
    test_loss: float
    eta_max: float                      # max_k η̂_{t,k} over participants (paper eq. 1)
    upload_ratio: Optional[np.ndarray] = None   # (M,) mean compressed/full upload
                                        # size per participant (None → filled with
                                        # ones; 1.0 for non-participants)
    local_losses: Optional[np.ndarray] = None   # (M,) F_{t,k}(w^{l_t}) for
                                        # available clients, NaN otherwise —
                                        # the per-client sweep behind
                                        # population_loss, exposed so callers
                                        # don't recompute it
    completion_time: Optional[float] = None     # DES engine: simulated d(E_t)
                                        # (None for the closed-form engines)
    sim: Optional[RoundOutcome] = None  # DES engine: full round outcome
                                        # (drops, retries, timeline)
    live: Optional[LiveRoundOutcome] = None     # live engine: measured round
                                        # outcome (drops, retries, wall times)
    defense: Optional[DefenseRoundReport] = None   # quarantine bookkeeping
                                        # (None when no defense is active)

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        object.__setattr__(self, "local_etas", np.asarray(self.local_etas, dtype=float))
        if self.upload_ratio is None:
            object.__setattr__(
                self, "upload_ratio", np.ones_like(self.local_etas)
            )
        else:
            object.__setattr__(
                self, "upload_ratio", np.asarray(self.upload_ratio, dtype=float)
            )
        if self.local_losses is not None:
            object.__setattr__(
                self, "local_losses", np.asarray(self.local_losses, dtype=float)
            )


def run_federated_round(
    server: FLServer,
    clients: Sequence[FLClient],
    selected_mask: np.ndarray,
    available_mask: np.ndarray,
    iterations: int,
    target_eta: float | None = None,
    aggregation: str = "uniform",
    compression: "CompressionSpec | None" = None,
    dp_spec: "DPSpec | None" = None,
    dp_rng: np.random.Generator | None = None,
    dp_accountant: "PrivacyAccountant | None" = None,
    engine: str = "auto",
    sim_spec: "SimRoundSpec | None" = None,
    sim_rng: np.random.Generator | None = None,
    live_round: LiveRound | None = None,
    adversary: "Adversary | None" = None,
    defense: DefenseSpec | None = None,
    epoch: int = 0,
    eval_mask: np.ndarray | None = None,
    shard_of: np.ndarray | None = None,
) -> RoundResult:
    """Run ``iterations`` global iterations with the given participants.

    ``target_eta`` is forwarded to every client's local solve (the
    tolerated local accuracy η_t implied by the iteration decision).
    ``aggregation``: ``"uniform"`` (the paper's update) averages the
    differences equally; ``"weighted"`` weights by local data size
    (standard FedAvg).  ``compression`` (a
    :class:`repro.fl.compression.CompressionSpec`) lossy-compresses every
    upload before aggregation and reports the realized size ratios so the
    latency model can charge the smaller payloads.  ``engine`` selects the
    local-solve executor: ``"loop"`` (sequential reference), ``"batched"``
    (vectorized; raises if the model is unsupported), ``"des"`` (simulate
    the round on the event-driven runtime first — requires ``sim_spec``,
    a :class:`repro.sim.entities.SimRoundSpec` whose ``client_ids`` are
    the selected clients' ids — then train on the simulated per-iteration
    contributor sets), ``"live"`` (delegate the solves to the forked
    worker fleet behind ``live_round``, a started
    :class:`repro.live.runtime.LiveRound`, and train on the *measured*
    per-iteration arrivals), or ``"auto"``.

    ``adversary`` (a :class:`repro.fl.adversary.Adversary`) corrupts
    compromised participants' payloads after DP/compression — the
    attacker controls the bytes it uploads.  ``defense`` (a
    :class:`repro.fl.defense.DefenseSpec`) screens every upload before
    aggregation: non-finite updates are quarantined (or, with no defense,
    raise a typed :class:`~repro.fl.defense.CorruptUpdateError` naming
    the client, ``epoch`` and iteration) and the surviving updates flow
    through the configured robust aggregator.  The no-defense path leaves
    values and aggregation order bit-identical.

    ``eval_mask`` (large-K observability bound) restricts the end-of-round
    loss sweep to ``available & (eval_mask | selected)`` instead of every
    available client; ``population_loss`` then estimates F_t from that
    subsample.  ``None`` keeps the exact full sweep.  ``shard_of`` (per-
    client shard labels from a :class:`repro.fl.shard.ShardPlan`) switches
    the mean/weighted aggregation to the two-level hierarchical combine
    (per-shard partial sums → global combine) — mathematically equal to
    the flat weighted average, property-tested; only sharded runs pass it.
    """
    if aggregation not in ("uniform", "weighted"):
        raise ValueError(f"unknown aggregation {aggregation!r}")
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "des" and sim_spec is None:
        raise ValueError("engine='des' requires a sim_spec")
    if engine == "live" and live_round is None:
        raise ValueError("engine='live' requires a live_round")
    if engine == "live" and dp_spec is not None and dp_rng is None:
        # Per-client RNG streams live in the forked workers; drawing DP
        # noise from the parent-side stream would silently diverge from
        # the loop engine's draw order.
        raise ValueError("engine='live' with DP requires a dedicated dp_rng")
    if engine != "live":
        live_round = None
    sel = np.asarray(selected_mask, dtype=bool)
    avail = np.asarray(available_mask, dtype=bool)
    if sel.shape != avail.shape or sel.size != len(clients):
        raise ValueError("mask shapes must match the client list")
    if np.any(sel & ~avail):
        raise ValueError("cannot select an unavailable client")
    participants: List[FLClient] = [c for c in clients if sel[c.client_id]]
    if not participants:
        raise ValueError("at least one client must be selected")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if live_round is not None:
        spec_ids = {int(i) for i in live_round.spec.client_ids}
        if spec_ids != {c.client_id for c in participants}:
            raise ValueError(
                "live_round.spec.client_ids must match the selected clients"
            )
        if live_round.spec.iterations != iterations:
            raise ValueError("live_round.spec.iterations must match iterations")
    batched_engine: Optional[BatchedClientEngine] = None
    if engine in ("auto", "batched"):
        supported = BatchedClientEngine.supported(server.model, participants)
        if engine == "batched" and not supported:
            raise ValueError("batched engine does not support this model")
        if supported:
            batched_engine = BatchedClientEngine(server.model, participants)

    tel = get_telemetry()
    # DES engine: simulate the round's network timeline first; the
    # simulated per-iteration contributor sets then gate the training
    # loop below (a client dropped at iteration i stops contributing
    # from i on, exactly like the loop engine with a shrinking mask).
    outcome: Optional[RoundOutcome] = None
    contrib_sets: Optional[List[set]] = None
    if engine == "des":
        spec_ids = {int(i) for i in sim_spec.client_ids}
        if spec_ids != {c.client_id for c in participants}:
            raise ValueError("sim_spec.client_ids must match the selected clients")
        if sim_spec.iterations != iterations:
            raise ValueError("sim_spec.iterations must match iterations")
        with tel.timer("sim.round"):
            outcome = simulate_round(sim_spec, rng=sim_rng)
        contrib_sets = [{int(i) for i in ids} for ids in outcome.contributors]
        if tel.enabled:
            _emit_sim_telemetry(tel, sim_spec, outcome)
    num_available = int(avail.sum())
    defense_report = (
        DefenseRoundReport.empty(len(clients), defense.aggregator)
        if defense is not None
        else None
    )
    # Participant sample sizes, computed once and reused for the weighted
    # aggregation and the participant-loss weights below.
    part_sizes = [c.num_samples for c in participants]
    sample_counts = part_sizes if aggregation == "weighted" else None

    # Loop path: the (F_k(w), ∇F_k(w)) pairs of the latest gradient sweep,
    # by client id.  Each is popped by that client's next solve, which
    # starts at the same w, and every sweep empties the dict first, so no
    # pair outlives the point it was evaluated at.
    starts: Dict[int, Tuple[float, np.ndarray]] = {}

    def participant_grads(
        parts: Optional[Sequence[FLClient]] = None,
    ) -> List[np.ndarray]:
        if batched_engine is not None:
            # Also primes the engine's cache so the next iteration's solve
            # reuses these gradients instead of recomputing them.
            return batched_engine.local_grads(server.w)
        plist = participants if parts is None else parts
        pairs = [c.local_grad(server.w, with_loss=True) for c in plist]
        starts.clear()
        if live_round is None:  # live solves run in the workers
            starts.update(zip((c.client_id for c in plist), pairs))
        return [g for _, g in pairs]

    # Initial aggregated gradient at the incoming model.
    global_grad = FLServer.aggregate_gradients(participant_grads())
    # Flat per-client accumulators (no dicts on the hot path): zeros +
    # greater-than update is exactly the old ``max(prev, eta_hat)`` with a
    # 0.0 prior, masked to NaN below for clients that never contributed.
    eta_acc = np.zeros(len(clients))
    ratio_sum = np.zeros(len(clients))
    contrib_counts = np.zeros(len(clients), dtype=int)
    compressed_bits = 0.0
    full_bits = 0.0
    prev_global_delta: np.ndarray | None = None
    client_by_id = {c.client_id: c for c in participants}
    for it in range(iterations):
        if contrib_sets is None:
            iter_parts = participants
            iter_counts = sample_counts
        else:
            iter_parts = [
                c for c in participants if c.client_id in contrib_sets[it]
            ]
            iter_counts = (
                [c.num_samples for c in iter_parts]
                if aggregation == "weighted"
                else None
            )
        w_broadcast = server.w.copy()
        updates: List[np.ndarray] = []
        update_ids: List[int] = []
        with tel.timer("round.local_solve"):
            live_solves = None
            if live_round is not None:
                # The barrier wait *is* the solve time: workers run the
                # real DANE solves and ship back serialized updates;
                # arrivals come sorted by client id, so the aggregation
                # order below matches the loop engine's.
                arrivals = live_round.run_iteration(
                    it, w_broadcast, global_grad, target_eta=target_eta
                )
                iter_parts = [client_by_id[cid] for cid, _, _ in arrivals]
                iter_counts = (
                    [c.num_samples for c in iter_parts]
                    if aggregation == "weighted"
                    else None
                )
                live_solves = {cid: (d, eta) for cid, d, eta in arrivals}
            solves = (
                batched_engine.train_iteration_all(
                    w_broadcast, global_grad, target_eta=target_eta
                )
                if batched_engine is not None
                else None
            )
            for pos, client in enumerate(iter_parts):
                if live_solves is not None:
                    d, eta_hat = live_solves[client.client_id]
                elif solves is not None:
                    d, eta_hat, _ = solves[pos]
                else:
                    d, eta_hat, _ = client.train_iteration(
                        w_broadcast,
                        global_grad,
                        target_eta=target_eta,
                        start=starts.pop(client.client_id, None),
                    )
                if dp_spec is not None:
                    # DP first (clip + noise on the raw update, [29]
                    # defense), then any compression of the privatized
                    # payload.
                    gen = dp_rng if dp_rng is not None else client.rng
                    d = gaussian_mechanism(d, dp_spec, gen)
                    if dp_accountant is not None:
                        dp_accountant.spend(dp_spec)
                if compression is not None and compression.scheme != "none":
                    comp = compress_update(
                        d,
                        compression.scheme,
                        global_direction=prev_global_delta,
                        topk_fraction=compression.topk_fraction,
                        quantize_bits=compression.quantize_bits,
                        cmfl_threshold=compression.cmfl_threshold,
                    )
                    ratio_sum[client.client_id] += comp.bits / (d.size * FLOAT_BITS)
                    compressed_bits += comp.bits
                    d = comp.vector
                else:
                    ratio_sum[client.client_id] += 1.0
                    compressed_bits += d.size * FLOAT_BITS
                full_bits += d.size * FLOAT_BITS
                if adversary is not None:
                    # The attacker controls its final payload: corruption
                    # applies after DP/compression, just before upload.
                    d = adversary.corrupt_update(client.client_id, d, epoch)
                updates.append(d)
                update_ids.append(client.client_id)
                contrib_counts[client.client_id] += 1
                if eta_hat > eta_acc[client.client_id]:
                    eta_acc[client.client_id] = eta_hat
        with tel.timer("round.aggregate"):
            # Validation gate: with no defense this only *checks* (raising
            # a typed error on non-finite uploads) and passes the original
            # updates through untouched; with a defense it quarantines and
            # (under norm-clip) rescales.  Either way a NaN/Inf payload
            # can never reach the weighted average below.
            screened = screen_updates(
                updates,
                update_ids,
                defense=defense,
                epoch=epoch,
                iteration=it,
                sample_counts=iter_counts,
            )
            if defense_report is not None:
                for cid in screened.rejected_ids:
                    defense_report.rejected[cid] += 1
                for cid in screened.clipped_ids:
                    defense_report.clipped[cid] += 1
                if not screened.updates:
                    defense_report.empty_iterations += 1
            if defense is None or defense.aggregator in ("mean", "norm-clip"):
                if shard_of is not None and screened.updates:
                    # Sharded runs combine hierarchically: per-shard
                    # partial sums, then a global merge.  Weighted runs map
                    # directly onto shard_combine's weighted average; the
                    # uniform update is the same mean rescaled to the
                    # server's normalizer (sum/denom).
                    labels = shard_of[np.asarray(screened.client_ids)]
                    num_shards = int(shard_of.max()) + 1
                    if screened.sample_counts is not None:
                        w_agg = np.asarray(screened.sample_counts, dtype=float)
                        delta = shard_combine(
                            screened.updates, w_agg, labels, num_shards
                        )
                    else:
                        denom = (
                            len(screened.updates)
                            if server.normalize_by == "participants"
                            else max(1, num_available)
                        )
                        delta = shard_combine(
                            screened.updates,
                            np.ones(len(screened.updates)),
                            labels,
                            num_shards,
                        ) * (len(screened.updates) / denom)
                    server.apply_delta(delta)
                else:
                    # The server's own (weighted) average — bit-identical
                    # to the undefended path when nothing was quarantined.
                    server.aggregate_updates(
                        screened.updates,
                        num_available=num_available,
                        sample_counts=screened.sample_counts,
                    )
            elif screened.updates:
                server.apply_delta(robust_aggregate(screened.updates, defense))
            if not np.isfinite(server.w).all():
                # Honest-run fast fail: finite updates can still overflow
                # the sum (LR blow-up) — stop with a typed error instead
                # of silently training on a non-finite model.
                raise TrainingDivergedError(epoch, it)
            prev_global_delta = server.w - w_broadcast
            if it + 1 < iterations:
                global_grad = FLServer.aggregate_gradients(
                    participant_grads(iter_parts)
                )
            elif not iter_parts:
                # ḡ is aggregated only when a next iteration will read it;
                # an empty final contributor set fails as that sweep would.
                raise ValueError("no gradients to aggregate")

    live_outcome = live_round.finish() if live_round is not None else None
    if live_outcome is not None and tel.enabled:
        _emit_live_telemetry(tel, live_round.spec, live_outcome)
    dynamic = contrib_sets is not None or live_outcome is not None

    # Observables.
    contributed = contrib_counts > 0
    local_etas = np.where(contributed, eta_acc, np.nan)
    eta_max = float(eta_acc[contributed].max())
    # One loss sweep over the available clients feeds the participant loss,
    # the population loss and the per-client observables.  With eval_mask
    # set (large-K runs) the sweep shrinks to the sampled evaluation panel
    # plus everyone selected; population_loss becomes a panel estimate.
    if eval_mask is None:
        sweep = avail
    else:
        sweep = avail & (np.asarray(eval_mask, dtype=bool) | sel)
    avail_clients = [c for c in clients if sweep[c.client_id]]
    if not avail_clients:
        raise ValueError("no available clients to evaluate")
    if batched_engine is not None and BatchedClientEngine.supported(
        server.model, avail_clients
    ):
        avail_losses = batched_local_losses(server.model, avail_clients, server.w)
    else:
        avail_losses = [c.local_loss(server.w) for c in avail_clients]
    sweep_ids = np.asarray([c.client_id for c in avail_clients])
    local_losses = np.full(len(clients), np.nan)
    local_losses[sweep_ids] = np.asarray(avail_losses, dtype=float)
    # Under DES/live, clients that never got an upload through did not
    # shape the model — the participant loss weights only actual
    # contributors.
    eval_parts = participants
    if dynamic:
        eval_parts = [c for c in participants if contrib_counts[c.client_id] > 0]
    sizes = np.asarray(
        part_sizes if not dynamic
        else [c.num_samples for c in eval_parts],
        dtype=float,
    )
    weights = sizes / sizes.sum()
    participant_loss = float(
        weights
        @ local_losses[np.asarray([c.client_id for c in eval_parts])]
    )
    pop_weights = np.asarray([c.num_samples for c in avail_clients], dtype=float)
    pop_weights /= pop_weights.sum()
    population_loss = float(pop_weights @ np.asarray(avail_losses))
    upload_ratio = np.ones(len(clients))
    for c in participants:
        n = int(contrib_counts[c.client_id])
        if n:
            # n == iterations for the closed-form engines; under DES it
            # is the number of iterations this client's upload landed.
            upload_ratio[c.client_id] = ratio_sum[c.client_id] / n
    if tel.enabled:
        tel.counter("round.upload_bits_full", full_bits)
        tel.counter("round.upload_bits_sent", compressed_bits)
        if adversary is not None:
            compromised = [
                c.client_id for c in participants
                if adversary.is_adversary(c.client_id)
            ]
            tel.emit(
                "adversary.round",
                data={
                    "attack": adversary.kind,
                    "active": adversary.active(epoch),
                    "compromised_participants": compromised,
                },
            )
        if defense_report is not None:
            tel.counter(
                "defense.rejected_updates", defense_report.total_rejected
            )
            tel.counter("defense.clipped_updates", defense_report.total_clipped)
            tel.emit(
                "defense.round",
                data={
                    "aggregator": defense_report.aggregator,
                    "rejected": {
                        str(k): int(v)
                        for k, v in enumerate(defense_report.rejected)
                        if v
                    },
                    "clipped": {
                        str(k): int(v)
                        for k, v in enumerate(defense_report.clipped)
                        if v
                    },
                    "empty_iterations": defense_report.empty_iterations,
                    "quarantined_clients": defense_report.num_quarantined,
                },
            )
        tel.emit(
            "round.complete",
            data={
                "iterations": iterations,
                "participants": len(participants),
                "eta_max": eta_max,
                "upload_bits_full": full_bits,
                "upload_bits_sent": compressed_bits,
                "engine": (
                    engine
                    if engine in ("des", "live")
                    else ("batched" if batched_engine is not None else "loop")
                ),
            },
        )
    return RoundResult(
        w=server.w.copy(),
        iterations=iterations,
        local_etas=local_etas,
        participant_loss=participant_loss,
        population_loss=population_loss,
        test_accuracy=server.test_accuracy(),
        test_loss=server.test_loss(),
        eta_max=eta_max,
        upload_ratio=upload_ratio,
        local_losses=local_losses,
        completion_time=(
            outcome.completion_time
            if outcome is not None
            else (
                live_outcome.completion_time
                if live_outcome is not None
                else None
            )
        ),
        sim=outcome,
        live=live_outcome,
        defense=defense_report,
    )


def _emit_live_telemetry(tel, spec, outcome) -> None:
    """Publish the measured round through the telemetry hub (``live.*``).

    Measured wall-clock quantities ride in the ``dur`` slot so they land
    in the event's ``ts`` block, keeping canonical telemetry lines
    comparable across runs (the PR2 isolation rule).
    """
    scale = spec.time_scale
    tel.counter("live.retries", outcome.num_retries)
    tel.counter("live.drops", len(outcome.dropped))
    tel.counter("live.deadline_hits", outcome.deadline_hits)
    tel.counter("live.worker_deaths", outcome.worker_deaths)
    tel.counter("live.worker_restarts", outcome.worker_restarts)
    tel.emit(
        "live.round",
        data={
            "iterations": spec.iterations,
            "aggregation": spec.aggregation,
            "deadline_s": spec.deadline_s,
            "quorum": spec.quorum,
            "time_scale": scale,
            "participants": int(len(spec.client_ids)),
            "survivors": int(len(outcome.survivors)),
            "dropped": {str(k): v for k, v in outcome.dropped.items()},
            "retries": outcome.num_retries,
            "deadline_hits": outcome.deadline_hits,
            "worker_deaths": outcome.worker_deaths,
            "worker_restarts": outcome.worker_restarts,
        },
        dur=outcome.completion_time * scale,
    )
    for cid in spec.client_ids:
        cid = int(cid)
        offsets = outcome.arrival_offsets.get(cid, [])
        tel.emit(
            "live.client",
            data={
                "client": cid,
                "status": outcome.dropped.get(cid, "ok"),
                "contributions": int(
                    sum(1 for ids in outcome.contributors if cid in ids)
                ),
            },
            dur=float(sum(offsets)) * scale,
        )


def _emit_sim_telemetry(tel, spec: SimRoundSpec, outcome: RoundOutcome) -> None:
    """Publish the simulated round through the telemetry hub (``sim.*``)."""
    tel.counter("sim.retries", outcome.num_retries)
    tel.counter("sim.drops", len(outcome.dropped))
    tel.counter("sim.deadline_hits", outcome.deadline_hits)
    tel.emit(
        "sim.round",
        data={
            "completion_time": outcome.completion_time,
            "iterations": spec.iterations,
            "aggregation": spec.aggregation,
            "deadline_s": spec.deadline_s,
            "quorum": spec.quorum,
            "participants": int(len(spec.client_ids)),
            "survivors": int(len(outcome.survivors)),
            "dropped": {str(k): v for k, v in outcome.dropped.items()},
            "retries": outcome.num_retries,
            "deadline_hits": outcome.deadline_hits,
            "iteration_durations": list(outcome.iteration_durations),
        },
    )
    for cid in spec.client_ids:
        cid = int(cid)
        tel.emit(
            "sim.client",
            data={
                "client": cid,
                "busy_s": outcome.client_busy_s.get(cid, 0.0),
                "last_t": outcome.client_last_t.get(cid, 0.0),
                "status": outcome.dropped.get(cid, "ok"),
                "contributions": int(
                    sum(1 for ids in outcome.contributors if cid in ids)
                ),
            },
        )
