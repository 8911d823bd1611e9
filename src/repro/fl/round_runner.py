"""Execution of one federated epoch (paper Alg. 1, lines 2-5).

An epoch consists of ``l_t`` global iterations; each iteration:

1. the server broadcasts ``w^{i-1}`` and the aggregated gradient ``ḡ``,
2. every *selected* client runs its DANE local solve and uploads
   ``d^i_{t,k}`` (plus its fresh local gradient),
3. the server aggregates: ``w^i = w^{i-1} + avg(d)``, ``ḡ = avg(∇F_k(w^i))``
   — ``ḡ`` only when a next iteration will read it, so an epoch of ``l_t``
   iterations makes ``l_t`` gradient sweeps (one before the first solve,
   none after the last).

On both in-process solve paths — the loop and the batched engine — each
``(w, batch)`` point is evaluated once: the ``(F_k(w^i), ∇F_k(w^i))`` pair a
sweep computes is handed to that client's next solve, which therefore
evaluates nothing at ``d = 0`` and makes ``J`` network evaluations for ``J``
inner steps when its minibatch is its whole local set, ``2J`` when it
subsamples (:mod:`repro.fl.dane`, :mod:`repro.fl.batched`).  A client the
sweep did not cover (DES contributor sets change between iterations; live
workers solve in their own process) evaluates its own starting pair.

The runner also records everything the FedL controller needs to observe
*after* acting: per-client local accuracies ``η̂^i_{t,k}``, the participant
loss ``F̃_t(w^{l_t})``, and the all-available-clients loss ``F_t(w^{l_t})``
for constraint (3d).

Who executes the local solves, and which clients' updates arrive at
iteration ``i``, is the only thing the engines differ in.
:func:`run_federated_round` reads the engine name once, to pick a *solve
source*, and from then on the iteration loop, the compress → corrupt →
screen → combine → apply chain, the observables and the telemetry run
once against this protocol:

``sweep(parts) -> grads``
    ``[∇F_k(w)]`` of ``parts`` at the server's current model.  The source
    owns the hand-off of the ``(F_k(w), ∇F_k(w))`` pairs to the next solve.
``solve(it, w, ḡ, η) -> (parts, [(d, η̂)])``
    Iteration ``it``'s contributors, in ascending client id, and their
    local-solve outputs at the broadcast point (an iterable the round
    consumes once, in order).
``losses(clients, w) -> [F_k(w)]``
    The end-of-round loss sweep.  A swept client that did not contribute
    holds no data; it draws its dataset inside the sweep
    (:meth:`repro.fl.client.FLClient.sweep_data`) — per client on the
    loop path, one bucket at a time into one buffer on the batched path.
``finish() -> timeline | None``
    The round's network timeline (``completion_time``, ``dropped``,
    per-iteration ``contributors``, ...) when the source has one.

The four sources: ``"loop"`` solves every participant sequentially in this
process (the reference); ``"batched"`` drives the same solves through
:class:`repro.fl.batched.BatchedClientEngine` in stacked numpy ops,
bit-identically (``"auto"``, the default, picks it whenever the model
supports it — dense ``Sequential`` stacks; CNNs fall back to the loop);
``"des"`` is the loop gated by the per-iteration contributor sets of a
round pre-simulated on the event-driven network runtime
(:mod:`repro.sim`) — stragglers dropped by a deadline, clients lost to
mid-round faults and uploads cancelled by an async quorum stop
contributing from that iteration on; ``"live"`` takes the *measured*
arrivals of forked worker processes (:mod:`repro.live`) that run the real
solves and ship serialized updates back over shaped sockets.  Per-client
RNG streams are isolated, so skipping one client's solve never perturbs
another's draw: a fault-free sync DES or live round is bit-identical to
``"loop"``, with the round's timeline simulated or measured off the wall
clock.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import DefenseConfig
from repro.fl.batched import BatchedClientEngine, batched_local_losses
from repro.fl.client import FLClient
from repro.fl.compression import FLOAT_BITS, compress_update
from repro.fl.defense import (
    DefenseRoundReport,
    TrainingDivergedError,
    robust_aggregate,
    screen_updates,
)
from repro.fl.shard import shard_combine
from repro.live.runtime import LiveRound, LiveRoundOutcome
from repro.fl.server import FLServer
from repro.obs import get_telemetry
from repro.sim.entities import RoundOutcome, SimRoundSpec, simulate_round

__all__ = ["RoundResult", "run_federated_round"]


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
    completion_time: Optional[float] = None     # d(E_t) of ``timeline`` (None
                                        # for the closed-form engines)
    timeline: "RoundOutcome | LiveRoundOutcome | None" = None   # the round's
                                        # simulated (DES) or measured (live)
                                        # network outcome: drops, retries,
                                        # per-iteration contributors
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


def _check_spec(spec, participants: Sequence[FLClient], iterations: int) -> None:
    """A round spec must describe exactly the round about to be trained."""
    if {int(i) for i in spec.client_ids} != {c.client_id for c in participants}:
        raise ValueError("round spec client_ids must match the selected clients")
    if spec.iterations != iterations:
        raise ValueError("round spec iterations must match iterations")


class _LoopSource:
    """Every participant solves sequentially in this process (the
    reference), each solve starting from the pair the last sweep computed.
    ``iterations`` is what a spec-carrying source checks its spec against."""

    name = "loop"

    def __init__(
        self, server: FLServer, participants: List[FLClient], iterations: int
    ) -> None:
        self.server = server
        self.participants = participants
        # The (F_k(w), ∇F_k(w)) pairs of the latest sweep, by client id.
        # Every sweep replaces the dict and each pair is popped by that
        # client's next solve, which starts at the same w, so no pair
        # outlives the point it was evaluated at.
        self.starts: Dict[int, Tuple[float, np.ndarray]] = {}

    def sweep(self, parts: Sequence[FLClient]) -> List[np.ndarray]:
        pairs = [c.local_grad(self.server.w, with_loss=True) for c in parts]
        self.starts = dict(zip((c.client_id for c in parts), pairs))
        return [g for _, g in pairs]

    def arrivals(self, it: int) -> List[FLClient]:
        return self.participants

    def solve(self, it, w, global_grad, target_eta):
        parts = self.arrivals(it)
        # Lazy: each solve runs when the round consumes it, so only one
        # raw update is alive at a time next to the processed ones.
        return parts, (
            c.train_iteration(
                w,
                global_grad,
                target_eta=target_eta,
                # None for a client the last sweep did not cover: it
                # evaluates its own starting pair.
                start=self.starts.pop(c.client_id, None),
            )[:2]
            for c in parts
        )

    def losses(self, clients: Sequence[FLClient], w: np.ndarray):
        # Per client: an evaluation-only client's draw lives for its call.
        return [c.local_loss(w) for c in clients]

    def finish(self):
        return None


class _BatchedSource(_LoopSource):
    """All participants' solves in stacked numpy ops, bit-identical to the
    loop; the engine caches each sweep for the next iteration's solve."""

    name = "batched"

    def __init__(self, server, participants, iterations) -> None:
        super().__init__(server, participants, iterations)
        if not BatchedClientEngine.supported(server.model, participants):
            raise ValueError("batched engine does not support this model")
        self.engine = BatchedClientEngine(server.model, participants)

    def sweep(self, parts):
        return self.engine.local_grads(self.server.w)

    def solve(self, it, w, global_grad, target_eta):
        solves = self.engine.train_iteration_all(
            w, global_grad, target_eta=target_eta
        )
        return self.participants, [(d, eta_hat) for d, eta_hat, _ in solves]

    def losses(self, clients, w):
        if BatchedClientEngine.supported(self.server.model, clients):
            return batched_local_losses(self.server.model, clients, w)
        return super().losses(clients, w)


def _auto_source(server, participants, iterations) -> _LoopSource:
    """Batched whenever the model supports it, else the loop."""
    if BatchedClientEngine.supported(server.model, participants):
        return _BatchedSource(server, participants, iterations)
    return _LoopSource(server, participants, iterations)


class _DesSource(_LoopSource):
    """The loop, gated by a network timeline simulated up front: a client
    dropped at iteration i stops contributing from i on, exactly like the
    loop with a shrinking mask."""

    name = "des"

    def __init__(
        self, server, participants, iterations, spec: SimRoundSpec, rng
    ) -> None:
        super().__init__(server, participants, iterations)
        _check_spec(spec, participants, iterations)
        tel = get_telemetry()
        with tel.timer("sim.round"):
            out = self.timeline = simulate_round(spec, rng=rng)
        self.contributors = [{int(i) for i in ids} for ids in out.contributors]
        if tel.enabled:
            _emit_timeline_telemetry(
                tel,
                "sim",
                spec,
                out,
                round_data={
                    "completion_time": out.completion_time,
                    "iteration_durations": list(out.iteration_durations),
                },
                client_data={"busy_s": out.client_busy_s, "last_t": out.client_last_t},
            )

    def arrivals(self, it):
        return [
            c for c in self.participants if c.client_id in self.contributors[it]
        ]

    def finish(self) -> RoundOutcome:
        return self.timeline


class _LiveSource(_LoopSource):
    """The forked worker fleet behind a started ``LiveRound`` runs the
    real solves; the arrivals — serialized updates that survived the
    shaped upload path — come back sorted by client id, so the
    aggregation order matches the loop's.  The barrier wait *is* the
    solve time."""

    name = "live"

    def __init__(
        self, server, participants, iterations, live_round: LiveRound
    ) -> None:
        super().__init__(server, participants, iterations)
        _check_spec(live_round.spec, participants, iterations)
        self.live_round = live_round
        self.by_id = {c.client_id: c for c in participants}

    def sweep(self, parts):
        # No hand-off: the solves run in the workers, which evaluate
        # their own starting pairs.
        return [c.local_grad(self.server.w) for c in parts]

    def solve(self, it, w, global_grad, target_eta):
        arrivals = self.live_round.run_iteration(
            it, w, global_grad, target_eta=target_eta
        )
        return (
            [self.by_id[cid] for cid, _, _ in arrivals],
            [(d, eta_hat) for _, d, eta_hat in arrivals],
        )

    def finish(self) -> LiveRoundOutcome:
        outcome = self.live_round.finish()
        tel = get_telemetry()
        if tel.enabled:
            # Measured wall-clock quantities (round and arrival times in
            # ``dur``, solve time beside it) land in the event's ``ts``
            # block, keeping canonical telemetry lines comparable across
            # runs; the predicted per-iteration τ is deterministic data.
            spec = self.live_round.spec
            _emit_timeline_telemetry(
                tel,
                "live",
                spec,
                outcome,
                round_data={
                    "time_scale": spec.time_scale,
                    "worker_deaths": outcome.worker_deaths,
                    "worker_restarts": outcome.worker_restarts,
                },
                round_dur=outcome.completion_time * spec.time_scale,
                client_data={
                    "predicted_tau_s": {
                        int(cid): float(spec.tau_loc[pos] + spec.tau_cm[pos])
                        for pos, cid in enumerate(spec.client_ids)
                    },
                },
                client_dur={
                    cid: float(sum(offsets)) * spec.time_scale
                    for cid, offsets in outcome.arrival_offsets.items()
                },
                client_measured={"solve_wall_s": outcome.solve_wall_s},
            )
            tel.counter("live.worker_deaths", outcome.worker_deaths)
            tel.counter("live.worker_restarts", outcome.worker_restarts)
        return outcome


def _solve_source(engine, sim_spec, sim_rng, live_round):
    """The one place the engine name is read: check the arguments its
    source needs and return ``build(server, participants, iterations)``."""
    if engine == "des":
        if sim_spec is None:
            raise ValueError("engine='des' requires a sim_spec")
        return functools.partial(_DesSource, spec=sim_spec, rng=sim_rng)
    if engine == "live":
        if live_round is None:
            raise ValueError("engine='live' requires a live_round")
        return functools.partial(_LiveSource, live_round=live_round)
    in_process = {"auto": _auto_source, "loop": _LoopSource, "batched": _BatchedSource}
    if engine not in in_process:
        raise ValueError(f"unknown engine {engine!r}")
    return in_process[engine]


def run_federated_round(
    server: FLServer,
    clients: Sequence[FLClient],
    selected_mask: np.ndarray,
    available_mask: np.ndarray,
    iterations: int,
    target_eta: float | None = None,
    compression: "CompressionSpec | None" = None,
    engine: str = "auto",
    sim_spec: "SimRoundSpec | None" = None,
    sim_rng: np.random.Generator | None = None,
    live_round: LiveRound | None = None,
    adversary: "Adversary | None" = None,
    defense: DefenseConfig | None = None,
    epoch: int = 0,
    eval_mask: np.ndarray | None = None,
    shard_of: np.ndarray | None = None,
) -> RoundResult:
    """Run ``iterations`` global iterations with the given participants.

    ``clients[k]`` is client ``k``: the masks index the list by client id.
    ``target_eta`` is forwarded to every client's local solve (the
    tolerated local accuracy η_t implied by the iteration decision).
    Every iteration applies the uniform average of the surviving
    differences (the paper's update).  ``compression`` (a
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
    compromised participants' payloads after compression — the
    attacker controls the bytes it uploads.  ``defense`` (a
    :class:`repro.config.DefenseConfig`; ``None`` or aggregator
    ``"none"`` is no defense) screens every upload before
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
    the mean aggregation to the two-level hierarchical combine (per-shard
    partial sums → global combine) — mathematically equal to the flat
    average, property-tested; only sharded runs pass it.
    """
    if defense is not None and defense.aggregator == "none":
        defense = None
    build_source = _solve_source(engine, sim_spec, sim_rng, live_round)
    sel = np.asarray(selected_mask, dtype=bool)
    avail = np.asarray(available_mask, dtype=bool)
    if sel.shape != avail.shape or sel.size != len(clients):
        raise ValueError("mask shapes must match the client list")
    if np.any(sel & ~avail):
        raise ValueError("cannot select an unavailable client")
    participants: List[FLClient] = [clients[k] for k in np.flatnonzero(sel)]
    if not participants:
        raise ValueError("at least one client must be selected")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    source = build_source(server, participants, iterations)

    tel = get_telemetry()
    defense_report = (
        DefenseRoundReport.empty(len(clients), defense.aggregator)
        if defense is not None
        else None
    )

    # Initial aggregated gradient at the incoming model.
    global_grad = FLServer.aggregate_gradients(source.sweep(participants))
    # Flat per-client accumulators (no dicts on the hot path): zeros +
    # greater-than update is exactly the old ``max(prev, eta_hat)`` with a
    # 0.0 prior, masked to NaN below for clients that never contributed.
    eta_acc = np.zeros(len(clients))
    ratio_sum = np.zeros(len(clients))
    contrib_counts = np.zeros(len(clients), dtype=int)
    compressed_bits = 0.0
    full_bits = 0.0
    prev_global_delta: np.ndarray | None = None
    for it in range(iterations):
        w_broadcast = server.w.copy()
        updates: List[np.ndarray] = []
        update_ids: List[int] = []
        with tel.timer("round.local_solve"):
            iter_parts, solves = source.solve(
                it, w_broadcast, global_grad, target_eta
            )
            for client, (d, eta_hat) in zip(iter_parts, solves):
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
                    # applies after compression, just before upload.
                    d = adversary.corrupt_update(client.client_id, d)
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
            # can never reach the average below.
            screened = screen_updates(
                updates, update_ids, defense=defense, epoch=epoch, iteration=it
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
                    # partial sums, then a global merge of the mean.
                    labels = shard_of[np.asarray(screened.client_ids)]
                    server.apply_delta(
                        shard_combine(
                            screened.updates, labels, int(shard_of.max()) + 1
                        )
                    )
                else:
                    # The server's own average — bit-identical to the
                    # undefended path when nothing was quarantined.
                    server.aggregate_updates(screened.updates)
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
                    source.sweep(iter_parts)
                )
            elif not iter_parts:
                # ḡ is aggregated only when a next iteration will read it;
                # an empty final contributor set fails as that sweep would.
                raise ValueError("no gradients to aggregate")

    timeline = source.finish()

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
    sweep_ids = np.flatnonzero(sweep)
    avail_clients = [clients[k] for k in sweep_ids]
    if not avail_clients:
        raise ValueError("no available clients to evaluate")
    avail_losses = source.losses(avail_clients, server.w)
    local_losses = np.full(len(clients), np.nan)
    local_losses[sweep_ids] = np.asarray(avail_losses, dtype=float)
    # Clients that never got an upload through (dropped by the timeline)
    # did not shape the model — the participant loss weights only actual
    # contributors, which without a timeline is every participant.
    eval_parts = [c for c in participants if contributed[c.client_id]]
    sizes = np.asarray([c.num_samples for c in eval_parts], dtype=float)
    weights = sizes / sizes.sum()
    participant_loss = float(
        weights
        @ local_losses[np.asarray([c.client_id for c in eval_parts])]
    )
    pop_weights = np.asarray([c.num_samples for c in avail_clients], dtype=float)
    pop_weights /= pop_weights.sum()
    population_loss = float(pop_weights @ np.asarray(avail_losses))
    # Mean over the iterations each client's upload landed in (all of them
    # without a timeline).
    upload_ratio = np.ones(len(clients))
    np.divide(ratio_sum, contrib_counts, out=upload_ratio, where=contributed)
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
                "engine": source.name,
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
        completion_time=None if timeline is None else timeline.completion_time,
        timeline=timeline,
        defense=defense_report,
    )


def _emit_timeline_telemetry(
    tel,
    prefix: str,
    spec: SimRoundSpec,
    outcome,
    round_data: dict,
    round_dur: Optional[float] = None,
    client_data: Optional[Dict[str, Dict[int, float]]] = None,
    client_dur: Optional[Dict[int, float]] = None,
    client_measured: Optional[Dict[str, Dict[int, float]]] = None,
) -> None:
    """Publish a round's simulated (``sim.*``) or measured (``live.*``)
    timeline through the telemetry hub: the outcome fields both share, plus
    the source's own per-round ``round_data``/``round_dur`` and per-client
    ``client_data`` / ``client_dur`` / ``client_measured`` (field ->
    by-client-id values; the last two are wall-clock, written under ``ts``)."""
    tel.counter(f"{prefix}.retries", outcome.num_retries)
    tel.counter(f"{prefix}.drops", len(outcome.dropped))
    tel.counter(f"{prefix}.deadline_hits", outcome.deadline_hits)
    tel.emit(
        f"{prefix}.round",
        data={
            "iterations": spec.iterations,
            "aggregation": spec.aggregation,
            "deadline_s": spec.deadline_s,
            "quorum": spec.quorum,
            "participants": int(len(spec.client_ids)),
            "survivors": int(len(outcome.survivors)),
            "dropped": {str(k): v for k, v in outcome.dropped.items()},
            "retries": outcome.num_retries,
            "deadline_hits": outcome.deadline_hits,
            **round_data,
        },
        dur=round_dur,
    )
    for cid in spec.client_ids:
        cid = int(cid)
        data = {
            "client": cid,
            "status": outcome.dropped.get(cid, "ok"),
            "contributions": int(
                sum(1 for ids in outcome.contributors if cid in ids)
            ),
        }
        for key, by_client in (client_data or {}).items():
            data[key] = by_client.get(cid, 0.0)
        tel.emit(
            f"{prefix}.client",
            data=data,
            dur=None if client_dur is None else client_dur.get(cid, 0.0),
            measured={
                key: by_client.get(cid, 0.0)
                for key, by_client in (client_measured or {}).items()
            },
        )
