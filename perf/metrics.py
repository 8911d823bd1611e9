"""Names, units, directions and regression bounds of every benchmark metric.

Two bounds per end-to-end metric.  ``rel``/``floor`` are the issue's: B is a
regression against A when it is worse by more than ``max(rel * |A|, floor)``;
``compare.py`` and ``--selfcheck`` use them, on equal seeds, and answer
``unresolved`` when the runs cannot tell.  ``contract`` is the one relative
bound ``BENCHMARK.json`` can carry for the metric: the driver applies it to
all five workloads at once and first checks that ten runs on ten *different
seeds* spread by less than it, so the noisiest workload (``live_k16``) sets
it.  ``None`` keeps the metric out of ``BENCHMARK.json``'s ``end_to_end``
(README, "End-to-end metrics", says why); ``test_perf.py`` asserts the file
and this module agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str                     # "lower" | "higher"
    rel: float                      # allowed worsening, share of the baseline
    floor: float = 0.0              # ... or this much absolute, if larger
    on: Optional[Tuple[str, ...]] = None    # workloads that report it (None = all)
    contract: Optional[float] = None        # bound in BENCHMARK.json "end_to_end"
    what: str = ""


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25, floor=0.10, contract=0.25,
             what="process start -> first policy.select entry"),
    EndToEnd("epochs_per_s", "1/s", "higher", 0.10, contract=0.25,
             what="completed epochs / wall from first select to return"),
    EndToEnd("epoch_ms_p50", "ms", "lower", 0.10,
             what="median gap between successive select entries"),
    EndToEnd("resume_s", "s", "lower", 0.15, on=("ckpt_k10000",),
             what="resume_experiment call -> first select of the resumed leg"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10, contract=0.10,
             what="ru_maxrss of the workload process at exit"),
    EndToEnd("final_accuracy", "fraction", "higher", 0.0, floor=0.01,
             what="last test_accuracy of the trace (deterministic per seed)"),
    EndToEnd("sim_time_to_target_s", "s", "lower", 0.05, on=("train_k100",),
             what="simulated seconds until test accuracy first reaches 0.85"),
    EndToEnd("failed_share", "fraction", "lower", 0.0,
             what="failed epochs and epochs of runs that failed a check / attempted"),
)

E2E_BY_NAME = {m.name: m for m in END_TO_END}

#: (name, unit, better, span site, end-to-end metric it should move).
PER_LAYER = (
    ("strategies.select_s", "s", "lower", "policy proxy select",
     "epochs_per_s, epoch_ms_p50 on select_k10000 (~60%); <=6% on train_k100"),
    ("strategies.select_calls", "count", "lower", "policy proxy select", "-"),
    ("strategies.update_s", "s", "lower", "policy proxy update", "as select_s"),
    ("core.descent_s", "s", "lower", "OnlineLearner.descent_step", "child of select"),
    ("core.descent_calls", "count", "lower", "OnlineLearner.descent_step", "-"),
    ("core.dual_ascent_s", "s", "lower", "OnlineLearner.dual_ascent", "child of update"),
    ("core.rounding_s", "s", "lower", "repro.core.fedl.rdcs_round",
     "largest child of select on select_k10000"),
    ("core.rounding_calls", "count", "lower", "repro.core.fedl.rdcs_round", "-"),
    ("solvers.pg_s", "s", "lower", "repro.core.online_learner.projected_gradient",
     "select_k10000 only, by at most its ~5% share"),
    ("solvers.pg_calls", "count", "lower", "projected_gradient", "-"),
    ("solvers.pg_iters", "count", "lower", "projected_gradient result", "-"),
    ("fl.round_s", "s", "lower", "repro.experiments.runner.run_federated_round",
     "epochs_per_s everywhere"),
    ("fl.round_self_s", "s", "lower", "fl.round minus its child spans", "-"),
    ("fl.local_solve_s", "s", "lower",
     "BatchedClientEngine.train_iteration_all, FLClient.train_iteration",
     "epochs_per_s on train_k100 (batched) and robust_des_k100 (loop, ~70%)"),
    ("fl.local_solves", "count", "lower", "local-solve results (live: arrivals)", "-"),
    ("fl.local_grads_s", "s", "lower",
     "BatchedClientEngine.local_grads, FLClient.local_grad",
     "robust_des_k100 (~14%)"),
    ("fl.eval_sweep_s", "s", "lower",
     "round_runner.batched_local_losses, FLClient.local_loss",
     "train_k100 and select_k10000"),
    ("fl.eval_clients", "count", "lower", "clients in the loss sweeps", "-"),
    ("fl.aggregate_s", "s", "lower",
     "FLServer.aggregate_updates/apply_delta/aggregate_gradients",
     "robust_des_k100 (with compress+defense ~5%)"),
    ("fl.test_eval_s", "s", "lower", "FLServer.test_accuracy/test_loss", "train_k100"),
    ("fl.compress_s", "s", "lower", "round_runner.compress_update", "robust_des_k100"),
    ("fl.upload_bits_full", "bits", "lower", "updates entering screen_updates", "-"),
    ("fl.upload_bits_sent", "bits", "lower", "compress_update result bits", "-"),
    ("fl.defense_s", "s", "lower", "round_runner.screen_updates/robust_aggregate",
     "robust_des_k100"),
    ("nn.loss_and_grad_s", "s", "lower", "ClassifierModel.loss_and_grad/loss",
     "robust_des_k100, live_k16 (parent-side gradients)"),
    ("nn.loss_and_grad_calls", "count", "lower", "ClassifierModel.loss_and_grad/loss", "-"),
    ("datasets.draw_s", "s", "lower", "ClientDataStream.draw",
     "epochs_per_s on select_k10000 and train_k100"),
    ("datasets.draw_calls", "count", "lower", "ClientDataStream.draw", "-"),
    ("datasets.samples_drawn", "count", "lower", "ClientDataStream.draw result", "-"),
    ("env.step_s", "s", "lower", "availability/price/volume/channel sample*",
     "none predicted (<2%)"),
    ("env.observe_s", "s", "lower", "ClientStateArrays.observe_*/charge",
     "none predicted (<2%)"),
    ("net.latency_s", "s", "lower", "Simulation.realized_tau*", "none predicted (<2%)"),
    ("sim.round_s", "s", "lower", "round_runner.simulate_round",
     "none predicted (<1% of robust_des_k100)"),
    ("sim.rounds", "count", "lower", "simulate_round", "repeats exactly per seed"),
    ("sim.retries", "count", "lower", "RoundOutcome.num_retries", "repeats exactly"),
    ("sim.dropped", "count", "lower", "RoundOutcome.dropped", "repeats exactly"),
    ("live.start_s", "s", "lower", "LiveRuntime.ensure_started",
     "first epoch of live_k16 (the fork is lazy: after the first select)"),
    ("live.install_data_s", "s", "lower", "LiveRuntime.install_data", "live_k16"),
    ("live.begin_round_s", "s", "lower", "LiveRuntime.begin_round", "live_k16"),
    ("live.barrier_wait_s", "s", "lower", "LiveRound.run_iteration",
     "epochs_per_s on live_k16 (~70%)"),
    ("live.finish_s", "s", "lower", "LiveRound.finish", "live_k16"),
    ("live.frames_sent", "count", "lower", "protocol.encode_payload (parent)",
     "repeats exactly"),
    ("live.bytes_sent", "bytes", "lower", "protocol.encode_payload (parent)",
     "repeats exactly"),
    ("live.frames_recv", "count", "lower", "protocol.decode_payload (parent)",
     "repeats exactly (heartbeats left out)"),
    ("live.bytes_recv", "bytes", "lower", "protocol.decode_payload (parent)",
     "repeats exactly (heartbeats left out)"),
    ("checkpoint.write_s", "s", "lower", "repro.checkpoint.write_snapshot",
     "epochs_per_s on ckpt_k10000 (~70%); zero elsewhere"),
    ("checkpoint.writes", "count", "lower", "write_snapshot", "-"),
    ("checkpoint.write_ms_p50", "ms", "lower", "write_snapshot", "-"),
    ("checkpoint.bytes_per_snapshot", "bytes", "lower", "files of one snapshot", "-"),
    ("checkpoint.load_s", "s", "lower", "checkpoint.snapshot.load_snapshot", "resume_s"),
    ("checkpoint.rebuild_s", "s", "lower", "Simulation.__init__ during resume", "resume_s"),
    ("checkpoint.restore_s", "s", "lower", "Snapshot.restore_into", "resume_s"),
    ("checkpoint.resume_s", "s", "lower", "end-to-end resume_s (0 off ckpt_k10000)", "-"),
    ("experiments.coverage", "fraction", "higher",
     "top-level span time / (first select -> return)", "-"),
    ("experiments.unattributed_s", "s", "lower", "window minus top-level spans", "-"),
    ("experiments.epoch_ms_tail", "ms", "lower",
     "highest percentile with >=10 samples beyond it (0 = none)", "-"),
    ("experiments.epoch_ms_tail_pct", "pct", "higher", "which percentile that is", "-"),
    ("experiments.trace_overhead_frac", "fraction", "lower",
     "traced / untraced wall - 1", "-"),
    ("experiments.epoch_ms_p50", "ms", "lower",
     "end-to-end epoch_ms_p50 of the traced run", "-"),
    ("experiments.final_accuracy", "fraction", "higher",
     "end-to-end final_accuracy (seed-dependent, so unbounded here)", "-"),
    ("experiments.sim_time_to_target_s", "s", "lower",
     "end-to-end sim_time_to_target_s (0 = target not reached)", "-"),
)

PER_LAYER_UNITS = {name: unit for name, unit, *_ in PER_LAYER}
