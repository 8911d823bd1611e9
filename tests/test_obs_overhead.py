"""Disabled telemetry costs at most 2% of each instrumented layer's runtime.

There is no uninstrumented build to diff against, so the cost is
estimated.  A disabled run pays, at each hook site, only the null hub's
primitives: the ``get_telemetry().enabled`` guard every emit site checks
before building a payload, a no-op ``emit``, and a no-op ``with
tel.timer(...)`` block.  Those are timed here, and multiplied by how often
each layer's hook sites fire, which an enabled in-memory hub counts on the
same workload.  The product, over the layer's disabled wall time, is an
upper bound on the share of that time spent inside telemetry hooks.
"""

import dataclasses
import io
import json
import time

import numpy as np
import pytest

from repro.config import AttackConfig, DefenseConfig
from repro.core.online_learner import OnlineLearner
from repro.core.regret import drifting_problem_stream
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import experiment_config, make_policy
from repro.obs import NULL_TELEMETRY, Telemetry, get_telemetry, use_telemetry

CEILING = 0.02


def null_primitive_ns(reps=50_000):
    """Nanoseconds per call of each disabled-telemetry primitive."""
    out = {}
    with use_telemetry(NULL_TELEMETRY):
        t0 = time.perf_counter()
        for _ in range(reps):
            tel = get_telemetry()
            if tel.enabled:  # pragma: no cover - never true here
                pass
        out["guard"] = (time.perf_counter() - t0) / reps * 1e9

        t0 = time.perf_counter()
        for _ in range(reps):
            with tel.timer("overhead.null"):
                pass
        out["timer"] = (time.perf_counter() - t0) / reps * 1e9

        t0 = time.perf_counter()
        for _ in range(reps):
            tel.emit("overhead.null")
        out["emit"] = (time.perf_counter() - t0) / reps * 1e9
    return out


def layer_workloads(seed=0):
    """One small workload per instrumented layer: batched, DES and
    defended FL runs of FedL, and the online learner on its own."""
    base = experiment_config(num_clients=16, budget=9000.0, max_epochs=8, seed=seed)

    def fl(cfg):
        return lambda: run_experiment(
            make_policy("FedL", cfg, np.random.default_rng(cfg.seed)), cfg
        )

    def solver():
        learner = OnlineLearner(16, beta=0.2, delta=0.2, rho_max=6.0, warm_start=True)
        for prob in drifting_problem_stream(16, 20, np.random.default_rng(seed)):
            phi = learner.descent_step(prob.inputs)
            learner.dual_ascent(prob.h(phi))

    return {
        "fl.batched": fl(base.override(
            {"training.engine": "batched", "fedl.solver_warm_start": True}
        )),
        "fl.des": fl(base.override({"training.engine": "des"})),
        "fl.defended": fl(base.replace(
            attack=AttackConfig(kind="sign-flip", fraction=0.25),
            defense=DefenseConfig(aggregator="trimmed-mean"),
        )),
        "solver": solver,
    }


def measure_layer(run):
    """The disabled wall time of ``run`` (after a warm-up) and an enabled
    in-memory hub that recorded one more run of it."""
    with use_telemetry(NULL_TELEMETRY):
        run()
        t0 = time.perf_counter()
        run()
        disabled_s = time.perf_counter() - t0
    hub = Telemetry(sink=io.StringIO())
    with use_telemetry(hub):
        run()
    return disabled_s, hub


@pytest.fixture(scope="module")
def layers():
    return {name: measure_layer(run) for name, run in layer_workloads().items()}


def event_kinds(hub):
    return {json.loads(line)["kind"] for line in hub._sink.getvalue().splitlines()}


def test_null_overhead_under_gate(layers):
    null_ns = null_primitive_ns()
    for name, (disabled_s, hub) in layers.items():
        events = hub._seq
        timer_records = sum(stat.count for stat in hub.registry.timers.values())
        assert events > 0 and timer_records > 0, name
        est_s = (
            events * (null_ns["guard"] + null_ns["emit"])
            + timer_records * null_ns["timer"]
        ) / 1e9
        assert est_s / disabled_s <= CEILING, (
            f"{name}: estimated disabled-telemetry overhead "
            f"{est_s / disabled_s:.2%} ({events} events, "
            f"{timer_records} timer records)"
        )


def test_enabled_arm_attributes_hook_sites(layers):
    batched = layers["fl.batched"][1]
    assert "epoch.complete" in event_kinds(batched)
    assert "experiment.round" in batched.registry.timers
    assert "defense.round" in event_kinds(layers["fl.defended"][1])
