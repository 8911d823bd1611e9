"""Determinism regression tests for the sweep engine.

The engine's contract is that execution is a pure function of the job
value: the same (policy spec, config) yields a bit-identical
``ExperimentResult`` whether run twice serially, through the engine's
serial fallback, or fanned out over a process pool — including the
stochastic failure-injection and Markov-availability environment paths.
"""

import os
from dataclasses import replace

import pytest

from repro.experiments import sweep
from repro.experiments.figures import run_policy_suite
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import experiment_config, make_policy
from repro.experiments.sweep import (
    PolicySpec,
    SweepJob,
    execute_job,
    results_identical,
    run_sweep,
)
from repro.host import usable_cpus
from repro.rng import RngFactory


def tiny_config(seed=0, variant="plain", **overrides):
    cfg = experiment_config(
        dataset="fmnist",
        iid=True,
        budget=120.0,
        seed=seed,
        num_clients=8,
        min_participants=3,
        max_epochs=3,
    )
    if variant == "failures":
        cfg = cfg.replace(population=replace(cfg.population, failure_prob=0.3))
    elif variant == "markov":
        cfg = cfg.replace(
            population=replace(cfg.population, availability_model="markov")
        )
    elif variant != "plain":
        raise ValueError(variant)
    if overrides:
        cfg = cfg.replace(**overrides)
    return cfg


VARIANTS = ("plain", "failures", "markov")


class TestSerialDeterminism:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("policy", ["FedL", "FedAvg"])
    def test_two_serial_runs_bit_identical(self, variant, policy):
        job = SweepJob(PolicySpec(policy), tiny_config(variant=variant))
        first = execute_job(job)
        second = execute_job(job)
        assert len(first.trace) > 0
        assert results_identical(first, second)

    def test_engine_matches_hand_loop(self):
        """workers=1 through the engine == the historical serial loop."""
        cfg = tiny_config()
        direct = run_experiment(
            make_policy("FedAvg", cfg, RngFactory(cfg.seed).get("policy.FedAvg")),
            cfg,
        )
        (via_engine,) = run_sweep([("FedAvg", cfg)], workers=1)
        assert results_identical(direct, via_engine)

    def test_suite_matches_pre_engine_seeding(self):
        """run_policy_suite still derives each policy RNG from
        RngFactory(seed).get(f"policy.{name}") — the pre-engine stream."""
        traces = run_policy_suite(
            "fmnist", True, budget=120.0, seed=3, num_clients=8, max_epochs=3,
            policies=("FedAvg",),
        )
        cfg = experiment_config(
            dataset="fmnist", iid=True, budget=120.0, seed=3,
            num_clients=8, max_epochs=3,
        )
        direct = run_experiment(
            make_policy("FedAvg", cfg, RngFactory(3).get("policy.FedAvg")), cfg
        )
        assert traces["FedAvg"].equals(direct.trace)


class TestParallelDeterminism:
    def test_parallel_sweep_matches_serial(self):
        """2 policies × 4 seeds: workers=4 output is bit-identical to
        workers=1, in the same job order."""
        jobs = [
            SweepJob(PolicySpec(name), tiny_config(seed=seed))
            for name in ("FedL", "FedAvg")
            for seed in range(4)
        ]
        serial = run_sweep(jobs, workers=1)
        parallel = run_sweep(jobs, workers=4)
        assert len(serial) == len(parallel) == 8
        for a, b in zip(serial, parallel):
            assert results_identical(a, b)

    @pytest.mark.parametrize("variant", ["failures", "markov"])
    def test_parallel_matches_serial_on_stochastic_env_paths(self, variant):
        jobs = [
            SweepJob(PolicySpec("FedAvg"), tiny_config(seed=seed, variant=variant))
            for seed in range(2)
        ]
        serial = run_sweep(jobs, workers=1)
        parallel = run_sweep(jobs, workers=2)
        for a, b in zip(serial, parallel):
            assert results_identical(a, b)

    def test_seeds_actually_differ(self):
        """Sanity: determinism is not degeneracy — different seeds give
        different trajectories."""
        a, b = run_sweep(
            [
                SweepJob(PolicySpec("FedAvg"), tiny_config(seed=0)),
                SweepJob(PolicySpec("FedAvg"), tiny_config(seed=1)),
            ],
            workers=1,
        )
        assert not results_identical(a, b)

    def test_duplicate_jobs_get_equal_independent_results(self):
        job = SweepJob(PolicySpec("FedAvg"), tiny_config())
        a, b = run_sweep([job, job], workers=1)
        assert results_identical(a, b)
        # Mutating one trace must not leak into the other.
        b.trace.records.pop()
        assert len(a.trace) == len(b.trace) + 1


class TestDefaultWorkerCount:
    """``workers=None`` is the CPUs the process may run on, not the machine's."""

    def test_one_cpu_affinity_takes_the_serial_path(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("one usable CPU must not start a process pool")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(sweep, "ProcessPoolExecutor", no_pool)
        jobs = [SweepJob(PolicySpec("FedAvg"), tiny_config(seed=s)) for s in (0, 1)]
        assert len(run_sweep(jobs, workers=None)) == 2

    def test_platform_without_affinity_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpus() == 1
