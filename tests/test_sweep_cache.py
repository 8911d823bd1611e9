"""Property tests for the sweep cache and its content-addressed keys.

Four invariants:

1. the key is a function of job *content*, not dict/field ordering;
2. the key changes whenever any config leaf (walked from the dataclass
   tree) or the strategy name/params change — except ``checkpoint.*``;
3. one run has one key, however it was specified (config field, override,
   CLI flag; defaults implicit or spelled out);
4. a cache hit returns a result equal to a fresh run, without re-executing
   ``run_experiment``.

The dotted-path resolver (``ExperimentConfig.override``) that every job
variation goes through is tested here too.
"""

import copy
import dataclasses
import json
import random
import typing
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.sweep as sweep_mod
from repro.cli import main
from repro.config import ConfigPathError, ExperimentConfig
from repro.experiments.persistence import config_from_dict, config_to_dict
from repro.experiments.scenarios import experiment_config
from repro.experiments.sweep import (
    CACHE_SCHEMA_VERSION,
    PolicySpec,
    SweepCache,
    SweepJob,
    canonical_hash,
    job_fingerprint,
    job_key,
    results_identical,
    run_sweep,
)
from repro.strategies import StrategyParamError


def tiny_config(seed=0, **overrides):
    cfg = experiment_config(
        dataset="fmnist",
        iid=True,
        budget=120.0,
        seed=seed,
        num_clients=8,
        min_participants=3,
        max_epochs=3,
    )
    if overrides:
        cfg = cfg.replace(**overrides)
    return cfg


def base_job() -> SweepJob:
    return SweepJob(PolicySpec("FedL"), tiny_config())


def _reorder(obj, rnd: random.Random):
    """Rebuild nested dicts with shuffled key insertion order."""
    if isinstance(obj, dict):
        keys = list(obj)
        rnd.shuffle(keys)
        return {k: _reorder(obj[k], rnd) for k in keys}
    if isinstance(obj, list):
        return [_reorder(v, rnd) for v in obj]
    return obj


class TestKeyStability:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_key_invariant_under_dict_ordering(self, shuffle_seed):
        fp = job_fingerprint(base_job())
        shuffled = _reorder(fp, random.Random(shuffle_seed))
        assert canonical_hash(shuffled) == canonical_hash(fp)

    def test_key_stable_across_equal_jobs(self):
        assert job_key(base_job()) == job_key(base_job())

    def test_tuple_jobs_hash_like_sweep_jobs(self):
        assert job_key(("FedL", tiny_config())) == job_key(base_job())


def leaf_paths(cls=ExperimentConfig, prefix=""):
    """Every leaf field of the config tree, as a dotted override path."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(hints[f.name]):
            yield from leaf_paths(hints[f.name], f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


LEAVES = tuple(leaf_paths())
CHECKPOINT_LEAVES = tuple(p for p in LEAVES if p.startswith("checkpoint."))


def read_leaf(obj, path):
    for name in path.split("."):
        obj = getattr(obj, name)
    return obj


def mutated(value):
    """A different value of the same kind (validity is not the point)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "~"
    if isinstance(value, tuple):
        return value + value[-1:]
    assert value is None, f"no mutation for {value!r}"
    return 1


def with_leaf(obj, path, value):
    """``obj`` with one leaf set, bypassing validation (the key hashes
    whatever the config holds, so an invalid value still has to move it)."""
    head, _, rest = path.partition(".")
    out = copy.copy(obj)
    inner = with_leaf(getattr(obj, head), rest, value) if rest else value
    object.__setattr__(out, head, inner)
    return out


def leaf_job(path) -> SweepJob:
    job = base_job()
    value = mutated(read_leaf(job.config, path))
    return replace(job, config=with_leaf(job.config, path, value))


def param_job(name, **params) -> SweepJob:
    return SweepJob(PolicySpec(name, params=params), tiny_config())


# The job fields outside the config tree: (base job, mutated job).
JOB_MUTATIONS = {
    "policy.name": lambda: (base_job(), replace(base_job(), policy=PolicySpec("FedAvg"))),
    "policy.iterations": lambda: (param_job("FedAvg"), param_job("FedAvg", iterations=3)),
    "policy.deadline_s": lambda: (param_job("FedCS"), param_job("FedCS", deadline_s=1.5)),
    "target_accuracy": lambda: (base_job(), replace(base_job(), target_accuracy=0.9)),
}


class TestKeySensitivity:
    """Every leaf of the config tree moves the key, walked from the
    dataclasses — a field added to ``config.py`` is covered unedited."""

    @pytest.mark.parametrize(
        "field",
        [p for p in LEAVES if p not in CHECKPOINT_LEAVES] + sorted(JOB_MUTATIONS),
    )
    def test_key_changes_with_field(self, field):
        if field in JOB_MUTATIONS:
            job, changed = JOB_MUTATIONS[field]()
        else:
            job, changed = base_job(), leaf_job(field)
        assert job_key(changed) != job_key(job)

    @pytest.mark.parametrize("field", CHECKPOINT_LEAVES)
    def test_checkpoint_fields_never_split_the_key(self, field):
        assert job_key(leaf_job(field)) == job_key(base_job())

    @given(
        seed_a=st.integers(0, 2**31 - 1),
        seed_b=st.integers(0, 2**31 - 1),
        budget_a=st.floats(1.0, 1e6, allow_nan=False, allow_infinity=False),
        budget_b=st.floats(1.0, 1e6, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_key_equality_tracks_job_equality(self, seed_a, seed_b, budget_a, budget_b):
        a = SweepJob(PolicySpec("FedAvg"), tiny_config(seed=seed_a, budget=budget_a))
        b = SweepJob(PolicySpec("FedAvg"), tiny_config(seed=seed_b, budget=budget_b))
        assert (job_key(a) == job_key(b)) == (a == b)


class TestOneRunOneKey:
    """However a run is specified, it is cached under one key."""

    def des_config(self):
        cfg = tiny_config()
        return cfg.replace(training=replace(cfg.training, engine="des"))

    def test_des_as_field_and_as_override_share_a_key(self):
        direct = self.des_config()
        overridden = tiny_config().override({"training.engine": "des"})
        assert overridden == direct
        assert job_key(("FedL", overridden)) == job_key(("FedL", direct))

    def test_des_through_the_sweep_cli_shares_the_key(self, tmp_path, capsys):
        rc = main([
            "sweep", "--dataset", "fmnist", "--budgets", "120", "--seeds", "0",
            "--clients", "8", "--participants", "3", "--epochs", "3",
            "--policies", "FedL", "--set", "training.engine=des", "--workers", "1",
            "--quiet", "--cache-dir", str(tmp_path),
        ])
        assert rc == 0
        capsys.readouterr()
        key = job_key(("FedL", self.des_config()))
        assert [p.name for p in tmp_path.glob("*.json")] == [f"{key}.json"]

    def test_default_params_spelled_out_share_a_key(self):
        implicit = SweepJob(PolicySpec("FedAvg"), tiny_config())
        explicit = SweepJob(PolicySpec("FedAvg", params={"iterations": 2}), tiny_config())
        assert job_key(implicit) == job_key(explicit)

    def test_int_and_float_budget_share_a_key(self):
        cfg = tiny_config()
        assert job_key(("FedL", cfg.override({"budget": 120}))) == job_key(("FedL", cfg))

    def test_unknown_param_fails_at_key_time(self):
        with pytest.raises(StrategyParamError):
            job_key(SweepJob(PolicySpec("FedL", params={"iterations": 3}), tiny_config()))


class TestCacheRoundTrip:
    def jobs(self):
        return [
            SweepJob(PolicySpec("FedAvg"), tiny_config()),
            SweepJob(PolicySpec("FedL"), tiny_config(seed=1)),
        ]

    def test_hit_equals_fresh_run(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        first_events, second_events = [], []
        first = run_sweep(self.jobs(), workers=1, cache=cache,
                          progress=first_events.append)
        second = run_sweep(self.jobs(), workers=1, cache=cache,
                           progress=second_events.append)
        fresh = run_sweep(self.jobs(), workers=1)
        assert [e.cached for e in first_events] == [False, False]
        assert [e.cached for e in second_events] == [True, True]
        for a, b, c in zip(first, second, fresh):
            assert results_identical(a, b)
            assert results_identical(b, c)

    def test_full_hit_never_calls_run_experiment(self, tmp_path, monkeypatch):
        cache = SweepCache(tmp_path / "cache")
        jobs = self.jobs()
        warm = run_sweep(jobs, workers=1, cache=cache)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("run_experiment executed on a full cache hit")

        monkeypatch.setattr(sweep_mod, "run_experiment", boom)
        served = run_sweep(jobs, workers=1, cache=cache)
        for a, b in zip(warm, served):
            assert results_identical(a, b)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        jobs = self.jobs()
        run_sweep(jobs, workers=1, cache=cache)
        for path in cache.root.glob("*.json"):
            path.write_text("{not json")
        events = []
        rerun = run_sweep(jobs, workers=1, cache=cache, progress=events.append)
        assert [e.cached for e in events] == [False, False]
        assert all(r is not None for r in rerun)

    def test_stale_cache_schema_is_a_miss(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        jobs = self.jobs()
        run_sweep(jobs, workers=1, cache=cache)
        import json

        for path in cache.root.glob("*.json"):
            payload = json.loads(path.read_text())
            payload["cache_schema"] = CACHE_SCHEMA_VERSION + 1
            path.write_text(json.dumps(payload))
        events = []
        run_sweep(jobs, workers=1, cache=cache, progress=events.append)
        assert [e.cached for e in events] == [False, False]

    def test_clear_and_len(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        run_sweep(self.jobs(), workers=1, cache=cache)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0


class TestConfigOverride:
    """Dotted-path overrides resolved against the dataclass tree."""

    def test_no_overrides_returns_config_unchanged(self):
        cfg = tiny_config()
        assert cfg.override({}) is cfg

    def test_override_sets_engine_and_sim(self):
        cfg = tiny_config().override({
            "training.engine": "des",
            "sim.aggregation": "deadline",
            "sim.deadline_s": 0.5,
            "sim.faults": "flaky-uplink",
        })
        assert cfg.training.engine == "des"
        assert cfg.sim.aggregation == "deadline"
        assert cfg.sim.deadline_s == 0.5
        assert cfg.sim.faults == "flaky-uplink"

    def test_override_sets_attack_and_defense(self):
        cfg = tiny_config().override({
            "attack.kind": "sign-flip", "attack.fraction": 0.3,
            "defense.aggregator": "median",
        })
        assert cfg.attack.kind == "sign-flip"
        assert cfg.attack.fraction == 0.3
        assert cfg.defense.aggregator == "median"

    def test_async_and_quorum_land_in_one_call(self):
        # SimConfig validates aggregation and quorum together, so a
        # section's changes must be applied in one constructor call.
        cfg = tiny_config().override({"sim.aggregation": "async", "sim.quorum": 2})
        assert (cfg.sim.aggregation, cfg.sim.quorum) == ("async", 2)
        nested = tiny_config().override({"sim": {"aggregation": "async", "quorum": 2}})
        assert nested == cfg

    def test_inconsistent_override_raises(self):
        with pytest.raises(ValueError, match="quorum"):
            tiny_config().override({"sim.aggregation": "async"})

    def test_invalid_attack_override_raises(self):
        with pytest.raises(ValueError, match="attack"):
            tiny_config().override({"attack.kind": "replay"})

    @pytest.mark.parametrize(
        "path", ["sim.fault", "simulation.faults", "budget.cap", "nope"]
    )
    def test_unknown_path_is_typed(self, path):
        with pytest.raises(ConfigPathError) as excinfo:
            tiny_config().override({path: 1})
        assert excinfo.value.path == path
        assert isinstance(excinfo.value, ValueError)
        assert repr(path) in str(excinfo.value)

    @pytest.mark.parametrize("path, value", [
        ("budget", "lots"),
        ("data.iid", 1),
        ("population.num_clients", 2.5),
        ("sim.quorum", True),
        ("population.cost_range", 5.0),
        ("sim", "churn"),
        ("sim.faults", "meteor-strike"),
    ])
    def test_bad_value_raises_value_error(self, path, value):
        with pytest.raises(ValueError) as excinfo:
            tiny_config().override({path: value})
        assert not isinstance(excinfo.value, ConfigPathError)

    def test_json_lists_become_tuples(self):
        cfg = tiny_config().override({
            "population.cost_range": [1, 5],
            "training.hidden_units": [32, 16],
        })
        assert cfg.population.cost_range == (1, 5)
        assert cfg.training.hidden_units == (32, 16)
        back = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
        assert back == cfg
        assert isinstance(back.training.hidden_units, tuple)

    def test_override_equals_direct_construction(self):
        base = tiny_config()
        direct = base.replace(
            budget=200.0,
            data=replace(base.data, iid=False, partition="dirichlet",
                         dirichlet_alpha=0.3),
            training=replace(base.training, engine="des"),
            sim=replace(base.sim, aggregation="async", quorum=3, faults="churn"),
            attack=replace(base.attack, kind="sign-flip", fraction=0.25),
            defense=replace(base.defense, aggregator="trimmed-mean"),
        )
        assert base.override({
            "budget": 200.0,
            "data.iid": False, "data.partition": "dirichlet",
            "data.dirichlet_alpha": 0.3,
            "training.engine": "des",
            "sim.aggregation": "async", "sim.quorum": 3, "sim.faults": "churn",
            "attack.kind": "sign-flip", "attack.fraction": 0.25,
            "defense.aggregator": "trimmed-mean",
        }) == direct

    @pytest.mark.parametrize("path", LEAVES)
    def test_every_leaf_is_reachable(self, path):
        cfg = tiny_config()
        assert cfg.override({path: read_leaf(cfg, path)}) == cfg
        value = mutated(read_leaf(cfg, path))
        try:
            changed = cfg.override({path: value})
        except ConfigPathError:
            raise  # unreachable path: a ValueError, but not a pass
        except ValueError:
            return  # reached, and the section's validation rejected it
        assert read_leaf(changed, path) == value
        assert config_from_dict(json.loads(json.dumps(config_to_dict(changed)))) == changed
