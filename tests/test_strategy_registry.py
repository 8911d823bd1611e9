"""Strategy-registry contract: typed errors, CLI exit codes, round-trips.

Three surfaces of the declarative zoo are pinned here:

* the registry itself — every member constructs from a plain name or a
  ``{"name", "params"}`` dict, bad names/params raise *typed* errors,
  and the capability flags match the contracts the property suite
  enforces;
* serialization — every registered name round-trips through
  :class:`~repro.experiments.sweep.PolicySpec` / JSON / the sweep-cache
  key, parameter overrides move the cache key, and a cached result
  carries the spec's self-description;
* the CLI — unknown names and malformed/undeclared ``--param`` flags
  exit 2 with a diagnostic, and ``repro tournament --list`` agrees with
  ``strategy_names()`` / ``scenario_names()`` exactly.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.strategies.base import SelectionPolicy
from repro.cli import main
from repro.experiments.scenarios import experiment_config, make_policy
from repro.experiments.sweep import (
    PolicySpec,
    SweepCache,
    SweepJob,
    execute_job,
    job_key,
    results_identical,
)
from repro.experiments.tournament import SCENARIOS
from repro.strategies import (
    STRATEGY_REGISTRY,
    StrategyError,
    StrategyParamError,
    UnknownStrategyError,
    build_strategy,
    get_strategy,
    register_strategy,
    strategy_names,
    wrappable_names,
)

NEW_ZOO = (
    "GradNorm", "LossProp", "Divergence",
    "GreedyUtility", "KnapsackDP", "HardDeadline", "SoftDeadline",
)
PAPER_SET = ("FedL", "FedAvg", "FedCS", "Pow-d")


def tiny_config(seed=0, **overrides):
    cfg = experiment_config(
        dataset="fmnist",
        iid=True,
        budget=100.0,
        seed=seed,
        num_clients=8,
        min_participants=3,
        max_epochs=2,
    )
    return cfg.replace(**overrides) if overrides else cfg


class TestRegistry:
    def test_zoo_membership(self):
        names = strategy_names()
        assert len(names) >= 15
        for name in PAPER_SET + NEW_ZOO:
            assert name in names

    def test_every_member_builds_from_string_and_dict(self):
        cfg = tiny_config()
        for name in strategy_names():
            by_name = build_strategy(name, cfg, np.random.default_rng(0))
            by_dict = build_strategy({"name": name}, cfg, np.random.default_rng(0))
            for policy in (by_name, by_dict):
                assert isinstance(policy, SelectionPolicy)
                assert policy.name.startswith(name.split("(")[0]) or name in (
                    "OverSelect", "HardDeadline", "SoftDeadline"
                )

    def test_make_policy_goes_through_the_registry(self):
        cfg = tiny_config()
        policy = make_policy("GradNorm", cfg, np.random.default_rng(0), params={"ema": 0.25})
        assert policy.ema == 0.25

    def test_unknown_name_is_typed(self):
        with pytest.raises(UnknownStrategyError) as excinfo:
            build_strategy("Bogus", tiny_config(), np.random.default_rng(0))
        assert excinfo.value.strategy == "Bogus"
        assert isinstance(excinfo.value, ValueError)  # legacy make_policy contract
        with pytest.raises(UnknownStrategyError):
            get_strategy("AlsoBogus")

    @pytest.mark.parametrize("name,params", [
        ("FedAvg", {"no_such_knob": 1}),       # unknown parameter
        ("FedAvg", {"iterations": 0}),         # below minimum
        ("FedAvg", {"iterations": "two"}),     # ill-typed
        ("GradNorm", {"ema": 2.0}),            # above maximum
        ("OverSelect", {"base": "Bogus"}),     # bad choice
    ])
    def test_bad_params_are_typed(self, name, params):
        with pytest.raises(StrategyParamError) as excinfo:
            build_strategy(name, tiny_config(), np.random.default_rng(0), params=params)
        assert excinfo.value.strategy
        assert excinfo.value.param in params or excinfo.value.param == "base"

    def test_dict_ref_needs_a_name(self):
        with pytest.raises(StrategyError):
            build_strategy({"params": {}}, tiny_config(), np.random.default_rng(0))

    def test_duplicate_registration_rejected(self):
        with pytest.raises(StrategyError):
            register_strategy(STRATEGY_REGISTRY["FedAvg"])

    def test_capability_flags_match_contracts(self):
        budgeted = {n for n, s in STRATEGY_REGISTRY.items() if s.budget_aware}
        assert budgeted == {"Oracle", "GreedyUtility", "KnapsackDP"}
        assert STRATEGY_REGISTRY["Oracle"].needs_oracle
        assert STRATEGY_REGISTRY["FedL"].reliability_aware
        assert STRATEGY_REGISTRY["HardDeadline"].deadline_aware
        assert STRATEGY_REGISTRY["FedCS"].deadline_aware

    def test_wrappable_is_derived_from_the_registry(self):
        wrappable = wrappable_names()
        assert "Oracle" not in wrappable  # needs the 1-lookahead oracle
        for wrapper in ("OverSelect", "HardDeadline", "SoftDeadline"):
            assert wrapper not in wrappable  # composition stays one level deep
        assert set(wrappable) | {"Oracle", "OverSelect", "HardDeadline",
                                 "SoftDeadline"} == set(strategy_names())


class TestSpecSerialization:
    def test_params_normalize_order_insensitively(self):
        a = PolicySpec("GradNorm", params={"iterations": 4, "ema": 0.25})
        b = PolicySpec("GradNorm", params=(("ema", 0.25), ("iterations", 4)))
        assert a == b
        assert a.params_dict == {"ema": 0.25, "iterations": 4}

    def test_non_scalar_params_rejected(self):
        with pytest.raises(TypeError):
            PolicySpec("GradNorm", params={"ema": [0.1, 0.2]})

    @pytest.mark.parametrize("name", sorted(STRATEGY_REGISTRY))
    def test_every_spec_roundtrips_through_json(self, name):
        spec = PolicySpec(name)
        payload = json.loads(json.dumps(dataclasses.asdict(spec)))
        rebuilt = PolicySpec(**payload)
        assert rebuilt == spec
        cfg = tiny_config()
        assert job_key(SweepJob(spec, cfg)) == job_key(SweepJob(rebuilt, cfg))

    def test_param_overrides_move_the_cache_key(self):
        cfg = tiny_config()
        plain = job_key(SweepJob(PolicySpec("GradNorm"), cfg))
        tuned = job_key(SweepJob(
            PolicySpec("GradNorm", params={"ema": 0.25}), cfg
        ))
        assert plain != tuned

    def test_cached_result_carries_the_spec(self, tmp_path):
        job = SweepJob(
            PolicySpec("GradNorm", params={"ema": 0.25, "iterations": 3}),
            tiny_config(),
        )
        result = execute_job(job)
        assert result.policy["name"] == "GradNorm"
        assert result.policy["params"] == [["ema", 0.25], ["iterations", 3]]
        cache = SweepCache(tmp_path)
        key = job_key(job)
        cache.store(key, job, result)
        loaded = cache.load(key)
        assert loaded is not None
        assert results_identical(loaded, result)
        assert loaded.policy == result.policy


class TestCliContract:
    RUN_BASE = [
        "run", "--policy", "FedAvg", "--clients", "8", "--participants", "3",
        "--epochs", "1", "--budget", "60",
    ]

    def test_unknown_policy_choice_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--policy", "Bogus"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flag", [
        "no_equals_sign",                  # malformed KEY=VALUE
        "bogus=1",                         # parameter FedAvg does not declare
        "iterations=0",                    # out of bounds
        "sample_size=[1,2]",               # non-scalar value
    ])
    def test_bad_run_param_exits_2(self, flag, capsys):
        assert main(self.RUN_BASE + ["--param", flag]) == 2
        assert "error" in capsys.readouterr().err

    def test_run_param_override_accepted(self, capsys):
        rc = main([
            "run", "--policy", "GradNorm", "--clients", "8",
            "--participants", "3", "--epochs", "1", "--budget", "60",
            "--param", "ema=0.25",
        ])
        assert rc == 0
        assert "policy=GradNorm" in capsys.readouterr().out

    @pytest.mark.parametrize("policy, flag", [
        ("FedCS", "deadline_s=-1"),
        ("HardDeadline", "deadline_s=0"),
        ("SoftDeadline", "deadline_s=-2"),
    ])
    def test_run_nonpositive_deadline_exits_2(self, policy, flag, capsys):
        argv = ["run", "--policy", policy] + self.RUN_BASE[3:] + ["--param", flag]
        assert main(argv) == 2
        assert "param 'deadline_s': must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("policy, flag, workers", [
        ("Pow-d", "d=0", "1"),
        ("FedCS", "deadline_s=-1", "1"),
        ("FedCS", "deadline_s=-1", "2"),
    ])
    def test_sweep_bad_param_value_exits_2_before_any_job(
        self, policy, flag, workers, capsys, monkeypatch
    ):
        """The sweep rejects a value the way `run` does, before the pool."""
        monkeypatch.setattr(
            "repro.cli.run_sweep", lambda *a, **k: pytest.fail("a job ran")
        )
        argv = ["--clients", "8", "--participants", "3", "--epochs", "1"]
        rc = main(["sweep", "--policies", policy, "--param", flag,
                   "--budgets", "60", "--workers", workers] + argv)
        sweep_err = capsys.readouterr().err
        assert rc == 2
        assert main(["run", "--policy", policy, "--param", flag,
                     "--budget", "60"] + argv) == 2
        assert sweep_err == capsys.readouterr().err
        assert f"strategy {policy!r}, param {flag.split('=')[0]!r}" in sweep_err

    def test_sweep_undeclared_param_exits_2(self, capsys):
        rc = main([
            "sweep", "--policies", "FedAvg", "FedCS",
            "--param", "nope=1",
        ])
        assert rc == 2
        assert "no selected policy declares" in capsys.readouterr().err

    def test_tournament_unknown_strategy_exits_2(self, capsys):
        assert main(["tournament", "--strategies", "Bogus"]) == 2
        assert "unknown strategy" in capsys.readouterr().err

    def test_tournament_unknown_scenario_exits_2(self, capsys):
        assert main(["tournament", "--scenarios", "bogus"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_tournament_list_matches_registry(self, capsys):
        assert main(["tournament", "--list"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        split = lines.index("scenarios:")
        listed_strategies = [l.split()[0] for l in lines[1:split]]
        listed_scenarios = [l.split()[0] for l in lines[split + 1:]]
        assert listed_strategies == list(strategy_names())
        assert listed_scenarios == [s.name for s in SCENARIOS]
