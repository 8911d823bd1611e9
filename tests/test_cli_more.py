"""Additional CLI coverage: sweep, chart flag, Fair-FedL/UCB runs, and the
``--set PATH=VALUE`` surface (engines, robustness, checkpoints, large K)."""

import dataclasses
import json
import shutil

import pytest

from repro.cli import main
from repro.config import AttackConfig, DefenseConfig, SimConfig
from repro.experiments.persistence import RETIRED_LEAVES
from repro.experiments.scenarios import experiment_config
from repro.live.calibrate import CalibrationReport
from tests.test_sweep_cache import LEAVES, read_leaf


class TestSweepCommand:
    def test_sweep_outputs_series(self, capsys):
        rc = main(
            [
                "sweep",
                "--budgets", "60", "120",
                "--clients", "8",
                "--participants", "3",
                "--epochs", "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "budget impact" in out
        assert "FedL" in out


class TestChartFlag:
    def test_compare_with_chart(self, capsys):
        rc = main(
            [
                "compare",
                "--budget", "80",
                "--clients", "8",
                "--participants", "3",
                "--epochs", "3",
                "--target", "0.1",
                "--chart",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        # The ASCII chart frame is present.
        assert "+------" in out or "+-" in out
        assert "*=FedL" in out


class TestExtendedPolicyRuns:
    @pytest.mark.parametrize("policy", ["Fair-FedL", "UCB", "Oracle"])
    def test_run_extended_policies(self, capsys, policy):
        rc = main(
            [
                "run",
                "--policy", policy,
                "--budget", "80",
                "--clients", "8",
                "--participants", "3",
                "--epochs", "3",
            ]
        )
        assert rc == 0
        assert "final_accuracy=" in capsys.readouterr().out

    def test_non_iid_flag(self, capsys):
        rc = main(
            [
                "run",
                "--non-iid",
                "--budget", "80",
                "--clients", "8",
                "--participants", "3",
                "--epochs", "3",
            ]
        )
        assert rc == 0


SIM_SMALL = [
    "--budget", "60",
    "--clients", "8",
    "--participants", "3",
    "--epochs", "2",
]


def sets(*pairs):
    """``--set`` flags for each ``PATH=VALUE`` pair."""
    return [arg for pair in pairs for arg in ("--set", pair)]


DES = sets("training.engine=des")

# The DES, robustness and engine knobs used to be flags of their own
# (`repro sim --aggregation ...`, `sweep --engine loop --faults ...`);
# their cases keep the ids they were collected under, and the messages
# are now the config's own.


class TestSimCommandValidation:
    @pytest.mark.parametrize(
        "pairs, message",
        [
            (["sim.aggregation=deadline"],
             "deadline aggregation needs deadline_s > 0"),
            (["sim.aggregation=deadline", "sim.deadline_s=-1"],
             "deadline aggregation needs deadline_s > 0"),
            (["sim.aggregation=async"], "async aggregation needs quorum >= 1"),
            (["sim.quorum=3"], "quorum only applies with async aggregation"),
            (["sim.deadline_s=0.5"],
             "deadline_s only applies with deadline aggregation"),
        ],
        ids=[
            "extra0-requires --deadline",
            "extra1---deadline must be positive",
            "extra2-requires --quorum",
            "extra3---quorum only applies",
            "extra4---deadline only applies",
        ],
    )
    def test_semantic_errors_exit_2(self, capsys, pairs, message):
        rc = main(["run", *SIM_SMALL, *DES, *sets(*pairs)])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_unknown_fault_profile_exits_2(self, capsys):
        assert main(["run", *SIM_SMALL, *DES, *sets("sim.faults=gremlins")]) == 2
        assert "unknown fault profile" in capsys.readouterr().err


class TestSimCommand:
    def test_sync_run_outputs_summary(self, capsys):
        rc = main(["run", *SIM_SMALL, *DES])
        assert rc == 0
        out = capsys.readouterr().out
        assert "engine=des" in out
        assert "aggregation=sync" in out
        assert "final_accuracy=" in out

    def test_telemetry_trace_renders_timelines(self, capsys, tmp_path):
        trace_dir = tmp_path / "trace"
        rc = main(["run", *SIM_SMALL, *DES, "--telemetry", str(trace_dir)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["trace", str(trace_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sim.round" in out          # event inventory
        assert "event-driven runtime" in out
        assert "simulated rounds" in out
        assert "busy=" in out              # per-client timeline bars

    def test_floor_violation_exits_1(self, capsys):
        # A deadline below every client's latency floors the round.
        rc = main(
            ["run", *SIM_SMALL, *DES,
             *sets("sim.aggregation=deadline", "sim.deadline_s=1e-6")]
        )
        assert rc == 1
        assert "participation floor" in capsys.readouterr().err


class TestSweepDesFlags:
    def test_engine_des_sweep(self, capsys):
        rc = main(
            [
                "sweep",
                "--budgets", "60",
                "--clients", "8",
                "--participants", "3",
                "--epochs", "2",
                "--policies", "FedAvg",
                "--workers", "1",
                *DES,
                "--quiet",
            ]
        )
        assert rc == 0
        assert "budget impact" in capsys.readouterr().out

    def test_sim_knobs_validated(self, capsys):
        rc = main(["sweep", "--budgets", "60", *DES, *sets("sim.aggregation=async")])
        assert rc == 2
        assert "async aggregation needs quorum >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "pairs, path",
        [
            (["training.engine=loop", "sim.faults=stress"], "sim.faults"),
            (["training.engine=batched", "sim.faults=churn"], "sim.faults"),
            (["sim.aggregation=async", "sim.quorum=2"], "sim.aggregation"),
            (["training.engine=batched", "sim.aggregation=deadline",
              "sim.deadline_s=0.5"], "sim.aggregation"),
            (["training.engine=loop", "sim.aggregation=async", "sim.quorum=2"],
             "sim.aggregation"),
        ],
        ids=[
            "extra0---faults",
            "extra1---faults",
            "extra2---aggregation",
            "extra3---aggregation",
            "extra4---aggregation",
        ],
    )
    def test_runtime_flags_on_closed_form_engines_exit_2(
        self, capsys, pairs, path
    ):
        # The loop/batched engines (and "auto", which picks one of them)
        # have no network timeline: a non-default sim section would bind
        # nothing, so it is a usage error on run and sweep alike.
        for command in ("run", "sweep"):
            rc = main([command, *SIM_SMALL, *sets(*pairs)])
            assert rc == 2
            err = capsys.readouterr().err
            assert path in err
            assert "only applies with training.engine des or live" in err

    def test_default_sim_section_is_accepted_on_any_engine(self, monkeypatch):
        cfg = resolved_run_config(
            monkeypatch,
            [*SIM_SMALL, *sets("training.engine=loop", "sim.faults=none")],
        )
        assert cfg.training.engine == "loop" and cfg.sim == SimConfig()


class TestRobustnessFlags:
    @pytest.mark.parametrize(
        "pairs, message",
        [
            (["attack.fraction=0.3"],
             "attack fraction only applies with an attack kind"),
            (["attack.kind=sign-flip", "attack.fraction=1.5"],
             "attack fraction in (0,1)"),
            (["attack.kind=sign-flip", "attack.fraction=0"],
             "attack fraction in (0,1)"),
        ],
        ids=[
            "extra0---attack-fraction only applies",
            "extra1---attack-fraction must be in (0, 1)",
            "extra2---attack-fraction must be in (0, 1)",
        ],
    )
    def test_sim_attack_semantic_errors_exit_2(self, capsys, pairs, message):
        rc = main(["run", *SIM_SMALL, *DES, *sets(*pairs)])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_run_attack_fraction_without_attack_exits_2(self, capsys):
        rc = main(["run", *SIM_SMALL, *sets("attack.fraction=0.25")])
        assert rc == 2
        assert "attack fraction only applies" in capsys.readouterr().err

    def test_attack_knobs_at_their_defaults_pass_without_attack(self, monkeypatch):
        # Indistinguishable from unset, so accepted: the rule is "no knob
        # moved without an attack", not "no knob named".
        cfg = resolved_run_config(monkeypatch, [*SIM_SMALL, *sets(
            "attack.fraction=0.2",
        )])
        assert cfg.attack == AttackConfig()

    def test_unknown_attack_exits_2(self, capsys):
        assert main(["run", *SIM_SMALL, *sets("attack.kind=replay")]) == 2
        assert "unknown attack" in capsys.readouterr().err

    def test_unknown_defense_exits_2(self, capsys):
        assert main(["run", *SIM_SMALL, *sets("defense.aggregator=blockchain")]) == 2
        assert "unknown defense aggregator" in capsys.readouterr().err

    def test_run_attack_with_defense_prints_quarantine(self, capsys):
        rc = main(
            ["run", *SIM_SMALL, "--epochs", "4",
             *sets("attack.kind=sign-flip", "defense.aggregator=trimmed-mean")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "attack=sign-flip" in out
        assert "defense=trimmed-mean" in out
        assert "quarantined_updates=" in out

    NAN_ATTACK = [
        "--budget", "100", "--clients", "8", "--participants", "5",
        "--epochs", "4", *sets("attack.kind=nan", "attack.fraction=0.49"),
    ]

    def test_nan_attack_without_defense_exits_1(self, capsys):
        # 49% nan attackers against a floor of 5 of 8: every round carries
        # a corrupt upload, so the undefended run must abort.
        rc = main(["run", *self.NAN_ATTACK])
        assert rc == 1
        assert "non-finite update" in capsys.readouterr().err

    def test_sim_nan_attack_without_defense_exits_1(self, capsys):
        rc = main(["run", *self.NAN_ATTACK, *DES])
        assert rc == 1
        assert "non-finite update" in capsys.readouterr().err

    def test_sweep_attack_flags_accepted(self, capsys):
        rc = main(
            [
                "sweep",
                "--budgets", "60",
                "--clients", "8",
                "--participants", "3",
                "--epochs", "2",
                "--policies", "FedAvg",
                "--workers", "1",
                *sets("attack.kind=sign-flip", "defense.aggregator=median"),
                "--quiet",
            ]
        )
        assert rc == 0
        assert "budget impact" in capsys.readouterr().out

    def test_sweep_attack_fraction_validated(self, capsys):
        rc = main(["sweep", "--budgets", "60", *sets("attack.fraction=0.25")])
        assert rc == 2
        assert "attack fraction only applies" in capsys.readouterr().err


class TestResumeThroughTheSharedDriver:
    """``--resume`` goes through the same driver as a fresh run: same
    telemetry handling, same summary fields."""

    SIM = [
        "run", "--budget", "120", "--clients", "8", "--participants", "3",
        "--epochs", "4", "--quiet", *DES,
        *sets("sim.faults=flaky-uplink", "attack.kind=sign-flip",
              "defense.aggregator=trimmed-mean"),
    ]

    def test_resumed_run_records_telemetry(self, capsys, tmp_path):
        ck, tel = tmp_path / "ck", tmp_path / "tel"
        assert main(self.SIM + ["--checkpoint-dir", str(ck),
                                *sets("checkpoint.interval=3")]) == 0
        capsys.readouterr()
        rc = main(["run", "--resume", str(ck), "--telemetry", str(tel), "--quiet"])
        assert rc == 0
        assert f"telemetry -> {tel}" in capsys.readouterr().err
        assert (tel / "manifest.json").is_file()
        events = [
            json.loads(line)
            for line in (tel / "events-main.jsonl").read_text().splitlines()
        ]
        assert events[0]["kind"] == "run.start"
        assert events[0]["run"] == "FedL[seed=0]"
        # Recording starts at the resume epoch: the one snapshot of this
        # 4-epoch run was taken after epoch index 2.
        assert [e["epoch"] for e in events if e["kind"] == "epoch.start"] == [3]
        assert [e["epoch"] for e in events if e["kind"] == "sim.round"] == [3]

    def test_resumed_summary_prints_what_the_fresh_run_prints(
        self, capsys, tmp_path
    ):
        ck = tmp_path / "ck"
        assert main(self.SIM + ["--checkpoint-dir", str(ck),
                                *sets("checkpoint.interval=2")]) == 0
        fresh = capsys.readouterr().out.splitlines()
        assert main(["run", "--resume", str(ck), "--quiet"]) == 0
        resumed = capsys.readouterr().out.splitlines()
        assert f"resumed={ck} " in resumed[0]
        assert resumed[0].replace(f"resumed={ck} ", "") == fresh[0]
        assert "engine=des" in resumed[0] and "faults=flaky-uplink" in resumed[0]
        assert resumed[1:] == fresh[1:]
        assert "failed_clients=" in resumed[1]
        assert resumed[2].startswith("attack=sign-flip defense=trimmed-mean")

    def test_resumed_live_run_reports_measured_time(self, capsys, tmp_path):
        ck = tmp_path / "ck"
        argv = [
            "run", "--budget", "120", "--clients", "6", "--participants", "2",
            "--epochs", "3", "--quiet", "--checkpoint-dir", str(ck),
            *sets("training.engine=live", "live.time_scale=0.01",
                  "checkpoint.interval=1"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["run", "--resume", str(ck), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "engine=live workers=2 time_scale=0.01" in out
        assert "measured_time=" in out and "sim_time=" not in out

    def test_resume_into_a_new_directory_keeps_the_snapshot_cadence(
        self, capsys, tmp_path
    ):
        # --checkpoint-dir on a resume moves the snapshots and nothing
        # else: interval and keep come from the snapshot's config.
        first, second = tmp_path / "first", tmp_path / "second"
        assert main([
            "run", "--budget", "1e6", "--clients", "8", "--participants", "3",
            "--epochs", "12", "--quiet", "--checkpoint-dir", str(first),
            *sets("checkpoint.interval=2", "checkpoint.keep=10"),
        ]) == 0
        # As if the run had been killed right after its epoch-4 snapshot.
        for snap in first.glob("epoch_*"):
            if snap.name > "epoch_00000004":
                shutil.rmtree(snap)
        (first / "LATEST").write_text("epoch_00000004")
        assert main(["run", "--resume", str(first), "--quiet",
                     "--checkpoint-dir", str(second)]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in second.glob("epoch_*")) == [
            f"epoch_{epoch:08d}" for epoch in (6, 8, 10, 12)
        ]

    def test_set_with_resume_exits_2(self, capsys, tmp_path):
        rc = main(["run", "--resume", str(tmp_path), *sets("budget=5.0")])
        assert rc == 2
        assert "--set does not apply with --resume" in capsys.readouterr().err


class Captured(Exception):
    """Raised by a stub in place of the run: carries what the CLI resolved."""


def resolved_run_config(monkeypatch, argv):
    """The config ``repro run argv`` would run, without running it."""
    def capture(name, cfg, rng, params=None):
        raise Captured(cfg)

    monkeypatch.setattr("repro.cli.make_policy", capture)
    with pytest.raises(Captured) as caught:
        main(["run", *argv])
    return caught.value.args[0]


def resolved_sweep_configs(monkeypatch, argv):
    """The configs of ``repro sweep argv``'s jobs, without running them."""
    def capture(jobs, **kwargs):
        raise Captured([job.config for job in jobs])

    monkeypatch.setattr("repro.cli.run_sweep", capture)
    with pytest.raises(Captured) as caught:
        main(["sweep", "--policies", "FedAvg", "--quiet", *argv])
    return caught.value.args[0]


class TestSetPaths:
    """``--set PATH=VALUE`` reaches every leaf of ExperimentConfig."""

    @pytest.mark.parametrize("path", LEAVES)
    def test_every_leaf_is_spellable(self, monkeypatch, path):
        base = resolved_run_config(monkeypatch, SIM_SMALL)
        value = json.dumps(read_leaf(base, path))
        argv = [*SIM_SMALL, "--set", f"{path}={value}"]
        assert resolved_run_config(monkeypatch, argv) == base

    def test_values_reach_tuples_optionals_and_bools(self, monkeypatch):
        cfg = resolved_run_config(monkeypatch, [*SIM_SMALL, *sets(
            "training.hidden_units=[32,16]",
            "fedl.beta=0.05",
            "data.iid=false",
            "sim.faults=churn",
            "training.engine=des",
        )])
        assert cfg.training.hidden_units == (32, 16)
        assert cfg.fedl.beta == 0.05
        assert cfg.data.iid is False
        assert cfg.sim.faults == "churn"

    def test_set_wins_over_the_named_flags(self, monkeypatch):
        cfg = resolved_run_config(monkeypatch, [*SIM_SMALL, *sets("max_epochs=7")])
        assert cfg.max_epochs == 7

    def test_a_new_section_field_needs_no_cli_edit(self, monkeypatch):
        @dataclasses.dataclass(frozen=True)
        class TaggedDefense(DefenseConfig):
            tag: str = "plain"

        def tagged_config(**kwargs):
            cfg = experiment_config(**kwargs)
            return cfg.replace(
                defense=TaggedDefense(**dataclasses.asdict(cfg.defense))
            )

        monkeypatch.setattr("repro.cli.experiment_config", tagged_config)
        cfg = resolved_run_config(monkeypatch, [*SIM_SMALL, *sets("defense.tag=sharp")])
        assert cfg.defense.tag == "sharp"

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("pair, message", [
        ("nope=1", "unknown config path 'nope'"),
        ("sim.fault=churn", "unknown config path 'sim.fault'"),
        ("no_equals_sign", "--set expects KEY=VALUE"),
        ("training.sgd_lr=0", "sgd_lr must be positive"),
        ("population.num_clients=2.5", "expected int"),
        ("training.hidden_units=[0]", "training.hidden_units must be positive"),
        ('training.hidden_units=["a"]',
         "config path 'training.hidden_units[0]': expected int"),
        ("population.cost_range=[1]",
         "config path 'population.cost_range': expected 2 values"),
    ])
    def test_bad_set_exits_2(self, capsys, command, pair, message):
        assert main([command, *SIM_SMALL, "--set", pair]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("path, kept", sorted(RETIRED_LEAVES.items()))
    def test_retired_leaf_is_an_unknown_path(self, capsys, path, kept):
        """Even set to the one value the code still runs."""
        assert main(["run", *SIM_SMALL, "--set", f"{path}={json.dumps(kept)}"]) == 2
        assert f"unknown config path {path!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, pair, message", [
        ("run", "budget=-5", "budget must be positive"),
        ("sweep", "budget=100", "--set budget: sweep's --budgets owns this axis"),
        ("sweep", "seed=3", "--set seed: sweep's --seeds owns this axis"),
    ])
    def test_set_budget_or_seed(self, capsys, command, pair, message):
        assert main([command, *SIM_SMALL, "--set", pair]) == 2
        assert message in capsys.readouterr().err


class TestLargeKDefaults:
    """One large-K rule on both commands, unless a --set names the field."""

    @staticmethod
    def resolve(monkeypatch, command, argv):
        if command == "run":
            return resolved_run_config(monkeypatch, argv)
        (cfg,) = resolved_sweep_configs(monkeypatch, [*argv, "--budgets", "60"])
        return cfg

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("clients, shards, panel", [
        (4999, 1, None),
        (5000, 10, None),
        (9999, 19, None),
        (10000, 20, 2000),
    ])
    def test_auto_rule(self, monkeypatch, command, clients, shards, panel):
        cfg = self.resolve(monkeypatch, command, ["--clients", str(clients)])
        assert (cfg.shard.num_shards, cfg.shard.eval_sample) == (shards, panel)

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_explicit_set_wins(self, monkeypatch, command):
        cfg = self.resolve(monkeypatch, command, ["--clients", "10000", *sets(
            "shard.num_shards=1", "shard.eval_sample=null",
        )])
        assert (cfg.shard.num_shards, cfg.shard.eval_sample) == (1, None)
        cfg = self.resolve(monkeypatch, command, [
            "--clients", "10000", *sets("shard.num_shards=4"),
        ])
        assert (cfg.shard.num_shards, cfg.shard.eval_sample) == (4, 2000)


class TestCalibrate:
    def calibrated_config(self, monkeypatch, argv):
        def capture(cfg, policy, profiles):
            raise Captured(cfg)

        monkeypatch.setattr("repro.cli.run_calibration", capture)
        with pytest.raises(Captured) as caught:
            main(["run", "--calibrate", *SIM_SMALL, *argv])
        return caught.value.args[0]

    def test_time_scale_defaults_to_25_unless_set(self, monkeypatch):
        cfg = self.calibrated_config(monkeypatch, [])
        assert (cfg.training.engine, cfg.live.time_scale) == ("live", 25.0)
        cfg = self.calibrated_config(monkeypatch, sets("live.time_scale=10"))
        assert cfg.live.time_scale == 10.0

    def test_failed_bit_identity_exits_1(self, monkeypatch, capsys, tmp_path):
        report = CalibrationReport(
            rows=[], bit_identical=False, time_scale=25.0, policy="FedL", epochs=2
        )
        monkeypatch.setattr("repro.cli.run_calibration", lambda *a, **k: report)
        out = tmp_path / "cal.json"
        assert main(["run", "--calibrate", *SIM_SMALL, "--save", str(out)]) == 1
        assert "NOT bit-identical" in capsys.readouterr().err
        assert json.loads(out.read_text())["bit_identical"] is False


@pytest.mark.parametrize("command", ["sim", "live", "profile"])
def test_retired_subcommands_exit_2(capsys, command):
    """`sim` and `live` are `run --set training.engine=des|live`; `profile`
    is `trace` (its phase tree) and `trace --diff`."""
    with pytest.raises(SystemExit) as exit_:
        main([command])
    assert exit_.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err


def test_bench_is_not_a_subcommand(capsys):
    """The contract gates are tier-1 tests beside their contracts."""
    with pytest.raises(SystemExit) as exit_:
        main(["bench", "--overhead"])
    assert exit_.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_help_lists_six_subcommands(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert "{run,compare,sweep,tournament,trace,regret}" in out
