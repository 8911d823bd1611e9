"""Additional CLI coverage: sweep, chart flag, and Fair-FedL/UCB runs."""

import json

import pytest

from repro.cli import main


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


class TestSimCommandValidation:
    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--aggregation", "deadline"], "requires --deadline"),
            (["--aggregation", "deadline", "--deadline", "-1"],
             "--deadline must be positive"),
            (["--aggregation", "async"], "requires --quorum"),
            (["--quorum", "3"], "--quorum only applies"),
            (["--deadline", "0.5"], "--deadline only applies"),
        ],
    )
    def test_semantic_errors_exit_2(self, capsys, extra, message):
        rc = main(["sim", *SIM_SMALL, *extra])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_unknown_fault_profile_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["sim", *SIM_SMALL, "--faults", "gremlins"])
        assert err.value.code == 2


class TestSimCommand:
    def test_sync_run_outputs_summary(self, capsys):
        rc = main(["sim", *SIM_SMALL])
        assert rc == 0
        out = capsys.readouterr().out
        assert "engine=des" in out
        assert "aggregation=sync" in out
        assert "final_accuracy=" in out

    def test_telemetry_trace_renders_timelines(self, capsys, tmp_path):
        trace_dir = tmp_path / "trace"
        rc = main(["sim", *SIM_SMALL, "--telemetry", str(trace_dir)])
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
            ["sim", *SIM_SMALL, "--aggregation", "deadline",
             "--deadline", "1e-6"]
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
                "--engine", "des",
                "--quiet",
            ]
        )
        assert rc == 0
        assert "budget impact" in capsys.readouterr().out

    def test_sim_knobs_validated(self, capsys):
        rc = main(
            [
                "sweep",
                "--budgets", "60",
                "--aggregation", "async",
            ]
        )
        assert rc == 2
        assert "requires --quorum" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, flag",
        [
            (["--engine", "loop", "--faults", "stress"], "--faults"),
            (["--engine", "batched", "--faults", "none"], "--faults"),
            (["--engine", "loop", "--aggregation", "sync"], "--aggregation"),
            (["--engine", "batched", "--aggregation", "deadline",
              "--deadline", "0.5"], "--aggregation"),
            (["--engine", "loop", "--aggregation", "async", "--quorum", "2"],
             "--aggregation"),
        ],
    )
    def test_runtime_flags_on_closed_form_engines_exit_2(
        self, capsys, extra, flag
    ):
        # The loop/batched engines have no network timeline: these flags
        # would bind nothing, so they are a usage error, not a silent no-op.
        rc = main(["sweep", "--budgets", "60", *extra])
        assert rc == 2
        assert f"{flag} only applies with --engine des" in capsys.readouterr().err


class TestRobustnessFlags:
    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--attack-fraction", "0.3"], "--attack-fraction only applies"),
            (["--attack", "sign-flip", "--attack-fraction", "1.5"],
             "--attack-fraction must be in (0, 1)"),
            (["--attack", "sign-flip", "--attack-fraction", "0"],
             "--attack-fraction must be in (0, 1)"),
        ],
    )
    def test_sim_attack_semantic_errors_exit_2(self, capsys, extra, message):
        rc = main(["sim", *SIM_SMALL, *extra])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_run_attack_fraction_without_attack_exits_2(self, capsys):
        rc = main(["run", *SIM_SMALL, "--attack-fraction", "0.2"])
        assert rc == 2
        assert "--attack-fraction only applies" in capsys.readouterr().err

    def test_unknown_attack_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["run", *SIM_SMALL, "--attack", "replay"])
        assert err.value.code == 2

    def test_unknown_defense_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["run", *SIM_SMALL, "--defense", "blockchain"])
        assert err.value.code == 2

    def test_run_attack_with_defense_prints_quarantine(self, capsys):
        rc = main(
            ["run", *SIM_SMALL, "--epochs", "4",
             "--attack", "sign-flip", "--defense", "trimmed-mean"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "attack=sign-flip" in out
        assert "defense=trimmed-mean" in out
        assert "quarantined_updates=" in out

    def test_nan_attack_without_defense_exits_1(self, capsys):
        # 49% nan attackers against a floor of 5 of 8: every round carries
        # a corrupt upload, so the undefended run must abort.
        rc = main(
            ["run", "--budget", "100", "--clients", "8",
             "--participants", "5", "--epochs", "4",
             "--attack", "nan", "--attack-fraction", "0.49"]
        )
        assert rc == 1
        assert "non-finite update" in capsys.readouterr().err

    def test_sim_nan_attack_without_defense_exits_1(self, capsys):
        rc = main(
            ["sim", "--budget", "100", "--clients", "8",
             "--participants", "5", "--epochs", "4",
             "--attack", "nan", "--attack-fraction", "0.49"]
        )
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
                "--attack", "sign-flip",
                "--defense", "median",
                "--quiet",
            ]
        )
        assert rc == 0
        assert "budget impact" in capsys.readouterr().out

    def test_sweep_attack_fraction_validated(self, capsys):
        rc = main(
            ["sweep", "--budgets", "60", "--attack-fraction", "0.2"]
        )
        assert rc == 2
        assert "--attack-fraction only applies" in capsys.readouterr().err


class TestResumeThroughTheSharedDriver:
    """``--resume`` goes through the same driver as a fresh run: same
    telemetry handling, same summary fields."""

    SIM = [
        "sim", "--budget", "120", "--clients", "8", "--participants", "3",
        "--epochs", "4", "--quiet", "--faults", "flaky-uplink",
        "--attack", "sign-flip", "--defense", "trimmed-mean",
    ]

    def test_resumed_run_records_telemetry(self, capsys, tmp_path):
        ck, tel = tmp_path / "ck", tmp_path / "tel"
        assert main(self.SIM + ["--checkpoint-dir", str(ck),
                                "--checkpoint-interval", "3"]) == 0
        capsys.readouterr()
        rc = main(["sim", "--resume", str(ck), "--telemetry", str(tel), "--quiet"])
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
                                "--checkpoint-interval", "2"]) == 0
        fresh = capsys.readouterr().out.splitlines()
        assert main(["sim", "--resume", str(ck), "--quiet"]) == 0
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
            "live", "--budget", "120", "--clients", "6", "--participants", "2",
            "--epochs", "3", "--quiet", "--time-scale", "0.01",
            "--checkpoint-dir", str(ck), "--checkpoint-interval", "1",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["live", "--resume", str(ck), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "engine=live workers=2 time_scale=0.01" in out
        assert "measured_time=" in out and "sim_time=" not in out


def test_bench_is_not_a_subcommand(capsys):
    """The contract gates are tier-1 tests beside their contracts."""
    with pytest.raises(SystemExit) as exit_:
        main(["bench", "--overhead"])
    assert exit_.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err
