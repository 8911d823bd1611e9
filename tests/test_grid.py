"""The experiment grid every multi-run report is built on.

``repro compare``, ``repro sweep``, ``repro tournament``, the figure
suites and the multi-seed bands all run one :class:`Grid` through
:func:`run_grid`.  Pinned here: the grid's axes and run order, that a
repeated axis value is refused instead of counted twice, that a run with
no epoch is one ``repro: error:`` line instead of a traceback, and that
each command submits the same job keys as before the grid existed, so a
filled ``--cache-dir`` stays hot.
"""

import pytest

from repro.cli import main
from repro.experiments.figures import paper_grid
from repro.experiments.scenarios import experiment_config
from repro.experiments.sweep import (
    EmptyRunError,
    Grid,
    PolicySpec,
    SweepJob,
    job_key,
    run_grid,
)
from repro.experiments.tournament import QUICK_BASE, tournament_grid

SMALL = ["--clients", "8", "--participants", "3", "--epochs", "3"]


def tiny_base(**overrides):
    return experiment_config(
        budget=120.0, num_clients=8, min_participants=3, max_epochs=3
    ).replace(**overrides)


class Submitted(Exception):
    """Raised in place of the sweep: carries the jobs a command submitted."""


@pytest.fixture
def submitted(monkeypatch):
    """Run a CLI command up to the sweep; return the jobs it would run."""
    def capture(jobs, **kwargs):
        raise Submitted(list(jobs))

    monkeypatch.setattr("repro.experiments.sweep.run_sweep", capture)

    def run(argv):
        with pytest.raises(Submitted) as caught:
            main(argv)
        return caught.value.args[0]

    return run


class TestAxes:
    def test_jobs_run_scenario_then_policy_then_seed(self):
        grid = Grid(
            tiny_base(),
            ["FedAvg", PolicySpec("Pow-d", {"d": 4})],
            [("iid", {"data.iid": True}), ("skew", {"data.iid": False})],
            [1, 0],
        )
        assert [
            (scenario, job.policy.name, job.config.seed, job.config.data.iid)
            for scenario, job in grid.jobs
        ] == [
            ("iid", "FedAvg", 1, True), ("iid", "FedAvg", 0, True),
            ("iid", "Pow-d", 1, True), ("iid", "Pow-d", 0, True),
            ("skew", "FedAvg", 1, False), ("skew", "FedAvg", 0, False),
            ("skew", "Pow-d", 1, False), ("skew", "Pow-d", 0, False),
        ]
        assert grid.jobs[2][1].policy.params_dict == {"d": 4}

    def test_results_are_keyed_by_cell_in_seed_order(self):
        grid = Grid.over_budgets(tiny_base(), ["FedAvg"], [60.0, 120.0], [1, 0])
        cells = run_grid(grid, workers=1)
        assert list(cells) == [("budget=60", "FedAvg"), ("budget=120", "FedAvg")]
        for (scenario, _), results in cells.items():
            assert [r.config.seed for r in results] == [1, 0]
            assert {f"budget={r.config.budget:g}" for r in results} == {scenario}

    def test_a_budget_scenario_is_the_config_built_with_that_budget(self):
        grid = Grid.over_budgets(tiny_base(), ["FedL"], [60.0], [3])
        ((_, job),) = grid.jobs
        direct = SweepJob(PolicySpec("FedL"), tiny_base(budget=60.0, seed=3))
        assert job.config == direct.config
        assert job_key(job) == job_key(direct)

    def test_defaults_are_the_base_budget_and_seed(self):
        grid = Grid.over_budgets(tiny_base(seed=4), ["FedAvg"])
        assert grid.scenarios == (("budget=120", {"budget": 120.0}),)
        assert grid.seeds == (4,)

    @pytest.mark.parametrize("axis", ["policies", "scenarios", "seeds"])
    def test_an_empty_axis_is_refused(self, axis):
        axes = dict(policies=["FedAvg"], scenarios=[("s", {})], seeds=[0])
        axes[axis] = []
        with pytest.raises(ValueError, match="need at least one"):
            Grid(tiny_base(), **axes)

    def test_a_bad_parameter_fails_at_construction(self):
        with pytest.raises(ValueError, match="param 'd'"):
            Grid.over_budgets(tiny_base(), [PolicySpec("Pow-d", {"d": 0})])


class TestRepeatedAxisValues:
    """One run counted twice would skew every mean, rank and win count."""

    @pytest.mark.parametrize("axes, message", [
        (dict(policies=["FedAvg", "FedAvg"]), "repeated policy: FedAvg"),
        (dict(policies=["FedAvg", PolicySpec("FedAvg", {"iterations": 3})]),
         "repeated policy: FedAvg"),
        (dict(scenarios=[("iid", {}), ("iid", {"data.iid": False})]),
         "repeated scenario: iid"),
        (dict(seeds=[0, 1, 0]), "repeated seed: 0"),
    ])
    def test_the_grid_refuses_a_repeat(self, axes, message):
        full = dict(policies=["FedAvg"], scenarios=[("s", {})], seeds=[0])
        with pytest.raises(ValueError, match=message):
            Grid(tiny_base(), **{**full, **axes})

    def test_a_repeated_budget_is_a_repeated_scenario(self):
        with pytest.raises(ValueError, match="repeated scenario: budget=60"):
            Grid.over_budgets(tiny_base(), ["FedAvg"], [60.0, 60.0])

    @pytest.mark.parametrize("kwargs", [
        dict(strategies=["FedAvg", "FedAvg"], scenarios=["iid"]),
        dict(strategies=["FedAvg"], scenarios=["iid", "iid"]),
        dict(strategies=["FedAvg"], scenarios=["iid"], seeds=[0, 0]),
    ])
    def test_the_tournament_refuses_a_repeat(self, kwargs):
        with pytest.raises(ValueError, match="repeated"):
            tournament_grid(**kwargs)

    @pytest.mark.parametrize("argv, message", [
        (["tournament", "--quick", "--strategies", "FedAvg", "FedAvg"],
         "repeated policy: FedAvg"),
        (["tournament", "--quick", "--scenarios", "iid", "iid"],
         "repeated scenario: iid"),
        (["tournament", "--quick", "--seeds", "0", "0"], "repeated seed: 0"),
        (["sweep", "--budgets", "60", "60", *SMALL], "repeated scenario: budget=60"),
        (["sweep", "--seeds", "0", "0", *SMALL], "repeated seed: 0"),
        (["sweep", "--policies", "FedAvg", "FedAvg", *SMALL],
         "repeated policy: FedAvg"),
    ])
    def test_the_cli_exits_2(self, argv, message, capsys, monkeypatch):
        monkeypatch.setattr(
            "repro.experiments.sweep.run_sweep",
            lambda *a, **k: pytest.fail("a job ran"),
        )
        assert main(argv) == 2
        assert capsys.readouterr().err == f"repro: error: {message}\n"


class TestEmptyRun:
    """A budget below one epoch's cost leaves Pow-d's run without an epoch."""

    EXPECTED = (
        "repro: error: Pow-d budget=30 seed=0 stopped before its first epoch "
        "(budget_exhausted); no report can score an empty run\n"
    )

    @pytest.mark.parametrize("argv", [
        ["compare", "--budget", "30", *SMALL],
        ["sweep", "--budgets", "30", "120", "--quiet", "--workers", "1", *SMALL],
    ])
    def test_the_cli_prints_one_error_line_and_exits_1(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == self.EXPECTED

    @pytest.mark.parametrize("grid", [
        tournament_grid(["FedAvg", "Pow-d"], ["iid"], [0], QUICK_BASE.replace(budget=30.0)),
        paper_grid(
            seeds=[1, 0], policies=["Pow-d"], budget=30.0,
            num_clients=8, min_participants=3, max_epochs=3,
        ),
    ], ids=["tournament", "multi_seed"])
    def test_every_grid_raises_the_typed_error(self, grid):
        with pytest.raises(EmptyRunError, match="Pow-d budget=30 seed=0"):
            run_grid(grid, workers=1)


class TestSubmittedJobKeys:
    """The job keys each command submits, frozen (first 12 hex digits,
    sorted) from the commands as they were before they shared one grid:
    a ``--cache-dir`` filled then still serves every job.  A deliberate
    cache-schema bump changes every key and re-freezes these lists."""

    COMPARE = """
        3f9e1d9780fd 68d27c71909e b3b688057c9c fdccfc9c5a7d
    """
    SWEEP = """
        00d11f60ef51 16f05e81d4b0 21bef2192f32 36ef3136898d 46f8dc266893
        503fd3a2e263 71a0f7467de3 9552e0dfe751 c527f5ebc267 c5eb6a6b5cff
        d375fe3c79c3 d3c08db6750d e1ca7a4a7cf1 ea7523e2e698 f85b6c9935ff
        fbc119b3505c
    """
    TOURNAMENT = """
        002f9df5eeea 007e5e66ed8c 00d11f60ef51 042660696b46 074757be8991
        0afa2cdc7fad 0dc537fe3030 0e0ab890548e 0e4f9893d3bb 121dc6e4991e
        1c840323c165 1fb48971af17 21bdb1d42612 28737e6586f9 2a6fd2f096ee
        2b0263b47b05 36e1381f9f38 387b436533b3 39b143443033 3e43964c7826
        3ef93d42e6f5 415c9be79426 448c334699e0 4b8300938dff 4dd1a2b4c6cc
        503fd3a2e263 51f67f8e1510 5afed8366c39 5bcf3fc6c72f 6109e30d633b
        62d20ebcedf1 70375608ff35 7101ce4956d0 713b5ac440b4 7243b03ec62c
        72a5c889522b 794a7e9e9371 7acda96d75d5 7e360f81fa5e 7f5bdae32f29
        82c43a95ffc6 835ce46c1d8d 8a22f3a6d858 8a2a31155ad1 8bef856b338a
        8e7a4aed8705 95d6e17b14a9 9775cdcf7a38 9fbfd21d590e a1eeff3ac171
        a7d3b89df116 b1ab8eea07eb b4198c579ae7 b859c4ee324a ba194cb1f824
        bc1f644015bb c6856a143f9e c9af05e465d6 ce4e5a5f6080 d282e7c449f7
        d366b67bbaf6 d7e861e75a32 d98a9b42cf75 dcd36d5835aa e4fa9f9db754
        e710f30ea690 e90a531ade2c e9b00da30d09 f005a5dc8b85 f116e4b3ce38
        f42779ad225c f858b079b10e f85b6c9935ff fa733a44fc09 fbc119b3505c
    """

    @pytest.mark.parametrize("argv, frozen", [
        (["compare", "--budget", "100", *SMALL], COMPARE),
        (["sweep", "--budgets", "60", "120", "--seeds", "0", "1", "--quiet", *SMALL],
         SWEEP),
        (["tournament", "--quick", "--quiet"], TOURNAMENT),
    ], ids=["compare", "sweep", "tournament"])
    def test_keys_match_the_frozen_list(self, argv, frozen, submitted):
        keys = sorted(job_key(job)[:12] for job in submitted(argv))
        assert keys == frozen.split()
