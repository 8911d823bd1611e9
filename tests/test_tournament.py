"""Tournament harness: report structure, golden determinism, cache reuse.

The load-bearing guarantee is the PR2 telemetry convention applied to
reports: every wall-clock datum lives under ``ts``, so two runs of the
same matrix produce *byte-identical* persisted reports once ``ts`` is
dropped — and a second run against the same cache directory re-runs
nothing.
"""

import json

import pytest

from repro.cli import main
from repro.experiments.scenarios import (
    SCENARIOS,
    UnknownScenarioError,
    get_scenario,
    scenario_names,
)
from repro.experiments.sweep import SweepCache, run_grid
from repro.experiments.tournament import (
    FULL_BASE,
    QUICK_BASE,
    TOURNAMENT_SCHEMA_VERSION,
    format_report,
    load_report,
    save_report,
    tournament_grid,
    tournament_report,
)

from tests import oracle

STRATS = ["FedAvg", "GradNorm"]
SCENS = ["iid", "volatile-prices"]


def tournament(*args, workers=1, cache=None, progress=None):
    grid = tournament_grid(*args)
    cells = run_grid(grid, workers=workers, cache=cache, progress=progress)
    return tournament_report(grid, cells)


def tiny_tournament(cache=None):
    return tournament(STRATS, SCENS, [0], QUICK_BASE, cache=cache)


def canonical(report):
    payload = dict(report)
    payload.pop("ts", None)
    return json.dumps(payload, sort_keys=True, indent=2)


class TestScenarioRegistry:
    def test_names_unique_and_quick_subset(self):
        names = [s.name for s in SCENARIOS]
        assert len(names) == len(set(names))
        quick = scenario_names(quick=True)
        assert set(quick) <= set(scenario_names())
        assert len(quick) >= 4  # the --quick matrix floor

    def test_unknown_scenario_is_typed(self):
        with pytest.raises(UnknownScenarioError) as excinfo:
            get_scenario("bogus")
        assert excinfo.value.scenario == "bogus"

    def test_scenarios_produce_distinct_configs(self):
        base = QUICK_BASE
        configs = {s.name: base.override(s.overrides_for(base)) for s in SCENARIOS}
        assert len({repr(c) for c in configs.values()}) == len(configs)

    @pytest.mark.parametrize(
        "base", [QUICK_BASE, FULL_BASE], ids=["quick_base", "full_base"]
    )
    @pytest.mark.parametrize("name", [s.name for s in oracle.SCENARIOS])
    def test_overrides_resolve_like_the_typed_fields(self, name, base):
        expected = {s.name: s for s in oracle.SCENARIOS}[name].configure(base)
        assert base.override(get_scenario(name).overrides_for(base)) == expected

    def test_matrix_matches_the_oracle(self):
        assert [(s.name, s.description, s.quick) for s in SCENARIOS] == [
            (s.name, s.description, s.quick) for s in oracle.SCENARIOS
        ]


class TestReportStructure:
    def test_report_shape(self):
        report = tiny_tournament()
        assert report["schema"] == TOURNAMENT_SCHEMA_VERSION
        assert [s["name"] for s in report["strategies"]] == STRATS
        assert [s["name"] for s in report["scenarios"]] == SCENS
        for scen in SCENS:
            assert sorted(report["rankings"][scen]) == sorted(STRATS)
            assert report["winners"][scen] == report["rankings"][scen][0]
            for strat in STRATS:
                cell = report["cells"][scen][strat]
                assert cell["seeds"] == 1
                for metric in ("accuracy", "loss", "spend"):
                    assert {"mean", "std"} <= set(cell[metric])
        ranks = [row["rank"] for row in report["overall"]]
        assert ranks == [1, 2]
        for a in STRATS:
            for b in STRATS:
                if a != b:
                    assert 0 <= report["head_to_head"][a][b] <= len(SCENS)

    def test_format_report_renders_every_name(self):
        report = tiny_tournament()
        text = format_report(report)
        for scen in SCENS:
            assert scen in text
        for strat in STRATS:
            assert strat in text
        # Rendering is a pure function of the report.
        assert format_report(report) == text


class TestGoldenDeterminism:
    def test_two_runs_are_byte_identical(self, tmp_path):
        a = tiny_tournament()
        b = tiny_tournament()
        assert canonical(a) == canonical(b)
        pa = save_report(a, tmp_path / "a.json")
        pb = save_report(b, tmp_path / "b.json")
        assert pa.read_bytes() == pb.read_bytes()

    def test_cached_rerun_is_byte_identical_and_all_hits(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        first = tiny_tournament(cache=cache)
        hits = []
        second = tournament(
            STRATS, SCENS, [0], QUICK_BASE,
            cache=cache, progress=lambda e: hits.append(e.cached),
        )
        assert canonical(first) == canonical(second)
        assert hits and all(hits)  # every cell came from the cache


class TestCliTournament:
    ARGS = [
        "tournament", "--quick",
        "--strategies", *STRATS,
        "--scenarios", *SCENS,
        "--workers", "1",
    ]

    def test_quick_run_twice_identical_modulo_ts_and_cache_hot(
        self, tmp_path, capsys
    ):
        cache = str(tmp_path / "cache")
        out_a, out_b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(self.ARGS + ["--cache-dir", cache, "--out", out_a]) == 0
        first = capsys.readouterr()
        assert "overall" in first.out or "rank" in first.out
        assert main(self.ARGS + ["--cache-dir", cache, "--out", out_b]) == 0
        second = capsys.readouterr()
        progress = [l for l in second.err.splitlines() if l.startswith("[")]
        assert progress and all(l.endswith("(cache)") for l in progress)
        ra, rb = load_report(out_a), load_report(out_b)
        assert "generated_unix" in ra["ts"]
        assert canonical(ra) == canonical(rb)
        assert ra["ts"] != {} and rb["ts"] != {}

    def test_quiet_suppresses_progress(self, tmp_path, capsys):
        assert main(self.ARGS + ["--quiet"]) == 0
        assert "[" not in capsys.readouterr().err


class TestIssueAcceptance:
    def test_quick_matrix_covers_registry_and_scenarios(self):
        # The ISSUE floor: >= 9 strategies (>= 4 beyond the paper set)
        # across >= 4 scenarios, all through the sweep engine.
        report = tournament(workers=None)
        names = [s["name"] for s in report["strategies"]]
        assert len(names) >= 9
        paper = {"FedL", "FedAvg", "FedCS", "Pow-d"}
        assert len([n for n in names if n not in paper]) >= 4
        assert len(report["scenarios"]) >= 4
        assert set(report["overall"][0].keys()) >= {
            "rank", "strategy", "mean_rank", "mean_accuracy", "scenario_wins",
        }
