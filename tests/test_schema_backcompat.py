"""Back-compat: committed v1-v4 result payloads load through the v5 reader.

The fixtures under ``tests/fixtures/`` are real (tiny) experiment
results serialized by the schema version named in the file, captured at
the moment each schema was superseded:

* ``results_v1.json`` — before the ``sim`` config section existed;
* ``results_v2.json`` — before the ``attack``/``defense`` sections;
* ``results_v3.json`` — before the sweep layer's ``policy``
  self-description rode along on the result;
* ``results_v4.json`` — before the ``checkpoint`` config section
  existed (and before the reader restored ``live``/``shard``).

(Only the first 8 weight entries are kept — the reader never validates
the weight vector's shape, and full fmnist weights would bloat the
fixtures 100×.)

Every old payload must keep loading, with documented defaults for the
fields it predates, for as long as its version stays in
``SUPPORTED_RESULT_SCHEMAS``; a config leaf retired since it was written
loads when it holds the one value the code still runs.  Tournament
reports get the same torn-write guarantee as every other persisted
artifact: a failed save never clobbers the previous report and never
litters temp files.
"""

import json
import pickle
import shutil
from pathlib import Path

import pytest

from repro.checkpoint import CheckpointError, resume_experiment
from repro.checkpoint.snapshot import load_snapshot
from repro.config import AttackConfig, CheckpointConfig, DefenseConfig, SimConfig
from repro.experiments.persistence import (
    RESULT_SCHEMA_VERSION,
    RETIRED_LEAVES,
    RETIRED_STREAMS,
    SUPPORTED_RESULT_SCHEMAS,
    RetiredConfigError,
    config_from_dict,
    load_results,
    result_from_dict,
    save_results,
)
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import make_policy
from repro.experiments.tournament import (
    TOURNAMENT_SCHEMA_VERSION,
    load_report,
    save_report,
)
from repro.rng import RngFactory

FIXTURES = Path(__file__).parent / "fixtures"
OLD_VERSIONS = (1, 2, 3, 4)


def fixture_path(version):
    return FIXTURES / f"results_v{version}.json"


def _configs_in(payload):
    """Every persisted config (a ``"config"`` mapping) inside ``payload``."""
    if isinstance(payload, dict):
        for key, value in payload.items():
            if key == "config" and isinstance(value, dict):
                yield value
            else:
                yield from _configs_in(value)
    elif isinstance(payload, list):
        for value in payload:
            yield from _configs_in(value)


class TestOldResultSchemasLoad:
    @pytest.mark.parametrize("version", OLD_VERSIONS)
    def test_committed_fixture_loads(self, version):
        assert version in SUPPORTED_RESULT_SCHEMAS
        results = load_results(fixture_path(version))
        result = results["FedAvg"]
        assert result.trace.policy_name == "FedAvg"
        assert len(result.trace) == 2
        assert result.stop_reason
        # The "policy" self-description is a v4 addition.
        if version < 4:
            assert result.policy is None
        else:
            assert result.policy == {
                "name": "FedAvg", "stream": "policy.FedAvg"
            }

    @pytest.mark.parametrize("version", OLD_VERSIONS)
    def test_inner_payload_loads_directly(self, version):
        payload = json.loads(fixture_path(version).read_text())
        result = result_from_dict(payload["results"]["FedAvg"])
        assert result.config.seed == 0

    def test_v1_gets_default_sim_section(self):
        cfg = load_results(fixture_path(1))["FedAvg"].config
        assert cfg.sim == SimConfig()

    def test_v2_gets_default_attack_and_defense(self):
        cfg = load_results(fixture_path(2))["FedAvg"].config
        assert cfg.attack == AttackConfig()
        assert cfg.defense == DefenseConfig()

    @pytest.mark.parametrize("version", OLD_VERSIONS)
    def test_pre_v5_gets_default_checkpoint_section(self, version):
        cfg = load_results(fixture_path(version))["FedAvg"].config
        assert cfg.checkpoint == CheckpointConfig()
        assert cfg.checkpoint.directory is None

    @pytest.mark.parametrize("version", OLD_VERSIONS)
    def test_resave_upgrades_to_current_schema(self, version, tmp_path):
        results = load_results(fixture_path(version))
        out = tmp_path / "upgraded.json"
        save_results(results, out)
        payload = json.loads(out.read_text())
        assert payload["schema"] == RESULT_SCHEMA_VERSION
        reloaded = load_results(out)
        assert reloaded["FedAvg"].trace.equals(results["FedAvg"].trace)

    def test_retired_leaves_load_only_at_the_value_still_run(self, tmp_path):
        """Every config under fixtures/ loads unedited (each still spells
        retired leaves at their former defaults); a copy of a snapshot
        manifest asking for a TDMA uplink is refused by name."""
        configs = [
            cfg
            for path in sorted(FIXTURES.rglob("*.json"))
            for cfg in _configs_in(json.loads(path.read_text()))
        ]
        assert len(configs) == 6
        for data in configs:
            spelled = [
                path for path in RETIRED_LEAVES
                if path.split(".")[1] in data.get(path.split(".")[0], {})
            ]
            assert spelled
            assert config_from_dict(data).seed == data["seed"]

        snap = shutil.copytree(FIXTURES / "snapshot_fedl", tmp_path / "snap")
        manifest = json.loads((snap / "manifest.json").read_text())
        manifest["config"]["network"]["mac"] = "tdma"
        with pytest.raises(RetiredConfigError, match="'network.mac' was retired"):
            config_from_dict(manifest["config"])
        (snap / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="'network.mac' was retired"):
            load_snapshot(snap)

    @pytest.mark.parametrize("path, kept", sorted(RETIRED_LEAVES.items()))
    def test_each_retired_leaf_loads_only_at_its_kept_value(self, path, kept):
        section, name = path.split(".")
        spelled = {"seed": 3, section: {name: kept}}
        assert config_from_dict(spelled) == config_from_dict({"seed": 3})
        other = {
            bool: lambda v: not v,
            int: lambda v: v + 1,
            float: lambda v: v + 1.0,
            str: lambda v: v + "-other",
            type(None): lambda v: 1.0,
        }[type(kept)](kept)
        with pytest.raises(RetiredConfigError, match=f"'{path}' was retired"):
            config_from_dict({"seed": 3, section: {name: other}})

    @pytest.mark.parametrize("version", (0, RESULT_SCHEMA_VERSION + 1))
    def test_unknown_schema_rejected(self, version):
        payload = json.loads(fixture_path(3).read_text())
        inner = payload["results"]["FedAvg"]
        inner["schema"] = version
        with pytest.raises(ValueError, match="unsupported result schema"):
            result_from_dict(inner)


class TestRetiredStreams:
    def test_resumed_fedl_snapshot_does_not_carry_the_dp_stream(self, tmp_path):
        """``snapshot_fedl``'s ``rng.json`` still lists ``fl.dp``, the
        stream of the retired DP noise.  A resume that snapshots every
        epoch writes no ``fl.dp`` into any later ``rng.json``, and its
        trajectory is the fresh run's."""
        listed = json.loads((FIXTURES / "snapshot_fedl" / "rng.json").read_text())
        assert set(RETIRED_STREAMS) <= set(listed)
        snapshot = load_snapshot(FIXTURES / "snapshot_fedl")
        assert not set(RETIRED_STREAMS) & set(snapshot.rng_states)
        every = CheckpointConfig(directory=str(tmp_path), interval=1, keep=10)
        resumed = resume_experiment(snapshot, checkpoint_override=every)
        written = sorted(tmp_path.glob("epoch_*/rng.json"))
        assert len(written) == len(resumed.trace.records) - snapshot.resume.next_epoch
        for path in written:
            assert not set(RETIRED_STREAMS) & set(json.loads(path.read_text()))
        cfg = snapshot.config.replace(checkpoint=CheckpointConfig())
        fresh = run_experiment(
            make_policy("FedL", cfg, RngFactory(cfg.seed).get("cli.policy")), cfg
        )
        assert resumed.final_w.tobytes() == fresh.final_w.tobytes()
        assert resumed.trace.equals(fresh.trace)


    def test_resumed_fedl_snapshot_drops_the_retired_config_leaf(self, tmp_path):
        """``snapshot_fedl``'s pickled policy carries
        ``fedl.reliability_penalty`` on its config, a retired leaf.  The
        loaded policy does not, nor does any later ``policy.pkl``, and the
        resumed trajectory is the fresh run's."""
        raw = pickle.loads((FIXTURES / "snapshot_fedl" / "policy.pkl").read_bytes())
        assert "reliability_penalty" in vars(raw.config)
        snapshot = load_snapshot(FIXTURES / "snapshot_fedl")
        assert "reliability_penalty" not in vars(snapshot.policy.config)
        every = CheckpointConfig(directory=str(tmp_path), interval=1, keep=10)
        resumed = resume_experiment(snapshot, checkpoint_override=every)
        written = sorted(tmp_path.glob("epoch_*/policy.pkl"))
        assert written
        for path in written:
            policy = pickle.loads(path.read_bytes())
            assert "reliability_penalty" not in vars(policy.config)
        cfg = snapshot.config.replace(checkpoint=CheckpointConfig())
        fresh = run_experiment(
            make_policy("FedL", cfg, RngFactory(cfg.seed).get("cli.policy")), cfg
        )
        assert resumed.final_w.tobytes() == fresh.final_w.tobytes()
        assert resumed.trace.equals(fresh.trace)


class TestTournamentReportPersistence:
    def report(self, marker="old"):
        return {
            "schema": TOURNAMENT_SCHEMA_VERSION,
            "marker": marker,
            "rankings": {"iid": [["FedL", 0.9]]},
        }

    def test_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        save_report(self.report(), path, ts={"generated_unix": 1.0})
        loaded = load_report(path)
        assert loaded["marker"] == "old"
        assert loaded["ts"] == {"generated_unix": 1.0}

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        save_report({"schema": TOURNAMENT_SCHEMA_VERSION + 1}, path)
        with pytest.raises(ValueError, match="unsupported tournament schema"):
            load_report(path)

    def test_failed_save_preserves_old_report(self, tmp_path):
        path = tmp_path / "report.json"
        save_report(self.report("old"), path)
        before = path.read_bytes()

        class Exploding:
            """Unserializable: json.dumps raises midway."""

        bad = self.report("new")
        bad["rankings"] = Exploding()
        with pytest.raises(TypeError):
            save_report(bad, path)
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []

    def test_successful_save_leaves_no_temp_litter(self, tmp_path):
        path = tmp_path / "report.json"
        save_report(self.report(), path)
        save_report(self.report("updated"), path)
        assert load_report(path)["marker"] == "updated"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
