"""Every registered strategy selects exactly what it selected before the
registry moved each strategy's declaration onto its class.

Each case is one short fixed run (12 clients, 10 epochs, loop engine,
the CLI's policy stream) and its SHA-256 over the final weights and the
trace, recorded with the code as it stood before that move.  Every
registered name runs at its defaults; each wrapper also runs once over a
non-FedAvg base with non-default parameters, and FedL once per sharded
construction path.  A changed hash means a strategy, a default, or the
one build path changed behaviour.

Two snapshots written before the move (``tests/fixtures/snapshot_*``,
epoch 4 of a six-epoch run) pin checkpoint compatibility: FedL's
class did not move, so its snapshot resumes bit-identically; FedAvg's
pickle names the deleted ``repro.baselines`` package, so resuming it is
a typed :class:`~repro.checkpoint.CheckpointError` (CLI exit 1), never a
traceback.
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.checkpoint import CheckpointError, load_snapshot, resume_experiment
from repro.cli import main
from repro.config import CheckpointConfig
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import experiment_config, make_policy
from repro.rng import RngFactory
from repro.strategies import strategy_names

FIXTURES = Path(__file__).parent / "fixtures"

#: (name, params, config overrides, final_w + trace SHA-256).
DIGESTS = [
    ("FedL", {}, {}, "fb898df4205046a1dc5b669ed90b29fa1907f58cc99cbb84e58e28930edd30ed"),
    ("FedAvg", {}, {}, "aec244abf78e4c7e1747824bed1bfc458949001985f00e23d4a339ad70e2d10b"),
    ("FedCS", {}, {}, "6e863e8b692332c811ca6ea9ab85265d47cd9e8c680d54073b44ace7a30df435"),
    ("Pow-d", {}, {}, "f0d0da221786e42f997e73f10c625729a5ea460ba94b52435fdb8c04ae7c2d60"),
    ("Fair-FedL", {}, {}, "ecdcbd0a7455d6429e4a00d122466a948821f71d46c10f3eb65728ed9af1820e"),
    ("UCB", {}, {}, "23a5465ce20c5069f38ab65a93caa5ee471d991ccb2f9c03998f821f22bcd7c1"),
    ("Oracle", {}, {}, "5210aa459b22b785899337eb2fbfb8b46e32c5fad08c8f8409b7abb81307df42"),
    ("OverSelect", {}, {}, "86f91e7ffaaea89b2b669fa9baf3658198859d07d5df352e22f669f69adb755c"),
    ("GradNorm", {}, {}, "39b037a8068fc17cf3eacffc18a077b8b5803a3081771b923b78eed894b69b87"),
    ("LossProp", {}, {}, "8df13550be9244adbc07519dc180340f18a625d3243807b9990c9bb553561b93"),
    ("Divergence", {}, {}, "b5f4181a5955c04e7581175d57afdb7fa40776ef382b52f723a1b6d79b44f630"),
    ("GreedyUtility", {}, {}, "76c543379ad3481d65330d0bdcc0614185f36cb7118968bcf4b187e1ddb89732"),
    ("KnapsackDP", {}, {}, "aeb511eb1696e0df5f996ccf75b007ebd8b09a7e1c3d574cf62db9384c38bd4a"),
    ("HardDeadline", {}, {}, "e27ba644faf6a40bb06a015c029f3a49840525850022df279f28b5ac664a077f"),
    ("SoftDeadline", {}, {}, "aec244abf78e4c7e1747824bed1bfc458949001985f00e23d4a339ad70e2d10b"),
    ("OverSelect", {"base": "FedCS", "extra": 3, "iterations": 3}, {},
     "c287ccb4c9fc9a00891e9b99302b6a01f315b3836ee41d66737783d880c4a37b"),
    ("HardDeadline", {"base": "Pow-d", "quantile": 0.8, "iterations": 1}, {},
     "0f7fdbb0b87c0af2695ebcfef7b4a504460ecb740415836e98e31559406e4c33"),
    ("HardDeadline", {"base": "FedL", "quantile": 0.5}, {},
     "97cfe26cd38d46c4903aeaab28bf9162aeb8d9db3a17bef91ca1c319c53b7ff1"),
    ("SoftDeadline", {"base": "GreedyUtility", "quantile": 0.3, "penalty": 5.0}, {},
     "93eea4cda6396963030c37e494bb6d1877f7778ae09d3757eb2b217feea329e4"),
    ("SoftDeadline", {"base": "KnapsackDP", "deadline_s": 0.1, "penalty": 3.0}, {},
     "726f5005aee71d7575e798523b805155b930979d680948f0a27c529b1fbec466"),
    ("FedL", {}, {"shard.num_shards": 3},
     "8a4a4394837151a331bfdca8e785beecfb775bea385b0cea33d39e81b397a0b1"),
    ("FedL", {}, {"shard.num_shards": 2, "shard.assignment": "kmeans"},
     "be9d5b3c35aa9e2079e08d5c910841602b312c11432c4f7fa9490a27aae69559"),
]


def run_digest(name, params, overrides):
    cfg = experiment_config(
        budget=400.0, num_clients=12, min_participants=3, max_epochs=10, seed=3
    ).override({"training.engine": "loop", **overrides})
    policy = make_policy(name, cfg, RngFactory(cfg.seed).get("cli.policy"), params)
    result = run_experiment(policy, cfg)
    records = [vars(r) for r in result.trace.records]
    payload = result.final_w.tobytes() + json.dumps(records, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def test_every_registered_name_has_a_default_case():
    defaults = [name for name, params, overrides, _ in DIGESTS
                if not params and not overrides]
    assert defaults == list(strategy_names())


@pytest.mark.parametrize(
    "name, params, overrides, digest", DIGESTS,
    ids=[f"{n}-{i}" for i, (n, *_rest) in enumerate(DIGESTS)],
)
def test_strategy_is_byte_identical(name, params, overrides, digest):
    assert run_digest(name, params, overrides) == digest


def test_fedl_snapshot_still_resumes_bit_identically():
    snapshot = load_snapshot(FIXTURES / "snapshot_fedl")
    assert snapshot.resume.next_epoch == 4
    off = CheckpointConfig()
    resumed = resume_experiment(snapshot, checkpoint_override=off)
    cfg = snapshot.config.replace(checkpoint=off)
    fresh = run_experiment(
        make_policy("FedL", cfg, RngFactory(cfg.seed).get("cli.policy")), cfg
    )
    assert resumed.final_w.tobytes() == fresh.final_w.tobytes()
    assert resumed.trace.equals(fresh.trace)


def test_fedavg_snapshot_of_a_moved_class_fails_typed(tmp_path, capsys):
    snap = shutil.copytree(FIXTURES / "snapshot_fedavg", tmp_path / "snap")
    with pytest.raises(CheckpointError, match="repro.baselines"):
        load_snapshot(snap)
    assert main(["run", "--resume", str(snap)]) == 1
    err = capsys.readouterr().err
    assert "cannot resume" in err
    assert "Traceback" not in err
