"""Regression tests for ``RoundResult`` defaults and annotations."""

import dataclasses
from typing import Optional, get_type_hints

import numpy as np
import pytest

from repro.config import LiveConfig
from repro.experiments import runner
from repro.experiments.scenarios import experiment_config, make_policy
from repro.fl.round_runner import RoundResult
from repro.rng import RngFactory


def make_result(**overrides):
    kwargs = dict(
        w=np.zeros(3),
        iterations=2,
        local_etas=np.array([0.1, np.nan, 0.3, 0.2]),
        participant_loss=1.0,
        population_loss=1.1,
        test_accuracy=0.5,
        test_loss=0.9,
        eta_max=0.3,
    )
    kwargs.update(overrides)
    return RoundResult(**kwargs)


def test_upload_ratio_defaults_to_ones_of_client_shape():
    result = make_result()
    assert result.upload_ratio.shape == result.local_etas.shape
    np.testing.assert_array_equal(result.upload_ratio, np.ones(4))


def test_upload_ratio_annotation_is_optional():
    hints = get_type_hints(RoundResult)
    assert hints["upload_ratio"] == Optional[np.ndarray]


def test_explicit_upload_ratio_is_kept_and_coerced():
    result = make_result(upload_ratio=[0.5, 1.0, 0.25, 1.0])
    assert isinstance(result.upload_ratio, np.ndarray)
    np.testing.assert_array_equal(result.upload_ratio, [0.5, 1.0, 0.25, 1.0])


@pytest.mark.parametrize("engine", ["loop", "batched", "des", "live"])
def test_timeline_is_the_one_network_outcome_field(engine, monkeypatch):
    """``timeline`` is ``None`` for the closed-form engines and carries the
    simulated/measured outcome — from which ``completion_time`` follows —
    for des/live; the per-engine ``sim``/``live`` fields are gone."""
    results = []
    real = runner.run_federated_round
    monkeypatch.setattr(
        runner,
        "run_federated_round",
        lambda *a, **k: results.append(real(*a, **k)) or results[-1],
    )
    cfg = experiment_config(
        budget=150.0, num_clients=6, min_participants=2, max_epochs=2
    )
    cfg = cfg.replace(
        training=dataclasses.replace(cfg.training, engine=engine),
        live=LiveConfig(time_scale=0.01),
    )
    policy = make_policy("FedAvg", cfg, RngFactory(cfg.seed).get("cli.policy"))
    trace = runner.run_experiment(policy, cfg).trace
    assert results
    fields = {f.name for f in dataclasses.fields(RoundResult)}
    assert "timeline" in fields and not fields & {"sim", "live"}
    for result, record in zip(results, trace.records):
        if engine in ("des", "live"):
            assert result.completion_time == result.timeline.completion_time > 0
            assert record.epoch_latency == result.completion_time
            assert result.timeline.dropped == {}
            assert len(result.timeline.contributors) == result.iterations
        else:
            assert result.timeline is None
            assert result.completion_time is None
