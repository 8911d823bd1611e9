"""Integration tests: the full online FL loop for every policy."""

import numpy as np
import pytest

from repro.config import DataConfig, PopulationConfig
from repro.experiments.runner import ExperimentResult, Simulation, run_experiment
from repro.experiments.scenarios import POLICY_NAMES, experiment_config, make_policy
from repro.net import achievable_rate, compute_latency, transmission_latency
from repro.rng import RngFactory


def small_config(**kwargs):
    defaults = dict(
        budget=120.0, num_clients=10, min_participants=3, max_epochs=12
    )
    defaults.update(kwargs)
    return experiment_config(**defaults)


@pytest.fixture(scope="module")
def fedavg_result():
    cfg = small_config()
    pol = make_policy("FedAvg", cfg, RngFactory(0).get("p"))
    return run_experiment(pol, cfg)


class TestSimulationSetup:
    def test_builds_all_substrates(self):
        sim = Simulation(small_config())
        assert sim.population.num_clients == 10
        assert len(sim.clients) == 10
        assert len(sim.streams) == 10
        assert sim.test_set.x.shape[0] >= 100

    def test_cifar_configuration(self):
        sim = Simulation(small_config(dataset="cifar10"))
        assert sim.generator.num_features == 16 * 16 * 3

    def test_non_iid_partition(self):
        sim = Simulation(small_config(iid=False))
        dists = np.diff(sim.streams.label_cdf, axis=1, prepend=0.0)
        # Non-IID: rows are skewed, not uniform.
        assert dists.max() > 0.2

    def test_realized_tau_positive_finite(self):
        sim = Simulation(small_config())
        tau = sim.realized_tau(
            np.full(10, 30), sim.channel.mean_state(), num_sharing=3
        )
        assert tau.shape == (10,)
        assert np.all(tau > 0)
        assert np.all(np.isfinite(tau))

    def test_more_sharing_slower(self):
        sim = Simulation(small_config())
        st = sim.channel.mean_state()
        counts = np.full(10, 30)
        t1 = sim.realized_tau(counts, st, num_sharing=1)
        t5 = sim.realized_tau(counts, st, num_sharing=5)
        assert np.all(t5 >= t1)

    @pytest.mark.parametrize("num_sharing, sharers", [(0, 1), (1, 1), (5, 5)])
    @pytest.mark.parametrize("compressed", [False, True])
    def test_tau_components_are_the_one_latency_formula(
        self, num_sharing, sharers, compressed
    ):
        """τ_loc = e·D/π and τ_cm = s / r(B/num_sharing) bit for bit (paper
        Sec. 3.2), with no sharers priced as one and an upload ratio
        scaling τ_cm alone."""
        sim = Simulation(small_config())
        state = sim.channel.sample()
        counts = np.random.default_rng(3).integers(10, 60, size=10)
        ratio = np.linspace(0.1, 1.0, 10) if compressed else None
        tau_loc, tau_cm = sim.realized_tau_components(
            counts, state, num_sharing, upload_ratio=ratio
        )
        pop, net = sim.population, sim.config.network
        want_loc = compute_latency(
            pop.cycles_per_bit, counts * pop.bits_per_sample, pop.cpu_freq_hz
        )
        rates = achievable_rate(net.bandwidth_hz / sharers, state.snr_per_hz())
        want_cm = transmission_latency(net.upload_bits, rates)
        if compressed:
            want_cm = want_cm * ratio
        np.testing.assert_array_equal(tau_loc, want_loc)
        np.testing.assert_array_equal(tau_cm, want_cm)
        np.testing.assert_array_equal(
            sim.realized_tau(counts, state, num_sharing, upload_ratio=ratio),
            want_loc + want_cm,
        )


class TestRunExperiment:
    def test_budget_never_overspent(self, fedavg_result):
        tr = fedavg_result.trace
        assert tr.total_spend <= 120.0 + 1e-6
        assert np.all(tr.column("remaining_budget") >= -1e-6)

    def test_min_participants_respected(self, fedavg_result):
        assert np.all(fedavg_result.trace.column("num_selected") >= 3)

    def test_cumulative_time_monotone(self, fedavg_result):
        t = fedavg_result.trace.times
        assert np.all(np.diff(t) > 0)

    def test_stop_reason_valid(self, fedavg_result):
        assert fedavg_result.stop_reason in (
            "budget_exhausted", "max_epochs", "target_accuracy", "no_selection"
        )

    def test_deterministic_given_seed(self):
        cfg = small_config()
        r1 = run_experiment(make_policy("FedAvg", cfg, RngFactory(0).get("p")), cfg)
        r2 = run_experiment(make_policy("FedAvg", cfg, RngFactory(0).get("p")), cfg)
        np.testing.assert_array_equal(r1.trace.accuracy, r2.trace.accuracy)
        np.testing.assert_array_equal(r1.trace.times, r2.trace.times)

    def test_different_seeds_differ(self):
        cfg1, cfg2 = small_config(seed=1), small_config(seed=2)
        r1 = run_experiment(make_policy("FedAvg", cfg1, RngFactory(1).get("p")), cfg1)
        r2 = run_experiment(make_policy("FedAvg", cfg2, RngFactory(2).get("p")), cfg2)
        assert not np.array_equal(r1.trace.accuracy, r2.trace.accuracy)

    def test_target_accuracy_stops_early(self):
        cfg = small_config(max_epochs=100, budget=1e5)
        pol = make_policy("FedAvg", cfg, RngFactory(0).get("p"))
        res = run_experiment(pol, cfg, target_accuracy=0.3)
        assert res.stop_reason == "target_accuracy"
        assert res.trace.final_accuracy >= 0.3

    def test_learning_happens(self, fedavg_result):
        tr = fedavg_result.trace
        assert tr.final_accuracy > tr.accuracy[0]

    @pytest.mark.parametrize("name", POLICY_NAMES + ("Oracle",))
    def test_every_policy_completes(self, name):
        cfg = small_config(max_epochs=6)
        pol = make_policy(name, cfg, RngFactory(3).get(f"p.{name}"))
        res = run_experiment(pol, cfg)
        assert len(res.trace) >= 1
        assert res.trace.policy_name == name
        assert np.isfinite(res.trace.final_accuracy)

    def test_fedl_records_rho(self):
        cfg = small_config(max_epochs=5)
        pol = make_policy("FedL", cfg, RngFactory(0).get("p"))
        res = run_experiment(pol, cfg)
        assert np.all(np.isfinite(res.trace.column("rho")))
        assert np.all(res.trace.column("rho") >= 1.0)

    def test_unknown_policy_rejected(self):
        cfg = small_config()
        with pytest.raises(ValueError):
            make_policy("Magic", cfg, RngFactory(0).get("p"))


class TestSharedSimulation:
    def test_simulation_reuse_is_fresh_state_error_free(self):
        """Passing an explicit Simulation lets callers control pairing."""
        cfg = small_config(max_epochs=4)
        sim = Simulation(cfg)
        pol = make_policy("FedAvg", cfg, RngFactory(0).get("p"))
        res = run_experiment(pol, cfg, simulation=sim)
        assert len(res.trace) >= 1
