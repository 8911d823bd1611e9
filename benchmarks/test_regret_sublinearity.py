"""Theory bench — Corollary 1: sublinear dynamic regret and fit.

Drives the online learner over synthetic bounded-variation streams with
Corollary 1's step sizes β = δ = T^{-1/3} and verifies that the
*time-averaged* regret and fit shrink as the horizon grows (the signature
of sublinear growth), and that the measured regret respects the Theorem 2
bound computed from the same trajectory.
"""

import numpy as np
import pytest

from repro.core.bounds import mu_hat_bound, path_length, regret_bound
from repro.core.online_learner import OnlineLearner
from repro.core.regret import drifting_problem_stream, dynamic_fit, dynamic_regret
from repro.rng import RngFactory

HORIZONS = (20, 40, 80)
M = 8


def run_horizon(horizon: int, factory: RngFactory):
    problems = drifting_problem_stream(M, horizon, factory.fresh("stream"))
    step = horizon ** (-1.0 / 3.0)
    learner = OnlineLearner(M, beta=step, delta=step, rho_max=6.0)
    decisions = []
    for prob in problems:
        phi = learner.descent_step(prob.inputs)
        decisions.append(phi)
        learner.dual_ascent(prob.h(phi))
    reg, opts = dynamic_regret(problems, decisions)
    fit = dynamic_fit(problems, decisions)
    return reg, fit, opts


@pytest.mark.benchmark(group="theory")
def test_regret_and_fit_sublinear(benchmark, emit):
    factory = RngFactory(5)
    results = benchmark.pedantic(
        lambda: {T: run_horizon(T, factory) for T in HORIZONS},
        rounds=1,
        iterations=1,
    )
    lines = [f"[thm-regret] {'T':>5} {'Reg_d':>9} {'Fit_d':>9} {'Fit/T':>8}"]
    for T, (reg, fit, _) in results.items():
        lines.append(f"             {T:>5} {reg:>9.2f} {fit:>9.2f} {fit / T:>8.3f}")
    emit("\n".join(lines))

    # Time-averaged fit strictly decreases over the horizon sweep.
    avg_fit = [results[T][1] / T for T in HORIZONS]
    assert avg_fit[-1] < avg_fit[0]
    # Regret itself stays below the Theorem 2 bound evaluated on the run.
    T = HORIZONS[-1]
    reg, fit, opts = results[T]
    step = T ** (-1.0 / 3.0)
    g_f, g_h, radius = 10.0, 5.0, np.sqrt(M + 25.0)
    mu_hat = mu_hat_bound(step, step, g_f, g_h, radius, xi=1.0, v_hat_h=0.5)
    bound = regret_bound(
        t_c=T, beta=step, delta=step, g_f=g_f, g_h=g_h, radius=radius,
        mu_hat=mu_hat, v_phi_star=path_length(opts), v_h=0.5 * T,
    )
    assert reg <= bound
