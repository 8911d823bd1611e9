"""Dynamic regret & fit of the online learner on a synthetic stream.

Drives the saddle-point learner (paper eqs. 8-9) through a stream of
time-varying per-epoch problems with *known* per-slot optima, and reports
dynamic regret and dynamic fit as the horizon grows — the quantities
Corollary 1 bounds by O(T^{2/3}).

Usage::

    python examples/regret_analysis.py
"""

from repro.core.online_learner import OnlineLearner
from repro.core.regret import drifting_problem_stream, dynamic_fit, dynamic_regret
from repro.rng import RngFactory


def run_horizon(horizon: int, rng_factory: RngFactory):
    m = 8
    problems = drifting_problem_stream(m, horizon, rng_factory.fresh("stream"))
    step = horizon ** (-1.0 / 3.0)          # Corollary 1's rule
    learner = OnlineLearner(m, beta=step, delta=step, rho_max=6.0)
    decisions = []
    for prob in problems:
        phi = learner.descent_step(prob.inputs)
        decisions.append(phi)
        learner.dual_ascent(prob.h(phi))
    reg, _ = dynamic_regret(problems, decisions)
    fit = dynamic_fit(problems, decisions)
    return reg, fit


def main() -> None:
    rng_factory = RngFactory(5)
    print(f"{'T':>6} {'Reg_d':>10} {'Fit_d':>10} {'Reg_d/T':>10} {'Fit_d/T':>10}")
    for horizon in (25, 50, 100, 200):
        reg, fit = run_horizon(horizon, rng_factory)
        print(
            f"{horizon:>6} {reg:>10.2f} {fit:>10.2f}"
            f" {reg / horizon:>10.3f} {fit / horizon:>10.3f}"
        )
    print()
    print("Per-Corollary 1, Reg_d and Fit_d grow sublinearly: the per-epoch")
    print("averages (last two columns) shrink as the horizon T grows.")


if __name__ == "__main__":
    main()
