"""Regret/fit of sharded FedL selection at large populations.

PR 8 replaces the flat O(K²) per-epoch selection with S independent
per-shard subproblems.  Sharding changes *which* subproblem each online
learner sees, so this study re-verifies the paper's Corollary 1 trends
at scale: dynamic regret and dynamic fit per epoch must keep shrinking
as the horizon grows, for the sharded policy just as for the flat one.

Each horizon drives the full policy (FISTA descent, RDCS rounding,
learner feedback) through a drifting synthetic stream with *known*
per-slot problems, then scores the policy's fractional decisions
against the per-slot optima (warm-started offline solves).

Usage::

    python examples/scaling_study.py                 # K = 2 000 (fast)
    python examples/scaling_study.py --clients 10000 # paper-scale rerun
"""

import argparse
import time

# ``repro`` before numpy: importing it sizes the BLAS pool to one thread,
# which only works before numpy loads.
from repro.config import ShardConfig
from repro.core.fedl import FedLPolicy
from repro.core.phi import Phi
from repro.core.problem import EpochInputs, FedLProblem
from repro.core.regret import dynamic_fit, dynamic_regret
from repro.strategies.base import EpochContext, RoundFeedback
from repro.fl.shard import ShardedFedLPolicy

import numpy as np

RHO_MAX = 6.0


def make_stream(m: int, horizon: int, rng: np.random.Generator):
    """Slowly-drifting per-epoch problems with known inputs."""
    base_tau = rng.uniform(0.2, 2.0, m)
    base_eta = rng.uniform(0.2, 0.7, m)
    slots = []
    for t in range(horizon):
        drift = 0.2 * np.sin(2 * np.pi * t / 40.0 + np.arange(m) % 97)
        slots.append(
            dict(
                tau=np.clip(base_tau + drift, 0.05, None),
                costs=rng.uniform(0.5, 3.0, m),
                available=rng.random(m) < 0.9,
                eta=np.clip(base_eta + 0.1 * drift, 0.0, 0.9),
                losses=rng.uniform(0.1, 2.0, m),
            )
        )
    return slots


def drive_policy(policy, slots, m: int):
    """Run the full select/update loop; return the fractional trajectory
    and the known per-slot problems it is scored against."""
    tau_last = np.full(m, 1.0)
    local_losses = np.full(m, np.nan)
    budget = 1e9  # unconstrained: isolate the learning dynamics
    problems, decisions = [], []
    t0 = time.perf_counter()
    for t, slot in enumerate(slots):
        ctx = EpochContext(
            t=t,
            available=slot["available"],
            costs=slot["costs"],
            remaining_budget=budget,
            min_participants=max(3, m // 100),
            tau_last=tau_last,
            local_losses=local_losses,
        )
        decision = policy.select(ctx)
        sel = decision.selected
        frac = decision.fractional_x
        rho = decision.rho if np.isfinite(decision.rho) else 1.0
        decisions.append(Phi(x=np.clip(frac, 0.0, 1.0), rho=max(1.0, rho)))
        problems.append(
            FedLProblem(
                EpochInputs(
                    tau=slot["tau"],
                    costs=slot["costs"],
                    available=slot["available"],
                    eta_hat=slot["eta"],
                    loss_gap=0.3,
                    loss_sensitivity=np.full(m, -0.12),
                    remaining_budget=budget,
                    min_participants=ctx.min_participants,
                ),
                rho_max=RHO_MAX,
            )
        )
        policy.update(
            RoundFeedback(
                t=t,
                selected=sel,
                tau_realized=slot["tau"],
                local_etas=np.where(sel, slot["eta"], np.nan),
                local_losses=np.where(slot["available"], slot["losses"], np.nan),
                population_loss=float(slot["losses"].mean()),
                cost_spent=float(slot["costs"][sel].sum()),
                epoch_latency=float(slot["tau"][sel].max()) if sel.any() else 0.0,
            )
        )
        tau_last = np.where(slot["available"], slot["tau"], tau_last)
        local_losses = np.where(slot["available"], slot["losses"], local_losses)
    return problems, decisions, time.perf_counter() - t0


def build(kind: str, m: int, seed: int):
    common = dict(
        num_clients=m,
        budget=1e9,
        min_participants=max(3, m // 100),
        theta=0.5,
        rng=np.random.default_rng(seed),
    )
    if kind == "flat":
        return FedLPolicy(**common)
    return ShardedFedLPolicy(
        **common, shard=ShardConfig(num_shards=max(2, m // 500))
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=2_000)
    parser.add_argument("--horizons", type=int, nargs="+", default=[25, 50, 100])
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    m = args.clients
    print(f"K = {m} clients, shards = {max(2, m // 500)}\n")
    header = (
        f"{'policy':>8} {'T':>5} {'Reg_d/T':>10} {'Fit_d/T':>10} "
        f"{'epochs/s':>9}"
    )
    print(header)
    for kind in ("flat", "sharded"):
        prev = None
        for horizon in args.horizons:
            rng = np.random.default_rng(args.seed)
            slots = make_stream(m, horizon, rng)
            policy = build(kind, m, args.seed)
            problems, decisions, seconds = drive_policy(policy, slots, m)
            reg, _ = dynamic_regret(problems, decisions)
            fit = dynamic_fit(problems, decisions)
            # Corollary 1 bounds Reg_d and Fit_d separately: the per-slot
            # benchmark is constrained (h <= 0), so a trajectory that pays
            # fit can drive regret negative — [Reg]+ is what must vanish.
            norm = (max(reg, 0.0) / horizon, fit / horizon)
            trend = ""
            if prev is not None and all(
                a <= b + 1e-9 for a, b in zip(norm, prev)
            ):
                trend = "  (shrinking)"
            prev = norm
            print(
                f"{kind:>8} {horizon:>5} {reg / horizon:>10.4f} "
                f"{fit / horizon:>10.4f} {horizon / seconds:>9.2f}{trend}"
            )
        print()
    print(
        "Both policies should show [Reg_d]+/T and Fit_d/T shrinking with T\n"
        "(Corollary 1's sublinearity), with the sharded column sustaining\n"
        "a far higher epochs/s at large K."
    )


if __name__ == "__main__":
    main()
