"""Theory bench — Theorem 4: FedL runs in polynomial time O(T_C K²).

Times the per-epoch controller (descent step + rounding + dual ascent) at
growing fleet sizes K and checks the growth is polynomial-moderate: going
K → 4K must not blow the per-epoch cost up by more than ~(4K/K)³ (a slack
envelope over the K² theory bound that tolerates constant factors and
BLAS effects at small sizes).

A rounding-only row times ``rdcs_round`` alone on F all-fractional
coordinates: its bookkeeping is O(1) per pairing, so F → 16F must cost
well under the ≈ 100× a per-step rebuild of the fractional list measures.
"""

import time

import numpy as np
import pytest

from repro.core.online_learner import OnlineLearner
from repro.core.problem import EpochInputs
from repro.core.rounding import rdcs_round

SIZES = (10, 20, 40)
EPOCHS = 15
ROUNDING_SIZES = (250, 1000, 4000)


def controller_seconds(m: int, seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    learner = OnlineLearner(m, beta=0.3, delta=0.3, rho_max=6.0)
    start = time.perf_counter()
    for t in range(EPOCHS):
        inputs = EpochInputs(
            tau=rng.uniform(0.1, 2.0, m),
            costs=rng.uniform(0.5, 3.0, m),
            available=np.ones(m, bool),
            eta_hat=rng.uniform(0.1, 0.8, m),
            loss_gap=0.3,
            loss_sensitivity=np.full(m, -0.05),
            remaining_budget=1e6,
            min_participants=3,
        )
        phi = learner.descent_step(inputs)
        rdcs_round(np.clip(phi.x, 0, 1), rng)
        learner.dual_ascent(np.zeros(m + 1))
    return (time.perf_counter() - start) / EPOCHS


def rounding_seconds(f: int, repeats: int = 3) -> float:
    """Best-of-``repeats`` seconds for one ``rdcs_round`` call at F = f."""
    x = np.random.default_rng(0).uniform(0.05, 0.95, f)
    best = float("inf")
    for seed in range(repeats):
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        rdcs_round(x, rng)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.benchmark(group="theory")
def test_runtime_polynomial_in_fleet_size(benchmark, emit):
    times, rounding = benchmark.pedantic(
        lambda: (
            {m: controller_seconds(m) for m in SIZES},
            {f: rounding_seconds(f) for f in ROUNDING_SIZES},
        ),
        rounds=1,
        iterations=1,
    )
    lines = ["[thm-runtime] per-epoch controller cost"]
    for m, s in times.items():
        lines.append(f"  K={m:>3}: {s * 1e3:8.2f} ms/epoch")
    ratio = times[SIZES[-1]] / max(times[SIZES[0]], 1e-9)
    k_ratio = SIZES[-1] / SIZES[0]
    lines.append(
        f"  K x{k_ratio:.0f} → time x{ratio:.1f} "
        f"(K² envelope: x{k_ratio**2:.0f})"
    )
    lines.append("  rounding only (rdcs_round, all coordinates fractional)")
    for f, s in rounding.items():
        lines.append(f"  F={f:>4}: {s * 1e3:8.2f} ms/call")
    f_ratio = ROUNDING_SIZES[-1] / ROUNDING_SIZES[0]
    r_ratio = rounding[ROUNDING_SIZES[-1]] / max(rounding[ROUNDING_SIZES[0]], 1e-9)
    lines.append(f"  F x{f_ratio:.0f} → time x{r_ratio:.1f} (linear: x{f_ratio:.0f})")
    emit("\n".join(lines))
    # Polynomial envelope: slack cubic bound plus an additive floor for
    # fixed per-epoch overheads at tiny sizes.
    assert times[SIZES[-1]] <= (k_ratio**3) * times[SIZES[0]] + 0.05
    # Linear bookkeeping: the 16x step in F must stay far from quadratic.
    assert r_ratio < 40.0
