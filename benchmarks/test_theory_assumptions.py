"""Theory bench — measuring the assumptions on the actual workload.

The regret guarantees assume (Sec. 3.1 & Assumption 1):

* local losses are L-smooth and γ-strongly convex (γ > 0 holds provably
  for the logreg model with L2; for the MLP, γ is measured and may be
  ~0/negative — which is exactly the gap between the theory's setting and
  deep models that the paper inherits from the FL literature),
* bounded per-slot gradients G_f, G_h and feasible-set radius R.

This bench reports the measured constants and checks internal consistency.

The constants cannot be proven for an arbitrary NumPy model, but they can
be *measured*: :func:`estimate_curvature` samples secants around a point
and :func:`assumption1_constants` samples the epoch problem's box
(``tests/test_analysis_stats.py`` unit-tests both).
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import pytest

from repro.core.phi import Phi
from repro.core.problem import EpochInputs, FedLProblem
from repro.datasets.fmnist import synthetic_fmnist
from repro.datasets.synthetic import Dataset
from repro.nn.models import ClassifierModel, build_model
from repro.rng import RngFactory


@dataclass(frozen=True)
class CurvatureEstimate:
    """Sampled curvature bounds of a loss surface.

    ``smoothness`` estimates L = sup ‖∇F(u) − ∇F(v)‖/‖u − v‖ and
    ``strong_convexity`` estimates γ = inf (∇F(u) − ∇F(v))ᵀ(u − v)/‖u − v‖²
    over the sampled direction pairs.  For a convex loss 0 <= γ <= L.
    """

    smoothness: float
    strong_convexity: float

    @property
    def condition_number(self) -> float:
        if self.strong_convexity <= 0:
            return float("inf")
        return self.smoothness / self.strong_convexity


def estimate_curvature(
    model: ClassifierModel,
    data: Dataset,
    w: np.ndarray,
    rng: np.random.Generator,
    num_pairs: int = 24,
    radius: float = 0.5,
) -> CurvatureEstimate:
    """Sample gradient differences around ``w`` to bound L and γ.

    Draws random pairs ``(u, v)`` within ``radius`` of ``w`` and evaluates
    the secant quantities; the max ratio lower-bounds L and the min
    curvature lower-bounds... upper-bounds γ.  (Sampling gives one-sided
    estimates: reported L can only undershoot, reported γ can only
    overshoot — the conservative directions for *checking* L-smoothness
    claims and for *falsifying* strong-convexity claims respectively.)
    """
    if num_pairs < 1:
        raise ValueError("num_pairs must be >= 1")
    if radius <= 0:
        raise ValueError("radius must be positive")
    w = np.asarray(w, dtype=float)
    l_max = 0.0
    gamma_min = np.inf
    for _ in range(num_pairs):
        du = rng.normal(size=w.size)
        dv = rng.normal(size=w.size)
        u = w + radius * du / max(np.linalg.norm(du), 1e-12)
        v = w + radius * dv / max(np.linalg.norm(dv), 1e-12)
        _, gu = model.loss_and_grad(u, data.x, data.y)
        _, gv = model.loss_and_grad(v, data.x, data.y)
        diff_w = u - v
        diff_g = gu - gv
        denom = float(diff_w @ diff_w)
        if denom < 1e-16:
            continue
        l_max = max(l_max, float(np.linalg.norm(diff_g)) / np.sqrt(denom))
        gamma_min = min(gamma_min, float(diff_g @ diff_w) / denom)
    return CurvatureEstimate(
        smoothness=l_max,
        strong_convexity=float(gamma_min) if np.isfinite(gamma_min) else 0.0,
    )


def assumption1_constants(
    problem: FedLProblem,
    rng: np.random.Generator,
    num_samples: int = 64,
) -> Tuple[float, float, float]:
    """Measured ``(G_f, G_h, R)`` for one epoch problem (Assumption 1).

    Samples Φ uniformly from the box and returns the max gradient norm of
    ``f_t``, the max norm of ``h_t``, and half the box diameter (the R in
    ``‖m − n‖ <= 2R``).
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    lo, hi = problem.box_bounds()
    g_f = 0.0
    g_h = 0.0
    for _ in range(num_samples):
        v = lo + (hi - lo) * rng.random(lo.size)
        phi = Phi.from_vector(np.maximum(v, np.concatenate([np.zeros(lo.size - 1), [1.0]])))
        g_f = max(g_f, float(np.linalg.norm(problem.grad_f(phi))))
        g_h = max(g_h, float(np.linalg.norm(problem.h(phi))))
    radius = 0.5 * float(np.linalg.norm(hi - lo))
    return g_f, g_h, radius


@pytest.mark.benchmark(group="theory")
def test_measured_assumption_constants(benchmark, emit):
    def run():
        root = RngFactory(3)
        gen = synthetic_fmnist(root.get("data"), downscale=2)
        data = gen.sample(200, rng=root.get("sample"))
        reg = 0.05
        logreg = build_model("logreg", gen.num_features, 10, root.get("m1"), l2_reg=reg)
        mlp = build_model("mlp", gen.num_features, 10, root.get("m2"),
                          hidden=(32,), l2_reg=reg)
        curvature = {
            "logreg": estimate_curvature(
                logreg, data, logreg.get_params(), root.get("c1")
            ),
            "mlp": estimate_curvature(mlp, data, mlp.get_params(), root.get("c2")),
        }
        m = 20
        rng = root.get("prob")
        prob = FedLProblem(
            EpochInputs(
                tau=rng.uniform(0.05, 2.0, m),
                costs=rng.uniform(0.5, 3.0, m),
                available=np.ones(m, bool),
                eta_hat=rng.uniform(0.1, 0.8, m),
                loss_gap=0.5,
                loss_sensitivity=np.full(m, -0.05),
                remaining_budget=100.0,
                min_participants=5,
            ),
            rho_max=8.0,
        )
        consts = assumption1_constants(prob, root.get("a1"))
        return curvature, consts, reg

    curvature, (g_f, g_h, radius), reg = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    emit(
        "[thm-assumptions]\n"
        f"  logreg: L={curvature['logreg'].smoothness:.3f}"
        f"  gamma={curvature['logreg'].strong_convexity:.4f}"
        f"  (provable floor gamma >= l2_reg = {reg})\n"
        f"  mlp   : L={curvature['mlp'].smoothness:.3f}"
        f"  gamma={curvature['mlp'].strong_convexity:.4f}"
        f"  (deep models need not be strongly convex)\n"
        f"  Assumption 1 on a 20-client epoch: G_f={g_f:.2f}"
        f"  G_h={g_h:.2f}  R={radius:.2f}"
    )
    # Provable relations hold in the measurements.
    assert curvature["logreg"].strong_convexity >= reg - 1e-6
    assert curvature["logreg"].smoothness >= curvature["logreg"].strong_convexity
    assert g_f > 0 and g_h > 0 and radius > 0
