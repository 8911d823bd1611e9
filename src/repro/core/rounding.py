"""Online rounding: RDCS (paper Alg. 2) and the independent baseline.

RDCS — Randomized Dependent Client Selection — repeatedly picks a pair of
still-fractional coordinates ``(i, j)`` and shifts mass between them:

    ζ1 = min(1 − x_i, x_j),   ζ2 = min(x_i, 1 − x_j)
    with prob ζ2/(ζ1+ζ2):  x_i += ζ1, x_j −= ζ1
    with prob ζ1/(ζ1+ζ2):  x_i −= ζ2, x_j += ζ2

Each operation makes at least one of the pair integral, keeps the sum
exactly constant, and is a martingale in every coordinate —
which yields Theorem 3: ``E[x_k] = x̃_k``.  When the fractional total is
not an integer a single fractional coordinate survives the pairing loop;
it is resolved by an (unavoidable) independent Bernoulli round, so the
realized sum is ``floor(Σx̃)`` or ``ceil(Σx̃)`` and the marginals are still
exact.

Both functions reject a non-finite fraction with ``ValueError``: a NaN
would otherwise pass the range check and come out as neither 0 nor 1 (RDCS)
or silently as 0 (independent rounding).

Cost per call: O(K) vectorized validation plus, for F fractional coordinates,
at most F − 1 pairing steps of O(1) bookkeeping each.  A step draws its pair
and its uniform through :class:`repro.rng.PCG64Stream`, which reads the
generator's PCG64 words in blocks and reproduces numpy's
``Generator.choice(n, 2, replace=False)`` (Floyd's sampler and a
two-element shuffle over Lemire-bounded ``next_uint32`` draws) and
``Generator.random()`` word for word, then rewinds the generator to exactly
the words used: the same output and generator state as the numpy calls, at
about a quarter of their cost.  Guards: the reader refuses any bit
generator but PCG64 (``UnsupportedBitGenerator``), and the tier-1 tests
compare it with numpy's own ``choice``/``random``/``integers`` and
``rdcs_round`` with its frozen numpy-call loop, so a numpy release that
changes those algorithms fails the suite instead of silently shifting a
stream.
"""

from __future__ import annotations

import numpy as np

from repro.rng import PCG64Stream

__all__ = ["rdcs_round", "independent_round"]

_ATOL = 1e-12


def _snap(x: np.ndarray) -> np.ndarray:
    """Snap values within tolerance of {0, 1} exactly onto them."""
    x = np.where(np.abs(x) <= _ATOL, 0.0, x)
    x = np.where(np.abs(x - 1.0) <= _ATOL, 1.0, x)
    return x


def _snap_scalar(v: float) -> float:
    """:func:`_snap` for one Python float."""
    if abs(v) <= _ATOL:
        return 0.0
    return 1.0 if abs(v - 1.0) <= _ATOL else v


def _check_fractions(x: np.ndarray) -> None:
    """Raise ``ValueError`` unless every fraction is finite and in [0, 1]
    (within ``_ATOL``)."""
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ValueError(
            f"fractions must be finite: {bad.size} are not "
            f"(first {x.flat[bad[0]]} at flat index {bad[0]})"
        )
    if np.any((x < -_ATOL) | (x > 1.0 + _ATOL)):
        raise ValueError("fractions must lie in [0, 1]")


def independent_round(
    x_frac: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Round each coordinate independently: 1 w.p. x̃_k, else 0.

    Preserves marginals but neither the sum nor any joint structure —
    the straw-man the paper argues against (it "may generate an infeasible
    solution or lead to an excessive system latency").
    """
    x = np.asarray(x_frac, dtype=float)
    _check_fractions(x)
    x = np.clip(x, 0.0, 1.0)
    return (rng.random(x.shape) < x).astype(float)


def rdcs_round(x_frac: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Dependent rounding per Alg. 2; returns a 0/1 vector.

    Guarantees (tested property-based):
      * every output coordinate is exactly 0 or 1,
      * ``E[x_k] = x̃_k`` for every k,
      * the realized sum is in ``{floor(Σx̃), ceil(Σx̃)}``.
    """
    x = np.asarray(x_frac, dtype=float).copy()
    if x.ndim != 1:
        raise ValueError("x_frac must be 1-D")
    _check_fractions(x)
    x = _snap(np.clip(x, 0.0, 1.0))

    # Fractional coordinates and their values as parallel lists in index
    # order; ``x`` receives a coordinate only once it is integral.
    frac = np.flatnonzero((x > 0.0) & (x < 1.0))
    frac_idx, frac_val = frac.tolist(), x[frac].tolist()
    with PCG64Stream(rng) as stream:
        while len(frac_idx) >= 2:
            # Randomly choose the interacting pair (paper line 1).
            pos_i, pos_j = stream.pair(len(frac_idx))
            xi, xj = frac_val[pos_i], frac_val[pos_j]
            # ζ1 = min(1 − x_i, x_j), ζ2 = min(x_i, 1 − x_j), spelled out:
            # the builtin's call costs more than the rest of the arithmetic.
            yi, yj = 1.0 - xi, 1.0 - xj
            zeta1 = yi if yi <= xj else xj
            zeta2 = xi if xi <= yj else yj
            # Snapped fractional values are > _ATOL from 0 and 1: ζ1 + ζ2 > 2·_ATOL.
            if stream.random() < zeta2 / (zeta1 + zeta2):
                xi, xj = xi + zeta1, xj - zeta1
            else:
                xi, xj = xi - zeta2, xj + zeta2
            frac_val[pos_i], frac_val[pos_j] = _snap_scalar(xi), _snap_scalar(xj)
            # Larger position first, so the smaller one still names its entry.
            for pos in (pos_i, pos_j) if pos_i > pos_j else (pos_j, pos_i):
                if not 0.0 < frac_val[pos] < 1.0:
                    x[frac_idx[pos]] = frac_val[pos]
                    del frac_idx[pos], frac_val[pos]

        if frac_idx:  # one leftover fractional coordinate
            x[frac_idx[0]] = 1.0 if stream.random() < frac_val[0] else 0.0
    return x
