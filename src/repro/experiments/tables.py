"""Headline numbers (paper Sec. 1 & 6.2 claims).

The paper's quantitative claims:

* "FedL reduces at least 38% completion time compared with others" —
  time-to-target-accuracy comparison (:func:`headline_claims` reports the
  saving of FedL vs the best baseline).
* "FedL can improve the accuracy by 2% to 15% on average" after the same
  training time — :func:`accuracy_at_time` deltas.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.experiments.metrics import Trace

__all__ = [
    "time_to_accuracy",
    "accuracy_at_time",
    "headline_claims",
]


def time_to_accuracy(
    traces: Mapping[str, Trace], target: float
) -> Dict[str, Optional[float]]:
    """Simulated completion time (s) to reach ``target`` accuracy, per policy."""
    return {name: tr.time_to_accuracy(target) for name, tr in traces.items()}


def accuracy_at_time(
    traces: Mapping[str, Trace], t_seconds: float
) -> Dict[str, float]:
    """Test accuracy after ``t_seconds`` of simulated training, per policy."""
    return {name: tr.accuracy_at_time(t_seconds) for name, tr in traces.items()}


def headline_claims(
    traces: Mapping[str, Trace],
    target: float,
    fedl_name: str = "FedL",
) -> Dict[str, float]:
    """FedL-vs-best-baseline summary at a target accuracy.

    Returns a dict with:
      * ``fedl_time`` — FedL's completion time (inf if never reached),
      * ``best_baseline_time`` — fastest baseline's time (inf likewise),
      * ``time_saving_pct`` — 100·(1 − fedl/best_baseline),
      * ``accuracy_gain`` — FedL's accuracy minus the best baseline's
        "after the same training time" (paper Sec. 6.2): evaluated at the
        latest end time across policies, where a policy that exhausted its
        budget earlier simply holds its final accuracy.
    """
    if fedl_name not in traces:
        raise KeyError(f"traces must include {fedl_name!r}")
    ttimes = time_to_accuracy(traces, target)
    fedl_time = ttimes[fedl_name] if ttimes[fedl_name] is not None else float("inf")
    baseline_times = [
        v if v is not None else float("inf")
        for k, v in ttimes.items()
        if k != fedl_name
    ]
    best_baseline = min(baseline_times) if baseline_times else float("inf")
    if best_baseline > 0 and best_baseline != float("inf"):
        saving = 100.0 * (1.0 - fedl_time / best_baseline)
    else:
        saving = float("nan")
    horizon = max(tr.times[-1] for tr in traces.values() if len(tr) > 0)
    accs = accuracy_at_time(traces, horizon)
    base_best = max(v for k, v in accs.items() if k != fedl_name)
    return {
        "fedl_time": fedl_time,
        "best_baseline_time": best_baseline,
        "time_saving_pct": saving,
        "accuracy_gain": accs[fedl_name] - base_best,
        "compare_horizon_s": horizon,
    }
