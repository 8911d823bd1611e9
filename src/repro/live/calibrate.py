"""DES-vs-live calibration: how well does the simulator predict reality?

:func:`run_calibration` runs the *same* experiment scenario through the
event-driven simulator (``engine="des"``) and the live multi-process
runtime (``engine="live"``), once per fault profile, and tabulates the
divergence: predicted vs measured mean round latency, per-iteration
barrier fill times, and total client drops.  A fault-free row also runs
the reference loop engine and checks the live run's final model is
**bit-identical** — the live engine's correctness gate.

A measured/predicted ratio above 1 is honest, not a bug: the live run
pays real serialization, scheduling and socket overhead the closed-form
model does not know about.  Raising ``live.time_scale`` makes shaped
sleeps dominate that overhead and drives the ratio toward 1.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.atomic import atomic_write_text
from repro.config import ExperimentConfig

__all__ = [
    "CalibrationRow",
    "CalibrationReport",
    "run_calibration",
    "DEFAULT_PROFILES",
]

#: The divergence table's default coverage: clean channel, lossy uplink,
#: and the combined stress preset.
DEFAULT_PROFILES: Tuple[str, ...] = ("none", "flaky-uplink", "stress")


@dataclass(frozen=True)
class CalibrationRow:
    """One (fault profile, aggregation) cell of the divergence table."""

    profile: str
    aggregation: str
    epochs_des: int
    epochs_live: int
    des_latency: float          # mean simulated epoch latency (s)
    live_latency: float         # mean measured epoch latency (sim-s)
    des_fill: float             # mean simulated per-iteration barrier fill (s)
    live_fill: float            # mean measured per-iteration barrier fill (s)
    des_drops: int              # total mid-round client drops, simulated
    live_drops: int             # total mid-round client drops, measured
    des_aborted: Optional[str] = None   # ParticipationFloorError message
    live_aborted: Optional[str] = None  # (None = the run completed)

    @property
    def ratio(self) -> float:
        """Measured / predicted mean round latency."""
        if self.des_latency <= 0:
            return float("nan")
        return self.live_latency / self.des_latency


@dataclass
class CalibrationReport:
    """The full divergence table plus the fault-free identity verdict."""

    rows: List[CalibrationRow]
    bit_identical: Optional[bool]   # fault-free live == loop final model
                                    # (None when no "none" row was run)
    time_scale: float
    policy: str
    epochs: int

    def render(self) -> str:
        """ASCII divergence table (CLI output)."""
        from repro.experiments.reporting import format_table

        table = [
            (r.profile, {
                "agg": r.aggregation,
                "des_lat": f"{r.des_latency:.3f}",
                "live_lat": f"{r.live_latency:.3f}",
                "ratio": f"{r.ratio:.2f}",
                "des_fill": f"{r.des_fill:.3f}",
                "live_fill": f"{r.live_fill:.3f}",
                "des_drops": r.des_drops,
                "live_drops": r.live_drops,
            })
            for r in self.rows
        ]
        lines = [format_table(table, label="profile")]
        verdict = (
            "not checked"
            if self.bit_identical is None
            else ("PASS" if self.bit_identical else "FAIL")
        )
        for r in self.rows:
            for engine, msg in (("des", r.des_aborted), ("live", r.live_aborted)):
                if msg:
                    lines.append(
                        f"note: {r.profile}/{r.aggregation} {engine} run hit "
                        f"the participation floor ({msg}); partial stats"
                    )
        lines.append("")
        lines.append(
            f"fault-free live-vs-loop bit-identity: {verdict} | "
            f"time_scale={self.time_scale:g} policy={self.policy} "
            f"epochs={self.epochs}"
        )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "policy": self.policy,
            "epochs": self.epochs,
            "time_scale": self.time_scale,
            "bit_identical": self.bit_identical,
            "rows": [
                {**dataclasses.asdict(r), "ratio": r.ratio} for r in self.rows
            ],
        }

    def save(self, path: str | Path) -> Path:
        """Atomically persist the report as JSON."""
        return atomic_write_text(
            path, json.dumps(self.to_json(), indent=2, sort_keys=True)
        )


def _trace_stats(result) -> Tuple[int, float, float, int]:
    records = result.trace.records if result is not None else []
    if not records:
        return 0, float("nan"), float("nan"), 0
    lat = [r.epoch_latency for r in records]
    fill = [r.epoch_latency / max(r.iterations, 1) for r in records]
    drops = int(sum(r.num_failed for r in records))
    return len(records), float(np.mean(lat)), float(np.mean(fill)), drops


def _run_engine(
    config: ExperimentConfig, policy_name: str, engine: str
) -> Tuple[Optional[object], Optional[str]]:
    """Run one engine; a participation-floor abort yields a partial cell
    (``(None, reason)``) instead of killing the whole report."""
    # Local import: repro.experiments.runner imports the live package
    # lazily, but importing it at module scope here would cycle.
    from repro.experiments.runner import run_experiment
    from repro.experiments.scenarios import make_policy
    from repro.rng import RngFactory
    from repro.sim.faults import ParticipationFloorError

    cfg = config.replace(
        training=dataclasses.replace(config.training, engine=engine)
    )
    policy = make_policy(
        policy_name, cfg, RngFactory(cfg.seed).get("cli.policy")
    )
    try:
        return run_experiment(policy, cfg), None
    except ParticipationFloorError as exc:
        return None, str(exc)


def run_calibration(
    config: ExperimentConfig,
    policy: str = "FedL",
    profiles: Sequence[str] = DEFAULT_PROFILES,
    include_async: bool = True,
) -> CalibrationReport:
    """Build the DES-vs-live divergence table for ``config``.

    Every profile in ``profiles`` yields one row under the config's own
    aggregation policy; ``include_async`` appends a fault-free
    async-quorum row (quorum = ``min_participants``) so the table also
    covers measured quorum fill times.  When ``profiles`` contains
    ``"none"``, that cell additionally runs the loop engine and records
    whether the live run's final model is bit-identical.
    """
    rows: List[CalibrationRow] = []
    bit_identical: Optional[bool] = None
    cells = [(p, config.sim) for p in profiles]
    if include_async:
        cells.append(
            (
                "none",
                dataclasses.replace(
                    config.sim,
                    aggregation="async",
                    quorum=config.min_participants,
                    deadline_s=None,
                ),
            )
        )
    for profile, sim_cfg in cells:
        cfg = config.replace(
            sim=dataclasses.replace(sim_cfg, faults=profile)
        )
        des, des_aborted = _run_engine(cfg, policy, "des")
        live, live_aborted = _run_engine(cfg, policy, "live")
        n_des, lat_des, fill_des, drops_des = _trace_stats(des)
        n_live, lat_live, fill_live, drops_live = _trace_stats(live)
        rows.append(
            CalibrationRow(
                profile=profile,
                aggregation=cfg.sim.aggregation,
                epochs_des=n_des,
                epochs_live=n_live,
                des_latency=lat_des,
                live_latency=lat_live,
                des_fill=fill_des,
                live_fill=fill_live,
                des_drops=drops_des,
                live_drops=drops_live,
                des_aborted=des_aborted,
                live_aborted=live_aborted,
            )
        )
        if (
            profile == "none"
            and cfg.sim.aggregation == "sync"
            and live is not None
        ):
            loop, _ = _run_engine(cfg, policy, "loop")
            same = loop is not None and bool(
                np.array_equal(loop.final_w, live.final_w)
            )
            bit_identical = same if bit_identical is None else (
                bit_identical and same
            )
    return CalibrationReport(
        rows=rows,
        bit_identical=bit_identical,
        time_scale=config.live.time_scale,
        policy=policy,
        epochs=config.max_epochs,
    )
