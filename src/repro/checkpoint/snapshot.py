"""Round-granular experiment snapshots with bit-identical resume.

A snapshot captures the *complete* mutable state of a running experiment
at an epoch boundary:

* the global model (via :mod:`repro.nn.serialization`),
* every RNG stream created so far (:meth:`repro.rng.RngFactory.capture`;
  per-client streams are created at their first draw, so ``rng.json`` grows
  with the clients that have drawn, not with the population),
* the environment processes' carried state (AR(1) prices, shadow fading,
  Markov availability),
* the flat per-client observables (reliability EWMAs, spend, latencies),
* the budget/latency accumulators and the partial trace,
* the whole selection policy (pickled), with the FedL learner's duals and
  FISTA warm-start state additionally mirrored through its explicit
  ``state_dict`` so the hot fields are inspectable and pickle drift is
  caught at restore time,
* DP accounting.

Resume reconstructs the :class:`~repro.experiments.runner.Simulation`
from the *checkpointed* config first — construction consumes RNG streams
exactly as the original run did, regenerating every init-derived quantity
(population geometry, adversary roster, data-volume means) — and then
overwrites all stream states and mutable fields from the snapshot.  The
resumed loop therefore continues bit-identically to a run that never
stopped.

On disk a snapshot is one directory per epoch (``epoch_00000010/``)
containing ``manifest.json`` (scalars, config, SHA-256 checksums of every
sibling file), ``rng.json``, ``trace.json``, ``model.npz``, ``state.npz``
and ``policy.pkl``.  Files are staged into a hidden temp directory and
committed with a single :func:`os.replace`, so a crash mid-write leaves
either the previous snapshot set or the new one — never a torn snapshot.
A ``LATEST`` pointer (atomic text write) names the newest committed
snapshot.  A snapshot loads only if the manifest's ``files`` table names
exactly those five payloads and each matches its checksum.

The RNG capture is incremental.  The factory keeps each stream's encoded
``rng.json`` entry and re-reads only the streams its long-lived holders
keep (``RngFactory.get``) and the per-client streams whose deferred source
was called since the previous snapshot — which is why a holder calls that
source at each use and never stores its generator (the holder rule of
:mod:`repro.rng`).  Snapshot cost therefore follows the streams drawn since
the last snapshot, not every stream the run has created; the bytes are
those of a full re-read.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import pickle
import shutil
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from repro.atomic import atomic_write_text, clean_stale_tmps
from repro.checkpoint.errors import CheckpointError

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "ResumeState",
    "Snapshot",
    "prepare_checkpoint_dir",
    "write_snapshot",
    "latest_snapshot_path",
    "load_snapshot",
    "resume_experiment",
]

CHECKPOINT_SCHEMA_VERSION = 1

#: The payload files a snapshot's manifest checksums, all of them required.
_PAYLOADS = ("model.npz", "policy.pkl", "rng.json", "state.npz", "trace.json")

#: Fields of :class:`repro.env.state.ClientStateArrays` that ride state.npz.
_STATE_FIELDS = (
    "available",
    "costs",
    "belief_costs",
    "tau_last",
    "local_losses",
    "reliability",
    "cum_selected",
    "spend",
)


@dataclasses.dataclass
class ResumeState:
    """The loop-level carry a resumed run starts from."""

    next_epoch: int
    remaining: float
    cumulative_time: float
    epochs_done: int
    trace: "object"             # repro.experiments.metrics.Trace
    final_w: np.ndarray
    arrays: Dict[str, np.ndarray]


@dataclasses.dataclass
class Snapshot:
    """A fully loaded, checksum-verified snapshot."""

    path: Path
    config: "object"            # repro.config.ExperimentConfig
    policy: "object"            # repro.strategies.base.SelectionPolicy
    rng_states: Dict[str, dict]
    learner_state: Optional[dict]
    server_w: np.ndarray
    sim_arrays: Dict[str, np.ndarray]
    dp: Dict[str, float]
    resume: ResumeState

    def restore_into(self, sim) -> None:
        """Overwrite a freshly constructed ``Simulation``'s mutable state.

        ``sim`` must have been built from :attr:`config` (same seed, same
        structure) so that construction-time RNG consumption matches the
        original run; this then fast-forwards every stream and carried
        process state to the capture point.
        """
        try:
            sim.rng.load_state(self.rng_states)
        except ValueError as exc:
            raise CheckpointError(f"unusable RNG state in {self.path}: {exc}")
        if self.server_w.shape != sim.server.w.shape:
            raise CheckpointError(
                "checkpointed model shape does not match the configuration"
            )
        sim.server.w = self.server_w.copy()
        # Carried environment state (private by convention; the checkpoint
        # layer is the one sanctioned out-of-band reader/writer).
        sim.prices._current = self.sim_arrays["prices_current"].copy()
        sim.channel._shadow_db = self.sim_arrays["shadow_db"].copy()
        if "avail_state" in self.sim_arrays and hasattr(sim.availability, "_state"):
            sim.availability._state = self.sim_arrays["avail_state"].copy()
        sim.dp_accountant._rho = float(self.dp["rho"])
        sim.dp_accountant._releases = int(self.dp["releases"])
        # The explicit learner restore doubles as a pickle-drift guard:
        # the pickled policy already carries this state, but re-applying
        # the JSON mirror keeps the hot duals authoritative.
        learner = getattr(self.policy, "learner", None)
        if learner is not None and self.learner_state is not None:
            learner.load_state(self.learner_state)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _epoch_dir_name(next_epoch: int) -> str:
    return f"epoch_{next_epoch:08d}"


def prepare_checkpoint_dir(directory: str | Path) -> Path:
    """Create ``directory`` and sweep litter from prior crashed writers
    (stale staging directories and ``*.tmp`` survivors)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for entry in directory.iterdir():
        if entry.name.startswith(".stage_") and entry.is_dir():
            shutil.rmtree(entry, ignore_errors=True)
    clean_stale_tmps(directory)
    return directory


def write_snapshot(
    directory: str | Path,
    *,
    sim,
    policy,
    state,
    trace,
    next_epoch: int,
    remaining: float,
    cumulative_time: float,
    epochs_done: int,
    final_w: np.ndarray,
    keep: int = 2,
    extra_rng_states: Optional[Dict[str, dict]] = None,
) -> Path:
    """Atomically write one snapshot; returns the committed directory.

    ``extra_rng_states`` overlays stream states whose source of truth
    lives outside this process (the live engine's worker-side per-client
    streams) over the factory's own capture.
    """
    from repro.experiments.persistence import config_to_dict, trace_to_dict
    from repro.nn.serialization import save_checkpoint

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stage = directory / f".stage_{_epoch_dir_name(next_epoch)}.tmp{os.getpid()}"
    if stage.exists():
        shutil.rmtree(stage)
    stage.mkdir()
    files: Dict[str, str] = {}

    def put(name: str, payload: bytes) -> None:
        # Checksum the bytes being written; no staged file is read back.
        (stage / name).write_bytes(payload)
        files[name] = hashlib.sha256(payload).hexdigest()

    try:
        put("rng.json", sim.rng.capture(extra_rng_states).encode())
        put("trace.json", json.dumps(trace_to_dict(trace)).encode())
        model_npz, state_npz = io.BytesIO(), io.BytesIO()
        save_checkpoint(sim.model, model_npz, w=sim.server.w)
        put("model.npz", model_npz.getvalue())
        arrays = {name: getattr(state, name) for name in _STATE_FIELDS}
        arrays["final_w"] = np.asarray(final_w, dtype=float)
        arrays["prices_current"] = sim.prices._current
        arrays["shadow_db"] = sim.channel._shadow_db
        if hasattr(sim.availability, "_state"):
            arrays["avail_state"] = sim.availability._state
        np.savez(state_npz, **arrays)
        put("state.npz", state_npz.getvalue())
        put("policy.pkl", pickle.dumps(policy, protocol=pickle.HIGHEST_PROTOCOL))
        learner = getattr(policy, "learner", None)
        manifest = {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "next_epoch": int(next_epoch),
            "epochs_done": int(epochs_done),
            "remaining": float(remaining),
            "cumulative_time": float(cumulative_time),
            "policy_name": getattr(policy, "name", type(policy).__name__),
            "dp": {
                "rho": float(sim.dp_accountant.rho),
                "releases": int(sim.dp_accountant.releases),
            },
            "learner": learner.state_dict() if learner is not None else None,
            "config": config_to_dict(sim.config),
            "files": dict(sorted(files.items())),
        }
        (stage / "manifest.json").write_text(json.dumps(manifest, default=int))
        target = directory / _epoch_dir_name(next_epoch)
        if target.exists():
            # Deterministic rewrite of an epoch a previous (crashed) run
            # already committed past the LATEST pointer.
            shutil.rmtree(target)
        os.replace(stage, target)
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        raise
    atomic_write_text(directory / "LATEST", target.name)
    _prune(directory, keep=keep)
    return target


def _prune(directory: Path, keep: int) -> None:
    snaps = sorted(
        (p for p in directory.iterdir() if p.is_dir() and p.name.startswith("epoch_")),
        key=lambda p: p.name,
    )
    for old in snaps[: max(0, len(snaps) - max(1, keep))]:
        shutil.rmtree(old, ignore_errors=True)


def latest_snapshot_path(directory: str | Path) -> Path:
    """Resolve the newest committed snapshot under ``directory``.

    Prefers the ``LATEST`` pointer; falls back to the highest-numbered
    ``epoch_*`` directory (covers a crash between commit and pointer
    update).  Raises :class:`CheckpointError` when nothing usable exists.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise CheckpointError(f"no such checkpoint directory: {directory}")
    pointer = directory / "LATEST"
    if pointer.is_file():
        candidate = directory / pointer.read_text().strip()
        if (candidate / "manifest.json").is_file():
            # A newer snapshot may have committed without the pointer
            # update landing; prefer the newest manifest on disk.
            snaps = sorted(
                p
                for p in directory.iterdir()
                if p.is_dir()
                and p.name.startswith("epoch_")
                and (p / "manifest.json").is_file()
            )
            return snaps[-1] if snaps and snaps[-1].name > candidate.name else candidate
    snaps = sorted(
        p
        for p in directory.iterdir()
        if p.is_dir() and p.name.startswith("epoch_") and (p / "manifest.json").is_file()
    )
    if not snaps:
        raise CheckpointError(f"no snapshots found in {directory}")
    return snaps[-1]


def load_snapshot(directory: str | Path) -> Snapshot:
    """Load and checksum-verify the newest snapshot under ``directory``.

    ``directory`` may be the checkpoint root or a specific ``epoch_*``
    snapshot directory.  Any torn, missing, or tampered content raises
    :class:`CheckpointError` (the CLI's unrecoverable-state exit 1).
    """
    from repro.experiments.metrics import Trace
    from repro.experiments.persistence import config_from_dict, trace_from_dict
    from repro.nn.serialization import load_checkpoint

    directory = Path(directory)
    snap = (
        directory
        if (directory / "manifest.json").is_file()
        else latest_snapshot_path(directory)
    )
    try:
        manifest = json.loads((snap / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"unreadable checkpoint manifest in {snap}: {exc}")
    if manifest.get("schema") != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint schema {manifest.get('schema')!r} in {snap}"
        )
    files = manifest.get("files")
    listed = set(files) if isinstance(files, dict) else set()
    if listed != set(_PAYLOADS):
        missing = sorted(set(_PAYLOADS) - listed)
        extra = sorted(listed - set(_PAYLOADS))
        raise CheckpointError(
            f"checkpoint manifest in {snap} does not checksum exactly the "
            f"snapshot's payloads (missing: {', '.join(missing) or 'none'}; "
            f"unexpected: {', '.join(extra) or 'none'})"
        )
    for name, expected in files.items():
        path = snap / name
        if not path.is_file():
            raise CheckpointError(f"checkpoint file missing: {path}")
        actual = _sha256(path)
        if actual != expected:
            raise CheckpointError(
                f"checkpoint checksum mismatch for {path}: "
                f"expected {expected[:12]}…, got {actual[:12]}…"
            )
    try:
        config = config_from_dict(manifest["config"])
        rng_states = json.loads((snap / "rng.json").read_text())
        trace = trace_from_dict(json.loads((snap / "trace.json").read_text()))
        policy = pickle.loads((snap / "policy.pkl").read_bytes())
        server_w, _meta = load_checkpoint(snap / "model.npz")
        with np.load(snap / "state.npz") as npz:
            arrays = {name: npz[name].copy() for name in npz.files}
    except CheckpointError:
        raise
    except Exception as exc:  # torn pickle/npz/json → unrecoverable
        raise CheckpointError(f"corrupt checkpoint payload in {snap}: {exc}")
    assert isinstance(trace, Trace)
    resume = ResumeState(
        next_epoch=int(manifest["next_epoch"]),
        remaining=float(manifest["remaining"]),
        cumulative_time=float(manifest["cumulative_time"]),
        epochs_done=int(manifest["epochs_done"]),
        trace=trace,
        final_w=arrays["final_w"],
        arrays={name: arrays[name] for name in _STATE_FIELDS},
    )
    return Snapshot(
        path=snap,
        config=config,
        policy=policy,
        rng_states=rng_states,
        learner_state=manifest.get("learner"),
        server_w=np.asarray(server_w, dtype=float),
        sim_arrays={
            key: arrays[key]
            for key in ("prices_current", "shadow_db", "avail_state")
            if key in arrays
        },
        dp=dict(manifest.get("dp", {"rho": 0.0, "releases": 0})),
        resume=resume,
    )


def resume_experiment(
    directory: "str | Path | Snapshot",
    *,
    target_accuracy: Optional[float] = None,
    heartbeat_s: Optional[float] = None,
    checkpoint_override=None,
    policy_hook=None,
):
    """Resume an experiment from its newest snapshot under ``directory``
    (or from an already loaded :class:`Snapshot`, for a caller that needs
    its config or trace before the run starts).

    Rebuilds the simulation from the checkpointed config (so every
    init-time RNG draw replays), restores all stream/process state, and
    re-enters the loop at the checkpointed epoch.  By default the resumed
    run keeps checkpointing into the same directory; pass a
    ``checkpoint_override`` (:class:`repro.config.CheckpointConfig`) to
    change or disable that.  ``policy_hook`` (if given) is applied to the
    unpickled policy before the loop re-enters — the crash-injection
    harness uses it to disarm its self-kill wrapper.
    """
    from repro.experiments.runner import Simulation, run_experiment

    snapshot = (
        directory if isinstance(directory, Snapshot) else load_snapshot(directory)
    )
    config = snapshot.config
    if checkpoint_override is not None:
        config = config.replace(checkpoint=checkpoint_override)
    if policy_hook is not None:
        policy_hook(snapshot.policy)
    sim = Simulation(config)
    snapshot.restore_into(sim)
    return run_experiment(
        snapshot.policy,
        config,
        simulation=sim,
        target_accuracy=target_accuracy,
        heartbeat_s=heartbeat_s,
        resume=snapshot.resume,
    )
