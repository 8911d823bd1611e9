"""Round-granular checkpoint/resume for long-horizon experiments.

See :mod:`repro.checkpoint.snapshot` for the on-disk format and the
bit-identical-resume contract and :mod:`repro.checkpoint.errors` for the
exit-code mapping.  The contract is gated in ``tests/test_checkpoint.py``:
a SIGKILL crash/resume drill on every training engine, and a snapshot
cost ceiling of 2% of an otherwise identical run.
"""

from repro.checkpoint.errors import CheckpointError, ExperimentInterrupted
from repro.checkpoint.snapshot import (
    CHECKPOINT_SCHEMA_VERSION,
    ResumeState,
    Snapshot,
    latest_snapshot_path,
    load_snapshot,
    prepare_checkpoint_dir,
    resume_experiment,
    write_snapshot,
)

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointError",
    "ExperimentInterrupted",
    "ResumeState",
    "Snapshot",
    "latest_snapshot_path",
    "load_snapshot",
    "prepare_checkpoint_dir",
    "resume_experiment",
    "write_snapshot",
]
