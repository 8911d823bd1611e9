"""What this process may compute with: usable CPUs and the BLAS thread pool.

:mod:`repro` defaults the BLAS thread variables to one thread per process
(see the package ``__init__``), which makes the worker *process* count the
whole parallelism budget.  This module is the one place that says how many
CPUs that budget is (:func:`usable_cpus`, the sweep's default worker count)
and what a run directory records about the pool its digests came from
(:func:`host_record`, the manifest's ``host`` object).
"""

from __future__ import annotations

import os
from typing import Any, Dict

import repro

__all__ = ["BLAS_THREAD_VARS", "host_record", "usable_cpus"]

#: The variables the package ``__init__`` defaults to ``"1"``.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask (which ``taskset``
    and cgroup cpusets narrow) where the platform has one, the machine's
    CPU count otherwise."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def host_record() -> Dict[str, Any]:
    """The manifest's ``host`` object: usable CPUs and the BLAS thread
    variables as this process sees them.

    When numpy was imported before :mod:`repro`, its pool was sized before
    the defaults were set, so the variables do not describe it; the record
    says that instead of claiming a pool the process does not have.
    """
    if repro.NUMPY_LOADED_FIRST:
        threads: Any = "unknown: numpy was imported before repro"
    else:
        threads = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    return {"cpus": usable_cpus(), "blas_threads": threads}
