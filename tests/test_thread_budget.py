"""One compute thread per process: ``import repro`` sizes the BLAS pool.

The defaults are set in the package ``__init__`` before numpy loads, so
every case runs in a fresh interpreter whose environment has the three
variables scrubbed — inside this pytest process they are long since set.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
SRC = str(Path(repro.__file__).resolve().parents[1])
ALL_ONE = dict.fromkeys(BLAS_THREAD_VARS, "1")

# Source of an expression that reads the three variables where it runs.
READ_ENV = f"{{v: os.environ.get(v) for v in {BLAS_THREAD_VARS!r}}}"
REPORT_ENV = f"import json, os; print(json.dumps({READ_ENV}))"


def run_python(*args, **env_overrides):
    """``python *args`` with the BLAS variables unset unless overridden."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = SRC
    env.update(env_overrides)
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def json_stdout(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_defaults_all_three_to_one():
    proc = run_python("-c", "import repro, numpy; " + REPORT_ENV)
    assert json_stdout(proc) == ALL_ONE


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs procfs")
def test_the_pool_really_is_one_thread():
    # The variables would read "1" even if an import above the defaults in
    # ``repro/__init__.py`` had loaded numpy first, so count the threads:
    # OpenBLAS starts its pool when it loads.
    script = (
        "import os, repro, numpy\n"
        "numpy.ones((256, 256)) @ numpy.ones((256, 256))\n"
        "print(len(os.listdir('/proc/self/task')))\n"
    )
    assert json_stdout(run_python("-c", script)) == 1


def test_exported_value_wins_and_the_others_still_default():
    proc = run_python(
        "-c", "import repro, numpy; " + REPORT_ENV, OPENBLAS_NUM_THREADS="4"
    )
    assert json_stdout(proc) == {**ALL_ONE, "OPENBLAS_NUM_THREADS": "4"}


def test_module_entry_point_starts():
    proc = run_python("-m", "repro", "--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("repro ")


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_pool_child_sees_the_parents_values(start_method):
    script = (
        "import json, multiprocessing, os, repro\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        f"context = multiprocessing.get_context({start_method!r})\n"
        "with ProcessPoolExecutor(1, mp_context=context) as pool:\n"
        f"    seen = {{v: pool.submit(os.getenv, v).result() for v in {BLAS_THREAD_VARS!r}}}\n"
        "print(json.dumps(seen))\n"
    )
    proc = run_python("-c", script, MKL_NUM_THREADS="3")
    assert json_stdout(proc) == {**ALL_ONE, "MKL_NUM_THREADS": "3"}


def test_forked_live_worker_sees_the_parents_values(tmp_path):
    seen = tmp_path / "worker-env.json"
    # The runtime looks ``worker_main`` up at fork time, so a wrapper
    # installed on the module runs first thing inside the forked worker.
    script = (
        "import json, os, sys\n"
        "import repro.live.worker as worker\n"
        "from repro.cli import main\n"
        "real = worker.worker_main\n"
        "def reporting_worker_main(*args, **kwargs):\n"
        f"    open({str(seen)!r}, 'w').write(json.dumps({READ_ENV}))\n"
        "    real(*args, **kwargs)\n"
        "worker.worker_main = reporting_worker_main\n"
        "sys.exit(main(['run', '--budget', '100', '--clients', '4',\n"
        "               '--participants', '2', '--epochs', '2',\n"
        "               '--set', 'training.engine=live', '--set', 'live.workers=1',\n"
        "               '--set', 'live.time_scale=0.01']))\n"
    )
    proc = run_python("-c", script, MKL_NUM_THREADS="3")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(seen.read_text()) == {**ALL_ONE, "MKL_NUM_THREADS": "3"}


def test_numpy_imported_first_is_recorded_not_claimed():
    script = (
        "import numpy, repro, json\n"
        "from repro.host import host_record\n"
        "print(json.dumps(host_record()))\n"
    )
    host = json_stdout(run_python("-c", script))
    assert host["blas_threads"] == "unknown: numpy was imported before repro"
    assert host["cpus"] >= 1


def test_this_suite_runs_the_programs_pool():
    # tests/conftest.py imports repro before numpy; a plugin or a reordered
    # import that loads numpy first would silently put the suite back on
    # the host's pool.
    assert repro.NUMPY_LOADED_FIRST is False
