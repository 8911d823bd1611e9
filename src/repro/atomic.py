"""Crash-safe file writes, shared by every layer that persists an artifact.

:func:`atomic_write_text` is the one writer: the payload goes to a temp
file ``.<name>.<random>.tmp`` in the destination directory and is moved
into place with :func:`os.replace`, so a reader sees the old file or the
new one, never a torn one.  :func:`clean_stale_tmps` removes temp files of
exactly that shape, which only a process killed mid-write can leave.

It sits below ``repro.obs`` and ``repro.experiments`` and imports neither.
"""

from __future__ import annotations

import atexit
import os
import threading
from pathlib import Path

__all__ = ["atomic_write_text", "clean_stale_tmps"]

# Temp files currently being written by this process, swept at interpreter
# exit so an aborted run (uncaught exception, sys.exit, handled signal)
# never leaves `*.tmp` litter next to its outputs.  A SIGKILL mid-write
# still strands the file — :func:`clean_stale_tmps` is the second line of
# defense the next process runs over the same directory.
_INFLIGHT_TMPS: set = set()
_INFLIGHT_LOCK = threading.Lock()


def _reap_inflight_tmps() -> None:
    with _INFLIGHT_LOCK:
        stranded = list(_INFLIGHT_TMPS)
        _INFLIGHT_TMPS.clear()
    for tmp in stranded:
        try:
            os.unlink(tmp)
        except OSError:
            pass


atexit.register(_reap_inflight_tmps)


def clean_stale_tmps(directory: str | Path) -> int:
    """Remove torn-write litter (``.<name>.*.tmp``) left in ``directory``
    by a process that died between temp-file creation and
    :func:`os.replace`.  Returns the number removed.

    Called by long-lived writers (sweep cache, checkpoints) when they
    (re)open a directory, where any survivor is by construction stale.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return 0
    removed = 0
    for entry in directory.iterdir():
        name = entry.name
        if name.startswith(".") and name.endswith(".tmp") and entry.is_file():
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
    return removed


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` (UTF-8) to ``path`` without ever exposing a torn
    file; returns ``path``.

    The temp path is tracked while in flight and reaped at interpreter
    exit, so exits that skip the ``except`` path (e.g. a SIGTERM handler
    calling ``sys.exit``) leave no litter either.
    """
    path = Path(path)
    # A random name opened with O_EXCL belongs to this call alone.  Mode
    # 0o666 leaves the umask to decide, as a plain open() would; mkstemp's
    # fixed 0600 would hide artifacts from other users (a metrics scraper).
    tmp = str(path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp"))
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    with _INFLIGHT_LOCK:
        _INFLIGHT_TMPS.add(tmp)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    finally:
        with _INFLIGHT_LOCK:
            _INFLIGHT_TMPS.discard(tmp)
    return path
