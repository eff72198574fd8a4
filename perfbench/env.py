"""Run hygiene: the environment a measurement runs in, and its record.

Nothing here imports numpy or ``repro``: :func:`pin_environment` must
run before numpy loads its BLAS, and ``compare`` needs neither.
"""

from __future__ import annotations

import ctypes
import os
import platform
import signal
import subprocess
import sys
from typing import Dict, List, MutableMapping

#: The checkout this package sits in; ``src/`` and the scratch
#: directory are resolved against it, never against the cwd.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Every temp store a measurement creates lives under this directory
#: (inside the checkout: the benchmark writes nowhere else).
SCRATCH_DIR = os.path.join(REPO_ROOT, ".perfbench_tmp")

#: The paper's publication date; ``--seed`` defaults to it.
DEFAULT_SEED = 20180827

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_environment(environ: MutableMapping[str, str]) -> None:
    """Pin BLAS/OpenMP pools to one thread and scrub ``REPRO_*`` knobs.

    A stray ``REPRO_SHARD_MB`` or a 2-thread BLAS would change what a
    workload measures without changing its name.
    """
    for name in _THREAD_VARS:
        environ[name] = "1"
    for name in [key for key in environ if key.startswith("REPRO_")]:
        del environ[name]


def pin_allocator() -> None:
    """Have glibc's malloc keep what is freed: never trim the heap,
    never hand out an array as a fresh mapping.

    A job frees and re-allocates hundreds of MiB of numpy temporaries.
    With malloc's default, self-adjusting thresholds, whether those
    come back from the warm heap or as untouched pages depends on the
    process's allocation history, and touching a fresh page costs about
    2.5 ms per MiB on the sandbox VM: the same ``pr-rr`` job took 0.50 s,
    0.70 s or 1.2 s depending on the state its process had fallen into,
    and two runs of one commit disagreed by a third.  Pinned, a warmed-up
    job touches no fresh page.  Pool workers inherit the setting through
    ``fork``.  Does nothing where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    trim_threshold, mmap_threshold = -1, -3  # <malloc.h>
    mallopt(trim_threshold, 2**31 - 1)
    # Older glibc refuses a threshold above 32 MiB.
    mallopt(mmap_threshold, 1 << 30) or mallopt(mmap_threshold, 1 << 25)


def add_source_path() -> None:
    """Make ``repro`` importable from the checkout's ``src/``."""
    src = os.path.join(REPO_ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def busy_process_cap() -> int:
    """``min(2, nproc)``: the most processes a run keeps busy at once."""
    return min(2, os.cpu_count() or 1)


def _child_pids() -> List[int]:
    """Live or zombie processes whose parent is this one (from /proc)."""
    me, children = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry, encoding="ascii") as handle:
                # "pid (comm) state ppid ..."; comm may hold spaces.
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue  # gone between listdir and open
        if int(fields[1]) == me:
            children.append(int(entry))
    return children


def stop_child_processes() -> None:
    """Stop every process this one started and wait until each has ended.

    The pool workers are joined by ``ParallelExecutor.close``, but the
    first shared-memory block also starts multiprocessing's resource
    tracker, which only notices its parent's exit afterwards: it would
    outlive a ``measure`` run by a moment (as an unreaped zombie where
    pid 1 is no init).  Workers first — under ``fork`` they hold the
    tracker's pipe open, and it exits only when every writer has closed.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for worker in multiprocessing.active_children():
        worker.kill()
        worker.join()
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()  # closes the pipe, then waitpid()s the tracker
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def host_fingerprint() -> Dict[str, object]:
    """What a reader needs to judge whether two result files compare."""
    import numpy

    return {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def git_commit() -> str:
    """HEAD of the checkout, or ``"unknown"`` outside a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    commit = done.stdout.strip()
    return commit if done.returncode == 0 and commit else "unknown"
