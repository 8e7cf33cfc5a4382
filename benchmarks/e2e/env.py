"""Process environment: pinned threads, import path, provenance.

Imported before NumPy.  OpenBLAS spins a two-thread pool on this
repository's d = 4 matrices, which makes a run 1.6x *slower* and its
CPU time twice its wall time, so the BLAS/OpenMP pools are pinned to
one thread; ``PYTHONHASHSEED`` is pinned so set and dict iteration
orders cannot differ between two invocations.  All of these are read
at interpreter or library start-up, hence the re-exec.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def pin_or_reexec() -> None:
    """Re-exec this interpreter with :data:`PINNED` unless already set."""
    if all(os.environ.get(key) == value for key, value in PINNED.items()):
        return
    os.environ.update(PINNED)
    sys.stdout.flush()
    os.execv(sys.executable, [sys.executable, *sys.orig_argv[1:]])


def import_program() -> float:
    """Import NumPy and ``repro`` (from ``src/`` when not installed);
    returns the seconds that took -- ``harness.import_s``."""
    if not (SRC / "repro").is_dir():
        # Never fall back to an installed copy: the benchmark measures
        # the checkout it sits in.
        raise SystemExit(f"benchmarks.e2e: no program under test at {SRC}")
    for entry in (str(SRC), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    start = time.perf_counter()
    import numpy  # noqa: F401
    import repro  # noqa: F401

    return time.perf_counter() - start


def src_lines() -> int:
    """Lines of Python under ``src/`` (ROADMAP tracks the total)."""
    return sum(
        len(path.read_bytes().splitlines()) for path in sorted(SRC.rglob("*.py"))
    )


def provenance(seed: int) -> dict:
    import numpy

    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass  # the driver's checkout is not a git repository
    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        blas_info = config["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": int(PINNED["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
    }
