"""What the benchmark knows about the host: its present speed, the
process's age and memory, and the provenance recorded with each run.

Standard library only, so ``run.py`` can use it before numpy loads.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import random
import subprocess
import time
from pathlib import Path

#: Seconds one :meth:`Calibration.seconds` pass takes on a quiet
#: 2.1 GHz Xeon (the host the bounds were set on).  Reported times are
#: scaled by ``CALIBRATION_REFERENCE_S / median pass`` of the same run,
#: so a host slowed by its neighbours slows both and the scaled figure
#: holds still.
CALIBRATION_REFERENCE_S = 0.09


class Calibration:
    """A fixed pure-Python kernel that shares no code with the program:
    random lookups in a dict of string keys whose values are small
    objects, a working set far larger than a core's cache.  On a shared
    host the program slows mostly where memory latency does, and this
    kernel tracks that better than a small, cache-resident one."""

    ENTRIES = 200_000
    LOOKUPS = 100_000

    def __init__(self) -> None:
        order = list(range(self.ENTRIES))
        random.Random(0).shuffle(order)
        self.table = {f"net{i}": (i, [i]) for i in range(self.ENTRIES)}
        self.keys = [f"net{i}" for i in order[: self.LOOKUPS]]

    def seconds(self) -> float:
        """One timed pass; the collector is off so the program's heap
        size cannot change the kernel's cost."""
        table = self.table
        gc.disable()
        try:
            start = time.perf_counter()
            total = 0
            for key in self.keys:
                value = table[key]
                total += value[0] + value[1][0]
            return time.perf_counter() - start
        finally:
            gc.enable()

    def scale(self, samples: int = 5) -> float:
        """Factor mapping this host's present speed to the reference's."""
        runs = sorted(self.seconds() for _ in range(samples))
        return CALIBRATION_REFERENCE_S / runs[samples // 2]


def memory_mb(field: str) -> float:
    """A ``/proc/self/status`` memory figure (``VmRSS``, ``VmHWM``)."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
    raise KeyError(field)


def process_age() -> float:
    """Seconds since this process started (``/proc``; 10 ms ticks)."""
    with open("/proc/self/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def worker_count() -> int:
    """Pool size for every workload: ``min(2, nproc)``."""
    return min(2, len(os.sched_getaffinity(0)))


def _git(root: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True,
            timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(root: Path, src: Path) -> dict:
    """Where and on what a result was measured.  A checkout that is not
    a git repository has no SHA; the source digest identifies it."""
    import numpy
    import scipy

    sha = _git(root, "rev-parse", "HEAD") if (root / ".git").exists() else None
    status = _git(root, "status", "--porcelain") if sha else None
    digest = hashlib.sha256()
    for path in sorted((src / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "git_dirty": bool(status) if sha else None,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workers": worker_count(),
    }
