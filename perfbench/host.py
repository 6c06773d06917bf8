"""Host fingerprint and GEMM roofline probe, stamped on every result.

A timing means nothing without the machine that produced it, so every
benchmark record carries the core count, CPU model, interpreter and
numpy/scipy versions, the BLAS library with the thread count it actually
runs with, the source revision, and a float32 GEMM rate measured in the
same run.  The GEMM rate is the roofline that per-layer GFLOP/s figures
are divided by.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SGEMM_N = 1024
SGEMM_REPEATS = 7


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, or ``None`` if it can't be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {
                line.split()[-1]
                for line in fh
                if "openblas" in line.lower() and ".so" in line
            }
    except OSError:
        return None
    names = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def blas_info() -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):
        blas = {}
    return {
        "name": blas.get("name", "unknown"),
        "version": blas.get("version", "unknown"),
        "threads": _openblas_threads(),
        "threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def git_commit(root: Path) -> str | None:
    """HEAD of ``root`` when it is a git checkout, else ``None``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(root: Path) -> str:
    """Short hash of every ``src/**/*.py`` file: the revision without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def sgemm_gflops(n: int = SGEMM_N, repeats: int = SGEMM_REPEATS) -> float:
    """Median float32 ``n×n @ n×n`` rate in GFLOP/s (2·n³ FLOPs per product)."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    out = np.empty((n, n), dtype=np.float32)
    np.matmul(a, b, out=out)  # warm the BLAS thread pool and caches
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.matmul(a, b, out=out)
        times.append(time.perf_counter() - t0)
    return 2.0 * n**3 / statistics.median(times) / 1e9


def fingerprint(root: Path, jobs: int) -> dict:
    """Everything about this host and checkout a timing depends on."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "jobs": jobs,
        "git_commit": git_commit(root),
        "source_digest": source_digest(root),
        "sgemm": {"n": SGEMM_N, "dtype": "float32", "gflops": sgemm_gflops()},
    }
