"""Host record printed with every run.

Host speed on a shared machine drifts with other tenants, so every run
records what it ran on plus a fixed calibration loop.  The calibration is
recorded only; it never scales a metric.

BLAS and OpenMP thread variables are read, never set: the thread count
OpenBLAS picks by default is part of the program as users run it.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, Optional

import numpy as np

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _loaded_blas() -> Optional[str]:
    """Path of the BLAS library numpy loaded into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            for line in handle:
                path = line.split()[-1]
                if "blas" in os.path.basename(path).lower():
                    return path
    except OSError:
        pass
    numpy_dir = Path(np.__file__).resolve().parent
    found = sorted(glob.glob(str(numpy_dir.parent / "numpy.libs" / "*openblas*")))
    return found[0] if found else None


def blas_threads(library: Optional[str]) -> Optional[int]:
    """Threads the loaded OpenBLAS runs with, or ``None`` when unknown."""
    if library is None:
        return None
    try:
        handle = ctypes.CDLL(library)
    except OSError:
        return None
    for symbol in _THREAD_SYMBOLS:
        fn = getattr(handle, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return int(fn())
    return None


def _blas_name() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def _git_sha(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    ref_path = root / ".git" / ref
    if ref_path.exists():
        return ref_path.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def calibrate(seconds: float = 1.0) -> Dict[str, float]:
    """Fixed work rates: 128x128 float64 GEMMs and a pure-Python loop."""
    half = seconds / 2
    a = np.random.default_rng(0).standard_normal((128, 128))
    out = np.empty_like(a)
    count = 0
    started = time.perf_counter()
    while time.perf_counter() - started < half:
        np.matmul(a, a, out=out)
        count += 1
    gemm_rate = count / (time.perf_counter() - started)
    loops = 0
    started = time.perf_counter()
    while time.perf_counter() - started < half:
        total = 0
        for value in range(1000):
            total += value
        loops += 1
    python_rate = loops / (time.perf_counter() - started)
    return {"gemm128_per_s": round(gemm_rate, 1), "py_loop1000_per_s": round(python_rate, 1)}


def host_record(root: Path, calibration_seconds: float = 1.0) -> Dict[str, object]:
    """Everything a reader needs to compare this run with another host's.

    Call it after the workload process has ended, so the calibration's
    GEMMs and their OpenBLAS threads cannot disturb the measurement.
    """
    library = _loaded_blas()
    compiler = os.environ.get("CC") or "cc"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_library": os.path.basename(library) if library else None,
        "blas_threads": blas_threads(library),
        "thread_env": {name: os.environ.get(name) for name in _THREAD_VARS},
        "c_compiler": shutil.which(compiler),
        "git_sha": _git_sha(root),
        "calibration": calibrate(calibration_seconds),
    }
