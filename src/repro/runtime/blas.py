"""numpy's own OpenBLAS: the dgemm bridge and one process-wide thread budget.

This module owns every direct call into the BLAS library numpy links (the
``numpy.libs`` wheel-vendored copy), through one ``ctypes`` handle per
library.  It serves two consumers.

**The dgemm bridge** (for :mod:`repro.runtime.codegen`).  A naive C matmul
loop can never be admitted by the variant registry's bitwise rule: float
addition is not associative, and any summation order other than the one
``np.matmul`` uses drifts in the last ulp.  So the generated kernels do not
reimplement the GEMM: :func:`dgemm_handle` resolves the library's ILP64
``cblas_dgemm`` symbol and hands the raw function pointer to them.  Same
library, same code path, same instruction stream => the native conv
kernels produce the same bits as ``np.matmul``.

**The thread budget** (for every component that runs kernels).
OpenBLAS runs each GEMM on as many threads as it loaded with, one per CPU by
default.  N worker threads that each call it ask for N times that many, and
on a small host the extra BLAS threads only contend: on 2 CPUs, two serving
workers over a 2-thread OpenBLAS served *slower* than one.  So each
component that runs kernels concurrently -- the serving ``WorkerPool``
and every experiment-orchestrator worker process -- :func:`reserve`\\ s
its number of concurrent compute threads.  A claim may also carry a
``ceiling``: ``Trainer.fit`` holds ``reserve(1, ceiling=1)`` for a fit whose
per-step GEMMs are too small to split (see ``repro.train.trainer``), where a
second BLAS thread doubles CPU time for a few percent of wall time at most.
Reservations add up across the process; while any is held OpenBLAS runs
``min(loaded, max(1, usable_cpus() // reserved), lowest held ceiling)``
threads, and the last release restores the loaded count.  The count changes
only when a claim is taken or released, under one lock.  Because the count
is process-wide, a ceiling binds every claimant while it is held: a capped
fit beside a started serving pool (an adaptation job) runs the pool's
workers on one BLAS thread too, and they get their fitted count back when
the fit returns.

The budget steps aside when it cannot or should not act: an explicit
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` means the user chose the
count, and a numpy without a reachable OpenBLAS (e.g. an MKL build) leaves
nothing to set.  The count is process-wide -- in the pthreads build numpy
ships, even ``openblas_set_num_threads_local`` called from one thread
changes it for all -- so a per-thread budget is not possible.

OpenBLAS's results can depend on its thread count (mobilenetv2 logits
differ in the last bits between 1 and 2 threads), so bitwise comparisons
between paths hold at equal BLAS thread counts.

Discovery is defensive at every step (no ``numpy.libs`` directory, no
known symbol name, a probe mismatch) and memoised: on any failure the
dgemm handle reports unavailable and the GEMM-backed kernel families simply
do not register, and the budget does nothing.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

__all__ = [
    "DgemmHandle",
    "Reservation",
    "ThreadBudget",
    "current_threads",
    "dgemm_handle",
    "reserve",
    "usable_cpus",
]

#: Symbol candidates, most-specific first: scipy-openblas wheels export the
#: suffixed ILP64 name; older vendored copies use the plain cblas one.
_SYMBOLS = ("scipy_cblas_dgemm64_", "cblas_dgemm64_", "cblas_dgemm")

#: ``(get, set)`` thread-count symbol pairs, in the same order.
_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

#: Environment variables OpenBLAS reads its count from at load time.
_USER_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

_ROW_MAJOR = 101
_NO_TRANS = 111

_ARGTYPES = [
    ctypes.c_int, ctypes.c_int, ctypes.c_int,          # order, transA, transB
    ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,    # m, n, k
    ctypes.c_double, ctypes.c_void_p, ctypes.c_int64,  # alpha, A, lda
    ctypes.c_void_p, ctypes.c_int64,                   # B, ldb
    ctypes.c_double, ctypes.c_void_p, ctypes.c_int64,  # beta, C, ldc
]

_LOCK = threading.Lock()
_HANDLES: Dict[str, ctypes.CDLL] = {}
_CACHED: Optional["DgemmHandle"] = None
_BUDGET: Optional["ThreadBudget"] = None

#: ``(get_num_threads, set_num_threads)`` of the loaded OpenBLAS.
ThreadControl = Tuple[Callable[[], int], Callable[[int], None]]


@dataclass(frozen=True)
class DgemmHandle:
    """Resolved ``cblas_dgemm`` pointer plus provenance."""

    address: int
    library: str
    symbol: str
    ok: bool
    reason: str

    def describe(self) -> str:
        if self.ok:
            return f"{self.symbol} @ {os.path.basename(self.library)}"
        return f"unavailable ({self.reason})"


def _candidate_libraries() -> Tuple[str, ...]:
    numpy_dir = os.path.dirname(os.path.abspath(np.__file__))
    patterns = (
        os.path.join(numpy_dir, ".libs", "libscipy_openblas*"),
        os.path.join(os.path.dirname(numpy_dir), "numpy.libs",
                     "libscipy_openblas*"),
        os.path.join(numpy_dir, ".libs", "libopenblas*"),
        os.path.join(os.path.dirname(numpy_dir), "numpy.libs",
                     "libopenblas*"),
    )
    found = []
    for pattern in patterns:
        found.extend(sorted(glob.glob(pattern)))
    return tuple(found)


def _open(library: str) -> ctypes.CDLL:
    """The process's one ``ctypes`` handle on ``library`` (call under
    ``_LOCK``; raises ``OSError`` when it cannot be loaded)."""
    handle = _HANDLES.get(library)
    if handle is None:
        handle = _HANDLES[library] = ctypes.CDLL(library)
    return handle


# --------------------------------------------------------------------------- #
# dgemm bridge
# --------------------------------------------------------------------------- #
def _probe(fn) -> bool:
    """One seeded GEMM compared byte-for-byte against ``np.matmul``."""
    rng = np.random.default_rng(20260807)
    a = rng.standard_normal((7, 13))
    b = rng.standard_normal((13, 11))
    expected = np.matmul(a, b)
    actual = np.empty_like(expected)
    fn(
        _ROW_MAJOR, _NO_TRANS, _NO_TRANS,
        7, 11, 13,
        1.0, a.ctypes.data, 13,
        b.ctypes.data, 11,
        0.0, actual.ctypes.data, 11,
    )
    return actual.tobytes() == expected.tobytes()


def _resolve() -> DgemmHandle:
    libraries = _candidate_libraries()
    if not libraries:
        return DgemmHandle(0, "", "", False, "no vendored BLAS library found")
    last_reason = "no cblas_dgemm symbol found"
    for library in libraries:
        try:
            handle = _open(library)
        except OSError as exc:
            last_reason = f"dlopen failed: {exc}"
            continue
        for symbol in _SYMBOLS:
            fn = getattr(handle, symbol, None)
            if fn is None:
                continue
            fn.argtypes = _ARGTYPES
            fn.restype = None
            try:
                if not _probe(fn):
                    last_reason = f"{symbol} probe not bitwise vs np.matmul"
                    continue
            except Exception as exc:  # ABI mismatch can fault in odd ways
                last_reason = f"{symbol} probe raised: {exc}"
                continue
            address = ctypes.cast(fn, ctypes.c_void_p).value or 0
            return DgemmHandle(address, library, symbol, True, "")
    return DgemmHandle(0, "", "", False, last_reason)


def dgemm_handle() -> DgemmHandle:
    """The memoised process-wide dgemm handle (resolved at most once)."""
    global _CACHED
    with _LOCK:
        if _CACHED is None:
            _CACHED = _resolve()
        return _CACHED


# --------------------------------------------------------------------------- #
# Thread budget
# --------------------------------------------------------------------------- #
def _resolve_thread_control() -> Optional[ThreadControl]:
    """The loaded OpenBLAS's ``(get, set)`` thread-count functions, or
    ``None`` when no candidate library exports a pair."""
    for library in _candidate_libraries():
        try:
            handle = _open(library)
        except OSError:
            continue
        for get_name, set_name in _THREAD_SYMBOLS:
            get = getattr(handle, get_name, None)
            set_ = getattr(handle, set_name, None)
            if get is None or set_ is None:
                continue
            get.argtypes = []
            get.restype = ctypes.c_int
            set_.argtypes = [ctypes.c_int]
            set_.restype = None
            return get, set_
    return None


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform
    has one, else the machine's count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


class Reservation:
    """One component's claim on the budget; :meth:`release` gives it back.

    ``ceiling`` is the most BLAS threads the claim allows while held
    (``None``: no limit of its own).  ``blas_threads`` is OpenBLAS's thread
    count right after the claim was taken -- the count the claimant's
    compute threads run at -- or ``None`` when the count cannot be read.
    """

    def __init__(
        self,
        budget: "ThreadBudget",
        threads: int,
        ceiling: Optional[int],
        blas_threads: Optional[int],
    ):
        self.threads = threads
        self.ceiling = ceiling
        self.blas_threads = blas_threads
        self._budget = budget
        self.released = False

    def release(self) -> Optional[int]:
        """Return the threads to the budget; a second call is a no-op.

        Returns:
            OpenBLAS's thread count after the release (``None`` when it
            cannot be read).
        """
        return self._budget._release(self)


class ThreadBudget:
    """Fits OpenBLAS's thread count to the compute threads running on it.

    ``control`` is the library's ``(get, set)`` pair (``None``: nothing to
    set), ``cpus`` the CPUs the process may use, ``environ`` where an
    explicit user choice is looked up.
    """

    def __init__(
        self,
        control: Optional[ThreadControl],
        cpus: int,
        environ: Mapping[str, str] = os.environ,
    ) -> None:
        self._control = control
        self._cpus = max(1, cpus)
        self._environ = environ
        self._lock = threading.Lock()
        self._reserved = 0
        #: The ceilings of the claims held now, one entry per capped claim.
        self._ceilings: List[int] = []
        #: OpenBLAS's count before the first reservation changed it.
        self._loaded: Optional[int] = None

    def reserve(self, threads: int, ceiling: Optional[int] = None) -> Reservation:
        """Claim ``threads`` concurrent compute threads and refit the count.

        ``ceiling`` caps the count at that many threads for as long as the
        claim is held; it never raises the count.
        """
        if threads < 1:
            raise ValueError(f"threads must be at least 1, got {threads}")
        if ceiling is not None and ceiling < 1:
            raise ValueError(f"ceiling must be at least 1, got {ceiling}")
        with self._lock:
            self._reserved += threads
            if ceiling is not None:
                self._ceilings.append(ceiling)
            self._apply()
            return Reservation(self, threads, ceiling, self._current())

    def current(self) -> Optional[int]:
        """OpenBLAS's thread count now (``None`` when it cannot be read)."""
        with self._lock:
            return self._current()

    def _release(self, reservation: Reservation) -> Optional[int]:
        with self._lock:
            if not reservation.released:
                reservation.released = True
                self._reserved -= reservation.threads
                if reservation.ceiling is not None:
                    self._ceilings.remove(reservation.ceiling)
                self._apply()
            return self._current()

    def _current(self) -> Optional[int]:
        return None if self._control is None else int(self._control[0]())

    def _user_chose(self) -> bool:
        return any(self._environ.get(name, "").strip() for name in _USER_THREAD_VARS)

    def _apply(self) -> None:
        if self._control is None or self._user_chose():
            return
        get, set_ = self._control
        if self._loaded is None:
            self._loaded = int(get())
        target = self._loaded
        if self._reserved > 0:
            target = min(self._loaded, max(1, self._cpus // self._reserved))
        if self._ceilings:
            target = min(target, min(self._ceilings))
        if int(get()) != target:
            set_(target)

    def _after_fork(self) -> None:
        # A forked child runs none of the parent's pools (their threads
        # did not survive the fork) and must not inherit a held lock.
        self._lock = threading.Lock()
        self._reserved = 0
        self._ceilings = []
        self._apply()


def _budget() -> ThreadBudget:
    global _BUDGET
    with _LOCK:
        if _BUDGET is None:
            _BUDGET = ThreadBudget(_resolve_thread_control(), usable_cpus())
        return _BUDGET


def _reset_after_fork() -> None:
    global _LOCK
    _LOCK = threading.Lock()
    if _BUDGET is not None:
        _BUDGET._after_fork()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)


def reserve(threads: int, ceiling: Optional[int] = None) -> Reservation:
    """Reserve ``threads`` concurrent compute threads on the process-wide
    budget, capping OpenBLAS at ``ceiling`` threads while held (``None``: no
    cap of this claim's own); hold the returned :class:`Reservation` until
    they stop."""
    return _budget().reserve(threads, ceiling)


def current_threads() -> Optional[int]:
    """OpenBLAS's thread count now, or ``None`` when it cannot be read."""
    return _budget().current()
