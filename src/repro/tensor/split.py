"""Split a training step's per-sample work between two threads.

:meth:`repro.train.trainer.Trainer.fit` turns the split on for its own
thread (:func:`active`) when OpenBLAS runs one thread for the fit and the
thread budget holds a CPU for each of the fit's two compute threads.  While
it is on, the per-sample kernels of :mod:`repro.tensor.functional` and
:class:`~repro.tensor.tensor.Tensor` hand half of the batch to one helper
thread through :func:`rows`, and the convolution backward runs its two GEMMs
side by side through :func:`both`.

Every split op writes disjoint rows (samples) of arrays the calling thread
allocated, and computes each element with the numpy call it makes over the
whole batch, so no bit depends on whether the split is on.  What would
change a sum is never split: batch reductions (batch-norm statistics, bias
and parameter sums) run whole on the calling thread, and each conv-backward
GEMM runs whole on one of the two threads.

The helper is one daemon thread per process.  It starts at the first split
and again in a forked child, whose copy of the parent's helper has no
thread behind it.  Each task runs in a copy of the caller's ``contextvars``
context, so it sees the caller's numpy error state (``np.errstate`` is
context-local), and an exception in the helper's half is raised again in
the caller once both halves have run.  With the split off, below
:data:`SPLIT_MIN_ELEMENTS`, or while another thread has the helper,
``rows(n, fn, size)`` is ``fn(...)``, the same function over every row:
there is one code path.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import threading
from types import EllipsisType
from typing import Callable, Iterator, Optional, Tuple, TypeVar, Union

__all__ = ["SPLIT_MIN_ELEMENTS", "active", "both", "is_on", "rows"]

#: Work on arrays smaller than this many elements runs whole.  On a 2-vCPU
#: Xeon (Python 3.11, numpy 2.4) an empty fork-join took 8 us of wall time
#: and 15 us of CPU, and 20-40 us once both halves' Python glue contends for
#: the interpreter lock, about what half of a 2^16-element elementwise pass
#: takes (0.9 ns an element).  In whole APT steps the median step of
#: small_convnet x0.5 at batch 64 (bench_cifar) took 0.68-0.70x its unsplit
#: time with this line at 2^14-2^16, 0.72x at 2^17 and 0.76x at 2^18, at the
#: same CPU; tiny_convnet at batch 64 (bench) took 0.95-0.97x up to 2^16.
SPLIT_MIN_ELEMENTS = 1 << 16

T = TypeVar("T")
U = TypeVar("U")
#: What :func:`rows` hands its function: a slice of rows, or ``...`` for all.
Part = Union[slice, EllipsisType]


class _Switch(threading.local):
    on = False


_SWITCH = _Switch()


def is_on() -> bool:
    """Whether the split is on for the calling thread."""
    return _SWITCH.on


@contextlib.contextmanager
def active(on: bool = True) -> Iterator[None]:
    """Turn the split on (or off) for the calling thread inside the block."""
    previous = _SWITCH.on
    _SWITCH.on = on
    try:
        yield
    finally:
        _SWITCH.on = previous


class _Helper:
    """One daemon thread that runs the task :meth:`start` hands it."""

    def __init__(self) -> None:
        #: Held by the thread whose fork-join is using the helper.
        self.busy = threading.Lock()
        self._go = threading.Lock()
        self._go.acquire()
        self._done = threading.Lock()
        self._done.acquire()
        self._task: Optional[Tuple[contextvars.Context, Callable, tuple]] = None
        self._error: Optional[BaseException] = None
        threading.Thread(target=self._serve, name="repro-batch-split", daemon=True).start()

    def _serve(self) -> None:
        while True:
            self._go.acquire()
            context, fn, args = self._task
            self._task = None
            try:
                context.run(fn, *args)
            except BaseException as error:  # raised again in the caller
                self._error = error
            self._done.release()

    def start(self, fn: Callable, *args) -> None:
        self._task = (contextvars.copy_context(), fn, args)
        self._go.release()

    def join(self) -> Optional[BaseException]:
        """Wait for the task; return the exception it raised, if any."""
        self._done.acquire()
        error, self._error = self._error, None
        return error


_HELPER: Optional[_Helper] = None
_HELPER_LOCK = threading.Lock()


def _claim(size: int) -> Optional[_Helper]:
    """The helper, held for one fork-join, or ``None`` to run whole."""
    global _HELPER
    if not _SWITCH.on or size < SPLIT_MIN_ELEMENTS:
        return None
    helper = _HELPER
    if helper is None:
        with _HELPER_LOCK:
            if _HELPER is None:
                _HELPER = _Helper()
            helper = _HELPER
    return helper if helper.busy.acquire(blocking=False) else None


def _fork_join(helper: _Helper, remote: Callable, local: Callable[[], T]) -> T:
    """Run ``remote`` on the helper and ``local`` here; return ``local()``."""
    helper.start(remote)
    try:
        result = local()
    finally:
        error = helper.join()
        # Not reached when the wait itself is interrupted: the helper may
        # still be running, so it stays busy and later splits run whole.
        helper.busy.release()
    if error is not None:
        raise error
    return result


def rows(n: int, fn: Callable[[Part], None], size: int) -> None:
    """Run ``fn(part)`` over the ``n`` rows (samples) of a batch.

    ``part`` indexes the leading axis of every array ``fn`` touches: with
    the split on, ``n >= 2`` and ``size`` (the element count of the largest
    array ``fn`` writes) at least :data:`SPLIT_MIN_ELEMENTS`, the caller
    runs ``fn(slice(0, m))`` and the helper ``fn(slice(m, n))`` with ``m =
    ceil(n / 2)``; otherwise the caller runs ``fn(...)`` over the whole
    arrays (a 0-d one included).  Returns once every row has run.
    """
    helper = _claim(size) if n >= 2 else None
    if helper is None:
        fn(...)
        return
    middle = (n + 1) // 2
    _fork_join(helper, lambda: fn(slice(middle, n)), lambda: fn(slice(0, middle)))


def both(
    first: Optional[Callable[[], T]], second: Optional[Callable[[], U]], size: int
) -> Tuple[Optional[T], Optional[U]]:
    """``(first(), second())``, a ``None`` function giving a ``None`` result.

    With the split on and ``size`` at least :data:`SPLIT_MIN_ELEMENTS`, the
    helper runs ``first`` while the caller runs ``second``; otherwise the
    caller runs ``first`` and then ``second``.
    """
    helper = _claim(size) if first is not None and second is not None else None
    if helper is None:
        return (None if first is None else first(), None if second is None else second())
    results = []
    second_result = _fork_join(helper, lambda: results.append(first()), second)
    return results[0], second_result


def _reset_after_fork() -> None:
    # The child has no helper thread, only the parent's object for it.
    global _HELPER, _HELPER_LOCK
    _HELPER = None
    _HELPER_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)
