"""The process's glibc allocator policy for training steps.

``Tensor.backward`` frees each node's activations, saved columns and
gradient as soon as backprop has passed it.  Left at its defaults, glibc
then hands much of that memory back to the kernel during the step, and the
next step faults the same pages back in: past the first epoch, the median
``bench_cifar`` APT step went from 0 to 7.6K minor page faults and from
103 to 113 ms (seed 21, 2-vCPU Xeon, glibc 2.36).  So
:meth:`repro.train.trainer.Trainer.fit` calls :func:`apply_allocator_policy`,
which fixes two ``mallopt`` settings for the whole process:

* :data:`MMAP_THRESHOLD_BYTES` -- blocks below it come from the heap, so a
  freed activation stays in the process for the next step to reuse;
* :data:`TRIM_THRESHOLD_BYTES` -- the heap keeps up to this much free memory
  at its top before it returns any to the kernel;
* :data:`ARENA_MAX` -- every thread allocates from the main heap, so the
  blocks the batch split's helper thread (:mod:`repro.tensor.split`) frees
  are reused by the fit's own thread too.

The first two are needed together: setting either one turns off glibc's
own sliding thresholds, and each alone still faults (see the constants).
The settings persist for the process once set, like the process-wide BLAS
thread count (:mod:`repro.runtime.blas`); nothing resets them.  There is no
option and no environment variable: where the C library has no ``mallopt``
(not glibc), the policy does nothing.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Optional

__all__ = ["ARENA_MAX", "MMAP_THRESHOLD_BYTES", "TRIM_THRESHOLD_BYTES", "apply_allocator_policy"]

#: ``mallopt`` parameter numbers, from glibc's ``<malloc.h>``.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
M_ARENA_MAX = -8

#: Requests at least this large are served by ``mmap`` (and unmapped when
#: freed); smaller ones come from the heap.  32 MiB is the largest value
#: glibc accepts on 64-bit hosts (``HEAP_MAX_SIZE / 2``), and no array of a
#: ``bench_cifar`` step is that large.  With the trim threshold set alone,
#: this one stays wherever glibc's sliding threshold had got to, and the
#: median ``bench_cifar`` step past the first epoch still took 1.3K minor
#: faults (mean 0.7K; same probe as above).
MMAP_THRESHOLD_BYTES = 32 * 2**20

#: Free memory the heap keeps at its top before ``free`` trims it back to
#: the kernel.  With the mmap threshold set alone, this one stays where
#: glibc had slid it and the median step took 11.8K minor faults at
#: 120 ms; at 64 MiB it took 0.8K (mean 3.3K); at 128 MiB the median step
#: took none (mean 3).
TRIM_THRESHOLD_BYTES = 128 * 2**20


#: Most malloc arenas the process may have: one, the main heap.  glibc
#: otherwise gives the split's helper thread an arena of its own, where the
#: blocks it frees stay for it alone; a ``bench_cifar`` APT fit then peaked
#: at about 181 MiB RSS instead of 166-167 MiB.
ARENA_MAX = 1


def _find_mallopt() -> Optional[Callable[[int, int], int]]:
    """The process's ``mallopt``, or ``None`` where the C library has none."""
    try:
        function = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None
    function.argtypes = (ctypes.c_int, ctypes.c_int)
    function.restype = ctypes.c_int
    return function


_mallopt = _find_mallopt()


def apply_allocator_policy() -> bool:
    """Set all three for the rest of the process; ``True`` if glibc took them.

    Idempotent (the same three values every call) and a no-op returning
    ``False`` where ``mallopt`` is missing.
    """
    if _mallopt is None:
        return False
    mmap_set = _mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    trim_set = _mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)
    arena_set = _mallopt(M_ARENA_MAX, ARENA_MAX)
    return bool(mmap_set and trim_set and arena_set)
