"""Build, verify, memoise and dispatch native kernels.

The only way a native kernel reaches execution is through
:func:`native_conv_kernel`, which enforces the variant registry's
admission rule *empirically*: after emitting and compiling the artifact,
it runs a seeded random probe through both the native kernel and the exact
numpy reference path (the same :mod:`repro.kernels` +
``executor._apply_elem`` calls the plan would make) and compares the
output **byte for byte**, at two batch sizes.  Floating-point results are
determined by operation order, not operand values, so a signature that
matches on the probe matches on every input of that shape; a signature
that doesn't (e.g. single-column GEMMs, where numpy takes a different
BLAS path) is memoised as absent and numpy serves it.

Everything is cached at the right layer: the ``.so`` on disk (shared
across processes, keyed by source hash), the loaded+verified wrapper in a
process-wide memo (keyed by the frozen geometry/spec dataclasses), and
the dgemm handle once per process.  Every successful native call bumps
``codegen_dispatch_total``.
"""

from __future__ import annotations

import ctypes
import hashlib
import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.codegen import build as _build
from repro.runtime.codegen import emitter as _emitter
from repro.runtime.blas import dgemm_handle
from repro.runtime.codegen.emitter import ConvGeom, EpilogueSpec

__all__ = [
    "NativeConv",
    "dispatch_count",
    "native_conv_kernel",
    "native_ready",
    "reset_kernels",
]

_LOCK = threading.Lock()
_KERNELS: Dict[tuple, Optional[object]] = {}
_DISPATCH = {"count": 0}
_METRIC = [None]

_EMPTY_EXTERNS = (ctypes.c_void_p * 1)()

_ARGTYPES = [
    ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
    ctypes.c_void_p, ctypes.c_double, ctypes.c_void_p,
    ctypes.POINTER(ctypes.c_void_p),
]


def dispatch_count() -> int:
    """Total successful native-kernel invocations this process."""
    return _DISPATCH["count"]


def _dispatched() -> None:
    _DISPATCH["count"] += 1
    family = _METRIC[0]
    if family is not None:
        family.inc()


def bind_dispatch_metric(metrics) -> None:
    """Mirror the dispatch counter into ``codegen_dispatch_total``."""
    family = metrics.counter(
        "codegen_dispatch_total",
        "Steps served by a generated native kernel.",
    )
    handle = family._default()
    if _DISPATCH["count"]:
        handle._force(_DISPATCH["count"])
    _METRIC[0] = handle


def reset_kernels() -> None:
    """Drop every loaded-kernel memo (tests / reconfiguration)."""
    with _LOCK:
        _KERNELS.clear()


def native_ready() -> bool:
    """Cheap gate: backend enabled, compiler present, BLAS bridge alive."""
    from repro.runtime.codegen import enabled

    if not enabled():
        return False
    if _build.compiler_command() is None:
        return False
    return dgemm_handle().ok


def _externs_array(externs: Sequence[np.ndarray]):
    if not externs:
        return _EMPTY_EXTERNS
    return (ctypes.c_void_p * len(externs))(
        *[int(array.ctypes.data) for array in externs]
    )


class NativeConv:
    """Loaded conv2d artifact: raw NCHW input -> (N, C_out, OH, OW) output."""

    __slots__ = ("geom", "epilogue", "_fn", "_dgemm")

    def __init__(self, fn, geom: ConvGeom, epilogue: Optional[EpilogueSpec]):
        self.geom = geom
        self.epilogue = epilogue
        self._fn = fn
        self._dgemm = dgemm_handle().address

    def run(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        out: np.ndarray,
        scale: float = 0.0,
        shift: Optional[np.ndarray] = None,
        externs: Sequence[np.ndarray] = (),
    ) -> bool:
        status = self._fn(
            int(x.ctypes.data), int(weight.ctypes.data), int(out.ctypes.data),
            int(x.shape[0]), self._dgemm, float(scale),
            None if shift is None else int(shift.ctypes.data),
            _externs_array(externs),
        )
        if status != 0:
            return False
        _dispatched()
        return True


# --------------------------------------------------------------------------
# Verification: the admission rule, enforced empirically per signature
# --------------------------------------------------------------------------

def _rng(tag: str) -> np.random.Generator:
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def _probe_array(rng: np.random.Generator, shape: Tuple[int, ...]) -> np.ndarray:
    array = rng.standard_normal(shape)
    flat = array.reshape(-1)
    if flat.size >= 4:
        flat[:: max(1, flat.size // 7)] = 0.0
        flat[1:: max(1, flat.size // 5)] *= -1.0
        flat[2] = -0.0
    return array


def _extern_probes(
    rng: np.random.Generator, count: int, channels: int
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """(native flat arrays, numpy ``(C, 1, 1)`` views) per extern slot."""
    native = [
        np.ascontiguousarray(_probe_array(rng, (channels,))) for _ in range(count)
    ]
    return native, [array.reshape(channels, 1, 1) for array in native]


def _replay_epilogue(
    raw: np.ndarray,
    scale: Optional[float],
    shift: Optional[np.ndarray],
    epilogue: Optional[EpilogueSpec],
    replay_externs: Sequence[np.ndarray],
) -> np.ndarray:
    """The executor's exact epilogue semantics (same ufuncs, same order)."""
    from repro.runtime.executor import _apply_elem

    if epilogue is None:
        return raw
    if epilogue.has_scale:
        raw *= np.float64(scale)
    if epilogue.has_shift:
        raw += shift
    for op in epilogue.ops:
        arrays = []
        for ref in op.refs:
            if ref.kind == "chain":
                arrays.append(raw)
            elif ref.kind == "scalar":
                arrays.append(np.float64(ref.value))
            else:
                arrays.append(replay_externs[ref.index])
        ctx = {"min": op.lo, "max": op.hi} if op.op == "clamp" else {}
        raw = _apply_elem(op.op, arrays, ctx, raw)
    return raw


def _verify_conv(
    kernel: NativeConv, geom: ConvGeom, epilogue: Optional[EpilogueSpec]
) -> bool:
    from repro import kernels as ref_kernels

    tag = f"conv|{geom}|{epilogue.detail() if epilogue else ''}"
    rng = _rng(tag)
    externs = epilogue.externs if epilogue is not None else 0
    for batch in (1, 3):
        x = _probe_array(rng, (batch, geom.c_in, geom.h, geom.w))
        weight = np.ascontiguousarray(
            _probe_array(rng, (geom.c_out, geom.k_rows))
        )
        cols, _, oh, ow = ref_kernels.im2col(
            x, (geom.kh, geom.kw), (geom.sh, geom.sw), (geom.ph, geom.pw)
        )
        reference = np.empty((batch, geom.c_out, geom.patches))
        ref_kernels.matmul_cols(weight, cols, out=reference)
        reference = reference.reshape(batch, geom.c_out, oh, ow)
        scale = 1.0 / 3.0 if epilogue is not None and epilogue.has_scale else None
        shift = None
        if epilogue is not None and epilogue.has_shift:
            shift = np.ascontiguousarray(_probe_array(rng, (geom.c_out,)))
        native_ext, replay_ext = _extern_probes(rng, externs, geom.c_out)
        reference = _replay_epilogue(
            reference, scale,
            None if shift is None else shift.reshape(1, geom.c_out, 1, 1),
            epilogue, replay_ext,
        )
        actual = np.empty((batch, geom.c_out, oh, ow))
        ok = kernel.run(
            x, weight, actual,
            scale=0.0 if scale is None else scale,
            shift=shift, externs=native_ext,
        )
        if not ok or actual.tobytes() != reference.tobytes():
            return False
    return True


# --------------------------------------------------------------------------
# Build + verify + memoise
# --------------------------------------------------------------------------

def _load_fn(so_path: str) -> Optional[object]:
    try:
        library = ctypes.CDLL(so_path)
        fn = library.repro_kernel
    except (OSError, AttributeError):
        return None
    fn.restype = ctypes.c_int
    fn.argtypes = _ARGTYPES
    return fn


def _materialise(key: tuple, emit, load_and_verify):
    """Shared memo discipline: emit/build/verify once, cache the outcome."""
    with _LOCK:
        if key in _KERNELS:
            return _KERNELS[key]
    source = emit()
    so_path = _build.build_shared_object(source, tag=key[0])
    kernel = None
    if so_path is not None:
        kernel = load_and_verify(so_path)
    with _LOCK:
        _KERNELS[key] = kernel
    return kernel


def native_conv_kernel(
    geom: ConvGeom, epilogue: Optional[EpilogueSpec] = None
) -> Optional[NativeConv]:
    """The verified native conv2d kernel for this signature, or ``None``."""
    if not native_ready():
        return None
    if geom.patches <= 1 or geom.c_out <= 1 or geom.k_rows <= 1:
        return None  # single-row/column GEMMs take a different numpy path

    key = ("conv", geom, epilogue)

    def _load(so_path: str) -> Optional[NativeConv]:
        fn = _load_fn(so_path)
        if fn is None:
            return None
        kernel = NativeConv(fn, geom, epilogue)
        return kernel if _verify_conv(kernel, geom, epilogue) else None

    return _materialise(
        key, lambda: _emitter.emit_conv(geom, epilogue), _load
    )
