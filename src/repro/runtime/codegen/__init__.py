"""Native codegen backend: emitted, compiled and cached C kernels.

For the hottest step family -- im2col-GEMM conv2d with its fused
affine/activation epilogue -- this package emits shape-specialized C
(:mod:`.emitter`), compiles it once per machine into an on-disk artifact
cache (:mod:`.build`), loads it through ``ctypes`` and verifies it
**byte-for-byte** against the numpy reference path before anything may
execute it (:mod:`.kernels`).  GEMMs call back into numpy's own vendored
OpenBLAS (:mod:`repro.runtime.blas`), which is what makes bitwise identity
attainable at all.

The backend is **off by default** and entirely opt-in: set
``REPRO_CODEGEN=1`` or call :func:`configure`.  When enabled, native
kernels surface as ordinary ``conv2d.native`` variants in
:mod:`repro.runtime.variants` -- the existing admission rule and
:class:`~repro.runtime.tuning.Autotuner` then select them per signature
with zero new policy code.  Degradation is graceful at every layer: no C
compiler, no BLAS bridge, a failed build or a failed bitwise probe all
mean the variant is simply absent and numpy serves.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Optional

from repro.runtime import blas as _blas
from repro.runtime.codegen import build as _build
from repro.runtime.codegen import kernels as _kernels
from repro.runtime.codegen.build import (
    build_counts,
    cache_dir,
    clear_cache,
    compiler_command,
)
from repro.runtime.codegen.emitter import (
    ConvGeom,
    ElemOpSpec,
    ElemRef,
    EpilogueSpec,
    epilogue_spec,
)
from repro.runtime.codegen.kernels import (
    dispatch_count,
    native_conv_kernel,
    native_ready,
)

__all__ = [
    "ConvGeom",
    "ElemOpSpec",
    "ElemRef",
    "EpilogueSpec",
    "bind_metrics",
    "build_counts",
    "cache_dir",
    "clear_cache",
    "compiler_command",
    "configure",
    "dispatch_count",
    "enabled",
    "epilogue_spec",
    "fingerprint",
    "native_conv_kernel",
    "native_ready",
    "reset",
    "status",
    "verify_backend",
]

_ENABLE_LOCK = threading.Lock()
_ENABLED: Dict[str, Optional[bool]] = {"value": None}
_TRUTHY = ("1", "true", "on", "yes")


def enabled() -> bool:
    """Whether the backend may emit/compile/dispatch native kernels.

    Explicit :func:`configure` wins; otherwise the ``REPRO_CODEGEN``
    environment variable decides (default: off).
    """
    with _ENABLE_LOCK:
        explicit = _ENABLED["value"]
    if explicit is not None:
        return explicit
    return os.environ.get("REPRO_CODEGEN", "").strip().lower() in _TRUTHY


def configure(
    enable: Optional[bool] = None, cache_dir_path: Optional[str] = None
) -> None:
    """Switch the backend on/off and/or pin the artifact directory.

    ``enable=None`` keeps the current enablement (environment-driven when
    never set explicitly).  Loaded-kernel memos are dropped so the new
    configuration takes effect immediately; on-disk artifacts are kept
    (that cache is the point).
    """
    if enable is not None:
        with _ENABLE_LOCK:
            _ENABLED["value"] = bool(enable)
    if cache_dir_path is not None:
        _build.configure_build(cache_dir_path)
    _kernels.reset_kernels()


def reset() -> None:
    """Return the backend to its pristine state (tests)."""
    with _ENABLE_LOCK:
        _ENABLED["value"] = None
    _build.configure_build(None)
    _build.reset_build_state()
    _kernels.reset_kernels()


def fingerprint() -> str:
    """Plan-cache key component: native variants change plan identity."""
    return "cg:on" if enabled() else "cg:off"


def bind_metrics(metrics) -> None:
    """Mirror the backend counters into an obs registry."""
    _build.bind_build_metrics(metrics)
    _kernels.bind_dispatch_metric(metrics)


def status() -> Dict[str, object]:
    """Everything observable about the backend, as plain data (CLI)."""
    directory = cache_dir()
    artifacts = 0
    try:
        artifacts = sum(
            1 for name in os.listdir(directory) if name.endswith(".so")
        )
    except OSError:
        pass
    return {
        "enabled": enabled(),
        "compiler": compiler_command(),
        "blas": _blas.dgemm_handle().describe(),
        "cache_dir": directory,
        "artifacts": artifacts,
        "builds": build_counts(),
        "dispatches": dispatch_count(),
    }


def verify_backend() -> Dict[str, object]:
    """Build + bitwise-verify one small conv kernel (CLI ``--verify``).

    Temporarily enables the backend for the probe build so the command is
    useful on hosts where ``REPRO_CODEGEN`` is unset.  Returns the
    admission result under the family's name (``conv2d``) plus the build
    counters' delta.
    """
    before = build_counts()
    with _ENABLE_LOCK:
        previous = _ENABLED["value"]
        _ENABLED["value"] = True
    try:
        conv = native_conv_kernel(
            ConvGeom(c_in=3, h=8, w=8, kh=3, kw=3, sh=1, sw=1, ph=1, pw=1,
                     c_out=4),
            epilogue_spec(4, True, True, [("relu", [("chain",)], {})]),
        )
    finally:
        with _ENABLE_LOCK:
            _ENABLED["value"] = previous
    after = build_counts()
    return {
        "conv2d": conv is not None,
        "builds_before": before,
        "builds_after": after,
        "built": after.get("built", 0) - before.get("built", 0),
        "cached": after.get("cached", 0) - before.get("cached", 0),
        "failed": after.get("failed", 0) - before.get("failed", 0),
        "compiler": compiler_command(),
        "blas": _blas.dgemm_handle().describe(),
        "cache_dir": cache_dir(),
    }
