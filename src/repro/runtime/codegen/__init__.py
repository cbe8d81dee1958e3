"""Native codegen backend: emitted, compiled and cached C kernels.

The ROADMAP item-2 stretch goal made concrete: for the three hottest step
families -- im2col-GEMM conv2d with its fused affine/activation epilogue,
linear matmul + epilogue, and fused-elementwise ufunc chains -- this
package emits shape-specialized C (:mod:`.emitter`), compiles it once per
machine into an on-disk artifact cache (:mod:`.build`), loads it through
``ctypes`` and verifies it **byte-for-byte** against the numpy reference
path before anything may execute it (:mod:`.kernels`).  GEMMs call back
into numpy's own vendored OpenBLAS (:mod:`repro.runtime.blas`), which is
what makes bitwise identity attainable at all.

The backend is **off by default** and entirely opt-in: set
``REPRO_CODEGEN=1`` or call :func:`configure`.  When enabled, native
kernels surface as ordinary ``"native"`` variants in
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

import numpy as _np

from repro.runtime import blas as _blas
from repro.runtime.codegen import build as _build
from repro.runtime.codegen import emitter as _emitter
from repro.runtime.codegen import kernels as _kernels
from repro.runtime.codegen.build import (
    build_counts,
    cache_dir,
    clear_cache,
    compiler_command,
)
from repro.runtime.codegen.emitter import (
    ChainSpec,
    ConvGeom,
    ElemOpSpec,
    ElemRef,
    EpilogueSpec,
    LinearGeom,
    elementwise_spec,
    epilogue_spec,
)
from repro.runtime.codegen.kernels import (
    dispatch_count,
    native_conv_kernel,
    native_elementwise_kernel,
    native_linear_kernel,
    native_ready,
)

__all__ = [
    "ChainSpec",
    "ConvGeom",
    "ElemOpSpec",
    "ElemRef",
    "EpilogueSpec",
    "LinearGeom",
    "bind_metrics",
    "build_counts",
    "cache_dir",
    "chain_spec_for_node",
    "clear_cache",
    "compiler_command",
    "configure",
    "dispatch_count",
    "elementwise_spec",
    "enabled",
    "epilogue_spec",
    "fingerprint",
    "native_conv_kernel",
    "native_elementwise_kernel",
    "native_linear_kernel",
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


def chain_spec_for_node(node):
    """The native :class:`ChainSpec` of a ``fused_elementwise`` IR node.

    Normalises the node's micro-ops into the spec builder's operand form:
    the chain sentinel stays a chain ref, size-1 constants are baked as
    scalars (only when the bake is value-exact), larger constants and
    runtime values become externs classified by shape.  ``None`` whenever
    any op or operand has no bitwise-exact C form -- the caller then simply
    doesn't offer a native variant.
    """
    from repro.runtime.ir import CHAIN

    output_shape = tuple(node.output.shape)
    if len(output_shape) < 2 or not getattr(node.output, "batch_poly", False):
        return None
    operations = []
    for elem in node.elem_ops:
        operands = []
        for operand in elem.inputs:
            if operand is CHAIN:
                operands.append(("chain",))
                continue
            if operand.kind == "const":
                data = operand.data
                if data is None:
                    return None
                data = _np.asarray(data)
                if data.size == 1:
                    item = data.ravel()[0]
                    value = float(item)
                    if value != item:  # bake would change the value
                        return None
                    operands.append(("scalar", value))
                else:
                    if data.dtype not in (_np.float64, _np.float32):
                        return None
                    operands.append(("extern", tuple(data.shape), False))
            else:
                operands.append((
                    "extern",
                    tuple(operand.shape),
                    bool(getattr(operand, "batch_poly", False)),
                ))
        operations.append((elem.op, operands, dict(elem.ctx)))
    return elementwise_spec(output_shape[1:], operations)


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
    """Build + bitwise-verify one small kernel per family (CLI ``--verify``).

    Temporarily enables the backend for the probe builds so the command is
    useful on hosts where ``REPRO_CODEGEN`` is unset.  Returns per-family
    admission results plus the build counters' delta.
    """
    before = build_counts()
    with _ENABLE_LOCK:
        previous = _ENABLED["value"]
        _ENABLED["value"] = True
    try:
        conv = native_conv_kernel(
            ConvGeom(c_in=3, h=8, w=8, kh=3, kw=3, sh=1, sw=1, ph=1, pw=1,
                     c_out=4),
            epilogue_spec((4, 0, 0), True, True, [
                ("relu", [("chain",)], {}),
            ]),
        )
        linear = native_linear_kernel(
            LinearGeom(in_features=16, out_features=8),
            epilogue_spec((8,), False, False, []),
        )
        chain = elementwise_spec(
            (4, 8, 8),
            [
                ("add", [("extern", (2, 4, 8, 8), True), ("scalar", 0.5)], {}),
                ("clamp", [("chain",)], {"min": 0.0, "max": 6.0}),
            ],
        )
        elem = (
            native_elementwise_kernel(chain) if chain is not None else None
        )
    finally:
        with _ENABLE_LOCK:
            _ENABLED["value"] = previous
    after = build_counts()
    return {
        "conv2d": conv is not None,
        "linear": linear is not None,
        "elementwise": elem is not None,
        "builds_before": before,
        "builds_after": after,
        "built": after.get("built", 0) - before.get("built", 0),
        "cached": after.get("cached", 0) - before.get("cached", 0),
        "failed": after.get("failed", 0) - before.get("failed", 0),
        "compiler": compiler_command(),
        "blas": _blas.dgemm_handle().describe(),
        "cache_dir": cache_dir(),
    }
