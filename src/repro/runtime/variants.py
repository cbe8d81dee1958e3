"""Kernel variant registry: multiple byte-exact implementations per op.

The executor historically lowered every conv / linear / pool node to one
generic implementation (im2col gather + dense GEMM, auto-dispatched
pooling) regardless of shape, dtype or layout.  This module registers the
alternatives the :func:`~repro.runtime.passes.select_kernels` pass chooses
between:

``conv2d``
    * ``im2col`` -- the reference gather + GEMM lowering;
    * ``im2col_slices`` -- build the column matrix with ``kh*kw`` strided
      slice copies into a C-contiguous buffer instead of one fancy-index
      gather (which produces a batch-innermost layout the GEMM then has
      to repack); the column *values* are exact copies, so the GEMM is
      handed identical operands and the result is unchanged -- but both
      the gather and the GEMM run substantially faster.  The columns are
      built and multiplied one cache-sized block of samples at a time
      (:data:`COLUMN_BLOCK_BYTES`), so a conv never holds the batch's
      column matrix.  Training's ``F.conv2d`` uses the same builder,
      :func:`repro.kernels.im2col_slices`, over the whole batch;
    * ``im2col_batched`` -- the same slice copies into one
      ``(C*kh*kw, N*oh*ow)`` matrix (:func:`repro.kernels.im2col_batched`),
      so one GEMM computes the whole batch instead of one per sample, and
      each conv packs its filter matrix once per batch, not once per
      sample; the ``(C_out, N, oh*ow)`` product is copied into the step's
      NCHW scratch.  Admitted only where that GEMM sums every output in
      the per-sample order (see :data:`BATCHED_PIXEL_TILE` and
      :data:`BATCHED_MIN_MACS`), and only below
      :data:`BATCHED_MAX_PIXELS` output pixels, where it beats the blocked
      per-sample GEMMs;
    * ``gemm_1x1`` -- a 1x1 / stride-1 / pad-0 convolution is a plain GEMM
      over the channel dimension: skip the im2col gather copy entirely.
``linear``
    * ``matmul`` -- the reference dense matmul.
``max_pool2d``
    * ``auto`` -- the reference kernel's own dispatch: the strided-slice
      reduction on non-overlapping windows, the gather elsewhere;
    * ``gather`` -- force the general im2col gather path (ranked below the
      reference: only a tuner measurement selects it).
``avg_pool2d``
    * ``auto`` -- the reference kernel, which dispatches between its tiled
      and gather paths itself.
``conv2d`` (opt-in)
    * ``native`` -- a shape-specialized C kernel emitted, compiled and
      bitwise-verified by :mod:`repro.runtime.codegen`.  Only registered
      as *applicable* when the backend is enabled, a compiler exists, the
      artifact builds, and its output matched the reference byte-for-byte
      on a seeded probe -- the same admission rule as every other variant,
      enforced empirically per signature.  Ranked below the reference so
      the zero-cost heuristic never picks it: only a tuner measurement
      (or a persisted tuned record) selects native kernels.

Every conv and linear variant runs over the weight the lowering packed
once (:func:`repro.kernels.pack_weight_matrix`: integer codes cast to
contiguous ``float64``, which is exact).

**Byte-exactness is the admission rule**: a variant's ``applies``
predicate may only accept geometries where its output is bitwise-identical
to the reference implementation (``max_pool2d.gather`` accepts every
geometry because max is exact under any evaluation order).  The
test-suite sweeps every registered variant against the reference kernels,
bit for bit; ``im2col_batched``'s predicate, which rests on how OpenBLAS
tiles a GEMM, is also checked on every census call site it admits at
batches 1-16, and ``im2col_slices``' blocks on every census call site
where they split the batch (``tests/runtime/test_batched_conv.py``).

**A variant stays only if it wins somewhere.**  ``docs/variant_census.json``
(written by ``tools/variant_census.py``) records the tuner's pick for every
kernel signature of every registry model; the test-suite requires every
non-reference variant to be the pick somewhere in it.

Selection is recorded on the IR node (``attrs["kernel_variant"]``) by the
``select_kernels`` pass -- driven by the :mod:`~repro.runtime.tuning`
autotuner when one is active, by the zero-cost heuristic ranking otherwise
-- and the executor's lowering dispatches on it.  A plan compiled without
the pass lowers every node to the reference variant, unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import kernels

__all__ = [
    "KernelDesc",
    "KernelVariant",
    "available_variants",
    "heuristic_choice",
    "reference_variant",
    "register_variant",
    "variants_for",
]

#: Ops that have registered variants (everything else lowers one way).
VARIED_OPS = ("conv2d", "linear", "max_pool2d", "avg_pool2d")


@dataclass(frozen=True)
class KernelDesc:
    """Static description of one lowered kernel call site.

    This is what variant applicability predicates and the autotuner's
    cache key see: the op, the per-sample input/output geometry, and the
    baked weight's storage dtype and logical bitwidth.  Two nodes in two
    different models with the same descriptor are the same tuning problem
    -- which is exactly why tuned winners persist and transfer.
    """

    op: str
    x_shape: Tuple[int, ...]  # per-sample input shape, e.g. (C, H, W)
    kernel_size: Tuple[int, int] = (0, 0)
    stride: Tuple[int, int] = (1, 1)
    padding: Tuple[int, int] = (0, 0)
    out_channels: int = 0
    weight_dtype: str = ""
    bits: int = 32

    def signature(self) -> str:
        """Stable string key for the persistent tuning cache."""
        parts = [
            self.op,
            "x=" + "x".join(str(dim) for dim in self.x_shape),
        ]
        if self.op == "conv2d" or self.op.endswith("pool2d"):
            parts.append(f"k={self.kernel_size[0]}x{self.kernel_size[1]}")
            parts.append(f"s={self.stride[0]}x{self.stride[1]}")
        if self.op == "conv2d":
            parts.append(f"p={self.padding[0]}x{self.padding[1]}")
        if self.op in ("conv2d", "linear"):
            parts.append(f"co={self.out_channels}")
            parts.append(f"w={self.weight_dtype}")
            parts.append(f"b={self.bits}")
        return "|".join(parts)


@dataclass(frozen=True)
class KernelVariant:
    """One registered implementation of an op.

    ``applies`` admits only geometries where the variant is
    bitwise-identical to the reference; ``rank`` orders the zero-cost
    heuristic (higher wins among applicable variants; the reference is
    rank 0).
    """

    op: str
    name: str
    applies: Callable[[KernelDesc], bool]
    rank: int
    description: str


_REGISTRY: Dict[str, "List[KernelVariant]"] = {op: [] for op in VARIED_OPS}


def register_variant(variant: KernelVariant) -> KernelVariant:
    """Add a variant to the registry (first registration per op = reference).

    Raises:
        ValueError: the op is unknown or the name is already taken.
    """
    if variant.op not in _REGISTRY:
        raise ValueError(
            f"unknown op {variant.op!r}; variants exist for {sorted(_REGISTRY)}"
        )
    if any(existing.name == variant.name for existing in _REGISTRY[variant.op]):
        raise ValueError(f"variant {variant.op}.{variant.name} already registered")
    _REGISTRY[variant.op].append(variant)
    return variant


def variants_for(op: str) -> Tuple[KernelVariant, ...]:
    """Every registered variant of ``op`` (reference first), or ()."""
    return tuple(_REGISTRY.get(op, ()))


def reference_variant(op: str) -> str:
    """Name of the reference (first-registered) variant of ``op``."""
    return _REGISTRY[op][0].name


def available_variants() -> Dict[str, Tuple[str, ...]]:
    """Registered variant names per op (documentation / CLI surface)."""
    return {op: tuple(v.name for v in entries) for op, entries in _REGISTRY.items()}


def applicable_variants(desc: KernelDesc) -> Tuple[KernelVariant, ...]:
    """The variants admissible at ``desc`` (always includes one)."""
    return tuple(v for v in variants_for(desc.op) if v.applies(desc))


def heuristic_choice(desc: KernelDesc) -> str:
    """Zero-cost selection: the highest-ranked applicable variant."""
    candidates = applicable_variants(desc)
    if not candidates:
        return reference_variant(desc.op)
    return max(candidates, key=lambda v: v.rank).name


# --------------------------------------------------------------------------- #
# Quantised-weight helpers (shared by the select_kernels pass and lowering)
# --------------------------------------------------------------------------- #
def smallest_int_dtype(low: int, high: int) -> np.dtype:
    """The narrowest numpy integer dtype holding ``[low, high]``."""
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        info = np.iinfo(dtype)
        if info.min <= low and high <= info.max:
            return np.dtype(dtype)
    raise ValueError(f"no integer dtype holds [{low}, {high}]")  # pragma: no cover


def centred_codes(qt) -> np.ndarray:
    """Zero-point-centred integer codes of a quantised tensor, narrowed."""
    centred = qt.codes.astype(np.int64) - qt.qparams.zero_point
    dtype = smallest_int_dtype(int(centred.min(initial=0)), int(centred.max(initial=0)))
    return centred.astype(dtype)


# --------------------------------------------------------------------------- #
# Convolution variants
# --------------------------------------------------------------------------- #
def run_conv(
    variant: str,
    x: np.ndarray,
    weight_exec: np.ndarray,
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Run one convolution variant; returns ``(N, C_out, out_h*out_w)``.

    ``weight_exec`` is the ``(C_out, C*kh*kw)`` filter matrix, packed by
    :func:`repro.kernels.pack_weight_matrix`.  ``out`` (when given)
    receives the result for variants that can write in place; the returned
    array is authoritative either way.
    """
    if variant == "im2col":
        cols, _, _, _ = kernels.im2col(x, kernel_size, stride, padding)
        return kernels.matmul_cols(weight_exec, cols, out=out)
    if variant == "gemm_1x1":
        batch, channels = x.shape[:2]
        flat = x.reshape(batch, channels, x.shape[2] * x.shape[3])
        if out is not None and out.dtype == np.result_type(weight_exec, flat):
            return np.matmul(weight_exec, flat, out=out)
        return np.matmul(weight_exec, flat)  # pragma: no cover - non-f64 input
    if variant == "im2col_slices":
        return _run_conv_column_blocks(x, weight_exec, kernel_size, stride, padding, out)
    if variant == "im2col_batched":
        cols, out_h, out_w = kernels.im2col_batched(x, kernel_size, stride, padding)
        product = np.matmul(weight_exec, cols).reshape(
            weight_exec.shape[0], x.shape[0], out_h * out_w
        )
        # (C_out, N, oh*ow) -> the (N, C_out, oh*ow) every variant returns.
        if out is None:
            return np.ascontiguousarray(product.transpose(1, 0, 2))
        np.copyto(out, product.transpose(1, 0, 2))
        return out
    if variant == "native":
        return _run_conv_native(x, weight_exec, kernel_size, stride, padding, out)
    raise ValueError(f"unknown conv2d variant {variant!r}")


#: Bytes of columns ``im2col_slices`` builds before it multiplies them:
#: one core's L2 on the reference host (a 2-vCPU Xeon, 2 MiB per core), so
#: a block's columns are still in cache when its GEMMs read them, instead
#: of a whole batch's passing through DRAM twice.  On the served models'
#: 32x32 convs at batch 16 and one BLAS thread, 1 MiB blocks ran from 2%
#: slower to 15% faster than 2 MiB ones, 4 MiB blocks (past the L2) up to
#: 32% slower, and whole-batch columns 1.6-1.8x slower, except at the
#: 3-channel stems, whose columns are small (0.9x).
COLUMN_BLOCK_BYTES = 2 * 1024 * 1024


def column_block(x_shape: Tuple[int, ...], kernel_size: Tuple[int, int],
                 out_hw: Tuple[int, int]) -> int:
    """Samples per block of float64 columns: as many as fit in
    :data:`COLUMN_BLOCK_BYTES`, and at least one."""
    sample_bytes = 8 * x_shape[0] * kernel_size[0] * kernel_size[1] * out_hw[0] * out_hw[1]
    # An empty output has no columns; the column builder rejects it.
    return max(1, COLUMN_BLOCK_BYTES // max(sample_bytes, 1))


def _run_conv_column_blocks(
    x: np.ndarray,
    weight_exec: np.ndarray,
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out: Optional[np.ndarray],
) -> np.ndarray:
    """``im2col_slices``, building and multiplying the columns one block of
    samples at a time (:func:`column_block`).

    The conv holds one block's columns instead of the batch's.  Each block
    runs a shorter stack of the same per-sample GEMMs, writing straight
    into its slice of the output, so the result is unchanged bit for bit;
    where the batch fits in one block this is the unblocked call.
    """
    out_h, out_w = kernels.conv_output_hw(
        x.shape[2], x.shape[3], kernel_size, stride, padding
    )
    dtype = np.result_type(weight_exec, x)
    if out is None or out.dtype != dtype:
        out = np.empty((x.shape[0], weight_exec.shape[0], out_h * out_w), dtype=dtype)
    block = column_block(x.shape[1:], kernel_size, (out_h, out_w))
    for start in range(0, x.shape[0], block):
        # Passed straight in, a block's columns are freed before the next
        # block's are built.
        np.matmul(
            weight_exec,
            kernels.im2col_slices(x[start : start + block], kernel_size, stride, padding)[0],
            out=out[start : start + block],
        )
    return out


def _run_conv_native(
    x: np.ndarray,
    weight_exec: np.ndarray,
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out: Optional[np.ndarray],
) -> np.ndarray:
    """The generated C gather+GEMM; falls back to the bitwise-identical
    reference path whenever the artifact or the operands are ineligible."""
    from repro.runtime import codegen

    if (
        out is not None
        and x.ndim == 4
        and x.dtype == np.float64 and x.flags.c_contiguous
        and weight_exec.dtype == np.float64 and weight_exec.flags.c_contiguous
        and out.dtype == np.float64 and out.flags.c_contiguous
    ):
        geom = codegen.ConvGeom(
            c_in=int(x.shape[1]), h=int(x.shape[2]), w=int(x.shape[3]),
            kh=kernel_size[0], kw=kernel_size[1],
            sh=stride[0], sw=stride[1], ph=padding[0], pw=padding[1],
            c_out=int(weight_exec.shape[0]),
        )
        kernel = codegen.native_conv_kernel(geom)
        if kernel is not None and kernel.run(x, weight_exec, out):
            return out
    cols, _, _, _ = kernels.im2col(x, kernel_size, stride, padding)
    return kernels.matmul_cols(weight_exec, cols, out=out)


def _is_pointwise(desc: KernelDesc) -> bool:
    return (
        desc.kernel_size == (1, 1)
        and desc.stride == (1, 1)
        and desc.padding == (0, 0)
    )


register_variant(KernelVariant(
    op="conv2d",
    name="im2col",
    applies=lambda desc: True,
    rank=0,
    description="reference im2col gather + dense GEMM",
))
register_variant(KernelVariant(
    op="conv2d",
    name="im2col_slices",
    # For a 1x1 / stride-1 / pad-0 conv the "slices" are one full copy
    # that gemm_1x1 skips outright, so the variant stands aside there.
    applies=lambda desc: not _is_pointwise(desc),
    rank=25,
    description="slice-copied contiguous columns (no fancy-index gather)",
))

#: OpenBLAS's SkylakeX dgemm kernel computes the product in tiles of 16
#: rows of its column-major view -- 16 output pixels here.  A pixel count
#: off that grid sends the last rows of a sample through the edge kernels,
#: which sum in another order, and in the batched GEMM those rows fall
#: elsewhere on the grid than in the per-sample one.
BATCHED_PIXEL_TILE = 16

#: SkylakeX dgemm takes its small-matrix kernel, which sums in another
#: order, at or below this many multiply-adds (``C_out * K * oh*ow``).  The
#: batched GEMM is ``N`` times larger, so each sample's GEMM must already
#: be above it for both to run the blocked kernel.
BATCHED_MIN_MACS = 10**6

#: From this many output pixels a sample's GEMM is already wide, so one
#: GEMM over the batch gains nothing over per-sample GEMMs and gives up
#: ``im2col_slices``' cache-sized blocks of columns.  Per census site at
#: batch 16, blocked columns beat the fold by 28-44% at every 1024-pixel
#: site on one BLAS thread (48x32x32 -> 48: 30 against 48 ms) and by
#: 12-45% on two.  Below that the winner changes with the site and the
#: thread count, so those sites keep the fold.
BATCHED_MAX_PIXELS = 1024


def _batched_conv_applies(desc: KernelDesc) -> bool:
    """Where one GEMM over the batch equals the per-sample GEMMs bit for bit,
    and beats them.

    Both must run the same OpenBLAS kernel on the same tile grid: the
    per-sample GEMM above the small-matrix cut-off and the pixel count a
    whole number of tiles (which also keeps numpy off its matrix-vector
    path at one pixel).  Below :data:`BATCHED_MAX_PIXELS` pixels, where the
    fold is faster.  1x1 / stride-1 / pad-0 convs stay with ``gemm_1x1``,
    which skips the columns.
    """
    if _is_pointwise(desc):
        return False
    out_h, out_w = kernels.conv_output_hw(
        desc.x_shape[1], desc.x_shape[2], desc.kernel_size, desc.stride, desc.padding
    )
    pixels = out_h * out_w
    depth = desc.x_shape[0] * desc.kernel_size[0] * desc.kernel_size[1]
    return (
        pixels % BATCHED_PIXEL_TILE == 0
        and pixels < BATCHED_MAX_PIXELS
        and desc.out_channels * depth * pixels > BATCHED_MIN_MACS
    )


register_variant(KernelVariant(
    op="conv2d",
    name="im2col_batched",
    applies=_batched_conv_applies,
    rank=28,
    description="batch folded into the columns: one GEMM per batch",
))
register_variant(KernelVariant(
    op="conv2d",
    name="gemm_1x1",
    applies=_is_pointwise,
    rank=30,
    description="1x1 convolution as a plain channel GEMM (no gather)",
))


# --------------------------------------------------------------------------- #
# Linear variants
# --------------------------------------------------------------------------- #
def run_linear(
    variant: str,
    x: np.ndarray,
    weight_exec: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Run one dense-matmul variant against a baked ``(in, out)`` weight."""
    if variant != "matmul":
        raise ValueError(f"unknown linear variant {variant!r}")
    if (
        x.ndim == 2
        and np.result_type(x, weight_exec) == np.float64
        and out is not None
    ):
        return np.matmul(x, weight_exec, out=out)
    return x @ weight_exec


register_variant(KernelVariant(
    op="linear",
    name="matmul",
    applies=lambda desc: True,
    rank=0,
    description="reference dense matmul",
))


# --------------------------------------------------------------------------- #
# Pooling variants
# --------------------------------------------------------------------------- #
def run_pool(
    op: str,
    variant: str,
    x: np.ndarray,
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
) -> np.ndarray:
    """Run one pooling variant (``op`` is ``max_pool2d`` or ``avg_pool2d``)."""
    table = _POOL_IMPLS.get((op, variant))
    if table is None:
        raise ValueError(f"unknown pooling variant {op}.{variant!r}")
    return table(x, kernel_size, stride)


_POOL_IMPLS = {
    ("max_pool2d", "auto"): kernels.max_pool2d,
    ("max_pool2d", "gather"): kernels.max_pool2d_gather,
    ("avg_pool2d", "auto"): kernels.avg_pool2d,
}

register_variant(KernelVariant(
    op="max_pool2d",
    name="auto",
    applies=lambda desc: True,
    rank=0,
    description="reference kernel with its own tiled/gather dispatch",
))
register_variant(KernelVariant(
    op="max_pool2d",
    # Max is exact under any evaluation order, so the gather path is
    # admissible everywhere -- a real two-way tuning choice on
    # non-overlapping geometries, where the reference takes the tiled
    # reduction.  Ranked below the reference: elsewhere the reference
    # gathers itself, so the heuristic keeps it at every pool.
    name="gather",
    applies=lambda desc: True,
    rank=-1,
    description="im2col gather max (general geometry)",
))
register_variant(KernelVariant(
    op="avg_pool2d",
    name="auto",
    applies=lambda desc: True,
    rank=0,
    description="reference kernel with its own tiled/gather dispatch",
))


# --------------------------------------------------------------------------- #
# Native codegen admission
# --------------------------------------------------------------------------- #
def _conv_geom(desc: KernelDesc):
    from repro.runtime import codegen

    if len(desc.x_shape) != 3:
        return None
    return codegen.ConvGeom(
        c_in=int(desc.x_shape[0]), h=int(desc.x_shape[1]),
        w=int(desc.x_shape[2]),
        kh=desc.kernel_size[0], kw=desc.kernel_size[1],
        sh=desc.stride[0], sw=desc.stride[1],
        ph=desc.padding[0], pw=desc.padding[1],
        c_out=desc.out_channels,
    )


def _native_conv_applies(desc: KernelDesc) -> bool:
    # Build + bitwise-verify happens here, in the admission predicate, so
    # the autotuner's measurement budget is never charged for compilation.
    from repro.runtime import codegen

    if not codegen.enabled():
        return False
    geom = _conv_geom(desc)
    if geom is None:
        return False
    return codegen.native_conv_kernel(geom) is not None


register_variant(KernelVariant(
    op="conv2d",
    name="native",
    applies=_native_conv_applies,
    rank=-10,
    description="generated C im2col+GEMM via numpy's own BLAS "
                "(bitwise-verified)",
))
