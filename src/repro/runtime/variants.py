"""Conv variants: the four byte-exact lowerings of a convolution.

The executor lowers every conv step to one of these, by name, through
:func:`run_conv`:

* ``im2col`` -- the reference gather + GEMM lowering;
* ``im2col_slices`` -- build the column matrix with ``kh*kw`` strided
  slice copies into a C-contiguous buffer instead of one fancy-index
  gather (which produces a batch-innermost layout the GEMM then has to
  repack); the column *values* are exact copies, so the GEMM is handed
  identical operands and the result is unchanged -- but both the gather
  and the GEMM run substantially faster.  The columns are built and
  multiplied one cache-sized block of samples at a time
  (:data:`COLUMN_BLOCK_BYTES`), so a conv never holds the batch's column
  matrix.  Training's ``F.conv2d`` uses the same builder,
  :func:`repro.kernels.im2col_slices`, over the whole batch;
* ``im2col_batched`` -- the same slice copies into one
  ``(C*kh*kw, N*oh*ow)`` matrix (:func:`repro.kernels.im2col_batched`),
  so one GEMM computes the whole batch instead of one per sample, and each
  conv packs its filter matrix once per batch, not once per sample; the
  ``(C_out, N, oh*ow)`` product is copied into the step's NCHW scratch.
  Admitted only where that GEMM sums every output in the per-sample order
  (see :data:`BATCHED_PIXEL_TILE` and :data:`BATCHED_MIN_MACS`), and only
  below :data:`BATCHED_MAX_PIXELS` output pixels, where it beats the
  blocked per-sample GEMMs;
* ``gemm_1x1`` -- a 1x1 / stride-1 / pad-0 convolution is a plain GEMM
  over the channel dimension: skip the im2col gather copy entirely.

Every other op lowers one way: linear steps multiply by their packed
weight, and pooling steps call :func:`repro.kernels.max_pool2d` /
:func:`repro.kernels.avg_pool2d`, which pick their tiled or gather path
themselves.  Every conv variant runs over the weight the lowering packed
once (:func:`repro.kernels.pack_weight_matrix`: integer codes cast to
contiguous ``float64``, which is exact).

**Byte-exactness is the admission rule**: :func:`admitted_variants` lists
a variant at a geometry only where its output is bitwise-identical to the
reference.  The test-suite runs every admitted variant against the
reference kernel over edge-case geometries, bit for bit;
``im2col_batched``'s predicate, which rests on how OpenBLAS tiles a GEMM,
is also checked on every census call site it admits at batches 1-16, and
``im2col_slices``' blocks on every census call site where they split the
batch (``tests/runtime/test_batched_conv.py``).

**A variant stays only if it wins somewhere.**  ``docs/variant_census.json``
(written by ``tools/variant_census.py``) races every admitted variant at
every conv call site of every registry model; the test-suite requires every
non-reference variant to win somewhere in it.

Selection is static: the ``select_kernels`` pass records
:func:`served_variant` of each conv node's geometry on the node
(``attrs["kernel_variant"]``), and the executor's lowering dispatches on
it.  A plan compiled with ``optimize=False`` lowers every conv to the
reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro import kernels

__all__ = [
    "CONV_VARIANTS",
    "KernelDesc",
    "admitted_variants",
    "run_conv",
    "served_variant",
]

#: Every conv variant :func:`run_conv` runs, the reference first.
CONV_VARIANTS = ("im2col", "im2col_slices", "im2col_batched", "gemm_1x1")


@dataclass(frozen=True)
class KernelDesc:
    """Static geometry of one conv call site: what the selector sees."""

    x_shape: Tuple[int, ...]  # per-sample input shape, (C, H, W)
    kernel_size: Tuple[int, int]
    stride: Tuple[int, int]
    padding: Tuple[int, int]
    out_channels: int


# --------------------------------------------------------------------------- #
# Quantised-weight helpers (used by the lowering)
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


def _is_pointwise(desc: KernelDesc) -> bool:
    return (
        desc.kernel_size == (1, 1)
        and desc.stride == (1, 1)
        and desc.padding == (0, 0)
    )


def _several_output_channels(desc: KernelDesc) -> bool:
    """Whether the conv's filter matrix has more than one row.

    With one row numpy multiplies a vector by each sample's columns, and
    that product sums in an order set by how the columns lie in memory:
    the reference's gathered columns lie otherwise than every variant's,
    so at one output channel only the reference is byte-exact.
    """
    return desc.out_channels > 1


#: OpenBLAS's SkylakeX float64 GEMM kernel computes the product in tiles of
#: 16 rows of its column-major view -- 16 output pixels here.  A pixel count
#: off that grid sends the last rows of a sample through the edge kernels,
#: which sum in another order, and in the batched GEMM those rows fall
#: elsewhere on the grid than in the per-sample one.
BATCHED_PIXEL_TILE = 16

#: The SkylakeX float64 GEMM takes its small-matrix kernel, which sums in
#: another order, at or below this many multiply-adds (``C_out * K *
#: oh*ow``).  The batched GEMM is ``N`` times larger, so each sample's GEMM
#: must already be above it for both to run the blocked kernel.
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
    which skips the columns, and one-output-channel convs with the
    reference.
    """
    if _is_pointwise(desc) or not _several_output_channels(desc):
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


def admitted_variants(desc: KernelDesc) -> Tuple[str, ...]:
    """The variants byte-exact at ``desc``, the reference first and the
    served one (:func:`served_variant`) last; the census races them all.

    At one output channel only the reference is; a pointwise conv admits
    ``gemm_1x1`` (for a 1x1 / stride-1 / pad-0 conv ``im2col_slices``'
    "slices" are one full copy that ``gemm_1x1`` skips outright); any
    other conv admits ``im2col_slices``, and ``im2col_batched`` where
    :func:`_batched_conv_applies`.
    """
    if not _several_output_channels(desc):
        return ("im2col",)
    if _is_pointwise(desc):
        return ("im2col", "gemm_1x1")
    if _batched_conv_applies(desc):
        return ("im2col", "im2col_slices", "im2col_batched")
    return ("im2col", "im2col_slices")


def served_variant(desc: KernelDesc) -> str:
    """The variant a compiled plan runs at ``desc``: the reference at one
    output channel, ``gemm_1x1`` for a pointwise conv, ``im2col_batched``
    where the fold is admitted, and ``im2col_slices`` otherwise."""
    return admitted_variants(desc)[-1]
