"""Convolution kernels: im2col lowering and the dense matmul it enables.

Three column builders produce the same values.  :func:`im2col` gathers
them with one fancy-index read; it is the runtime's reference lowering.
:func:`im2col_slices` copies them with strided slices into a C-contiguous
``(batch, C*kh*kw, out_h*out_w)`` buffer; training uses it over the whole
batch, and the ``im2col_slices`` runtime variant over one cache-sized
block of samples at a time.  :func:`im2col_batched` copies them the same
way into one ``(C*kh*kw, batch*out_h*out_w)`` matrix, so the whole batch
multiplies in one GEMM (the ``im2col_batched`` runtime variant, for maps
of fewer than 1024 output pixels).  :func:`col2im`, the adjoint, scatters
gradients back by strided-slice adds.

The gather indices used by the im2col lowering depend only on the spatial
geometry (channels, height, width, kernel, stride, padding) -- not on the
batch size or the data -- so they are memoised with ``functools.lru_cache``.
Repeated forward passes over same-shaped inputs (every training epoch, every
served batch) therefore stop recomputing them.
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple, Union

import numpy as np

IntPair = Union[int, Tuple[int, int]]

#: Explicit bound on the geometry combinations kept alive by the index
#: cache.  128 distinct (channels, size, kernel, stride, padding) tuples
#: covers every layer of every model in the registry simultaneously with
#: room to spare, while keeping a long-running multi-model server's index
#: memory bounded.  The key deliberately excludes the batch size: batches
#: of any size share one entry per layer geometry (asserted in the
#: test-suite via :func:`im2col_cache_info`).
IM2COL_INDEX_CACHE_SIZE = 128


def as_pair(value: IntPair) -> Tuple[int, int]:
    """Normalise an int-or-pair argument to an ``(h, w)`` tuple."""
    if isinstance(value, tuple):
        return value
    return (value, value)


@functools.lru_cache(maxsize=IM2COL_INDEX_CACHE_SIZE)
def im2col_indices(
    channels: int,
    height: int,
    width: int,
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Gather indices lowering a convolution to a matmul (memoised).

    Returns ``(k, i, j, out_h, out_w)`` where indexing a padded NCHW array
    with ``[:, k, i, j]`` yields columns of shape ``(batch, C*kh*kw,
    out_h*out_w)``.  The arrays are shared between callers and marked
    read-only; treat them as immutable.
    """
    kernel_h, kernel_w = kernel_size
    stride_h, stride_w = stride
    out_h, out_w = checked_output_hw(
        channels, height, width, kernel_size, stride, padding
    )

    i0 = np.repeat(np.arange(kernel_h), kernel_w)
    i0 = np.tile(i0, channels)
    i1 = stride_h * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kernel_w), kernel_h * channels)
    j1 = stride_w * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kernel_h * kernel_w).reshape(-1, 1)
    for array in (k, i, j):
        array.setflags(write=False)
    return k, i, j, out_h, out_w


def im2col_cache_info():
    """Hit/miss statistics of the bounded im2col index cache.

    The cache key is pure layer geometry -- no batch size -- so serving
    the same model at varying batch sizes reuses one entry per layer.
    """
    return im2col_indices.cache_info()


def im2col_cache_clear() -> None:
    """Drop every memoised gather-index set (tests and benchmarks)."""
    im2col_indices.cache_clear()


def conv_output_hw(
    height: int,
    width: int,
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[int, int]:
    """Spatial output size of a convolution, without building any indices."""
    out_h = (height + 2 * padding[0] - kernel_size[0]) // stride[0] + 1
    out_w = (width + 2 * padding[1] - kernel_size[1]) // stride[1] + 1
    return out_h, out_w


def checked_output_hw(
    channels: int,
    height: int,
    width: int,
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[int, int]:
    """:func:`conv_output_hw`, raising ``ValueError`` when the output would be
    empty."""
    out_h, out_w = conv_output_hw(height, width, kernel_size, stride, padding)
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"convolution output size would be non-positive for input "
            f"(C={channels}, H={height}, W={width}), kernel {kernel_size}, "
            f"stride {stride}, padding {padding}"
        )
    return out_h, out_w


def pack_weight_matrix(weight_matrix: np.ndarray) -> np.ndarray:
    """Pre-pack a filter matrix into the layout the GEMM actually consumes.

    Integer code matrices (quantised plans) are cast to ``float64`` once,
    here, instead of on every ``matmul`` call; any matrix is made
    C-contiguous.  Integer codes convert to ``float64`` exactly, so a GEMM
    over the packed matrix is bitwise-identical to one over the raw codes.
    Returns the input unchanged when it is already packed (no copy).
    """
    if weight_matrix.dtype == np.float64 and weight_matrix.flags["C_CONTIGUOUS"]:
        return weight_matrix
    return np.ascontiguousarray(weight_matrix, dtype=np.float64)


def pad_nchw(array: np.ndarray, pad_h: int, pad_w: int) -> np.ndarray:
    """Zero-pad the spatial dims of an NCHW array.

    Equivalent to ``np.pad`` with constant zeros but without its generic
    per-axis bookkeeping, which dominates small-image forward passes.
    """
    if pad_h == 0 and pad_w == 0:
        return array
    batch, channels, height, width = array.shape
    padded = np.zeros(
        (batch, channels, height + 2 * pad_h, width + 2 * pad_w), dtype=array.dtype
    )
    padded[:, :, pad_h : pad_h + height, pad_w : pad_w + width] = array
    return padded


def im2col(
    array: np.ndarray,
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray, np.ndarray], int, int]:
    """Lower an NCHW array to columns of shape ``(batch, C*kh*kw, out_h*out_w)``."""
    pad_h, pad_w = padding
    padded = pad_nchw(array, pad_h, pad_w)
    _, channels, height, width = array.shape
    k, i, j, out_h, out_w = im2col_indices(
        channels, height, width, kernel_size, stride, padding
    )
    cols = padded[:, k, i, j]
    return cols, (k, i, j), out_h, out_w


def _copy_windows(
    view: np.ndarray,
    padded: np.ndarray,
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    out_h: int,
    out_w: int,
) -> None:
    """``view[a, b, di, dj] = padded[a, b]``'s ``(di, dj)`` window grid, by
    ``kh*kw`` strided slice copies (``view`` is ``(A, B, kh, kw, out_h,
    out_w)``, ``padded`` is ``(A, B, H, W)``)."""
    kernel_h, kernel_w = kernel_size
    stride_h, stride_w = stride
    for di in range(kernel_h):
        for dj in range(kernel_w):
            view[:, :, di, dj] = padded[
                :, :,
                di : di + (out_h - 1) * stride_h + 1 : stride_h,
                dj : dj + (out_w - 1) * stride_w + 1 : stride_w,
            ]


def im2col_slices(
    array: np.ndarray,
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[np.ndarray, int, int]:
    """:func:`im2col` by slice copies: the same columns, C-contiguous.

    The fancy-index gather walks a ``C*kh*kw x out_h*out_w`` index table
    and leaves the batch axis innermost, a layout every GEMM or einsum over
    the columns must repack first.  Here the column matrix is assembled
    with ``kh*kw`` strided slice copies straight into a C-contiguous
    ``(batch, C*kh*kw, out_h*out_w)`` buffer.  Every element is an exact
    copy of the value the gather reads, so any product over the columns
    sees operands of identical values, shape and dtype.  Returns
    ``(cols, out_h, out_w)``.
    """
    batch, channels, height, width = array.shape
    kernel_h, kernel_w = kernel_size
    out_h, out_w = checked_output_hw(
        channels, height, width, kernel_size, stride, padding
    )
    padded = pad_nchw(array, padding[0], padding[1])
    cols = np.empty(
        (batch, channels * kernel_h * kernel_w, out_h * out_w), dtype=padded.dtype
    )
    copy_columns(padded, cols, kernel_size, stride)
    return cols, out_h, out_w


def copy_columns(
    padded: np.ndarray,
    cols: np.ndarray,
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
) -> None:
    """Fill ``cols`` with the columns of the already padded ``padded``.

    ``padded`` is ``(batch, C, H, W)`` and ``cols`` the C-contiguous
    ``(batch, C*kh*kw, out_h*out_w)`` buffer :func:`im2col_slices` builds,
    written by ``kh*kw`` strided slice copies.  Each sample's columns depend
    on that sample alone, so filling a range of samples at a time writes
    the same bytes.
    """
    batch, channels, height, width = padded.shape
    out_h, out_w = conv_output_hw(height, width, kernel_size, stride, (0, 0))
    view = cols.reshape(batch, channels, kernel_size[0], kernel_size[1], out_h, out_w)
    _copy_windows(view, padded, kernel_size, stride, out_h, out_w)


def im2col_batched(
    array: np.ndarray,
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[np.ndarray, int, int]:
    """:func:`im2col_slices` with the batch folded into the columns.

    Returns ``(cols, out_h, out_w)`` where ``cols`` is one C-contiguous
    ``(C*kh*kw, batch*out_h*out_w)`` matrix: sample ``n``'s columns are
    ``cols[:, n*out_h*out_w : (n+1)*out_h*out_w]``, element for element
    the values :func:`im2col_slices` puts in its ``cols[n]``.  A filter
    matrix then multiplies the whole batch in one GEMM instead of one per
    sample.  At batch 1 the matrix is :func:`im2col_slices`'s ``cols[0]``.
    """
    batch, channels, height, width = array.shape
    kernel_h, kernel_w = kernel_size
    out_h, out_w = checked_output_hw(
        channels, height, width, kernel_size, stride, padding
    )
    padded = pad_nchw(array, padding[0], padding[1])
    cols = np.empty(
        (channels * kernel_h * kernel_w, batch * out_h * out_w), dtype=padded.dtype
    )
    view = cols.reshape(channels, kernel_h, kernel_w, batch, out_h, out_w)
    _copy_windows(
        view.transpose(0, 3, 1, 2, 4, 5), padded.transpose(1, 0, 2, 3),
        kernel_size, stride, out_h, out_w,
    )
    return cols, out_h, out_w


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Scatter-add columns back to an NCHW array (the adjoint of im2col).

    One strided-slice ``+=`` per kernel offset, in row-major ``(ki, kj)``
    order, into a zeroed padded buffer.  A pixel gets at most one
    contribution per offset, so it receives them in the order ``np.add.at``
    over the gather indices adds them, starting from 0.0: the result is
    bitwise the same, without the scatter.
    """
    batch, channels, height, width = input_shape
    pad_h, pad_w = padding
    padded = np.empty((batch, channels, height + 2 * pad_h, width + 2 * pad_w), dtype=cols.dtype)
    add_columns(cols, padded, kernel_size, stride)
    if pad_h == 0 and pad_w == 0:
        return padded
    return padded[:, :, pad_h : pad_h + height, pad_w : pad_w + width]


def add_columns(
    cols: np.ndarray,
    padded: np.ndarray,
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
) -> None:
    """Zero ``padded`` and add ``cols`` back into it: :func:`col2im`'s scatter.

    ``padded`` is the ``(batch, C, H, W)`` padded input, ``cols`` holds
    ``batch`` samples' ``(C*kh*kw, out_h*out_w)`` columns.  Each sample's
    pixels sum that sample's columns alone, so scattering a range of
    samples at a time computes the same bits.
    """
    batch, channels, height, width = padded.shape
    kernel_h, kernel_w = kernel_size
    stride_h, stride_w = stride
    out_h, out_w = conv_output_hw(height, width, kernel_size, stride, (0, 0))
    view = cols.reshape(batch, channels, kernel_h, kernel_w, out_h, out_w)
    padded.fill(0.0)
    for di in range(kernel_h):
        for dj in range(kernel_w):
            padded[
                :, :,
                di : di + (out_h - 1) * stride_h + 1 : stride_h,
                dj : dj + (out_w - 1) * stride_w + 1 : stride_w,
            ] += view[:, :, di, dj]


def matmul_cols(
    weight_matrix: np.ndarray,
    cols: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Multiply a ``(C_out, C*kh*kw)`` filter matrix against im2col columns.

    Returns ``(batch, C_out, out_h*out_w)`` via a broadcasted ``matmul``
    (measurably faster than the equivalent einsum).  ``out`` is used only
    when its dtype can hold the product exactly (integer filter matrices --
    quantised plans -- let numpy pick the accumulation dtype).
    """
    if out is not None and out.dtype == np.result_type(weight_matrix, cols):
        return np.matmul(weight_matrix, cols, out=out)
    return np.matmul(weight_matrix, cols)
