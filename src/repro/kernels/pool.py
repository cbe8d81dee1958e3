"""Pooling kernels over NCHW inputs, lowered through im2col."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.kernels.conv import IntPair, as_pair, im2col


def _pool_cols(
    x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int]
) -> Tuple[np.ndarray, Tuple[int, ...], int, int]:
    """Reshape channels into the batch dim and gather pooling windows."""
    batch, channels, height, width = x.shape
    reshaped = x.reshape(batch * channels, 1, height, width)
    cols, _, out_h, out_w = im2col(reshaped, kernel, stride, (0, 0))
    return cols, reshaped.shape, out_h, out_w


def max_pool2d_cols(
    x: np.ndarray, kernel_size: IntPair, stride: Optional[IntPair] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Tuple[int, ...]]:
    """Max pooling returning the intermediates autograd needs.

    Returns ``(out, cols, argmax, reshaped_shape)`` where ``out`` has shape
    ``(N, C, out_h, out_w)``.
    """
    kernel = as_pair(kernel_size)
    stride_pair = as_pair(stride) if stride is not None else kernel
    batch, channels = x.shape[:2]
    cols, reshaped_shape, out_h, out_w = _pool_cols(x, kernel, stride_pair)
    argmax = cols.argmax(axis=1)
    out = cols.max(axis=1).reshape(batch, channels, out_h, out_w)
    return out, cols, argmax, reshaped_shape


def _tiled_reduce(
    x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int], ufunc
) -> Optional[np.ndarray]:
    """Reduce non-overlapping windows by accumulating over kernel offsets.

    Only applies when stride == kernel and the kernel divides the input
    evenly (the common case).  Accumulating ``kh*kw`` strided slices with a
    binary ufunc is much faster than a multi-axis reduction over the
    window view, whose inner strides defeat numpy's reduction loops.
    """
    kernel_h, kernel_w = kernel
    if stride != kernel:
        return None
    batch, channels, height, width = x.shape
    if height % kernel_h or width % kernel_w:
        return None
    view = x.reshape(
        batch, channels, height // kernel_h, kernel_h, width // kernel_w, kernel_w
    )
    out = np.ascontiguousarray(view[:, :, :, 0, :, 0])
    for i in range(kernel_h):
        for j in range(kernel_w):
            if i == 0 and j == 0:
                continue
            ufunc(out, view[:, :, :, i, :, j], out=out)
    return out


def pool_tiled_applicable(
    input_hw: Tuple[int, int], kernel_size: IntPair, stride: Optional[IntPair] = None
) -> bool:
    """Whether the non-overlapping tiled fast path applies to this geometry."""
    kernel = as_pair(kernel_size)
    stride_pair = as_pair(stride) if stride is not None else kernel
    height, width = input_hw
    return (
        stride_pair == kernel
        and height % kernel[0] == 0
        and width % kernel[1] == 0
    )


def max_pool2d_gather(
    x: np.ndarray, kernel_size: IntPair, stride: Optional[IntPair] = None
) -> np.ndarray:
    """General max pooling through the im2col gather (any geometry).

    Max is exact under any evaluation order, so this produces bitwise the
    same result as :func:`max_pool2d`'s tiled reduction wherever that
    applies.
    """
    kernel = as_pair(kernel_size)
    stride_pair = as_pair(stride) if stride is not None else kernel
    batch, channels = x.shape[:2]
    cols, _, out_h, out_w = _pool_cols(x, kernel, stride_pair)
    return cols.max(axis=1).reshape(batch, channels, out_h, out_w)


def max_pool2d(x: np.ndarray, kernel_size: IntPair, stride: Optional[IntPair] = None) -> np.ndarray:
    """Max pooling over an NCHW input (forward only, no argmax bookkeeping)."""
    kernel = as_pair(kernel_size)
    stride_pair = as_pair(stride) if stride is not None else kernel
    out = _tiled_reduce(x, kernel, stride_pair, np.maximum)
    if out is not None:
        return out
    return max_pool2d_gather(x, kernel, stride_pair)


def avg_pool2d_cols(
    x: np.ndarray, kernel_size: IntPair, stride: Optional[IntPair] = None
) -> Tuple[np.ndarray, np.ndarray, Tuple[int, ...]]:
    """Average pooling returning the intermediates autograd needs.

    Returns ``(out, cols, reshaped_shape)``.
    """
    kernel = as_pair(kernel_size)
    stride_pair = as_pair(stride) if stride is not None else kernel
    batch, channels = x.shape[:2]
    cols, reshaped_shape, out_h, out_w = _pool_cols(x, kernel, stride_pair)
    out = cols.mean(axis=1).reshape(batch, channels, out_h, out_w)
    return out, cols, reshaped_shape


def avg_pool2d_tiled(
    x: np.ndarray, kernel_size: IntPair, stride: Optional[IntPair] = None
) -> np.ndarray:
    """Non-overlapping average pooling via the tiled reduction.

    Only valid when :func:`pool_tiled_applicable` holds.  The window sum
    adds the offsets in the gather path's row-major order, and dividing it
    by the window's element count is what ``mean`` does, so the result is
    bitwise :func:`avg_pool2d_gather`'s (and ``F.avg_pool2d``'s).
    Multiplying by the reciprocal instead would round differently whenever
    the count is not a power of two.
    """
    kernel = as_pair(kernel_size)
    stride_pair = as_pair(stride) if stride is not None else kernel
    out = _tiled_reduce(x, kernel, stride_pair, np.add)
    if out is None:
        raise ValueError(
            f"tiled average pooling needs stride == kernel {kernel} evenly "
            f"dividing the input {x.shape[2:]}; got stride {stride_pair}"
        )
    # Not in-place: integer inputs must still produce a float mean.
    return out / (kernel[0] * kernel[1])


def avg_pool2d_gather(
    x: np.ndarray, kernel_size: IntPair, stride: Optional[IntPair] = None
) -> np.ndarray:
    """General average pooling through the im2col gather (any geometry)."""
    kernel = as_pair(kernel_size)
    stride_pair = as_pair(stride) if stride is not None else kernel
    return avg_pool2d_cols(x, kernel, stride_pair)[0]


def avg_pool2d(x: np.ndarray, kernel_size: IntPair, stride: Optional[IntPair] = None) -> np.ndarray:
    """Average pooling over an NCHW input (forward only)."""
    kernel = as_pair(kernel_size)
    stride_pair = as_pair(stride) if stride is not None else kernel
    if pool_tiled_applicable(x.shape[2:], kernel, stride_pair):
        return avg_pool2d_tiled(x, kernel, stride_pair)
    return avg_pool2d_gather(x, kernel, stride_pair)
