"""Functional neural-network operations built on the autograd :class:`Tensor`.

The raw forward arithmetic lives in the grad-free :mod:`repro.kernels`
subpackage (im2col lowering, dense matmuls, pooling); the functions here are
thin differentiable wrappers that call those kernels and attach the backward
closures.  Convolution builds its columns by slice copies, and every
gradient that flows back through columns (convolution and pooling) is
scattered by slice adds; both compute the same bits as the fancy-index
gather and the ``np.add.at`` scatter.  Training-mode batch norm is one node
that computes the same bits as the chain of Tensor ops it replaced.
Functions take and return :class:`~repro.tensor.tensor.Tensor` objects;
batch norm also returns its batch statistics as arrays.

Layout convention: image tensors are NCHW (batch, channels, height, width),
matching the paper's PyTorch reference implementation.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro import kernels
from repro.kernels.conv import as_pair as _as_pair, col2im as _col2im
from repro.tensor.tensor import Tensor, _unbroadcast

IntPair = Union[int, Tuple[int, int]]


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """2-D convolution (cross-correlation) over an NCHW input.

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Filters of shape ``(C_out, C_in, kH, kW)``.
    bias:
        Optional per-output-channel bias of shape ``(C_out,)``.
    stride, padding:
        Integer or ``(h, w)`` pairs.
    """
    stride_pair = _as_pair(stride)
    padding_pair = _as_pair(padding)
    out_channels, in_channels, kernel_h, kernel_w = weight.data.shape
    if x.data.shape[1] != in_channels:
        raise ValueError(
            f"input has {x.data.shape[1]} channels but weight expects {in_channels}"
        )

    kernel = (kernel_h, kernel_w)
    cols, out_h, out_w = kernels.im2col_slices(x.data, kernel, stride_pair, padding_pair)
    weight_matrix = weight.data.reshape(out_channels, -1)
    # (batch, C_out, out_h*out_w)
    out = kernels.matmul_cols(weight_matrix, cols)
    if bias is not None:
        out = out + bias.data.reshape(1, -1, 1)
    out = out.reshape(x.data.shape[0], out_channels, out_h, out_w)

    input_shape = x.data.shape

    def backward(grad: np.ndarray) -> None:
        grad_flat = grad.reshape(grad.shape[0], out_channels, -1)
        if weight.requires_grad:
            grad_weight = np.einsum("bop,bfp->of", grad_flat, cols, optimize=True)
            weight._accumulate_grad(grad_weight.reshape(weight.data.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate_grad(grad_flat.sum(axis=(0, 2)))
        if x.requires_grad:
            grad_cols = np.einsum("of,bop->bfp", weight_matrix, grad_flat, optimize=True)
            x._accumulate_grad(
                _col2im(grad_cols, input_shape, kernel, stride_pair, padding_pair)
            )

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(
        out, parents, backward, "conv2d", ctx={"stride": stride_pair, "padding": padding_pair}
    )


def max_pool2d(x: Tensor, kernel_size: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    """Max pooling over NCHW input."""
    kernel = _as_pair(kernel_size)
    stride_pair = _as_pair(stride) if stride is not None else kernel
    batch, channels, height, width = x.data.shape
    out, cols, argmax, reshaped_shape = kernels.max_pool2d_cols(x.data, kernel, stride_pair)
    # The closure keeps the columns' layout, not the input-sized columns.
    cols_shape, cols_dtype = cols.shape, cols.dtype

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_flat = grad.reshape(batch * channels, -1)
        # C-contiguous (the gathered cols are not), so col2im reshapes it for free.
        grad_cols = np.zeros(cols_shape, dtype=cols_dtype)
        rows = np.arange(cols_shape[0])[:, None]
        positions = np.arange(cols_shape[2])[None, :]
        grad_cols[rows, argmax, positions] = grad_flat
        grad_input = _col2im(grad_cols, reshaped_shape, kernel, stride_pair, (0, 0))
        x._accumulate_grad(grad_input.reshape(batch, channels, height, width))

    return Tensor._make(
        out, (x,), backward, "max_pool2d", ctx={"kernel_size": kernel, "stride": stride_pair}
    )


def avg_pool2d(x: Tensor, kernel_size: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    """Average pooling over NCHW input."""
    kernel = _as_pair(kernel_size)
    stride_pair = _as_pair(stride) if stride is not None else kernel
    batch, channels, height, width = x.data.shape
    out, cols, reshaped_shape = kernels.avg_pool2d_cols(x.data, kernel, stride_pair)
    cols_shape = cols.shape
    window = kernel[0] * kernel[1]

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_flat = grad.reshape(batch * channels, 1, -1)
        grad_cols = np.broadcast_to(grad_flat / window, cols_shape).copy()
        grad_input = _col2im(grad_cols, reshaped_shape, kernel, stride_pair, (0, 0))
        x._accumulate_grad(grad_input.reshape(batch, channels, height, width))

    return Tensor._make(
        out, (x,), backward, "avg_pool2d", ctx={"kernel_size": kernel, "stride": stride_pair}
    )


def batch_norm(
    x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5
) -> Tuple[Tensor, np.ndarray, np.ndarray]:
    """Training-mode batch normalisation over every axis except channels (1).

    Normalises ``x`` (NCHW or ``(N, C)``) by its own per-channel batch mean
    and biased variance, then scales by ``weight`` and shifts by ``bias``
    (both ``(C,)``).  Returns the output together with the batch mean and
    variance as ``(C,)`` arrays, from which the caller updates its running
    statistics.

    This is one autograd node for what ``x.mean``, ``x.var``, a subtract, a
    divide, a square root and the affine would record as 16 Tensor ops.  It
    applies the same ufuncs to the same operands in both directions, so its
    output and gradients carry exactly the bits that tape produces, and it
    hands ``x`` its four gradient terms in the tape's order.  Backward
    recomputes ``x - mean`` from ``x``'s data, which the graph holds anyway,
    so the node keeps only per-channel arrays alive; the tape kept five
    input-sized intermediates and a gradient on each of its nodes.
    """
    data = x.data
    channels = data.shape[1]
    axes = (0,) + tuple(range(2, data.ndim))
    stat_shape = (1, channels) + (1,) * (data.ndim - 2)
    inv_count = 1.0 / int(np.prod([data.shape[axis] for axis in axes]))

    mean = data.sum(axis=axes, keepdims=True) * inv_count
    centered = data - mean
    var = (centered * centered).sum(axis=axes, keepdims=True) * inv_count
    sd = np.sqrt(var + eps)
    normalised = centered / sd
    scale = weight.data.reshape(stat_shape)
    out = normalised * scale + bias.data.reshape(stat_shape)

    def backward(grad: np.ndarray) -> None:
        # Recomputed rather than kept alive since forward: the same bytes.
        centered = data - mean
        if bias.requires_grad:
            bias._accumulate_grad(_unbroadcast(grad, stat_shape).reshape(channels))
        if weight.requires_grad:
            normalised = centered / sd
            weight._accumulate_grad(_unbroadcast(grad * normalised, stat_shape).reshape(channels))
        if not x.requires_grad:
            return

        def through_centering(grad_centered: np.ndarray) -> None:
            # One of the tape's two ``x - mean``: x's own term, then the
            # mean's sum broadcast back.
            x._accumulate_grad(grad_centered)
            grad_mean = _unbroadcast(-grad_centered, stat_shape) * inv_count
            x._accumulate_grad(np.broadcast_to(grad_mean, data.shape))

        # The divide's numerator, then its denominator back through the
        # square root and the variance to the variance's own centering.
        grad_normalised = grad * scale
        through_centering(grad_normalised / sd)
        grad_sd = _unbroadcast(-grad_normalised * centered / (sd ** 2), stat_shape)
        grad_var = grad_sd * 0.5 / np.maximum(sd, 1e-12)
        grad_square = (grad_var * inv_count) * centered
        through_centering(grad_square + grad_square)

    out_tensor = Tensor._make(out, (x, weight, bias), backward, "batch_norm", ctx={"eps": eps})
    return out_tensor, mean.reshape(channels), var.reshape(channels)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Global average pooling: NCHW -> NC."""
    return x.mean(axis=(2, 3))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Encode integer labels as a one-hot float matrix (plain numpy)."""
    labels = np.asarray(labels, dtype=np.int64)
    encoded = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine transform ``x @ weight.T + bias``."""
    out = x.matmul(weight.T)
    if bias is not None:
        out = out + bias
    return out
