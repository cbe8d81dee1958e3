"""Functional neural-network operations built on the autograd :class:`Tensor`.

The raw forward arithmetic lives in the grad-free :mod:`repro.kernels`
subpackage (im2col lowering, dense matmuls, pooling); the functions here are
thin differentiable wrappers that call those kernels and attach the backward
closures.  Convolution builds its columns by slice copies, and every
gradient that flows back through columns (convolution and pooling) is
scattered by slice adds; both compute the same bits as the fancy-index
gather and the ``np.add.at`` scatter.  Max pooling over windows that tile
the input takes its maxima over strided views and records where each one
sits instead of gathering windows.  Training-mode batch norm is one node
that computes the same bits as the chain of Tensor ops it replaced.
Functions take and return :class:`~repro.tensor.tensor.Tensor` objects;
batch norm also returns its batch statistics as arrays.

Per-sample work -- columns and their forward GEMM, the column scatter,
tiled max pooling, batch norm's elementwise passes -- runs through
:func:`repro.tensor.split.rows`, which hands half of the batch to a helper
thread while a fit has the split on; the convolution backward's two GEMMs
run side by side through :func:`repro.tensor.split.both`.  Batch
reductions and both backward GEMMs always run whole, so every sum is the
one the whole-batch call makes.

Layout convention: image tensors are NCHW (batch, channels, height, width),
matching the paper's PyTorch reference implementation.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro import kernels
from repro.kernels.conv import as_pair as _as_pair
from repro.tensor import split
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
    input_shape = x.data.shape
    batch, _, height, width = input_shape
    out_h, out_w = kernels.checked_output_hw(
        in_channels, height, width, kernel, stride_pair, padding_pair
    )
    padded = kernels.pad_nchw(x.data, *padding_pair)
    weight_matrix = weight.data.reshape(out_channels, -1)
    cols = np.empty((batch, weight_matrix.shape[1], out_h * out_w), dtype=padded.dtype)
    # (batch, C_out, out_h*out_w): one GEMM per sample, as over the whole batch.
    out = np.empty(
        (batch, out_channels, out_h * out_w), dtype=np.result_type(weight_matrix, cols)
    )
    bias_column = None if bias is None else bias.data.reshape(1, -1, 1)

    def forward_rows(part) -> None:
        kernels.copy_columns(padded[part], cols[part], kernel, stride_pair)
        kernels.matmul_cols(weight_matrix, cols[part], out=out[part])
        if bias_column is not None:
            np.add(out[part], bias_column, out=out[part])

    split.rows(batch, forward_rows, cols.size)
    out = out.reshape(batch, out_channels, out_h, out_w)

    def backward(grad: np.ndarray) -> None:
        grad_flat = grad.reshape(grad.shape[0], out_channels, -1)
        # Both GEMMs run whole (the first contracts over the batch, and
        # einsum folds the batch into the second's), side by side when split.
        grad_weight, grad_cols = split.both(
            (lambda: np.einsum("bop,bfp->of", grad_flat, cols, optimize=True))
            if weight.requires_grad else None,
            (lambda: np.einsum("of,bop->bfp", weight_matrix, grad_flat, optimize=True))
            if x.requires_grad else None,
            cols.size,
        )
        if grad_weight is not None:
            weight._accumulate_grad(grad_weight.reshape(weight.data.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate_grad(grad_flat.sum(axis=(0, 2)))
        if grad_cols is not None:
            x._accumulate_grad(
                _col2im(grad_cols, input_shape, kernel, stride_pair, padding_pair)
            )

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(
        out, parents, backward, "conv2d", ctx={"stride": stride_pair, "padding": padding_pair}
    )


def _col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """:func:`repro.kernels.col2im`, scattering a range of samples per thread."""
    batch, channels, height, width = input_shape
    pad_h, pad_w = padding
    padded = np.empty((batch, channels, height + 2 * pad_h, width + 2 * pad_w), dtype=cols.dtype)
    split.rows(
        batch,
        lambda part: kernels.add_columns(cols[part], padded[part], kernel, stride),
        padded.size,
    )
    if pad_h == 0 and pad_w == 0:
        return padded
    return padded[:, :, pad_h : pad_h + height, pad_w : pad_w + width]


def max_pool2d(x: Tensor, kernel_size: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    """Max pooling over NCHW input.

    Where the windows tile the input (:func:`repro.kernels.pool_tiled_applicable`)
    the maxima come from strided views and backward adds each gradient at
    its window's recorded argmax; overlapping or ragged windows gather.
    Both give the gather's output and gradient bits.
    """
    kernel = _as_pair(kernel_size)
    stride_pair = _as_pair(stride) if stride is not None else kernel
    batch, channels, height, width = x.data.shape
    if kernels.pool_tiled_applicable((height, width), kernel, stride_pair):
        return _tiled_max_pool2d(x, kernel)
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


def _tiled_max_pool2d(x: Tensor, kernel: Tuple[int, int]) -> Tensor:
    """:func:`max_pool2d` over windows that tile the input, a range of
    samples per thread."""
    data = x.data
    batch, channels, height, width = data.shape
    out = np.empty((batch, channels, height // kernel[0], width // kernel[1]), dtype=data.dtype)
    offsets = np.empty(out.shape, dtype=np.min_scalar_type(kernel[0] * kernel[1] - 1))
    split.rows(
        batch,
        lambda part: kernels.max_pool2d_offsets(data[part], kernel, out[part], offsets[part]),
        data.size,
    )

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_input = np.empty(data.shape, dtype=data.dtype)
        split.rows(
            batch,
            lambda part: kernels.max_pool2d_offsets_backward(
                grad[part], offsets[part], kernel, grad_input[part]
            ),
            grad_input.size,
        )
        x._accumulate_grad(grad_input)

    return Tensor._make(
        out, (x,), backward, "max_pool2d", ctx={"kernel_size": kernel, "stride": kernel}
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
    adds ``x``'s four gradient terms in the tape's order.  Backward
    recomputes ``x - mean`` from ``x``'s data, which the graph holds anyway,
    so the node keeps only per-channel arrays alive; the tape kept five
    input-sized intermediates and a gradient on each of its nodes.  The
    elementwise passes write into buffers allocated up front, a range of
    samples per thread when the fit has the split on; the per-channel sums
    between them run over whole buffers.
    """
    data = x.data
    batch, channels = data.shape[:2]
    axes = (0,) + tuple(range(2, data.ndim))
    stat_shape = (1, channels) + (1,) * (data.ndim - 2)
    inv_count = 1.0 / int(np.prod([data.shape[axis] for axis in axes]))
    scale = weight.data.reshape(stat_shape)
    shift = bias.data.reshape(stat_shape)

    mean = data.sum(axis=axes, keepdims=True) * inv_count
    centered = np.empty(data.shape)
    out = np.empty(data.shape)

    def center(part) -> None:
        # ``out`` holds the squares until the variance has summed them.
        np.subtract(data[part], mean, out=centered[part])
        np.multiply(centered[part], centered[part], out=out[part])

    split.rows(batch, center, data.size)
    var = out.sum(axis=axes, keepdims=True) * inv_count
    sd = np.sqrt(var + eps)

    def normalise(part) -> None:
        # (centered / sd) * weight + bias, in ``out``'s rows.
        rows = out[part]
        np.divide(centered[part], sd, out=rows)
        np.multiply(rows, scale, out=rows)
        np.add(rows, shift, out=rows)

    split.rows(batch, normalise, data.size)
    del centered

    def backward(grad: np.ndarray) -> None:
        # Recomputed rather than kept alive since forward: the same bytes.
        centered = np.empty(data.shape)
        split.rows(
            batch, lambda part: np.subtract(data[part], mean, out=centered[part]), data.size
        )
        if bias.requires_grad:
            bias._accumulate_grad(_unbroadcast(grad, stat_shape).reshape(channels))
        if weight.requires_grad:
            weighted = np.empty(data.shape)

            def weigh(part) -> None:
                # grad * (centered / sd)
                rows = weighted[part]
                np.divide(centered[part], sd, out=rows)
                np.multiply(grad[part], rows, out=rows)

            split.rows(batch, weigh, data.size)
            weight._accumulate_grad(_unbroadcast(weighted, stat_shape).reshape(channels))
            del weighted
        if not x.requires_grad:
            return

        # The divide's numerator, grad * weight / sd, reaches x through one
        # of the tape's two ``x - mean``: as x's own term, and as -term
        # summed back through the mean.  Its denominator's term goes back
        # through the square root and the variance to the variance's own
        # centering: -(grad * weight) * centered / sd**2, summed.
        sd_squared = sd ** 2
        numerator = np.empty(data.shape)
        negated = np.empty(data.shape)
        through_sd = np.empty(data.shape)

        def numerator_terms(part) -> None:
            scaled = through_sd[part]
            np.multiply(grad[part], scale, out=scaled)
            np.divide(scaled, sd, out=numerator[part])
            np.negative(numerator[part], out=negated[part])
            np.negative(scaled, out=scaled)
            np.multiply(scaled, centered[part], out=scaled)
            np.divide(scaled, sd_squared, out=scaled)

        split.rows(batch, numerator_terms, data.size)
        grad_mean = _unbroadcast(negated, stat_shape) * inv_count
        grad_sd = _unbroadcast(through_sd, stat_shape)
        grad_var = grad_sd * 0.5 / np.maximum(sd, 1e-12)
        grad_square_scale = grad_var * inv_count
        # The variance's centering: 2 * (grad_var / count) * centered, as x's
        # own term and, negated, summed back through its mean.  It reuses
        # the buffer whose sum gave grad_sd.
        squared = through_sd

        def square_terms(part) -> None:
            rows = squared[part]
            np.multiply(grad_square_scale, centered[part], out=rows)
            np.add(rows, rows, out=rows)
            np.negative(rows, out=negated[part])

        split.rows(batch, square_terms, data.size)
        grad_square_mean = _unbroadcast(negated, stat_shape) * inv_count
        del negated, centered

        # x's four terms in the tape's order, each added as x._accumulate_grad
        # would add it (a first term is taken as is).
        previous = x.grad

        def accumulate(part) -> None:
            rows = numerator[part]
            if previous is not None:
                np.add(previous[part], rows, out=rows)
            np.add(rows, grad_mean, out=rows)
            np.add(rows, squared[part], out=rows)
            np.add(rows, grad_square_mean, out=rows)

        split.rows(batch, accumulate, data.size)
        x.grad = numerator

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
