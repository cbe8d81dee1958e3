"""Grad-free numpy kernels: the raw forward computations of the library.

Everything in this subpackage operates on plain ``numpy.ndarray`` values and
never touches the autograd :class:`~repro.tensor.tensor.Tensor` machinery.
The split exists so the same arithmetic serves two masters:

* the **training path** -- :mod:`repro.tensor.functional` and the
  :mod:`repro.nn` modules call these kernels for their forward computation
  and attach backward closures on top, so training behaviour is unchanged;
* the **inference path** -- :mod:`repro.runtime` compiles models into static
  plans whose steps call the kernels directly, with zero graph construction
  and no per-op ``Tensor`` allocation.

Layout convention matches the rest of the library: image tensors are NCHW.
"""

from repro.kernels.conv import (
    IM2COL_INDEX_CACHE_SIZE,
    as_pair,
    col2im,
    conv2d,
    conv_output_hw,
    im2col,
    im2col_batched,
    im2col_cache_clear,
    im2col_cache_info,
    im2col_indices,
    im2col_slices,
    matmul_cols,
    pack_weight_matrix,
    pad_nchw,
)
from repro.kernels.linear import linear
from repro.kernels.norm import batch_norm
from repro.kernels.pool import (
    avg_pool2d,
    avg_pool2d_cols,
    avg_pool2d_gather,
    avg_pool2d_tiled,
    max_pool2d,
    max_pool2d_cols,
    max_pool2d_gather,
    pool_tiled_applicable,
)
from repro.kernels.activations import (
    clamp,
    leaky_relu,
    log_softmax,
    relu,
    relu6,
    sigmoid,
    softmax,
    tanh,
)

__all__ = [
    "IM2COL_INDEX_CACHE_SIZE",
    "as_pair",
    "im2col_cache_clear",
    "im2col_cache_info",
    "im2col_indices",
    "im2col",
    "im2col_slices",
    "im2col_batched",
    "col2im",
    "conv_output_hw",
    "matmul_cols",
    "pack_weight_matrix",
    "pad_nchw",
    "conv2d",
    "linear",
    "batch_norm",
    "max_pool2d",
    "max_pool2d_cols",
    "max_pool2d_gather",
    "avg_pool2d",
    "avg_pool2d_cols",
    "avg_pool2d_gather",
    "avg_pool2d_tiled",
    "pool_tiled_applicable",
    "relu",
    "relu6",
    "leaky_relu",
    "clamp",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
]
