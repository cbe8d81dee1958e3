"""Batch normalisation layers.

The paper trains with BN [10] and no dropout.  Running statistics are kept as
plain numpy buffers; the affine scale/shift are :class:`Parameter` objects
flagged ``quantisable=False`` by default because they are tiny relative to
conv/linear weights (the controller may still include them if configured).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import kernels
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, functional as F, is_grad_enabled


class _BatchNorm(Module):
    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features), name="bn_weight", quantisable=False)
        self.bias = Parameter(np.zeros(num_features), name="bn_bias", quantisable=False)
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def _normalise(self, x: Tensor, view_shape) -> Tensor:
        if x.shape[1] != self.num_features:
            raise ValueError(
                f"input has {x.shape[1]} channels but {type(self).__name__} "
                f"expects {self.num_features}"
            )
        if self.training:
            out, batch_mean, batch_var = F.batch_norm(x, self.weight, self.bias, self.eps)
            new_mean = (1 - self.momentum) * self.running_mean + self.momentum * batch_mean
            new_var = (1 - self.momentum) * self.running_var + self.momentum * batch_var
            self.update_buffer("running_mean", new_mean)
            self.update_buffer("running_var", new_var)
            return out
        if not is_grad_enabled():
            # Evaluation under no_grad: skip the per-op Tensor wrappers and
            # run the grad-free kernel (same arithmetic, same result).
            return Tensor(
                kernels.batch_norm(
                    x.data,
                    self.running_mean,
                    self.running_var,
                    self.weight.data,
                    self.bias.data,
                    self.eps,
                    view_shape,
                )
            )
        # Eval-mode BN with fixed statistics is an affine layer: fold the
        # running stats into a per-channel scale/shift so only two
        # elementwise operations touch the (large) activation -- the same
        # folded form every inference runtime lowers BN to, and the form
        # the grad-free kernel above computes.  The per-channel arithmetic
        # stays in autograd so gradients still reach weight and bias when
        # fine-tuning against frozen statistics.
        denom = Tensor(np.sqrt(self.running_var + self.eps).reshape(view_shape))
        scale = self.weight.reshape(view_shape) / denom
        shift = self.bias.reshape(view_shape) - Tensor(
            self.running_mean.reshape(view_shape)
        ) * scale
        return x * scale + shift


class BatchNorm2d(_BatchNorm):
    """Batch normalisation over NCHW feature maps."""

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects NCHW input, got shape {x.shape}")
        return self._normalise(x, view_shape=(1, self.num_features, 1, 1))


class BatchNorm1d(_BatchNorm):
    """Batch normalisation over (N, C) feature vectors."""

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 2:
            raise ValueError(f"BatchNorm1d expects (N, C) input, got shape {x.shape}")
        return self._normalise(x, view_shape=(1, self.num_features))
