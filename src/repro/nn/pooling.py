"""Pooling layers."""

from __future__ import annotations

from typing import Optional

from repro import kernels
from repro.nn.module import Module
from repro.tensor import Tensor, functional as F, is_grad_enabled


class MaxPool2d(Module):
    """Max pooling over NCHW feature maps."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size

    def forward(self, x: Tensor) -> Tensor:
        if not is_grad_enabled():
            # Evaluation under no_grad: no backward will run, so skip the
            # window gather and argmax and run the grad-free kernel (tiled
            # where it applies; max is exact, so the same result).
            return Tensor(kernels.max_pool2d(x.data, self.kernel_size, self.stride))
        return F.max_pool2d(x, self.kernel_size, self.stride)


class AvgPool2d(Module):
    """Average pooling over NCHW feature maps."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride)


class GlobalAvgPool2d(Module):
    """Global average pooling: NCHW -> NC (the CIFAR ResNet head)."""

    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)
