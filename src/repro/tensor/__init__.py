"""Autograd tensor engine.

This subpackage is the lowest-level substrate of the reproduction: a small,
self-contained reverse-mode automatic-differentiation engine built on numpy.
It provides the pieces the paper's training stack needs:

* :class:`~repro.tensor.tensor.Tensor` -- an n-dimensional array that records
  the operations applied to it and can compute gradients via
  :meth:`~repro.tensor.tensor.Tensor.backward`.
* Functional operations in :mod:`repro.tensor.functional` (convolution,
  pooling, training-mode batch norm, softmax / cross-entropy helpers)
  implemented with im2col so they are fast enough for CPU-only experiments.
* Weight initialisers in :mod:`repro.tensor.init` (He / Kaiming, Xavier,
  uniform ranges) matching the recipes referenced by the paper.

The engine intentionally mirrors a small subset of the PyTorch API so that
code written against it reads like conventional deep-learning code.
"""

from repro.tensor.tensor import (
    OpRecord,
    Tensor,
    graph_nodes_created,
    is_grad_enabled,
    no_grad,
    trace_ops,
)
from repro.tensor import functional
from repro.tensor import init

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "graph_nodes_created",
    "trace_ops",
    "OpRecord",
    "functional",
    "init",
]
