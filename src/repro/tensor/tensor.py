"""Reverse-mode automatic differentiation on top of numpy.

The :class:`Tensor` class wraps a ``numpy.ndarray`` and records a dynamic
computation graph as operations are applied.  Calling :meth:`Tensor.backward`
on a scalar result walks the graph in reverse topological order,
accumulates gradients into every tensor created with ``requires_grad=True``
and releases each interior node as soon as backprop has passed it.

The design goals are, in order:

1. *Correctness* -- gradients are checked against finite differences in the
   test-suite (``tests/tensor/test_autograd_numeric.py``).
2. *Readability* -- each operation defines its backward rule in a small local
   closure right next to the forward computation.
3. *Adequate speed* -- heavy lifting (matmul, im2col convolutions) happens in
   vectorised numpy; Python overhead is only per-operation, not per-element.

Only the operations needed by the reproduction are implemented; this is not a
general-purpose framework.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.tensor import split

ArrayLike = Union[float, int, list, tuple, np.ndarray, "Tensor"]


class _InstrumentationState(threading.local):
    """Per-thread autograd instrumentation.

    ``grad_enabled``, the graph-node counter and the active operation trace
    are all *thread-local*: concurrent plan execution (see
    :mod:`repro.serve.workers`) must not race on the counter, and a
    ``trace_ops`` block in one thread must not capture operations executed by
    another.  The flip side is that tracing -- and therefore plan
    *compilation* -- observes only its own thread: compile on one thread at a
    time (``repro.runtime`` serialises this with a compile lock); executing
    the compiled plans is then safe from any number of threads.
    """

    def __init__(self) -> None:
        self.grad_enabled: bool = True
        self.graph_nodes_created: int = 0
        self.active_trace: Optional[List["OpRecord"]] = None


_STATE = _InstrumentationState()


def is_grad_enabled() -> bool:
    """Return whether gradient recording is currently enabled (this thread)."""
    return _STATE.grad_enabled


def graph_nodes_created() -> int:
    """Operation-result tensors created *by this thread* (monotonic counter).

    Diff two readings around a code region to count how many autograd-graph
    nodes it built; a compiled :class:`~repro.runtime.plan.ExecutionPlan`
    builds exactly zero.  The counter is thread-local so concurrent plan
    execution neither races on it nor pollutes another thread's reading.
    """
    return _STATE.graph_nodes_created


@dataclass
class OpRecord:
    """One traced operation: its name, result, inputs and static parameters."""

    op: str
    out: "Tensor"
    parents: Tuple["Tensor", ...]
    ctx: Dict[str, object] = field(default_factory=dict)


@contextlib.contextmanager
def trace_ops():
    """Record every tensor operation executed inside the block (this thread).

    Yields the list the records are appended to.  Gradient recording is
    forced *on* for the duration so operations keep their parent links and no
    module takes a grad-free fast path that would hide ops from the trace;
    nothing calls ``backward`` so no gradients are accumulated.  The trace is
    thread-local: operations executed by other threads are invisible to it.
    """
    previous_trace = _STATE.active_trace
    previous_grad = _STATE.grad_enabled
    records: List[OpRecord] = []
    _STATE.active_trace = records
    _STATE.grad_enabled = True
    try:
        yield records
    finally:
        _STATE.active_trace = previous_trace
        _STATE.grad_enabled = previous_grad


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (this thread).

    Used for evaluation passes and for the quantised weight-update step,
    which must not itself be differentiated.
    """
    previous = _STATE.grad_enabled
    _STATE.grad_enabled = False
    try:
        yield
    finally:
        _STATE.grad_enabled = previous


def _as_array(value: ArrayLike, dtype=np.float64) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    Broadcasting in the forward pass replicates values; the corresponding
    backward operation is summation over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were 1 in the original shape but expanded.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _released_backward(grad: np.ndarray) -> None:
    """The closure of a node whose backward has run (see :meth:`Tensor.backward`)."""
    raise RuntimeError(
        "backward through a graph that an earlier backward() already released; "
        "recompute the forward pass to differentiate it again"
    )


class Tensor:
    """A numpy-backed tensor with reverse-mode autograd.

    Parameters
    ----------
    data:
        Anything convertible to a numpy array (scalars, lists, ndarrays or
        another :class:`Tensor`, whose buffer is shared).
    requires_grad:
        When ``True`` the tensor participates in gradient computation and its
        ``.grad`` attribute is populated by :meth:`backward` (which keeps it
        only on leaves: operation results drop theirs once used).
    name:
        Optional human-readable label used in debugging and in the hardware
        accounting layer.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_backward", "_parents", "_op")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
        _parents: Sequence["Tensor"] = (),
        _op: str = "",
    ) -> None:
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _STATE.grad_enabled
        self.name = name
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = tuple(_parents) if _STATE.grad_enabled else ()
        self._op = _op

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy buffer (not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False, name=self.name)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad, name=self.name)

    def zero_grad(self) -> None:
        self.grad = None

    def __len__(self) -> int:
        return self.data.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, op={self._op!r}{grad_flag}{label})"

    # ------------------------------------------------------------------ #
    # Graph machinery
    # ------------------------------------------------------------------ #
    @classmethod
    def _make(
        cls,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
        op: str,
        ctx: Optional[Dict[str, object]] = None,
    ) -> "Tensor":
        """Create a result tensor, wiring up the backward closure if needed.

        ``ctx`` carries the operation's static parameters (stride, axes, ...)
        for the benefit of an active :func:`trace_ops` block; it is not
        stored on the tensor.
        """
        state = _STATE
        state.graph_nodes_created += 1
        requires = state.grad_enabled and any(p.requires_grad for p in parents)
        out = cls(data, requires_grad=requires, _parents=parents if requires else (), _op=op)
        if requires:
            out._backward = backward
        if state.active_trace is not None:
            state.active_trace.append(
                OpRecord(op=op, out=out, parents=tuple(parents), ctx=ctx or {})
            )
        return out

    def _accumulate_grad(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        previous = self.grad
        # ``grad.copy()`` or ``previous + grad``, a range of samples per
        # thread while a fit has the split on.
        if previous is None:
            total = np.empty(grad.shape, dtype=grad.dtype)

            def accumulate(part) -> None:
                np.copyto(total[part], grad[part])
        else:
            total = np.empty(grad.shape, dtype=np.result_type(previous, grad))

            def accumulate(part) -> None:
                np.add(previous[part], grad[part], out=total[part])

        split.rows(grad.shape[0] if grad.ndim else 1, accumulate, total.size)
        self.grad = total

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode autodiff from this tensor, releasing the tape.

        Gradients accumulate into every leaf that requires them (parameters
        and ``requires_grad`` inputs: tensors with no backward closure), as
        before.  The graph is consumed on the way: as soon as an interior
        node's backward has run, its ``grad``, its closure and its parent
        links are dropped, so the activations and saved columns the closure
        kept die once backprop has passed them, not when the next step
        replaces the graph.  Interior nodes therefore hold no ``.grad``
        afterwards (their ``.data`` is untouched).  A backward that reaches
        a released node raises :class:`RuntimeError`; calling it again on
        the same result does so before any leaf's gradient changes.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to ``1.0`` which is only valid for
            scalar tensors (the usual loss value).
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient is only defined for "
                    f"scalar tensors; this tensor has shape {self.data.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        topo: List[Tensor] = []
        visited = set()

        # Iterative DFS to avoid recursion limits on deep networks (ResNet-110).
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate_grad(grad)
        # Pop rather than iterate, so the list stops holding a node (and the
        # arrays it keeps) once its backward has run.
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._backward = _released_backward
            node._parents = ()

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(grad)
            other_t._accumulate_grad(grad)

        return Tensor._make(data, (self, other_t), backward, "add")

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(-grad)

        return Tensor._make(data, (self,), backward, "neg")

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data - other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(grad)
            other_t._accumulate_grad(-grad)

        return Tensor._make(data, (self, other_t), backward, "sub")

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(grad * other_t.data)
            other_t._accumulate_grad(grad * self.data)

        return Tensor._make(data, (self, other_t), backward, "mul")

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(grad / other_t.data)
            other_t._accumulate_grad(-grad * self.data / (other_t.data ** 2))

        return Tensor._make(data, (self, other_t), backward, "div")

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(data, (self,), backward, "pow", ctx={"exponent": exponent})

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: ArrayLike) -> "Tensor":
        """Matrix multiplication with gradient support (2-D operands)."""
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(grad @ other_t.data.swapaxes(-1, -2))
            other_t._accumulate_grad(self.data.swapaxes(-1, -2) @ grad)

        return Tensor._make(data, (self, other_t), backward, "matmul")

    # ------------------------------------------------------------------ #
    # Elementwise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(grad * data)

        return Tensor._make(data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(grad / self.data)

        return Tensor._make(data, (self,), backward, "log")

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(grad * 0.5 / np.maximum(data, 1e-12))

        return Tensor._make(data, (self,), backward, "sqrt")

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(grad * np.sign(self.data))

        return Tensor._make(data, (self,), backward, "abs")

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(grad * mask)

        return Tensor._make(data, (self,), backward, "relu")

    def clamp(self, min_value: Optional[float] = None, max_value: Optional[float] = None) -> "Tensor":
        """Clip values; gradients flow only where the input was inside the range."""
        low = -np.inf if min_value is None else min_value
        high = np.inf if max_value is None else max_value
        data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(grad * mask)

        return Tensor._make(
            data, (self,), backward, "clamp", ctx={"min": min_value, "max": max_value}
        )

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(grad * data * (1.0 - data))

        return Tensor._make(data, (self,), backward, "sigmoid")

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(grad * (1.0 - data ** 2))

        return Tensor._make(data, (self,), backward, "tanh")

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            expanded = grad
            if axis is not None and not keepdims:
                expanded = np.expand_dims(grad, axis)
            self._accumulate_grad(np.broadcast_to(expanded, self.data.shape))

        return Tensor._make(data, (self,), backward, "sum", ctx={"axis": axis, "keepdims": keepdims})

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        result = (centered * centered).mean(axis=axis, keepdims=keepdims)
        return result

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            expanded_out = data
            expanded_grad = grad
            if axis is not None and not keepdims:
                expanded_out = np.expand_dims(data, axis)
                expanded_grad = np.expand_dims(grad, axis)
            mask = (self.data == expanded_out).astype(self.data.dtype)
            # Split gradient equally between ties so the total is conserved.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate_grad(expanded_grad * mask / np.maximum(counts, 1))

        return Tensor._make(data, (self,), backward, "max", ctx={"axis": axis, "keepdims": keepdims})

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------ #
    # Shape operations
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(grad.reshape(original_shape))

        return Tensor._make(data, (self,), backward, "reshape")

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(grad.transpose(inverse))

        return Tensor._make(data, (self,), backward, "transpose", ctx={"axes": axes})

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def flatten(self, start_dim: int = 0) -> "Tensor":
        shape = self.data.shape
        new_shape = shape[:start_dim] + (-1,)
        return self.reshape(new_shape)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate_grad(full)

        return Tensor._make(data, (self,), backward, "getitem")

    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the last two (spatial) dimensions of an NCHW tensor."""
        if padding == 0:
            return self
        pad_width = [(0, 0)] * (self.data.ndim - 2) + [(padding, padding), (padding, padding)]
        data = np.pad(self.data, pad_width)

        def backward(grad: np.ndarray) -> None:
            slices = tuple(
                slice(None) if before == 0 else slice(before, -after if after else None)
                for before, after in pad_width
            )
            self._accumulate_grad(grad[slices])

        return Tensor._make(data, (self,), backward, "pad2d")

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def zeros(shape, requires_grad: bool = False, name: Optional[str] = None) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad, name=name)

    @staticmethod
    def ones(shape, requires_grad: bool = False, name: Optional[str] = None) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad, name=name)

    @staticmethod
    def full(shape, value: float, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.full(shape, value, dtype=np.float64), requires_grad=requires_grad)

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensor_list = list(tensors)
        data = np.stack([t.data for t in tensor_list], axis=axis)

        def backward(grad: np.ndarray) -> None:
            pieces = np.split(grad, len(tensor_list), axis=axis)
            for tensor, piece in zip(tensor_list, pieces):
                tensor._accumulate_grad(np.squeeze(piece, axis=axis))

        return Tensor._make(data, tuple(tensor_list), backward, "stack")

    @staticmethod
    def concatenate(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensor_list = list(tensors)
        data = np.concatenate([t.data for t in tensor_list], axis=axis)
        sizes = [t.data.shape[axis] for t in tensor_list]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for tensor, start, stop in zip(tensor_list, offsets[:-1], offsets[1:]):
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                tensor._accumulate_grad(grad[tuple(index)])

        return Tensor._make(data, tuple(tensor_list), backward, "concat")
