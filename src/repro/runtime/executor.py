"""Execution layer: IR nodes lowered to kernel steps over an arena.

The executor is the only runtime layer that touches numpy at serving time.
:func:`lower_graph` translates each optimized IR node into exactly one
:class:`Step` (so step indices equal node indices, which is how steps find
their buffer color in the :class:`~repro.runtime.memory.MemoryPlan`), and
:class:`ExecutionPlan` runs the step list over an :class:`ExecutionContext`
arena.

Semantics are byte-identical to the traced module forward: fused affine
epilogues replay the recorded ufunc sequence in place instead of rewriting
the arithmetic, and quantised conv / linear steps keep their integer codes
with the affine scale applied at the kernel boundary -- identically whether
or not any optimisation pass ran.  Lowering packs every conv and linear
weight once (:func:`repro.kernels.pack_weight_matrix`), so every kernel
variant and the unoptimised interpreter alike multiply by the same
float64, C-contiguous matrix.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import kernels
from repro.runtime import variants as kernel_variants
from repro.runtime.ir import (
    BINARY_ELEMENTWISE,
    CHAIN,
    ElemOp,
    Graph,
    Node,
    PlanCompileError,
    UNARY_ELEMENTWISE,
    Value,
    matmul_linear_info,
)
from repro.runtime.memory import MemoryPlan, PlanMemoryStats
from repro.runtime.passes import PipelineReport

Ref = Tuple[str, Union[int, np.ndarray]]  # ("slot", index) | ("const", array)

#: Lowered micro-op: (op, refs, ctx); refs may contain ("chain", None).
LoweredElemOp = Tuple[str, Tuple[Ref, ...], Dict[str, object]]

_BINARY_UFUNCS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.true_divide,
}
_UNARY_UFUNCS = {
    "neg": np.negative,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "tanh": np.tanh,
}


def _resolve(ref: Ref, env: List[Optional[np.ndarray]]) -> np.ndarray:
    kind, value = ref
    return env[value] if kind == "slot" else value  # type: ignore[index]


def _apply_elem(
    op: str,
    arrays: Sequence[np.ndarray],
    ctx: Dict[str, object],
    out: np.ndarray,
) -> np.ndarray:
    """Run one elementwise operation into ``out`` (may alias an input)."""
    if op in _BINARY_UFUNCS:
        a, b = arrays
        return _BINARY_UFUNCS[op](a, b, out=out)
    (x,) = arrays
    if op == "relu":
        return np.maximum(x, 0.0, out=out)
    if op == "clamp":
        return kernels.clamp(x, ctx.get("min"), ctx.get("max"), out=out)
    if op == "pow":
        return np.power(x, ctx["exponent"], out=out)
    if op == "sigmoid":
        return kernels.sigmoid(x, out=out)
    if op in _UNARY_UFUNCS:
        return _UNARY_UFUNCS[op](x, out=out)
    raise PlanCompileError(f"unknown elementwise op {op!r}")  # pragma: no cover


# --------------------------------------------------------------------------- #
# Execution state
# --------------------------------------------------------------------------- #
class ExecutionContext:
    """Per-execution mutable state of one :class:`ExecutionPlan`.

    Holds the slot environment the steps read and write plus the buffer
    arena: one contiguous byte block laid out by the plan's
    :class:`~repro.runtime.memory.MemoryPlan`, into which scratch-writing
    steps take aligned views keyed by their buffer color.  The plan itself
    stays immutable, so any number of contexts -- one per worker thread --
    can execute the same plan concurrently.  A context is *not* itself
    thread-safe: it belongs to exactly one executing thread at a time.

    Pass ``batch_size`` (worker pools use the scheduler's maximum batch) to
    preallocate the whole arena up front; otherwise the first ``run`` sizes
    it and later, larger batches grow it.
    """

    __slots__ = (
        "plan", "env", "_arena", "_offsets", "_limits", "_reserved_batch", "_views", "_loose"
    )

    def __init__(self, plan: "ExecutionPlan", batch_size: Optional[int] = None) -> None:
        self.plan = plan
        self.env: List[Optional[np.ndarray]] = [None] * plan.num_slots
        self._arena: Optional[np.ndarray] = None
        self._offsets: List[int] = []
        self._limits: List[int] = []
        self._reserved_batch = 0
        self._views: Dict[Tuple[int, Tuple[int, ...]], np.ndarray] = {}
        self._loose: Dict[int, np.ndarray] = {}
        if batch_size is not None:
            self.reserve(batch_size)

    def reserve(self, batch_size: int) -> "ExecutionContext":
        """Preallocate the arena for batches up to ``batch_size``."""
        if batch_size <= self._reserved_batch:
            return self
        memory = self.plan.memory
        offsets, total = memory.layout(batch_size)
        self._arena = np.empty(total, dtype=np.uint8)
        self._offsets = offsets
        self._limits = [
            memory.color_bytes(color, batch_size) for color in range(len(offsets))
        ]
        self._reserved_batch = int(batch_size)
        self._views = {}
        return self

    @property
    def arena_nbytes(self) -> int:
        """Bytes currently committed to the arena (0 before first use)."""
        return 0 if self._arena is None else int(self._arena.nbytes)

    def scratch(self, step: "Step", shape: Tuple[int, ...]) -> np.ndarray:
        """The float64 buffer ``step`` writes in this arena."""
        key = (step.index, shape)
        view = self._views.get(key)
        if view is not None:
            return view
        color = self.plan.memory.color_of_node.get(step.index)
        nbytes = 8 * int(np.prod(shape))
        if color is None or self._arena is None or nbytes > self._limits[color]:
            # Not planned into the arena, no batch reserved yet, or the
            # live shape outgrew the planned color (e.g. the batch lives on
            # a non-leading axis the planner could not see): fall back to a
            # private per-step buffer, the pre-planner behaviour.  Planned
            # steps never read a stale arena view, so the fallback is
            # always safe, only unshared.
            buf = self._loose.get(step.index)
            if buf is None or buf.shape != shape:
                buf = np.empty(shape, dtype=np.float64)
                self._loose[step.index] = buf
            return buf
        offset = self._offsets[color]
        view = self._arena[offset : offset + nbytes].view(np.float64).reshape(shape)
        self._views[key] = view
        return view


# --------------------------------------------------------------------------- #
# Steps
# --------------------------------------------------------------------------- #
class Step:
    """One kernel call: reads input slots / baked constants, writes ``out``.

    Steps are immutable after compilation (``index`` is assigned once by the
    owning plan and doubles as the node index in the memory plan); all
    scratch space comes from the borrowed :class:`ExecutionContext`.
    """

    __slots__ = ("out", "index")

    def __init__(self, out: int) -> None:
        self.out = out
        self.index = -1  # assigned by ExecutionPlan

    def run(self, env: List[Optional[np.ndarray]], ctx: ExecutionContext) -> None:
        raise NotImplementedError

    def describe(self) -> str:  # pragma: no cover - debugging aid
        return type(self).__name__


class _EpilogueMixin:
    """Shared output post-processing for conv / linear / matmul steps.

    The raw kernel result is scaled by ``out_scale`` (the quantised weight
    scale, applied at the kernel boundary), shifted by ``out_shift`` (a
    convolution's own bias), then the affine-fusion micro-ops absorbed from
    the graph replay in place, in recorded order.
    """

    __slots__ = ()

    def _apply_epilogue(self, raw: np.ndarray, env) -> np.ndarray:
        if self.out_scale is not None:
            raw *= self.out_scale
        if self.out_shift is not None:
            raw += self.out_shift
        for op, refs, op_ctx in self.post:
            arrays = [raw if kind == "chain" else _resolve((kind, value), env)
                      for kind, value in refs]
            raw = _apply_elem(op, arrays, op_ctx, raw)
        return raw

    def _epilogue_tag(self) -> str:
        parts = []
        if self.out_scale is not None or self.out_shift is not None:
            parts.append("+affine")
        if self.post:
            parts.append("+" + ">".join(op for op, _, _ in self.post))
        return " " + " ".join(parts) if parts else ""


class ConvStep(Step, _EpilogueMixin):
    """Convolution lowered through its selected variant, with an optional
    fused in-place epilogue.

    ``weight_matrix`` is the canonical baked filter matrix (integer codes
    for quantised plans); ``_weight_exec`` is its execution-time form,
    packed once to contiguous float64 whatever the variant.  Every variant
    writes the same ``(N, C_out, oh*ow)`` scratch shape, so the memory plan
    is variant-independent.
    """

    __slots__ = (
        "x",
        "weight_matrix",
        "kernel_size",
        "stride",
        "padding",
        "out_channels",
        "out_scale",
        "out_shift",
        "post",
        "bits",
        "param_name",
        "variant",
        "_weight_exec",
    )

    def __init__(
        self,
        out: int,
        x: int,
        weight_matrix: np.ndarray,
        kernel_size: Tuple[int, int],
        stride: Tuple[int, int],
        padding: Tuple[int, int],
        out_scale: Optional[np.ndarray],
        out_shift: Optional[np.ndarray],
        bits: int,
        param_name: str,
        post: Tuple[LoweredElemOp, ...] = (),
        variant: str = "im2col",
    ) -> None:
        super().__init__(out)
        self.x = x
        self.weight_matrix = weight_matrix
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.out_channels = int(weight_matrix.shape[0])
        self.out_scale = out_scale
        self.out_shift = out_shift
        self.post = tuple(post)
        self.bits = bits
        self.param_name = param_name
        self.variant = variant
        self._weight_exec = kernels.pack_weight_matrix(weight_matrix)

    def run(self, env: List[Optional[np.ndarray]], ctx: ExecutionContext) -> None:
        x = env[self.x]
        out_h, out_w = kernels.conv_output_hw(
            x.shape[2], x.shape[3], self.kernel_size, self.stride, self.padding
        )
        shape = (x.shape[0], self.out_channels, out_h * out_w)
        raw = kernel_variants.run_conv(
            self.variant, x, self._weight_exec, self.kernel_size, self.stride,
            self.padding, out=ctx.scratch(self, shape),
        )
        out = raw.reshape(x.shape[0], self.out_channels, out_h, out_w)
        env[self.out] = self._apply_epilogue(out, env)

    def describe(self) -> str:
        tag = f"int{self.weight_matrix.dtype.itemsize * 8}" if self.bits < 32 else "fp"
        return (
            f"conv2d[{tag}] {self.param_name} stride={self.stride} "
            f"pad={self.padding} bits={self.bits} "
            f"variant={self.variant}{self._epilogue_tag()}"
        )


class LinearStep(Step, _EpilogueMixin):
    """Dense matmul against a baked ``(in, out)`` weight matrix.

    ``weight`` is the canonical stored matrix (integer codes for quantised
    plans); ``_weight_exec`` is its execution-time form, packed once to
    contiguous float64.
    """

    __slots__ = (
        "x", "weight", "out_scale", "out_shift", "post", "bits", "param_name",
        "_weight_exec",
    )

    def __init__(
        self,
        out: int,
        x: int,
        weight: np.ndarray,
        out_scale: Optional[np.ndarray],
        out_shift: Optional[np.ndarray],
        bits: int,
        param_name: str,
        post: Tuple[LoweredElemOp, ...] = (),
    ) -> None:
        super().__init__(out)
        self.x = x
        self.weight = weight
        self.out_scale = out_scale
        self.out_shift = out_shift
        self.post = tuple(post)
        self.bits = bits
        self.param_name = param_name
        self._weight_exec = kernels.pack_weight_matrix(weight)

    def run(self, env: List[Optional[np.ndarray]], ctx: ExecutionContext) -> None:
        x = env[self.x]
        if x.ndim == 2 and np.result_type(x, self._weight_exec) == np.float64:
            out = ctx.scratch(self, (x.shape[0], self._weight_exec.shape[1]))
            raw = np.matmul(x, self._weight_exec, out=out)
        else:
            raw = x @ self._weight_exec
        env[self.out] = self._apply_epilogue(raw, env)

    def describe(self) -> str:
        tag = f"int{self.weight.dtype.itemsize * 8}" if self.bits < 32 else "fp"
        return f"linear[{tag}] {self.param_name} bits={self.bits}{self._epilogue_tag()}"


class MatmulStep(Step, _EpilogueMixin):
    """General matmul of two runtime values (neither is a baked weight)."""

    __slots__ = ("lhs", "rhs", "out_scale", "out_shift", "post")

    def __init__(self, out: int, lhs: Ref, rhs: Ref, post: Tuple[LoweredElemOp, ...] = ()) -> None:
        super().__init__(out)
        self.lhs = lhs
        self.rhs = rhs
        self.out_scale = None
        self.out_shift = None
        self.post = tuple(post)

    def run(self, env: List[Optional[np.ndarray]], ctx: ExecutionContext) -> None:
        raw = _resolve(self.lhs, env) @ _resolve(self.rhs, env)
        env[self.out] = self._apply_epilogue(raw, env)

    def describe(self) -> str:
        return f"matmul{self._epilogue_tag()}"


class ElementwiseStep(Step):
    """Broadcasted elementwise operation writing into arena scratch."""

    __slots__ = ("op", "inputs", "ctx")

    def __init__(self, out: int, op: str, inputs: Sequence[Ref], ctx: Dict[str, object]) -> None:
        super().__init__(out)
        self.op = op
        self.inputs = tuple(inputs)
        self.ctx = ctx

    def run(self, env: List[Optional[np.ndarray]], ctx: ExecutionContext) -> None:
        arrays = [_resolve(ref, env) for ref in self.inputs]
        if len(arrays) == 2:
            shape = np.broadcast_shapes(arrays[0].shape, arrays[1].shape)
        else:
            shape = arrays[0].shape
        env[self.out] = _apply_elem(self.op, arrays, self.ctx, ctx.scratch(self, shape))

    def describe(self) -> str:
        return f"{self.op}({', '.join(kind for kind, _ in self.inputs)})"


class _PoolStep(Step):
    """Pooling through the grad-free kernel, which takes its tiled reduction
    on non-overlapping windows and its gather elsewhere."""

    __slots__ = ("x", "kernel_size", "stride")
    op = ""
    kernel = None

    def __init__(
        self,
        out: int,
        x: Ref,
        kernel_size: Tuple[int, int],
        stride: Tuple[int, int],
    ) -> None:
        super().__init__(out)
        self.x = x
        self.kernel_size = kernel_size
        self.stride = stride

    def run(self, env: List[Optional[np.ndarray]], ctx: ExecutionContext) -> None:
        env[self.out] = self.kernel(_resolve(self.x, env), self.kernel_size, self.stride)

    def describe(self) -> str:
        return f"{self.op} k={self.kernel_size} stride={self.stride}"


class MaxPoolStep(_PoolStep):
    __slots__ = ()
    op = "max_pool2d"
    kernel = staticmethod(kernels.max_pool2d)


class AvgPoolStep(_PoolStep):
    __slots__ = ()
    op = "avg_pool2d"
    kernel = staticmethod(kernels.avg_pool2d)


class SumStep(Step):
    __slots__ = ("x", "axis", "keepdims")

    def __init__(self, out: int, x: Ref, axis, keepdims: bool) -> None:
        super().__init__(out)
        self.x = x
        self.axis = tuple(axis) if isinstance(axis, (list, tuple)) else axis
        self.keepdims = keepdims

    def run(self, env: List[Optional[np.ndarray]], ctx: ExecutionContext) -> None:
        env[self.out] = _resolve(self.x, env).sum(axis=self.axis, keepdims=self.keepdims)

    def describe(self) -> str:
        return f"sum axis={self.axis}"


class MaxReduceStep(Step):
    __slots__ = ("x", "axis", "keepdims")

    def __init__(self, out: int, x: Ref, axis, keepdims: bool) -> None:
        super().__init__(out)
        self.x = x
        self.axis = tuple(axis) if isinstance(axis, (list, tuple)) else axis
        self.keepdims = keepdims

    def run(self, env: List[Optional[np.ndarray]], ctx: ExecutionContext) -> None:
        env[self.out] = _resolve(self.x, env).max(axis=self.axis, keepdims=self.keepdims)

    def describe(self) -> str:
        return f"max axis={self.axis}"


class ReshapeStep(Step):
    __slots__ = ("x", "target", "batch_polymorphic")

    def __init__(self, out: int, x: Ref, target: Tuple[int, ...], batch_polymorphic: bool) -> None:
        super().__init__(out)
        self.x = x
        self.target = target
        self.batch_polymorphic = batch_polymorphic

    def run(self, env: List[Optional[np.ndarray]], ctx: ExecutionContext) -> None:
        x = _resolve(self.x, env)
        shape = (x.shape[0],) + self.target[1:] if self.batch_polymorphic else self.target
        env[self.out] = x.reshape(shape)

    def describe(self) -> str:
        tail = ("N",) + self.target[1:] if self.batch_polymorphic else self.target
        return f"reshape {tail}"


class TransposeStep(Step):
    __slots__ = ("x", "axes")

    def __init__(self, out: int, x: Ref, axes: Tuple[int, ...]) -> None:
        super().__init__(out)
        self.x = x
        self.axes = tuple(axes)

    def run(self, env: List[Optional[np.ndarray]], ctx: ExecutionContext) -> None:
        env[self.out] = _resolve(self.x, env).transpose(self.axes)

    def describe(self) -> str:
        return f"transpose {self.axes}"


# --------------------------------------------------------------------------- #
# The plan
# --------------------------------------------------------------------------- #
class ExecutionPlan:
    """An ordered sequence of kernel steps compiled from one model.

    ``run`` accepts a batch of shape ``(N,) + input_shape`` (or one sample of
    ``input_shape``) and returns the model's output.  Execution is pure
    numpy: no :class:`~repro.tensor.tensor.Tensor` objects, no autograd
    graph, one planned arena of reused buffers per context.

    The plan is an immutable compiled artifact: steps, baked weights,
    topology and the memory plan never change after construction.  All
    mutable execution state lives in an :class:`ExecutionContext`; ``run``
    borrows the calling thread's implicit context unless a worker passes
    its own, so one plan instance serves any number of threads concurrently.
    """

    def __init__(
        self,
        steps: List[Step],
        num_slots: int,
        output_slot: int,
        input_shape: Tuple[int, ...],
        source: str,
        quantized: bool,
        memory: MemoryPlan,
        pipeline: PipelineReport,
    ) -> None:
        self.steps = steps
        for index, step in enumerate(steps):
            step.index = index
        self.num_slots = num_slots
        self.output_slot = output_slot
        self.input_shape = tuple(input_shape)
        self.source = source
        self.quantized = quantized
        self.memory = memory
        self.pipeline = pipeline
        self._thread_contexts = threading.local()

    # -- execution state ------------------------------------------------- #
    def create_context(self, batch_size: Optional[int] = None) -> ExecutionContext:
        """A fresh buffer arena for this plan (one per worker thread).

        Args:
            batch_size: Preallocate the arena for batches up to this size
                (worker pools pass the scheduler's maximum batch so the
                whole arena is committed once, ahead of the first request).
        """
        return ExecutionContext(self, batch_size=batch_size)

    def _implicit_context(self) -> ExecutionContext:
        """The calling thread's own lazily-created context."""
        ctx = getattr(self._thread_contexts, "ctx", None)
        if ctx is None:
            ctx = ExecutionContext(self)
            self._thread_contexts.ctx = ctx
        return ctx

    # -- execution ------------------------------------------------------- #
    def run(
        self,
        x: np.ndarray,
        *,
        ctx: Optional[ExecutionContext] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Execute the plan on ``x``.

        Parameters
        ----------
        x:
            One sample of ``input_shape`` or a batch ``(N,) + input_shape``.
        ctx:
            Execution context (buffer arena) to borrow.  Defaults to a
            context owned by the calling thread, so plain ``run`` calls are
            already thread-safe; worker pools pass their own per-worker
            arena explicitly to avoid the thread-local lookup and to control
            buffer lifetime.
        out:
            Optional pre-allocated output buffer with the result's exact
            shape.  When given, the result is written into it (no allocation
            on the hot path) and ``out`` is returned.
        """
        x = np.asarray(x, dtype=np.float64)
        single = x.shape == self.input_shape
        if single:
            x = x[None]
        if x.shape[1:] != self.input_shape:
            raise ValueError(
                f"plan compiled for per-sample shape {self.input_shape}, "
                f"got input of shape {x.shape}"
            )
        if ctx is None:
            ctx = self._implicit_context()
        elif ctx.plan is not self:
            raise ValueError("execution context belongs to a different plan")
        ctx.reserve(x.shape[0])
        env = ctx.env
        env[0] = x
        for step in self.steps:
            step.run(env, ctx)
        result = env[self.output_slot]
        # Arena buffers are reused by the next call; hand back owned memory.
        # A single sample is sliced *before* the copy so only its own bytes
        # move (no copy of the batch-of-one array followed by a slice).
        source = result[0] if single else result
        if out is not None:
            if out.shape != source.shape:
                raise ValueError(
                    f"out buffer has shape {out.shape}, result has {source.shape}"
                )
            np.copyto(out, source)
            result = out
        else:
            result = np.array(source, copy=True)
        # Drop slot references so the context does not pin the caller's
        # input batch and non-arena intermediates between calls (contexts
        # live as long as their worker; every slot is re-written before it
        # is read on the next run).
        env[:] = [None] * self.num_slots
        return result

    __call__ = run

    # -- introspection --------------------------------------------------- #
    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def memory_stats(self) -> PlanMemoryStats:
        """Planned-vs-unplanned scratch accounting (see ``describe_pipeline``)."""
        return self.memory.stats

    def describe(self) -> str:
        """Human-readable step listing (one line per step)."""
        header = f"ExecutionPlan({self.source}, input={self.input_shape}, " \
                 f"{'quantised' if self.quantized else 'float'})"
        lines = [header] + [
            f"  {index:3d}: {step.describe()}" for index, step in enumerate(self.steps)
        ]
        return "\n".join(lines)

    def describe_pipeline(self, batch_size: int = 1) -> str:
        """Pass-by-pass compilation summary: node counts, fusions, arena bytes."""
        header = (
            f"ExecutionPlan({self.source}, input={self.input_shape}, "
            f"{'quantised' if self.quantized else 'float'}) "
            f"passes={[record.name for record in self.pipeline.passes]}"
        )
        histogram = Counter(type(step).__name__ for step in self.steps)
        absorbed = sum(len(step.post) for step in self.steps
                       if isinstance(step, (ConvStep, LinearStep, MatmulStep)))
        step_kinds = ", ".join(f"{name}x{count}" for name, count in sorted(histogram.items()))
        lines = [header]
        lines.extend("  " + line for line in self.pipeline.describe().splitlines())
        lines.append(f"  steps: {self.num_steps} ({step_kinds})")
        lines.append(f"  fused: {absorbed} ops absorbed into kernels")
        chosen = self.kernel_variants()
        if chosen:
            variant_counts = Counter(chosen.values())
            lines.append("  variants: " + ", ".join(
                f"{name}x{count}" for name, count in sorted(variant_counts.items())
            ))
        lines.append("  " + self.memory.stats.describe(batch_size))
        return "\n".join(lines)

    def kernel_variants(self) -> Dict[str, str]:
        """The variant each conv step runs, by ``"<index>:<param_name>"``.

        The step index keeps repeated layers distinct.
        """
        return {
            f"{index}:{step.param_name}": step.variant
            for index, step in enumerate(self.steps)
            if isinstance(step, ConvStep)
        }

    def bits_by_layer(self) -> Dict[str, int]:
        """Stored weight bitwidth of every conv / linear step, keyed like
        :func:`~repro.hardware.profile.profile_model` layer names."""
        return {
            step.param_name: step.bits
            for step in self.steps
            if isinstance(step, (ConvStep, LinearStep))
        }

    def weight_bytes(self) -> int:
        """Bytes held by baked conv / linear weights (codes stay integer)."""
        return sum(
            step.weight_matrix.nbytes if isinstance(step, ConvStep) else step.weight.nbytes
            for step in self.steps
            if isinstance(step, (ConvStep, LinearStep))
        )


# --------------------------------------------------------------------------- #
# Lowering
# --------------------------------------------------------------------------- #
def _weight_codes(export, name: Optional[str]):
    if export is None or name is None:
        return None
    return export.quantized.get(name)


def lower_graph(
    graph: Graph,
    export,
    memory: MemoryPlan,
    pipeline: PipelineReport,
    input_shape: Tuple[int, ...],
) -> ExecutionPlan:
    """Lower every IR node to exactly one kernel step.

    Node order is preserved and node index equals step index, so the
    memory plan's per-node buffer colors address steps directly.
    """
    producers = graph.producers()
    slot_of: Dict[int, int] = {graph.input.vid: 0}
    num_slots = 1

    def ref_of(value: Value) -> Ref:
        if value.kind == "const":
            return ("const", value.data)
        return ("slot", slot_of[value.vid])

    def lower_elem(elem_ops: Sequence[ElemOp]) -> Tuple[LoweredElemOp, ...]:
        lowered = []
        for elem in elem_ops:
            refs = tuple(
                ("chain", None) if operand is CHAIN else ref_of(operand)
                for operand in elem.inputs
            )
            lowered.append((elem.op, refs, dict(elem.ctx)))
        return tuple(lowered)

    steps: List[Step] = []
    for node in graph.nodes:
        refs = [ref_of(value) for value in node.inputs]
        out_slot = num_slots
        num_slots += 1
        slot_of[node.output.vid] = out_slot
        op = node.op
        if op == "conv2d":
            steps.append(_lower_conv(node, refs, out_slot, export, lower_elem(node.post)))
        elif op == "matmul":
            steps.append(
                _lower_matmul(node, refs, out_slot, producers, export, lower_elem(node.post))
            )
        elif op in ("max_pool2d", "avg_pool2d"):
            cls = MaxPoolStep if op == "max_pool2d" else AvgPoolStep
            steps.append(cls(out_slot, refs[0], node.attrs["kernel_size"], node.attrs["stride"]))
        elif op == "sum":
            steps.append(SumStep(out_slot, refs[0], node.attrs["axis"], node.attrs["keepdims"]))
        elif op == "max":
            steps.append(
                MaxReduceStep(out_slot, refs[0], node.attrs["axis"], node.attrs["keepdims"])
            )
        elif op == "reshape":
            polymorphic = bool(node.inputs[0].batch_poly and node.output.batch_poly)
            steps.append(ReshapeStep(out_slot, refs[0], tuple(node.output.shape), polymorphic))
        elif op == "transpose":
            steps.append(TransposeStep(out_slot, refs[0], node.attrs["axes"]))
        elif op in BINARY_ELEMENTWISE or op in UNARY_ELEMENTWISE:
            steps.append(ElementwiseStep(out_slot, op, refs, dict(node.attrs)))
        else:
            raise PlanCompileError(
                f"cannot lower op {op!r} to a static plan (add a Step kind "
                f"to repro.runtime.executor to support it)"
            )

    output_slot = slot_of.get(graph.output.vid)
    if output_slot is None:
        raise PlanCompileError("model output does not depend on the input")
    return ExecutionPlan(
        steps=steps,
        num_slots=num_slots,
        output_slot=output_slot,
        input_shape=tuple(input_shape),
        source=graph.source,
        quantized=export is not None and bool(export.quantized),
        memory=memory,
        pipeline=pipeline,
    )


def _lower_conv(node: Node, refs, out_slot: int, export, post) -> ConvStep:
    x_kind, x_value = refs[0]
    if x_kind != "slot":
        raise PlanCompileError("conv2d over a constant input should have been folded")
    weight_value = node.inputs[1]
    if weight_value.kind != "const" or weight_value.origin is None:
        raise PlanCompileError("conv2d weight is not a model parameter")
    name = weight_value.origin[0]
    out_channels = int(weight_value.shape[0])
    bias = node.inputs[2].data if len(node.inputs) == 3 else None

    qt = _weight_codes(export, name)
    if qt is not None:
        weight_matrix = np.ascontiguousarray(kernel_variants.centred_codes(qt).reshape(out_channels, -1))
        out_scale: Optional[np.ndarray] = np.float64(qt.qparams.scale)
        bits = qt.bits
    else:
        weight_matrix = weight_value.data.reshape(out_channels, -1).copy()
        out_scale = None
        bits = 32
    out_shift = bias.reshape(1, -1, 1, 1).copy() if bias is not None else None
    return ConvStep(
        out=out_slot,
        x=x_value,
        weight_matrix=weight_matrix,
        kernel_size=tuple(weight_value.shape[2:]),
        stride=node.attrs["stride"],
        padding=node.attrs["padding"],
        out_scale=out_scale,
        out_shift=out_shift,
        bits=bits,
        param_name=name,
        post=post,
        variant=node.attrs.get("kernel_variant", "im2col"),
    )


def _lower_matmul(node: Node, refs, out_slot: int, producers, export, post) -> Step:
    info = matmul_linear_info(node, producers)
    lhs_kind, lhs_value = refs[0]
    if info is not None and lhs_kind == "slot":
        weight_value, pre_transposed = info
        origin = weight_value.origin
        if origin is not None:
            name, origin_transposed = origin
            # Orientation of the effective rhs relative to the raw parameter.
            transposed = origin_transposed != pre_transposed
            qt = _weight_codes(export, name)
            if qt is not None:
                centred = kernel_variants.centred_codes(qt)
                if transposed:
                    centred = centred.T
                return LinearStep(
                    out=out_slot,
                    x=lhs_value,
                    weight=np.ascontiguousarray(centred),
                    out_scale=np.float64(qt.qparams.scale),
                    out_shift=None,
                    bits=qt.bits,
                    param_name=name,
                    post=post,
                )
        weight = weight_value.data.T if pre_transposed else weight_value.data
        return LinearStep(
            out=out_slot,
            x=lhs_value,
            weight=np.ascontiguousarray(weight),
            out_scale=None,
            out_shift=None,
            bits=32,
            param_name=origin[0] if origin is not None else "<matmul>",
            post=post,
        )
    return MatmulStep(out_slot, refs[0], refs[1], post=post)
