"""Graph IR for the inference runtime.

The compiler front-end traces one forward pass of a model
(:func:`repro.tensor.trace_ops`) and translates the flat record list into an
explicit graph of :class:`Node` objects over SSA :class:`Value` objects.
Every downstream stage operates on this IR:

* :mod:`repro.runtime.passes` rewrites the graph (constant folding, affine
  fusion into conv/linear producers, kernel-variant selection);
* :mod:`repro.runtime.memory` runs liveness analysis over the final graph
  and colors values into a shared buffer arena;
* :mod:`repro.runtime.executor` lowers each node to one kernel step.

Values carry their traced shape, dtype and probe activation.  The traced
arrays make the IR self-evaluating: a pass that proves a node's inputs
constant can materialise the node's value without re-running any kernel,
because the traced forward already computed it -- and computed it with
exactly the arithmetic the runtime would use, which is what keeps optimised
and unoptimised plans byte-identical.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Binary elementwise operations the runtime lowers to numpy ufuncs.
BINARY_ELEMENTWISE = ("add", "sub", "mul", "div")
#: Unary elementwise operations (ufuncs plus the kernel-backed activations).
UNARY_ELEMENTWISE = (
    "neg", "exp", "log", "sqrt", "abs", "tanh", "relu", "clamp", "pow", "sigmoid"
)
#: All elementwise operations (each lowers to one arena-writing step).
ELEMENTWISE_OPS = frozenset(BINARY_ELEMENTWISE) | frozenset(UNARY_ELEMENTWISE)

#: Operations whose output is a numpy view of their input: they extend the
#: lifetime of the input's backing buffer (see :mod:`repro.runtime.memory`).
VIEW_OPS = frozenset({"reshape", "transpose"})


class PlanCompileError(RuntimeError):
    """Raised when a model cannot be lowered to a static plan."""


class _Chain:
    """Sentinel operand: the running value of a fused epilogue."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<chain>"


#: The chain sentinel used inside :class:`ElemOp` operand tuples.
CHAIN = _Chain()


@dataclass(eq=False)
class Value:
    """One SSA value: a graph input, a baked constant, or a node output.

    Attributes
    ----------
    vid:
        Unique id within the graph.
    kind:
        ``"input"`` (the probe input), ``"const"`` (parameters, buffers and
        folded subtrees -- ``data`` holds a snapshot copy), or ``"node"``
        (produced by a :class:`Node` at run time).
    shape / dtype:
        Static type of the value, read off the traced probe forward.
    data:
        Constant payload (``kind == "const"`` only); always an owned copy,
        never a view of live model parameters.
    traced:
        The probe-forward activation of this value (any kind).  Dropped
        with the graph after lowering; passes use it to fold constants.
    origin:
        ``(param_name, transposed)`` provenance for constants that are a
        model parameter or a 2-D transpose of one, so the quantised
        lowering can substitute integer codes.
    batch_poly:
        The leading dimension is the probe batch: at run time it scales
        with the live batch size.
    """

    vid: int
    kind: str
    shape: Tuple[int, ...]
    dtype: np.dtype
    data: Optional[np.ndarray] = None
    traced: Optional[np.ndarray] = None
    origin: Optional[Tuple[str, bool]] = None
    batch_poly: bool = False

    def nbytes(self) -> int:
        """Static size of the value at the traced (probe) batch."""
        size = int(np.prod(self.shape)) if self.shape else 1
        return size * np.dtype(self.dtype).itemsize


@dataclass
class ElemOp:
    """One fused elementwise micro-operation.

    ``inputs`` holds :class:`Value` operands and/or the :data:`CHAIN`
    sentinel standing for the running value (the producer's raw output,
    as updated by the micro-ops before this one).  Execution replays the
    micro-ops in recorded order with the same ufuncs the standalone steps
    would have used, which keeps fusion byte-identical.
    """

    op: str
    inputs: Tuple[object, ...]
    ctx: Dict[str, object] = field(default_factory=dict)

    def value_inputs(self) -> List[Value]:
        return [operand for operand in self.inputs if isinstance(operand, Value)]


@dataclass
class Node:
    """One traced operation: reads ``inputs``, produces ``output``.

    ``post`` holds elementwise micro-ops absorbed into this node by the
    affine-fusion pass (applied in order to the node's raw result).
    """

    op: str
    inputs: List[Value]
    output: Value
    attrs: Dict[str, object] = field(default_factory=dict)
    post: List[ElemOp] = field(default_factory=list)

    def input_values(self) -> List[Value]:
        """Every value this node reads, including fused micro-op operands."""
        values = list(self.inputs)
        for elem in self.post:
            values.extend(elem.value_inputs())
        return values

    def describe(self) -> str:  # pragma: no cover - debugging aid
        extra = f" +{len(self.post)}post" if self.post else ""
        return f"{self.op}{extra}"


@dataclass
class Graph:
    """An ordered (topological) operation graph traced from one model."""

    input: Value
    nodes: List[Node]
    output: Value
    probe_batch: int
    source: str = ""

    def producers(self) -> Dict[int, Node]:
        """Map each node-produced value id to its producing node."""
        return {node.output.vid: node for node in self.nodes}

    def consumers(self) -> Dict[int, List[Node]]:
        """Map each value id to the nodes that read it (fused operands too)."""
        table: Dict[int, List[Node]] = {}
        for node in self.nodes:
            for value in node.input_values():
                table.setdefault(value.vid, []).append(node)
        return table

    def op_histogram(self) -> Counter:
        """Node count per operation name."""
        return Counter(node.op for node in self.nodes)

    def num_nodes(self) -> int:
        return len(self.nodes)


def build_graph(
    records: Sequence,
    probe_tensor,
    traced_out,
    param_names: Dict[int, str],
    source: str = "",
) -> Graph:
    """Translate one :func:`~repro.tensor.trace_ops` record list into a Graph.

    Every record becomes a :class:`Node`; tensors first seen as operands
    become ``"const"`` values (model parameters get their ``origin``
    stamped, and the payload is always a snapshot copy so later training
    cannot reach a compiled plan).  No folding or optimisation happens
    here -- the builder's output is the unoptimised reference graph.
    """
    if not records:
        raise PlanCompileError("model forward recorded no operations")

    probe = probe_tensor.data
    counter = iter(range(1, 1 << 30))
    values: Dict[int, Value] = {}
    input_value = Value(
        vid=0,
        kind="input",
        shape=tuple(probe.shape),
        dtype=np.dtype(probe.dtype),
        traced=probe,
        batch_poly=True,
    )
    values[id(probe_tensor)] = input_value
    probe_batch = int(probe.shape[0])

    def value_of(tensor) -> Value:
        known = values.get(id(tensor))
        if known is not None:
            return known
        data = np.array(tensor.data, copy=True)
        name = param_names.get(id(tensor))
        const = Value(
            vid=next(counter),
            kind="const",
            shape=tuple(data.shape),
            dtype=np.dtype(data.dtype),
            data=data,
            traced=data,
            origin=(name, False) if name is not None else None,
        )
        values[id(tensor)] = const
        return const

    nodes: List[Node] = []
    for record in records:
        inputs = [value_of(parent) for parent in record.parents]
        out_data = record.out.data
        out = Value(
            vid=next(counter),
            kind="node",
            shape=tuple(out_data.shape),
            dtype=np.dtype(out_data.dtype),
            traced=out_data,
            batch_poly=bool(out_data.ndim > 0 and out_data.shape[0] == probe_batch),
        )
        values[id(record.out)] = out
        nodes.append(Node(op=record.op, inputs=inputs, output=out, attrs=dict(record.ctx)))

    output_value = values.get(id(traced_out))
    if output_value is None:
        raise PlanCompileError("model output does not depend on the input")
    return Graph(
        input=input_value,
        nodes=nodes,
        output=output_value,
        probe_batch=probe_batch,
        source=source,
    )


def matmul_linear_info(node: Node, producers: Dict[int, Node]) -> Optional[Tuple[Value, bool]]:
    """Detect a matmul that lowers to a dense linear layer.

    Returns ``(weight_value, pre_transposed)`` when ``node`` multiplies a
    runtime value by a baked weight: either the rhs is itself a constant
    (``pre_transposed=False``), or the rhs is produced by a 2-D transpose
    node over a constant (``pre_transposed=True`` -- the lowering applies
    the transpose to the baked matrix; ``fold_constants`` bakes the
    transpose away when it runs).  Returns ``None`` for general matmuls.
    """
    if len(node.inputs) != 2:
        return None
    lhs, rhs = node.inputs
    if lhs.kind == "const":
        return None
    if rhs.kind == "const":
        return rhs, False
    producer = producers.get(rhs.vid)
    if (
        producer is not None
        and producer.op == "transpose"
        and len(producer.inputs) == 1
        and producer.inputs[0].kind == "const"
        and len(producer.inputs[0].shape) == 2
        and tuple(producer.attrs.get("axes", ())) == (1, 0)
        and not producer.post
    ):
        return producer.inputs[0], True
    return None
