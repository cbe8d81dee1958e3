"""Optimizing passes over the runtime graph IR.

A *pass* is a graph-to-graph rewrite.  The :class:`PassManager` runs the
fixed pipeline, :data:`PIPELINE` (``fold_constants`` -> ``fuse_affine`` ->
``select_kernels``), and records a :class:`PipelineReport` (node counts and
a one-line detail per pass) that compiled plans expose through
``describe_pipeline()``.  A plan compiles either through the whole
pipeline or, with ``optimize=False``, through none of it: the reference
interpreter every optimised plan is tested against.

Every pass is **byte-exact**: it may remove or fuse nodes, but the final
executed arithmetic -- the ufunc sequence and its operands -- is
unchanged.  Constant folding reuses the traced probe activations (computed
by the very kernels the runtime replays), and affine fusion carries the
absorbed operations as ordered :class:`~repro.runtime.ir.ElemOp` micro-ops
that the executor replays in place rather than collapsing them into a
rescaled weight.  The pipeline therefore changes plan *shape* (steps,
buffers), never plan *output*; the test-suite asserts byte-identical
logits between every registry model's optimised and ``optimize=False``
plans.

A pass stays in the pipeline only while it changes some registry model's
plan (``tests/runtime/test_passes.py`` checks each one).

The passes, in pipeline order:

``fold_constants``
    Replace every node whose inputs are all constants with a baked constant
    (the batch-norm ``sqrt(var + eps)`` chain, parameter transposes, ...),
    propagating parameter provenance through 2-D transposes so the
    quantised lowering still finds its integer codes.
``fuse_affine``
    Absorb per-channel affine elementwise ops (eval-mode batch norm,
    bias adds, negation) and unary activation epilogues (ReLU, clamp,
    sigmoid, ...) into the producing conv / matmul node whenever the
    producer's result has exactly one consumer -- the classic
    conv+BN+activation kernel fusion, replayed in place.
``select_kernels``
    Annotate every conv node with the variant the executor should run
    (``attrs["kernel_variant"]``):
    :func:`~repro.runtime.variants.served_variant` of the node's geometry.
    Runs after fusion (so the final kernel call sites are known) and before
    memory planning (which is unaffected: every variant writes the same
    scratch shape).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.runtime import variants as kernel_variants
from repro.runtime.ir import CHAIN, ElemOp, Graph, Node, UNARY_ELEMENTWISE
from repro.runtime.variants import KernelDesc

#: Elementwise operations the affine-fusion pass absorbs into producers:
#: the affine family (eval-mode batch norm, bias adds, negation) plus the
#: unary activations -- a sole-consumer ReLU / clamp / sigmoid after a
#: conv or matmul becomes an in-place kernel epilogue, the classic
#: conv+BN+activation fusion.
AFFINE_OPS = frozenset({"add", "sub", "mul", "div"}) | frozenset(UNARY_ELEMENTWISE)

#: Producers that accept absorbed post-ops (lowered to kernel steps with an
#: in-place epilogue).
_AFFINE_PRODUCERS = frozenset({"conv2d", "matmul"})


# --------------------------------------------------------------------------- #
# Individual passes.  Each mutates the graph and returns a one-line detail.
# --------------------------------------------------------------------------- #
def fold_constants(graph: Graph) -> str:
    """Bake every node whose inputs are all constants into a constant."""
    folded = 0
    kept: List[Node] = []
    for node in graph.nodes:
        foldable = (
            node.inputs
            and not node.post
            and all(value.kind == "const" for value in node.inputs)
        )
        if not foldable:
            kept.append(node)
            continue
        out = node.output
        out.kind = "const"
        # Copy: traced outputs of reshape/transpose are views of live
        # parameters, and baked constants must be snapshots.
        out.data = np.array(out.traced, copy=True)
        out.traced = out.data
        out.batch_poly = False
        if node.op == "transpose":
            source = node.inputs[0]
            axes = tuple(node.attrs.get("axes", ()))
            if source.origin is not None and len(source.shape) == 2 and axes == (1, 0):
                name, transposed = source.origin
                out.origin = (name, not transposed)
        folded += 1
    graph.nodes = kept
    return f"folded {folded} constant nodes"


def fuse_affine(graph: Graph) -> str:
    """Absorb sole-consumer affine ops and activations into conv/matmul nodes."""
    fused = 0
    changed = True
    while changed:
        changed = False
        consumers = graph.consumers()
        def_pos = {node.output.vid: index for index, node in enumerate(graph.nodes)}
        for index, node in enumerate(graph.nodes):
            if node.op not in _AFFINE_PRODUCERS:
                continue
            out = node.output
            if out.vid == graph.output.vid:
                continue
            readers = consumers.get(out.vid, [])
            if len(readers) != 1:
                continue
            consumer = readers[0]
            if consumer.op not in AFFINE_OPS or consumer.post:
                continue
            if consumer.output.shape != out.shape:
                continue
            # The absorbed op executes at the producer's position: any
            # runtime operand must already be defined there.
            operands_ready = all(
                value.kind != "node" or def_pos.get(value.vid, 1 << 30) < index
                for value in consumer.inputs
                if value.vid != out.vid
            )
            if not operands_ready:
                continue
            node.post.append(
                ElemOp(
                    op=consumer.op,
                    inputs=tuple(
                        CHAIN if value.vid == out.vid else value
                        for value in consumer.inputs
                    ),
                    ctx=dict(consumer.attrs),
                )
            )
            node.output = consumer.output
            graph.nodes.remove(consumer)
            fused += 1
            changed = True
            break
    return f"absorbed {fused} affine ops into producers"


# --------------------------------------------------------------------------- #
# Kernel selection
# --------------------------------------------------------------------------- #
def _conv_desc(node: Node) -> Optional[KernelDesc]:
    """Descriptor of a conv node over a baked weight, or ``None``."""
    if len(node.inputs) < 2 or node.inputs[0].kind == "const":
        return None
    weight_value = node.inputs[1]
    if weight_value.kind != "const":
        return None
    return KernelDesc(
        x_shape=tuple(node.inputs[0].shape[1:]),
        kernel_size=tuple(weight_value.shape[2:]),
        stride=tuple(node.attrs["stride"]),
        padding=tuple(node.attrs["padding"]),
        out_channels=int(weight_value.shape[0]),
    )


def select_kernels(graph: Graph) -> str:
    """Annotate every conv node with the variant served at its geometry.

    Every variant is byte-exact against the reference where it is
    admitted (the rule of :mod:`repro.runtime.variants`), so this pass --
    like every other -- changes plan *speed*, never plan *output*.
    Selection is a predicate sweep over the node's static geometry: no
    measurement.
    """
    annotated = 0
    for node in graph.nodes:
        if node.op != "conv2d":
            continue
        desc = _conv_desc(node)
        if desc is None:
            continue
        node.attrs["kernel_variant"] = kernel_variants.served_variant(desc)
        annotated += 1
    return f"selected variants for {annotated} conv nodes"


# --------------------------------------------------------------------------- #
# Pass manager
# --------------------------------------------------------------------------- #
#: The pipeline, in order: fold first (so fusion sees baked per-channel
#: constants), then pick a conv variant for every surviving call site.
PIPELINE = (fold_constants, fuse_affine, select_kernels)


@dataclass(frozen=True)
class PassRecord:
    """Outcome of one pass: node counts around it plus a one-line detail."""

    name: str
    nodes_before: int
    nodes_after: int
    detail: str


@dataclass
class PipelineReport:
    """Pass-by-pass account of one compilation, attached to the plan."""

    passes: List[PassRecord]
    initial_nodes: int
    final_nodes: int

    def describe(self) -> str:
        lines = [f"trace: {self.initial_nodes} nodes"]
        for record in self.passes:
            lines.append(
                f"pass {record.name}: {record.nodes_before} -> "
                f"{record.nodes_after} nodes ({record.detail})"
            )
        return "\n".join(lines)


class PassManager:
    """Runs the fixed pass pipeline, :data:`PIPELINE`, over a graph."""

    def run(self, graph: Graph) -> PipelineReport:
        """Run every pass in order, mutating ``graph``."""
        records: List[PassRecord] = []
        initial = graph.num_nodes()
        for rewrite in PIPELINE:
            before = graph.num_nodes()
            detail = rewrite(graph)
            records.append(
                PassRecord(
                    name=rewrite.__name__,
                    nodes_before=before,
                    nodes_after=graph.num_nodes(),
                    detail=detail,
                )
            )
        return PipelineReport(
            passes=records, initial_nodes=initial, final_nodes=graph.num_nodes()
        )
