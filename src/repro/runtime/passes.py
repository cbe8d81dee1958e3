"""Optimizing passes over the runtime graph IR.

A *pass* is a named graph-to-graph rewrite.  The :class:`PassManager` runs a
configurable sequence of them and records a :class:`PipelineReport` (node
counts and a one-line detail per pass) that compiled plans expose through
``describe_pipeline()``.

Every pass is **byte-exact**: it may remove or fuse nodes, but the final
executed arithmetic -- the ufunc sequence and its operands -- is
unchanged.  Constant folding reuses the traced probe activations (computed
by the very kernels the runtime replays), and affine fusion carries the
absorbed operations as ordered :class:`~repro.runtime.ir.ElemOp` micro-ops
that the executor replays in place rather than collapsing them into a
rescaled weight.  Disabling any subset of passes therefore changes plan
*shape* (steps, buffers), never plan *output*; the test-suite asserts
byte-identical logits across every single-pass-disabled configuration.

A pass stays in the pipeline only while it changes some registry model's
plan (``tests/runtime/test_passes.py`` checks each one).

Available passes (in default order):

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
    Annotate every conv / linear / pool node with the kernel variant the
    executor should lower it to (``attrs["kernel_variant"]``), chosen from
    the byte-exact implementations in :mod:`repro.runtime.variants` --
    autotuned when a :mod:`~repro.runtime.tuning` tuner is in scope,
    ranked heuristic otherwise.  Runs after fusion (so the final kernel
    call sites are known) and before memory planning (which is
    unaffected: every variant writes the same scratch shape).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.runtime import variants as kernel_variants
from repro.runtime.ir import (
    CHAIN,
    ElemOp,
    Graph,
    Node,
    UNARY_ELEMENTWISE,
    matmul_linear_info,
)
from repro.runtime.tuning import active_tuning
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
def _quantized_weight(export, name: Optional[str]):
    if export is None or name is None:
        return None
    return export.quantized.get(name)


def _conv_site(node: Node, export):
    """(desc, baked weight matrix) of a conv node, or ``None``."""
    if len(node.inputs) < 2 or node.inputs[0].kind == "const":
        return None
    weight_value = node.inputs[1]
    if weight_value.kind != "const":
        return None
    out_channels = int(weight_value.shape[0])
    name = weight_value.origin[0] if weight_value.origin is not None else None
    qt = _quantized_weight(export, name)
    if qt is not None:
        matrix = kernel_variants.centred_codes(qt).reshape(out_channels, -1)
        bits = qt.bits
    else:
        matrix = weight_value.data.reshape(out_channels, -1)
        bits = 32
    desc = KernelDesc(
        op="conv2d",
        x_shape=tuple(node.inputs[0].shape[1:]),
        kernel_size=tuple(weight_value.shape[2:]),
        stride=tuple(node.attrs["stride"]),
        padding=tuple(node.attrs["padding"]),
        out_channels=out_channels,
        weight_dtype=str(matrix.dtype),
        bits=bits,
    )
    return desc, matrix


def _linear_site(node: Node, producers: Dict[int, Node], export):
    """(desc, baked (in, out) weight) of a linear-lowered matmul, or ``None``."""
    info = matmul_linear_info(node, producers)
    if info is None or node.inputs[0].kind == "const":
        return None
    weight_value, pre_transposed = info
    qt = None
    if weight_value.origin is not None:
        name, origin_transposed = weight_value.origin
        qt = _quantized_weight(export, name)
    if qt is not None:
        weight = kernel_variants.centred_codes(qt)
        if origin_transposed != pre_transposed:
            weight = weight.T
        bits = qt.bits
    else:
        weight = weight_value.data.T if pre_transposed else weight_value.data
        bits = 32
    desc = KernelDesc(
        op="linear",
        x_shape=tuple(node.inputs[0].shape[1:]),
        out_channels=int(weight.shape[1]),
        weight_dtype=str(weight.dtype),
        bits=bits,
    )
    return desc, weight


def _pool_site(node: Node):
    """Descriptor of a pooling node, or ``None``."""
    if node.inputs[0].kind == "const" or len(node.inputs[0].shape) != 4:
        return None
    return KernelDesc(
        op=node.op,
        x_shape=tuple(node.inputs[0].shape[1:]),
        kernel_size=tuple(node.attrs["kernel_size"]),
        stride=tuple(node.attrs["stride"]),
    )


_RACE_BATCH = 16
"""Batch size candidate races are measured at.

Plans are traced at a tiny probe batch, but variants are ranked by how they
serve: per-call overheads (Python dispatch, ctypes marshalling in the native
kernels) that dominate at batch 2 amortise away at realistic batches, and a
winner picked at the probe batch can lose where it matters.  Races therefore
tile the traced activations up to this batch before timing.
"""


def _race_input(x: np.ndarray) -> np.ndarray:
    """The traced probe activations, tiled up to :data:`_RACE_BATCH`."""
    if x.shape[0] >= _RACE_BATCH:
        return x
    reps = -(-_RACE_BATCH // x.shape[0])
    return np.concatenate([x] * reps, axis=0)[:_RACE_BATCH]


def _conv_runner_factory(node: Node, desc: KernelDesc, matrix: np.ndarray):
    x = _race_input(node.inputs[0].traced)
    out_h, out_w = kernels.conv_output_hw(
        desc.x_shape[1], desc.x_shape[2], desc.kernel_size, desc.stride, desc.padding
    )
    scratch = np.empty(
        (x.shape[0], desc.out_channels, out_h * out_w), dtype=np.float64
    )
    # Packed once, as the lowering does: every variant races the same weight.
    weight_exec = kernels.pack_weight_matrix(matrix)

    def make_runner(name: str):
        return lambda: kernel_variants.run_conv(
            name, x, weight_exec, desc.kernel_size, desc.stride, desc.padding,
            out=scratch,
        )

    return make_runner


def _linear_runner_factory(node: Node, desc: KernelDesc, weight: np.ndarray):
    x = _race_input(node.inputs[0].traced)
    scratch = np.empty((x.shape[0], weight.shape[1]), dtype=np.float64) \
        if x.ndim == 2 else None
    weight_exec = kernels.pack_weight_matrix(weight)

    def make_runner(name: str):
        return lambda: kernel_variants.run_linear(name, x, weight_exec, out=scratch)

    return make_runner


def _pool_runner_factory(node: Node, desc: KernelDesc):
    x = _race_input(node.inputs[0].traced)

    def make_runner(name: str):
        return lambda: kernel_variants.run_pool(
            desc.op, name, x, desc.kernel_size, desc.stride
        )

    return make_runner


def select_kernels(graph: Graph) -> str:
    """Annotate conv / linear / pool nodes with their chosen kernel variant.

    Every candidate is byte-exact against the reference lowering (the
    admission rule of :mod:`repro.runtime.variants`), so this pass -- like
    every other -- changes plan *speed*, never plan *output*.  With a
    tuner in scope (see :func:`repro.runtime.tuning.tuning_scope`) choices
    are micro-benchmarked on the traced probe activations (tiled up to
    :data:`_RACE_BATCH` so per-call overheads are weighed as they amortise
    in serving, not at the tiny trace batch) and persisted;
    without one, the ranked heuristic costs only a predicate sweep.
    """
    tuner, export = active_tuning()
    producers = graph.producers()
    outcome_counts: Dict[str, int] = {"tuned": 0, "cached": 0, "heuristic": 0}
    annotated = 0
    for node in graph.nodes:
        site = None
        if node.op == "conv2d":
            conv = _conv_site(node, export)
            if conv is not None:
                desc, matrix = conv
                site = (desc, lambda: _conv_runner_factory(node, desc, matrix))
        elif node.op == "matmul":
            lin = _linear_site(node, producers, export)
            if lin is not None:
                desc, weight = lin
                site = (desc, lambda: _linear_runner_factory(node, desc, weight))
        elif node.op in ("max_pool2d", "avg_pool2d"):
            desc = _pool_site(node)
            if desc is not None:
                site = (desc, lambda: _pool_runner_factory(node, desc))
        if site is None:
            continue
        desc, factory = site
        candidates = [v.name for v in kernel_variants.applicable_variants(desc)]
        if tuner is None or len(candidates) == 1:
            name = kernel_variants.heuristic_choice(desc)
            provenance = "heuristic"
        else:
            name, provenance = tuner.select(desc, candidates, factory())
        node.attrs["kernel_variant"] = name
        node.attrs["kernel_variant_provenance"] = provenance
        outcome_counts[provenance] += 1
        annotated += 1
    if tuner is not None and tuner.config.cache is not None:
        tuner.config.cache.save()
    detail = ", ".join(
        f"{count} {kind}" for kind, count in outcome_counts.items() if count
    )
    return f"selected variants for {annotated} nodes ({detail or 'none'})"


# --------------------------------------------------------------------------- #
# Pass manager
# --------------------------------------------------------------------------- #
PASS_REGISTRY: Dict[str, Callable[[Graph], str]] = {
    "fold_constants": fold_constants,
    "fuse_affine": fuse_affine,
    "select_kernels": select_kernels,
}

#: Default pipeline: fold first (so fusion sees baked per-channel
#: constants), then pick a kernel variant for every surviving call site.
DEFAULT_PASSES: Tuple[str, ...] = (
    "fold_constants",
    "fuse_affine",
    "select_kernels",
)


def available_passes() -> Tuple[str, ...]:
    """Names accepted by :class:`PassManager` / ``compile_plan(passes=...)``."""
    return tuple(PASS_REGISTRY)


def resolve_passes(
    optimize: bool = True,
    passes: Optional[Sequence[str]] = None,
) -> Tuple[str, ...]:
    """Normalise the compile knobs into a concrete pass tuple.

    ``optimize=False`` disables the whole pipeline (the unoptimised
    reference interpreter).  An explicit ``passes`` sequence wins over the
    default.  The resolved tuple is part of the
    :class:`~repro.runtime.cache.PlanCache` key.
    """
    if not optimize:
        return ()
    selected = DEFAULT_PASSES if passes is None else tuple(passes)
    unknown = [name for name in selected if name not in PASS_REGISTRY]
    if unknown:
        raise ValueError(
            f"unknown pass(es) {unknown!r}; available: {sorted(PASS_REGISTRY)}"
        )
    return selected


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
    """Runs a named, individually-toggleable pass sequence over a graph."""

    def __init__(self, passes: Sequence[str] = DEFAULT_PASSES) -> None:
        unknown = [name for name in passes if name not in PASS_REGISTRY]
        if unknown:
            raise ValueError(
                f"unknown pass(es) {unknown!r}; available: {sorted(PASS_REGISTRY)}"
            )
        self.passes: Tuple[str, ...] = tuple(passes)

    def run(self, graph: Graph) -> PipelineReport:
        """Run every configured pass in order, mutating ``graph``."""
        records: List[PassRecord] = []
        initial = graph.num_nodes()
        for name in self.passes:
            before = graph.num_nodes()
            detail = PASS_REGISTRY[name](graph)
            records.append(
                PassRecord(
                    name=name,
                    nodes_before=before,
                    nodes_after=graph.num_nodes(),
                    detail=detail,
                )
            )
        return PipelineReport(
            passes=records, initial_nodes=initial, final_nodes=graph.num_nodes()
        )
