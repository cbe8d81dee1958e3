"""Static memory planning for compiled plans.

The executor's hot steps (convolutions, dense matmuls, elementwise ops)
write into scratch buffers.  Before this planner, every step owned one
private buffer in its :class:`~repro.runtime.executor.ExecutionContext`, so
a context's steady-state footprint was the *sum* of all step outputs even
though most of them are dead moments after they are produced.

The planner replaces that with classic compiler memory allocation over the
optimized graph:

1. **liveness analysis** -- each scratch-backed value is live from the node
   that defines it to the last node that reads it (the graph output lives
   to the end; ``reshape``/``transpose`` produce numpy *views*, so they
   extend the lifetime of their input's backing buffer);
2. **slot-reuse coloring** -- a greedy interval-coloring assigns values
   whose live ranges never overlap (endpoints inclusive, so a step never
   writes the buffer it is reading) to the same buffer color;
3. **arena layout** -- each context preallocates one contiguous byte arena
   sized from the colors for its batch size; steps take 64-byte-aligned
   views into it instead of allocating.

:class:`PlanMemoryStats` reports the planned arena bytes against the
per-step scratch baseline, which is how the benchmarks assert the planner
actually shrinks steady-state serving memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.runtime.ir import ELEMENTWISE_OPS, VIEW_OPS, Graph, Node, matmul_linear_info

#: Arena view alignment (bytes).  Generous for any SIMD the BLAS uses.
_ALIGN = 64


def _align(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN


def _scratch_sizes(node: Node, probe_batch: int) -> Tuple[int, int]:
    """(per_sample_bytes, fixed_bytes) of the node's scratch buffer.

    Exactly one of the two is non-zero: batch-polymorphic values scale with
    the live batch, everything else is a fixed allocation.
    """
    value = node.output
    if value.batch_poly:
        return value.nbytes() // probe_batch, 0
    return 0, value.nbytes()


def node_uses_arena(node: Node, producers: Dict[int, Node]) -> bool:
    """Whether the step lowered from ``node`` writes into the shared arena.

    Mirrors the executor's lowering: convolutions and elementwise steps
    always use scratch; a matmul does when it lowers to the
    dense :class:`~repro.runtime.executor.LinearStep` fast path (2-D
    float64 input against a baked weight).  Pooling, reductions, views and
    general matmuls allocate (or alias) outside the arena.
    """
    if node.op == "conv2d":
        return True
    if node.op in ELEMENTWISE_OPS:
        return True
    if node.op == "matmul":
        info = matmul_linear_info(node, producers)
        return (
            info is not None
            and len(node.inputs[0].shape) == 2
            and np.dtype(node.output.dtype) == np.float64
        )
    return False


@dataclass(frozen=True)
class PlanMemoryStats:
    """Planned-vs-unplanned scratch accounting of one compiled plan.

    ``scratch_*`` fields describe the per-step baseline (one private buffer
    per scratch-writing step, the pre-planner behaviour); ``arena_*``
    fields describe the colored arena.  Byte totals split into a
    batch-scaled component and a fixed component; use :meth:`scratch_bytes`
    / :meth:`arena_bytes` for the totals at a concrete batch size.

    Batch-scaled components never drop below their traced (probe-batch)
    size: batch-polymorphism is detected by the leading dimension equalling
    the probe batch, so a fixed-shape value that merely *looks* like a
    batch (leading dim == probe batch) still gets its full allocation at
    every runtime batch size.
    """

    num_values: int
    num_buffers: int
    scratch_per_sample: int
    scratch_fixed: int
    arena_per_sample: int
    arena_fixed: int
    probe_batch: int = 1

    def _effective_batch(self, batch_size: int) -> int:
        return max(int(batch_size), self.probe_batch)

    def scratch_bytes(self, batch_size: int = 1) -> int:
        """Per-step scratch baseline at ``batch_size`` (no planning)."""
        return self.scratch_per_sample * self._effective_batch(batch_size) + self.scratch_fixed

    def arena_bytes(self, batch_size: int = 1) -> int:
        """Planned arena footprint at ``batch_size`` (aligned layout)."""
        return self.arena_per_sample * self._effective_batch(batch_size) + self.arena_fixed

    def describe(self, batch_size: int = 1) -> str:
        planned = self.arena_bytes(batch_size)
        baseline = self.scratch_bytes(batch_size)
        saved = 100.0 * (1.0 - planned / baseline) if baseline else 0.0
        return (
            f"memory: {self.num_values} scratch values -> {self.num_buffers} "
            f"buffers; arena {planned / 1024:.1f} KiB vs {baseline / 1024:.1f} "
            f"KiB unplanned at batch {batch_size} ({saved:.0f}% saved)"
        )


@dataclass
class MemoryPlan:
    """Buffer coloring of one graph: which step writes into which slot.

    ``color_of_node[i]`` is the arena color of the step lowered from node
    ``i`` (absent: the step does not use the arena).  ``intervals`` keeps
    the live range ``(def_index, last_use_index)`` of every colored value
    for introspection and the planner's own invariant tests.
    """

    color_of_node: Dict[int, int]
    #: Per color: (per_sample_bytes, fixed_bytes); the color's size at
    #: batch N is ``max(per_sample * max(N, probe_batch), fixed)``.
    color_sizes: List[Tuple[int, int]]
    intervals: Dict[int, Tuple[int, int]]
    stats: PlanMemoryStats
    #: The traced batch size.  Batch-scaled buffers are never laid out
    #: below ``per_sample * probe_batch``: polymorphism detection keys on
    #: the leading dim equalling the probe batch, so a fixed-shape value
    #: misdetected as batch-scaled is still fully covered at any runtime
    #: batch (a true batch value merely over-allocates below the probe).
    probe_batch: int = 1

    @property
    def num_buffers(self) -> int:
        return len(self.color_sizes)

    def color_bytes(self, color: int, batch_size: int) -> int:
        per_sample, fixed = self.color_sizes[color]
        return max(per_sample * max(int(batch_size), self.probe_batch), fixed)

    def layout(self, batch_size: int) -> Tuple[List[int], int]:
        """Aligned byte offsets of every color plus the arena total."""
        offsets: List[int] = []
        cursor = 0
        for color in range(len(self.color_sizes)):
            offsets.append(cursor)
            cursor += _align(self.color_bytes(color, batch_size))
        return offsets, cursor


def plan_memory(graph: Graph) -> MemoryPlan:
    """Liveness analysis + greedy interval coloring over ``graph``."""
    producers = graph.producers()
    nodes = graph.nodes
    horizon = len(nodes)

    # Alias roots: a view's output shares its input's backing buffer, so
    # uses of the view pin the root value.
    root_of: Dict[int, int] = {}

    def resolve_root(vid: int) -> int:
        return root_of.get(vid, vid)

    last_use: Dict[int, int] = {}
    for index, node in enumerate(nodes):
        for value in node.input_values():
            if value.kind == "node":
                last_use[resolve_root(value.vid)] = index
        out = node.output
        if node.op in VIEW_OPS and node.inputs and node.inputs[0].kind == "node":
            root_of[out.vid] = resolve_root(node.inputs[0].vid)
    # The graph output is read after the last step (copied out of the env).
    last_use[resolve_root(graph.output.vid)] = horizon

    color_of_node: Dict[int, int] = {}
    color_sizes: List[Tuple[int, int]] = []
    color_free_at: List[int] = []  # last index at which the color is busy
    intervals: Dict[int, Tuple[int, int]] = {}
    scratch_per_sample = 0
    scratch_fixed = 0
    num_values = 0

    for index, node in enumerate(nodes):
        if not node_uses_arena(node, producers):
            continue
        vid = node.output.vid
        start = index
        end = last_use.get(resolve_root(vid), index)
        per_sample, fixed = _scratch_sizes(node, graph.probe_batch)
        scratch_per_sample += per_sample
        scratch_fixed += fixed
        num_values += 1
        chosen: Optional[int] = None
        for color in range(len(color_sizes)):
            # Strict inequality: a color whose last value is read at step
            # ``start`` must not be overwritten by step ``start``.
            if color_free_at[color] < start:
                chosen = color
                break
        if chosen is None:
            chosen = len(color_sizes)
            color_sizes.append((0, 0))
            color_free_at.append(-1)
        old_ps, old_fixed = color_sizes[chosen]
        color_sizes[chosen] = (max(old_ps, per_sample), max(old_fixed, fixed))
        color_free_at[chosen] = max(color_free_at[chosen], end)
        color_of_node[index] = chosen
        intervals[index] = (start, end)

    arena_per_sample = sum(_align(per_sample) for per_sample, _ in color_sizes)
    # Alignment padding of fixed-size colors lands in the fixed component;
    # for batch-scaled colors it is approximated per-sample (exact layout
    # comes from ``MemoryPlan.layout``, stats are for reporting).
    arena_fixed = sum(_align(fixed) for _, fixed in color_sizes if fixed)
    stats = PlanMemoryStats(
        num_values=num_values,
        num_buffers=len(color_sizes),
        scratch_per_sample=scratch_per_sample,
        scratch_fixed=scratch_fixed,
        arena_per_sample=arena_per_sample,
        arena_fixed=arena_fixed,
        probe_batch=graph.probe_batch,
    )
    return MemoryPlan(
        color_of_node=color_of_node,
        color_sizes=color_sizes,
        intervals=intervals,
        stats=stats,
        probe_batch=graph.probe_batch,
    )
