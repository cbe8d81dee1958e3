"""Compiled inference runtime: IR -> passes -> memory plan -> executor.

Splits execution from autograd as a four-layer compiler pipeline:

* :mod:`repro.runtime.ir` -- one traced forward pass becomes an explicit
  :class:`~repro.runtime.ir.Graph` of typed values and nodes;
* :mod:`repro.runtime.passes` -- a :class:`~repro.runtime.passes.PassManager`
  runs the fixed optimisation pipeline (constant folding, affine fusion,
  conv variant selection), every pass byte-exact; ``optimize=False``
  compiles the raw trace instead, the reference every optimised plan
  matches byte for byte;
* :mod:`repro.runtime.variants` -- four byte-exact convolution variants,
  each admitted by geometry predicates; the ``select_kernels`` pass takes
  :func:`~repro.runtime.variants.served_variant` of each conv's geometry;
* :mod:`repro.runtime.memory` -- liveness analysis and slot-reuse coloring
  place every scratch buffer in one preallocated per-context arena
  (:class:`~repro.runtime.memory.PlanMemoryStats` reports the savings);
* :mod:`repro.runtime.executor` -- each node lowers to one grad-free kernel
  step of an immutable :class:`~repro.runtime.executor.ExecutionPlan`.

:func:`~repro.runtime.plan.compile_plan` lowers any
:class:`~repro.nn.module.Module`; :func:`~repro.runtime.plan.compile_quantized_plan`
builds the variant that executes a
:class:`~repro.quant.deploy.QuantizedModelExport` directly from its integer
codes.  Plans are immutable compiled artifacts; all per-execution mutable
state (the slot environment and the arena) lives in an
:class:`~repro.runtime.executor.ExecutionContext` that ``run`` borrows, so
one plan executes concurrently from any number of threads.  Compilation is
serialised process-wide; :class:`~repro.runtime.cache.PlanCache` compiles
each export (keyed by content hash, architecture and input shape) exactly
once under concurrent lookups.  The serving layer in
:mod:`repro.serve` runs these plans.
"""

from repro.runtime.cache import PlanCache, architecture_fingerprint
from repro.runtime.executor import ExecutionContext, ExecutionPlan
from repro.runtime.ir import Graph, Node, PlanCompileError, Value
from repro.runtime.memory import MemoryPlan, PlanMemoryStats, plan_memory
from repro.runtime.passes import PassManager, PipelineReport
from repro.runtime.plan import compile_lock, compile_plan, compile_quantized_plan
from repro.runtime.variants import KernelDesc

__all__ = [
    "ExecutionContext",
    "ExecutionPlan",
    "Graph",
    "KernelDesc",
    "MemoryPlan",
    "Node",
    "PassManager",
    "PipelineReport",
    "PlanCache",
    "PlanCompileError",
    "PlanMemoryStats",
    "Value",
    "architecture_fingerprint",
    "compile_lock",
    "compile_plan",
    "compile_quantized_plan",
    "plan_memory",
]
