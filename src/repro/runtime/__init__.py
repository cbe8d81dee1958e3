"""Compiled inference runtime: IR -> passes -> memory plan -> executor.

Splits execution from autograd as a four-layer compiler pipeline:

* :mod:`repro.runtime.ir` -- one traced forward pass becomes an explicit
  :class:`~repro.runtime.ir.Graph` of typed values and nodes;
* :mod:`repro.runtime.passes` -- a :class:`~repro.runtime.passes.PassManager`
  runs named, individually toggleable optimisation passes (constant
  folding, affine fusion, kernel-variant selection), all byte-exact;
* :mod:`repro.runtime.variants` -- a registry of byte-exact convolution
  implementations, each admitted by a geometry predicate, from which the
  ``select_kernels`` pass takes the highest-ranked applicable one;
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
from repro.runtime.passes import (
    DEFAULT_PASSES,
    PassManager,
    PipelineReport,
    available_passes,
    resolve_passes,
)
from repro.runtime.plan import compile_lock, compile_plan, compile_quantized_plan
from repro.runtime.variants import (
    KernelDesc,
    KernelVariant,
    available_variants,
    register_variant,
)

__all__ = [
    "DEFAULT_PASSES",
    "ExecutionContext",
    "ExecutionPlan",
    "Graph",
    "KernelDesc",
    "KernelVariant",
    "MemoryPlan",
    "Node",
    "PassManager",
    "PipelineReport",
    "PlanCache",
    "PlanCompileError",
    "PlanMemoryStats",
    "Value",
    "architecture_fingerprint",
    "available_passes",
    "available_variants",
    "compile_lock",
    "compile_plan",
    "compile_quantized_plan",
    "plan_memory",
    "register_variant",
    "resolve_passes",
]
