"""Compile a :class:`~repro.nn.module.Module` into a static execution plan.

Training needs a dynamic autograd graph; inference does not.  The compiler
is a small pipeline over four layers, each in its own module:

1. **trace -> IR** (:mod:`repro.runtime.ir`) -- one traced forward pass
   (:func:`repro.tensor.trace_ops`) becomes an explicit :class:`Graph` of
   typed :class:`Value`/:class:`Node` objects;
2. **optimizing passes** (:mod:`repro.runtime.passes`) -- a
   :class:`~repro.runtime.passes.PassManager` runs the fixed pipeline:
   constant folding, affine fusion into conv/linear kernels, conv variant
   selection.  Every pass is byte-exact: a plan compiled through the
   pipeline and one compiled with ``optimize=False`` (no passes) produce
   bitwise-identical outputs;
3. **memory planning** (:mod:`repro.runtime.memory`) -- liveness analysis
   and slot-reuse coloring lay every scratch buffer out in one preallocated
   per-context arena;
4. **lowering** (:mod:`repro.runtime.executor`) -- each node becomes one
   grad-free kernel step; :func:`compile_quantized_plan` substitutes a
   :class:`~repro.quant.deploy.QuantizedModelExport`'s integer codes for
   conv / linear weights with the affine scale applied at the kernel
   boundary, so there is no dequantise round-trip.

Plans are *snapshots*: weights are copied at compile time, and a plan is
specialised to one per-sample input shape but polymorphic in the batch
dimension.  Executing a plan constructs zero autograd-graph nodes
(asserted in the test-suite via :func:`repro.tensor.graph_nodes_created`).

Plans are also *immutable once compiled*: all mutable execution state (the
slot environment and the arena buffers) lives in an
:class:`~repro.runtime.executor.ExecutionContext`, not on the plan or its
steps.  ``run`` borrows one -- the calling thread's own by default, or an
explicit arena handed in by a worker pool -- so a single compiled plan is
safely shared across any number of threads (each with its own context),
which is what :mod:`repro.serve.workers` relies on.  Compilation, by
contrast, goes through thread-local tracing state in :mod:`repro.tensor`
and must be serialised; :class:`repro.runtime.cache.PlanCache` takes care
of that.
"""

from __future__ import annotations

import threading
from typing import Optional, Tuple

import numpy as np

from repro.nn.module import Module
from repro.quant.deploy import QuantizedModelExport, load_into_model
from repro.runtime.executor import (  # noqa: F401  (re-exported compiled surface)
    AvgPoolStep,
    ConvStep,
    ElementwiseStep,
    ExecutionContext,
    ExecutionPlan,
    LinearStep,
    MatmulStep,
    MaxPoolStep,
    MaxReduceStep,
    ReshapeStep,
    Step,
    SumStep,
    TransposeStep,
    lower_graph,
)
from repro.runtime.ir import PlanCompileError, build_graph  # noqa: F401
from repro.runtime.memory import plan_memory
from repro.runtime.passes import PassManager, PipelineReport
from repro.tensor import Tensor, trace_ops

#: Batch size of the probe input used for tracing.  Any batch size works at
#: run time; batch-polymorphic values are detected by their traced leading
#: dimension equalling the probe batch.
_PROBE_BATCH = 2

#: Tolerance a compiled plan's output must meet against the traced module
#: forward (every compilation checks it on the probe input).
VALIDATION_RTOL = 1e-5
VALIDATION_ATOL = 1e-7

#: Compilation is serialised process-wide: tracing records operations into
#: thread-local state, but :func:`compile_quantized_plan` temporarily loads
#: export values into the *shared* model object, so two concurrent
#: compilations against one model would race on its parameters.  Execution
#: of compiled plans takes no lock and scales across threads.
_COMPILE_LOCK = threading.RLock()


def compile_lock() -> threading.RLock:
    """The process-wide compilation lock.

    Public for callers that must snapshot shared model state consistently
    with respect to in-progress compilations -- e.g. deep-copying a module
    that a concurrent :func:`compile_quantized_plan` is temporarily loading
    export values into.  Hold it only briefly; every compilation in the
    process serialises behind it.
    """
    return _COMPILE_LOCK


def compile_plan(
    model: Module,
    input_shape: Tuple[int, ...],
    *,
    optimize: bool = True,
) -> ExecutionPlan:
    """Compile ``model`` (eval-mode semantics) into a float execution plan.

    Every compile validates: the plan re-runs the probe input and must
    match the traced module output within :data:`VALIDATION_RTOL` /
    :data:`VALIDATION_ATOL`, else :class:`PlanCompileError` is raised.

    Parameters
    ----------
    model:
        The module to lower.  Its current parameters and buffers are baked
        into the plan (a snapshot; recompile after further training).
    input_shape:
        Per-sample input shape, e.g. ``(3, 32, 32)`` or ``(features,)``.
    optimize:
        ``True`` runs the whole pass pipeline; ``False`` runs none of it,
        and the plan interprets the raw trace (the reference the optimised
        plans are tested against, byte for byte).
    """
    return _compile(model, None, input_shape, optimize)


def compile_quantized_plan(
    model: Module,
    export: QuantizedModelExport,
    input_shape: Tuple[int, ...],
    *,
    optimize: bool = True,
) -> ExecutionPlan:
    """Compile a plan that executes a quantised export directly.

    The export's values are loaded into ``model`` (which supplies the
    architecture) for the duration of the trace and the model's own state
    is restored afterwards; conv / linear weights that the export stores as
    integer codes are kept as centred integer matrices in the plan, with
    their affine scale applied at the kernel boundary as the step's output
    scale.  There is no model-wide dequantise round-trip and no autograd
    involvement at execution time.  An export with no integer codes (every
    parameter stored as float) compiles to a float plan.  ``optimize`` and
    the validation work exactly as in :func:`compile_plan`.
    """
    with _COMPILE_LOCK:
        state = model.state_dict()
        try:
            load_into_model(export, model)
            return _compile(model, export, input_shape, optimize)
        finally:
            model.load_state_dict(state)


def _compile(
    model: Module,
    export: Optional[QuantizedModelExport],
    input_shape: Tuple[int, ...],
    optimize: bool,
) -> ExecutionPlan:
    with _COMPILE_LOCK:
        return _compile_locked(model, export, input_shape, optimize)


def _compile_locked(
    model: Module,
    export: Optional[QuantizedModelExport],
    input_shape: Tuple[int, ...],
    optimize: bool,
) -> ExecutionPlan:
    probe = np.random.default_rng(0).normal(size=(_PROBE_BATCH,) + tuple(input_shape))
    param_names = {id(param): name for name, param in model.named_parameters()}

    was_training = model.training
    model.eval()
    probe_tensor = Tensor(probe)
    try:
        with trace_ops() as records:
            traced_out = model(probe_tensor)
    finally:
        model.train(was_training)

    graph = build_graph(
        records, probe_tensor, traced_out, param_names, source=type(model).__name__
    )
    if optimize:
        pipeline = PassManager().run(graph)
    else:
        nodes = graph.num_nodes()
        pipeline = PipelineReport(passes=[], initial_nodes=nodes, final_nodes=nodes)
    if graph.output.kind == "const":
        raise PlanCompileError("model output does not depend on the input")
    memory = plan_memory(graph)
    plan = lower_graph(
        graph,
        export=export,
        memory=memory,
        pipeline=pipeline,
        input_shape=tuple(input_shape),
    )
    produced = plan.run(probe)
    if not np.allclose(produced, traced_out.data, rtol=VALIDATION_RTOL, atol=VALIDATION_ATOL):
        worst = float(np.max(np.abs(produced - traced_out.data)))
        raise PlanCompileError(
            f"compiled plan diverges from the traced module (max abs err {worst:.3e})"
        )
    return plan
