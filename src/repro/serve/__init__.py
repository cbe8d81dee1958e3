"""Serving front-end for compiled execution plans.

Layered concurrent serving stack:

* :class:`~repro.serve.repository.ModelRepository` -- named models ×
  bitwidth variants, compiled once through a content-hash plan cache.
* :class:`~repro.serve.scheduler.Scheduler` -- per-variant micro-batch
  queues with bounded depth (:class:`~repro.serve.scheduler.QueueFullError`
  backpressure) and max-delay dispatch.
* :class:`~repro.serve.routing.PrecisionRouter` -- per-request SLO routing
  to the cheapest bitwidth variant (the paper's adaptive-precision loop at
  serving time).
* :class:`~repro.serve.workers.WorkerPool` -- threads executing shared
  plans concurrently, one buffer arena per worker, with OpenBLAS fitted
  to the workers by the process-wide budget of :mod:`repro.runtime.blas`.
* :class:`~repro.serve.service.InferenceService` -- the composition and
  the one way into serving: ``submit(model, x, slo) -> ResultFuture``.
* :func:`~repro.serve.bench.run_serve_bench` /
  :func:`~repro.serve.bench.run_scaling_bench` -- throughput / latency /
  energy benchmarks behind ``repro.cli serve-bench``.
"""

from repro.serve.repository import FLOAT_BITS, ModelRepository, ModelVersion, SwapListener
from repro.serve.routing import (
    DEFAULT_SLO,
    NoVariantError,
    PrecisionRouter,
    RequestSLO,
    RoutingDecision,
)
from repro.serve.scheduler import QueueFullError, QueuePolicy, Scheduler
from repro.serve.service import InferenceService
from repro.serve.types import (
    BatchAccountant,
    BatchRecord,
    InferenceRequest,
    InferenceResult,
    ResultFuture,
    ServeStats,
    VariantCost,
)
from repro.serve.workers import BatchExecutor, WorkerPool
from repro.serve.bench import (
    ScalingBenchReport,
    ScalingBenchRow,
    ServeBenchReport,
    ServeBenchRow,
    run_scaling_bench,
    run_serve_bench,
)

__all__ = [
    "ModelRepository",
    "ModelVersion",
    "SwapListener",
    "FLOAT_BITS",
    "InferenceService",
    "PrecisionRouter",
    "RequestSLO",
    "RoutingDecision",
    "DEFAULT_SLO",
    "NoVariantError",
    "Scheduler",
    "QueuePolicy",
    "QueueFullError",
    "WorkerPool",
    "BatchExecutor",
    "InferenceRequest",
    "InferenceResult",
    "ResultFuture",
    "BatchRecord",
    "ServeStats",
    "BatchAccountant",
    "VariantCost",
    "ServeBenchReport",
    "ServeBenchRow",
    "ScalingBenchReport",
    "ScalingBenchRow",
    "run_serve_bench",
    "run_scaling_bench",
]
