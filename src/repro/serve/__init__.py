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
* :class:`~repro.serve.workers.ProcessWorkerPool` -- spawned worker
  processes (one per :class:`~repro.serve.shards.ShardRouter` shard)
  executing plans against exports in ``multiprocessing.shared_memory``
  arenas, batches crossing over a
  :class:`~repro.serve.shards.SlabRing` of preallocated slabs.
* :class:`~repro.serve.service.InferenceService` -- the composition:
  ``submit(model, x, slo) -> ResultFuture``.
* :class:`~repro.serve.engine.MicroBatchServer` -- the cooperative
  single-model façade over the same layers (deterministic, testable).
* :func:`~repro.serve.bench.run_serve_bench` /
  :func:`~repro.serve.bench.run_scaling_bench` -- throughput / latency /
  energy benchmarks behind ``repro.cli serve-bench``.
"""

from repro.serve.engine import MicroBatchServer
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
from repro.serve.shards import (
    ArenaManifest,
    ArenaTensorSpec,
    ExportManifest,
    ShardRouter,
    ShardWorkerConfig,
    SlabRing,
    attach_exports,
    attach_segment,
    pack_exports,
    variant_key,
)
from repro.serve.workers import BatchExecutor, ProcessWorkerPool, WorkerPool
from repro.serve.bench import (
    BackendBenchReport,
    BackendBenchRow,
    ScalingBenchReport,
    ScalingBenchRow,
    ServeBenchReport,
    ServeBenchRow,
    run_backend_bench,
    run_scaling_bench,
    run_serve_bench,
)

__all__ = [
    "MicroBatchServer",
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
    "ProcessWorkerPool",
    "BatchExecutor",
    "ShardRouter",
    "SlabRing",
    "ShardWorkerConfig",
    "ArenaManifest",
    "ArenaTensorSpec",
    "ExportManifest",
    "pack_exports",
    "attach_exports",
    "attach_segment",
    "variant_key",
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
    "BackendBenchReport",
    "BackendBenchRow",
    "run_serve_bench",
    "run_scaling_bench",
    "run_backend_bench",
]
