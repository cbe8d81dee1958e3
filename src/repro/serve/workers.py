"""Thread pool executing scheduler batches through shared plans.

Each worker thread owns one :class:`~repro.runtime.plan.ExecutionContext`
per queue it serves (its private buffer arena for the plan the queue last
resolved to, replaced when a hot-swap resolves it to a new plan), so any
number of workers execute the *same* immutable plan concurrently without
sharing any mutable state, and no worker keeps a superseded plan alive.
The numpy kernels behind the hot steps (BLAS matmul, ufunc loops) release
the GIL, so worker threads overlap in CPython -- but each BLAS call also
fans out over OpenBLAS's own threads, so N workers over an untouched
OpenBLAS oversubscribe the CPUs (on 2 CPUs two workers served slower than
one).  A started pool therefore reserves its workers on the process-wide
BLAS thread budget (:mod:`repro.runtime.blas`): while it runs, each BLAS
call gets ``max(1, cpus // reserved)`` threads (one while a small
``Trainer.fit``, such as an adaptation job, holds its one-thread ceiling),
and the count comes back when the pool stops.

The pool is deliberately dumb: it pulls ``(queue_key, batch)`` pairs from a
:class:`~repro.serve.scheduler.Scheduler`, asks its :class:`BatchExecutor`
to resolve the key to a plan, executes, and fulfils each request's future.
Policy (routing, admission, accounting models) lives in the layers above.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.obs.registry import (
    DEFAULT_BATCH_SIZE_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    MetricRegistry,
)
from repro.obs.slo import SLOMonitor
from repro.obs.trace import TraceLog
from repro.runtime import blas
from repro.runtime.plan import ExecutionContext, ExecutionPlan
from repro.serve.scheduler import Scheduler
from repro.serve.types import (
    BatchAccountant,
    BatchRecord,
    InferenceRequest,
    InferenceResult,
    ServeStats,
    record_blas_threads,
)


class BatchExecutor:
    """Resolves a scheduler queue key to everything a worker needs.

    One executor per serving stack; shared by all workers.  ``resolve`` must
    be thread-safe and return the (immutable) plan, the per-layer forward
    bitwidths for the cost models, the accountant to annotate records with
    (or ``None`` to skip modelled accounting), and the ``(model, bits)``
    labels for the result objects.
    """

    def resolve(
        self, queue_key: str
    ) -> Tuple[ExecutionPlan, Dict[str, int], Optional[BatchAccountant], str, Optional[int]]:
        """Resolve one queue key to ``(plan, forward_bits, accountant, model, bits)``."""
        raise NotImplementedError


class WorkerPool:
    """N threads draining a scheduler through per-worker execution contexts."""

    def __init__(
        self,
        scheduler: Scheduler,
        executor: BatchExecutor,
        *,
        workers: int = 1,
        stats: Optional[ServeStats] = None,
        clock: Callable[[], float] = time.perf_counter,
        metrics: Optional[MetricRegistry] = None,
        trace_log: Optional[TraceLog] = None,
        slo_monitor: Optional[SLOMonitor] = None,
    ) -> None:
        """Args:
            metrics: Registry for the per-phase span histograms
                (queue-wait / batch-assembly / kernel / post) and the
                batch-size histogram; ``None`` skips them.
            trace_log: Ring the completed per-request traces land in.
            slo_monitor: Checks each served request's latency / energy
                against the budgets of the SLO it was routed under.
        """
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        self.scheduler = scheduler
        self.executor = executor
        self.workers = workers
        self.clock = clock
        self.stats = stats if stats is not None else ServeStats()
        self.batch_records: List[BatchRecord] = []
        self.trace_log = trace_log
        self.slo_monitor = slo_monitor
        self._stats_lock = threading.Lock()
        self._batch_counter = 0
        self._threads: List[threading.Thread] = []
        #: Held from start() until stop() has joined every worker.
        self._blas: Optional[blas.Reservation] = None
        #: OpenBLAS threads :meth:`start` fitted each worker to (``None``
        #: when the count cannot be read).
        self.blas_threads: Optional[int] = None
        self._metrics = metrics
        if metrics is not None:
            self._queue_wait_hist = metrics.histogram(
                "serve_queue_wait_seconds",
                "Per-request wait between submit and batch dispatch.",
                labels=("model",),
                buckets=DEFAULT_LATENCY_BUCKETS,
            )
            self._assembly_hist = metrics.histogram(
                "serve_batch_assembly_seconds",
                "Per-batch plan resolution + input stacking time.",
                labels=("model",),
                buckets=DEFAULT_LATENCY_BUCKETS,
            )
            self._kernel_hist = metrics.histogram(
                "serve_kernel_seconds",
                "Per-batch plan execution (kernel) time.",
                labels=("model",),
                buckets=DEFAULT_LATENCY_BUCKETS,
            )
            self._post_hist = metrics.histogram(
                "serve_post_seconds",
                "Per-batch post-processing (argmax, accounting) time.",
                labels=("model",),
                buckets=DEFAULT_LATENCY_BUCKETS,
            )
            self._batch_size_hist = metrics.histogram(
                "serve_batch_size",
                "Requests per dispatched batch.",
                labels=("model",),
                buckets=DEFAULT_BATCH_SIZE_BUCKETS,
            )
        else:
            self._queue_wait_hist = self._assembly_hist = None
            self._kernel_hist = self._post_hist = self._batch_size_hist = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Reserve BLAS threads for the workers, then spawn them (once; also via ``with``).

        Raises:
            RuntimeError: the pool was already started.
        """
        if self._blas is not None:
            raise RuntimeError("worker pool already started")
        self._blas = blas.reserve(self.workers)
        self.blas_threads = self._blas.blas_threads
        record_blas_threads(self._metrics, self.blas_threads)
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{index}", daemon=True
            )
            self._threads.append(thread)
            thread.start()

    def stop(self, timeout: Optional[float] = None) -> None:
        """Stop the scheduler and join the workers (they drain first).

        The BLAS reservation is released once every worker has exited; a
        worker still running after ``timeout`` keeps it until a later
        ``stop`` joins it.  Calling ``stop`` again is harmless.
        """
        self.scheduler.stop()
        for thread in self._threads:
            thread.join(timeout)
        self._threads = [thread for thread in self._threads if thread.is_alive()]
        if not self._threads and self._blas is not None:
            record_blas_threads(self._metrics, self._blas.release())

    @property
    def running(self) -> bool:
        """Whether the pool holds its BLAS reservation (started, not yet stopped)."""
        return self._blas is not None and not self._blas.released

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # The worker loop
    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        # This worker's buffer arenas, one per queue it serves.
        contexts: Dict[str, ExecutionContext] = {}
        while True:
            item = self.scheduler.get_batch()
            if item is None:
                return
            queue_key, requests = item
            try:
                self._execute(queue_key, requests, contexts)
            except BaseException as error:  # noqa: BLE001 - fulfil futures, keep serving
                for request in requests:
                    if request.future is not None and not request.future.done():
                        request.future.set_exception(error)

    def _context_for(
        self, plan: ExecutionPlan, contexts: Dict[str, ExecutionContext], queue_key: str
    ) -> ExecutionContext:
        ctx = contexts.get(queue_key)
        if ctx is None or ctx.plan is not plan:
            # Size the worker's arena from the plan's memory planner at the
            # queue's maximum batch, so the whole buffer block is committed
            # once up front instead of growing scratch lazily per step.  It
            # replaces the context of the plan a swap superseded.
            batch_hint = self.scheduler.policy(queue_key).max_batch_size
            ctx = contexts[queue_key] = plan.create_context(batch_size=batch_hint)
        return ctx

    def _execute(
        self,
        queue_key: str,
        requests: List[InferenceRequest],
        contexts: Dict[str, ExecutionContext],
    ) -> None:
        # One clock reading per phase transition, shared by every request
        # in the batch: queue-wait ends here, batch assembly (plan
        # resolution + input stacking) ends at `started`, the kernel at
        # `ended`, post-processing at `post_stamp`.  Traces mark at these
        # shared stamps, so their spans tile each request's lifetime
        # exactly whatever clock is injected.
        dispatched = self.clock()
        plan, forward_bits, accountant, model, bits = self.executor.resolve(queue_key)
        batch = np.stack([request.x for request in requests])
        started = self.clock()
        logits = plan.run(batch, ctx=self._context_for(plan, contexts, queue_key))
        ended = self.clock()
        compute_seconds = ended - started
        predictions = np.argmax(logits, axis=-1)

        with self._stats_lock:
            batch_id = self._batch_counter
            self._batch_counter += 1
        record = BatchRecord(
            batch_id=batch_id,
            size=len(requests),
            compute_seconds=compute_seconds,
            model=model,
            bits=bits,
        )
        if accountant is not None:
            accountant.annotate(record, forward_bits)
        post_stamp = self.clock()

        if self._kernel_hist is not None:
            self._assembly_hist.labels(model=model).observe(started - dispatched)
            self._kernel_hist.labels(model=model).observe(compute_seconds)
            self._post_hist.labels(model=model).observe(post_stamp - ended)
            self._batch_size_hist.labels(model=model).observe(len(requests))
        energy_uj = (
            record.energy_pj / record.size * 1e-6 if record.energy_pj is not None else None
        )

        latencies: List[float] = []
        for index, request in enumerate(requests):
            queue_seconds = started - request.enqueued_at
            latency = queue_seconds + compute_seconds
            latencies.append(latency)
            if self._queue_wait_hist is not None:
                self._queue_wait_hist.labels(model=model).observe(
                    dispatched - request.enqueued_at
                )
            trace = request.trace
            if trace is not None:
                trace.mark("queue_wait", at=dispatched)
                trace.mark("batch_assembly", at=started)
                trace.mark("kernel", at=ended)
                trace.mark("post", at=post_stamp)
                if self.trace_log is not None:
                    self.trace_log.append(trace)
            if self.slo_monitor is not None and request.slo is not None:
                # Latency is checked as observed (queueing + kernel);
                # energy as the modelled per-request share of the batch.
                self.slo_monitor.observe_request(
                    model, request.slo, latency_s=latency, energy_uj=energy_uj
                )
            result = InferenceResult(
                request_id=request.request_id,
                logits=logits[index],
                prediction=int(predictions[index]),
                batch_id=batch_id,
                batch_size=len(requests),
                queue_seconds=queue_seconds,
                compute_seconds=compute_seconds,
                model=model,
                bits=bits,
                trace=trace,
            )
            if request.future is not None:
                request.future.set_result(result)
        self.stats.record_batch(record, latencies)
        with self._stats_lock:
            self.batch_records.append(record)

