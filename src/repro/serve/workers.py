"""Thread pool executing scheduler batches through shared plans.

Each worker thread owns one :class:`~repro.runtime.plan.ExecutionContext`
per plan it has executed (its private buffer arena), so any number of
workers execute the *same* immutable plan concurrently without sharing any
mutable state.  The numpy kernels behind the hot steps (BLAS matmul, ufunc
loops) release the GIL, so worker threads overlap in CPython -- but each
BLAS call also fans out over OpenBLAS's own threads, so N workers over an
untouched OpenBLAS oversubscribe the CPUs (on 2 CPUs two workers served
slower than one).  A started pool therefore reserves its workers on the
process-wide BLAS thread budget (:mod:`repro.runtime.blas`): while it runs,
each BLAS call gets ``max(1, cpus // reserved)`` threads, and the count
comes back when the pool stops.  Shard processes reserve their shard count
the same way.

The pool is deliberately dumb: it pulls ``(queue_key, batch)`` pairs from a
:class:`~repro.serve.scheduler.Scheduler`, asks its :class:`BatchExecutor`
to resolve the key to a plan, executes, and fulfils each request's future.
Policy (routing, admission, accounting models) lives in the layers above.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import shared_memory
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
from repro.serve.shards import (
    ARENA_ALIGNMENT,
    ShardRouter,
    ShardWorkerConfig,
    SlabRing,
    pack_exports,
    shard_worker_main,
    variant_key,
)
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
            scheduler, executor, workers, stats, clock: As before.
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
        self._started = False
        self._blas: Optional[blas.Reservation] = None
        #: OpenBLAS threads each worker ran at (set by :meth:`start`;
        #: ``None`` when the count cannot be read).
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
        if self._started:
            raise RuntimeError("worker pool already started")
        self._started = True
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

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # The worker loop
    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        # Per-worker buffer arenas, one per distinct plan this thread runs.
        contexts: Dict[int, ExecutionContext] = {}
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
        self,
        plan: ExecutionPlan,
        contexts: Dict[int, ExecutionContext],
        queue_key: str,
    ):
        ctx = contexts.get(id(plan))
        if ctx is None:
            # Size the worker's arena from the plan's memory planner at the
            # queue's maximum batch, so the whole buffer block is committed
            # once up front instead of growing scratch lazily per step.
            try:
                batch_hint = self.scheduler.policy(queue_key).max_batch_size
            except KeyError:  # pragma: no cover - executor resolved an unknown key
                batch_hint = None
            ctx = plan.create_context(batch_size=batch_hint)
            contexts[id(plan)] = ctx
        return ctx

    def _execute(
        self,
        queue_key: str,
        requests: List[InferenceRequest],
        contexts: Dict[int, ExecutionContext],
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


# --------------------------------------------------------------------------- #
# Process-sharded worker pool
# --------------------------------------------------------------------------- #
@dataclass
class _InflightBatch:
    """Parent-side bookkeeping of one batch living in a worker's slab."""

    requests: List[InferenceRequest]
    key: str
    model: str
    bits: Optional[int]
    forward_bits: Dict[str, int]
    accountant: Optional[BatchAccountant]
    dispatched: float
    written: float
    batch_id: int


class _Shard:
    """Parent-side handle of one spawned shard worker."""

    def __init__(self, index: int, slots: int) -> None:
        self.index = index
        self.process = None
        self.commands = None
        self.events = None
        self.ring: Optional[SlabRing] = None
        self.slab_segment = None
        self.send_lock = threading.Lock()
        self.slot_cond = threading.Condition()
        self.free_slots = deque(range(slots))
        self.inflight: Dict[int, _InflightBatch] = {}
        self.dispatcher: Optional[threading.Thread] = None
        self.completer: Optional[threading.Thread] = None
        self.failed: Optional[BaseException] = None
        self.stats_event = threading.Event()
        self.stats_dump: Optional[dict] = None
        self.final_dump: Optional[dict] = None
        self.keys: List[str] = []


class ProcessWorkerPool:
    """Spawned worker processes draining per-shard schedulers over shared
    memory.

    The process counterpart of :class:`WorkerPool`: a consistent-hash
    :class:`~repro.serve.shards.ShardRouter` pins every ``(model, bits)``
    variant to one shard, each shard owns a scheduler (so submitters only
    contend with their own shard's consumers) and one spawned worker
    process.  Weight/code tensors cross the process boundary exactly once
    per arena generation (see :func:`~repro.serve.shards.pack_exports`);
    batches travel through a :class:`~repro.serve.shards.SlabRing` of
    preallocated shared-memory slabs with a small control pipe carrying
    the ``batch`` / ``done`` handoff.  Workers compile their shard's plans
    through a private :class:`~repro.runtime.cache.PlanCache`, seeded from
    the shared on-disk tuning cache when the repository tunes.

    Hot swaps keep working: the repository's swap listener packs the new
    export into a fresh arena segment and sends it down the owning shard's
    control pipe.  The pipe is ordered, so batches dispatched before the
    swap execute on the old mapping, the worker remaps, and batches after
    execute on the new plan -- zero requests dropped.

    Accounting, tracing, SLO checks and result fan-out stay in the parent
    (they touch parent-owned objects); each worker keeps its own metric
    registry, collected through :meth:`worker_metrics` and merged with a
    ``shard`` label.
    """

    def __init__(
        self,
        schedulers: List[Scheduler],
        repository,
        router: ShardRouter,
        *,
        stats: Optional[ServeStats] = None,
        clock: Callable[[], float] = time.perf_counter,
        metrics: Optional[MetricRegistry] = None,
        trace_log: Optional[TraceLog] = None,
        slo_monitor: Optional[SLOMonitor] = None,
        accountant_for: Optional[Callable[[str], BatchAccountant]] = None,
        slab_slots: int = 4,
        warm: bool = True,
        start_timeout_s: float = 300.0,
    ) -> None:
        """Args:
            schedulers: One scheduler per shard (the router's shard index
                is the list index).
            repository: The :class:`~repro.serve.repository.ModelRepository`
                whose variants are served.
            router: Assigns variant keys to shards; must have been built
                with ``shards == len(schedulers)``.
            stats, clock, metrics, trace_log, slo_monitor: As in
                :class:`WorkerPool`.
            accountant_for: ``model -> BatchAccountant`` for modelled
                energy/latency accounting (``None`` skips it).
            slab_slots: Transport slabs per shard; bounds the batches a
                shard can have in flight between parent and worker.
            warm: Workers compile every assigned plan before reporting
                ready (start blocks until every shard is warm).
            start_timeout_s: Seconds to wait for every worker to come up.
        """
        if not schedulers:
            raise ValueError("at least one scheduler (shard) is required")
        if router.shards != len(schedulers):
            raise ValueError(
                f"router has {router.shards} shards but {len(schedulers)} "
                f"schedulers were provided"
            )
        if slab_slots < 1:
            raise ValueError(f"slab_slots must be at least 1, got {slab_slots}")
        self.schedulers = schedulers
        self.repository = repository
        self.router = router
        self.clock = clock
        self.stats = stats if stats is not None else ServeStats()
        self.trace_log = trace_log
        self.slo_monitor = slo_monitor
        self.accountant_for = accountant_for
        self.slab_slots = slab_slots
        self.warm = warm
        self.start_timeout_s = start_timeout_s
        self.batch_records: List = []
        self.workers = len(schedulers)
        #: OpenBLAS threads each shard process runs at, as the shards
        #: reported when they came up (``None`` before start, or when a
        #: shard could not read its count).
        self.blas_threads: Optional[int] = None
        self._shards: List[_Shard] = []
        self._started = False
        self._stopped = False
        self._stats_lock = threading.Lock()
        self._batch_counter = 0
        self._meta_lock = threading.Lock()
        self._meta: Dict[str, Tuple[int, Tuple]] = {}
        self._segments_lock = threading.Lock()
        #: segment name -> owning SharedMemory (initial arena + live swaps).
        self._segments: Dict[str, object] = {}
        #: variant key -> segment name currently mapping its export.
        self._key_segment: Dict[str, str] = {}
        #: segment name -> keys it still maps (swap segments only).
        self._segment_keys: Dict[str, set] = {}
        self._arena_name: Optional[str] = None
        if metrics is not None:
            self._queue_wait_hist = metrics.histogram(
                "serve_shard_queue_wait_seconds",
                "Per-request wait between submit and shard dispatch.",
                labels=("model", "shard"),
                buckets=DEFAULT_LATENCY_BUCKETS,
            )
            self._roundtrip_hist = metrics.histogram(
                "serve_shard_roundtrip_seconds",
                "Per-batch slab write -> logits read round trip.",
                labels=("model", "shard"),
                buckets=DEFAULT_LATENCY_BUCKETS,
            )
            self._kernel_hist = metrics.histogram(
                "serve_shard_kernel_seconds",
                "Per-batch plan execution time inside the shard worker.",
                labels=("model", "shard"),
                buckets=DEFAULT_LATENCY_BUCKETS,
            )
            self._batch_size_hist = metrics.histogram(
                "serve_shard_batch_size",
                "Requests per batch dispatched to a shard worker.",
                labels=("model", "shard"),
                buckets=DEFAULT_BATCH_SIZE_BUCKETS,
            )
        else:
            self._queue_wait_hist = self._roundtrip_hist = None
            self._kernel_hist = self._batch_size_hist = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Pack the arena, spawn one worker per shard, wait until warm.

        Raises:
            RuntimeError: the pool was already started, a worker failed
                its setup, or the start timeout elapsed.
        """
        if self._started:
            raise RuntimeError("process worker pool already started")
        self._started = True
        from repro.tensor import Tensor, no_grad

        context = multiprocessing.get_context("spawn")
        keys: Dict[str, Tuple[str, int]] = {}
        for model in self.repository.models():
            for bits in self.repository.variants(model):
                keys[variant_key(model, bits)] = (model, bits)
        arena, manifest = self.repository.export_arena(generation=0)
        with self._segments_lock:
            self._segments[arena.name] = arena
            self._arena_name = arena.name
            for key in manifest.keys():
                self._key_segment[key] = arena.name

        modules: Dict[str, object] = {}
        input_shapes: Dict[str, Tuple[int, ...]] = {}
        output_nbytes: Dict[str, int] = {}
        for model in self.repository.models():
            module = self.repository.clone_model(model)
            shape = tuple(self.repository.input_shape(model))
            module.eval()
            with no_grad():
                probe_out = module(Tensor(np.zeros((1,) + shape)))
            modules[model] = module
            input_shapes[model] = shape
            output_nbytes[model] = int(np.prod(probe_out.data.shape[1:])) * 8

        max_batch = 1
        payload_bytes = ARENA_ALIGNMENT
        assignment = self.router.assignment(keys)
        for shard_index, shard_keys in assignment.items():
            for key in shard_keys:
                model, _ = keys[key]
                batch = self.schedulers[shard_index].policy(key).max_batch_size
                max_batch = max(max_batch, batch)
                sample_bytes = int(np.prod(input_shapes[model])) * 8
                payload_bytes = max(
                    payload_bytes,
                    batch * sample_bytes,
                    batch * output_nbytes[model],
                )
        segment_bytes, slab_bytes = SlabRing.required_bytes(self.slab_slots, payload_bytes)

        try:
            for index in range(self.workers):
                shard = _Shard(index, self.slab_slots)
                shard.keys = assignment[index]
                shard.slab_segment = shared_memory.SharedMemory(
                    create=True, size=segment_bytes
                )
                shard.ring = SlabRing(shard.slab_segment.buf, self.slab_slots, slab_bytes)
                cmd_read, cmd_write = context.Pipe(duplex=False)
                evt_read, evt_write = context.Pipe(duplex=False)
                # Commands flow parent -> worker, events worker -> parent.
                shard.commands = cmd_write
                shard.events = evt_read
                config = ShardWorkerConfig(
                    shard=index,
                    slab_shm_name=shard.slab_segment.name,
                    slab_slots=self.slab_slots,
                    slab_bytes=slab_bytes,
                    manifest=manifest,
                    models={
                        model: modules[model]
                        for model in {keys[key][0] for key in shard.keys}
                    },
                    input_shapes={
                        model: input_shapes[model]
                        for model in {keys[key][0] for key in shard.keys}
                    },
                    keys={key: keys[key] for key in shard.keys},
                    max_batch_size=max_batch,
                    tuning=self._tuning_spec(),
                    codegen=self._codegen_spec(),
                    warm=self.warm,
                    shard_count=self.workers,
                )
                shard.process = context.Process(
                    target=shard_worker_main,
                    args=(config, cmd_read, evt_write),
                    name=f"serve-shard-{index}",
                    daemon=True,
                )
                shard.process.start()
                cmd_read.close()
                evt_write.close()
                self._shards.append(shard)
            self._await_ready()
        except BaseException:
            self._teardown(force=True)
            raise
        for shard in self._shards:
            shard.dispatcher = threading.Thread(
                target=self._dispatch_loop, args=(shard,),
                name=f"serve-shard-dispatch-{shard.index}", daemon=True,
            )
            shard.completer = threading.Thread(
                target=self._completion_loop, args=(shard,),
                name=f"serve-shard-complete-{shard.index}", daemon=True,
            )
            shard.dispatcher.start()
            shard.completer.start()
        self.repository.add_swap_listener(self._on_swap)

    def _tuning_spec(self) -> Optional[Tuple[str, float, int, int]]:
        """The picklable ``(path, budget, repeats, warmup)`` of the
        repository's tuning config, or ``None`` (heuristic selection).
        An ephemeral cache-less config also maps to ``None``: without a
        shared path there is nothing for a worker to inherit."""
        tuning = getattr(self.repository, "tuning", None)
        if tuning is None:
            return None
        config = tuning.config if hasattr(tuning, "config") else tuning
        cache = getattr(config, "cache", None)
        if cache is None:
            return None
        return (cache.path, config.budget_s, config.repeats, config.warmup)

    def _codegen_spec(self) -> Optional[Tuple[bool, str]]:
        """``(enabled, resolved artifact dir)`` when the native backend is
        on in this parent, else ``None``.  Passing the *resolved* directory
        means a spawned worker resolves the identical artifact cache and
        loads the parent's compiled ``.so`` files without rebuilding."""
        from repro.runtime import codegen

        if not codegen.enabled():
            return None
        return (True, codegen.cache_dir())

    def _await_ready(self) -> None:
        deadline = time.monotonic() + self.start_timeout_s
        reported = set()
        for shard in self._shards:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not shard.events.poll(remaining):
                raise RuntimeError(
                    f"shard {shard.index} worker did not come up within "
                    f"{self.start_timeout_s:.0f}s"
                )
            try:
                message = shard.events.recv()
            except (EOFError, OSError):
                code = shard.process.exitcode
                raise RuntimeError(
                    f"shard {shard.index} worker died during startup (exit code {code})"
                )
            if message[0] == "fatal":
                raise RuntimeError(f"shard {shard.index} worker failed to start: {message[1]}")
            if message[0] != "ready":  # pragma: no cover - protocol violation
                raise RuntimeError(f"unexpected startup message from shard {shard.index}: {message[0]}")
            reported.add(message[2])
        # Sibling shards fit one budget, so they report one count.
        self.blas_threads = reported.pop() if len(reported) == 1 else None

    def stop(self, timeout: Optional[float] = None) -> None:
        """Drain the schedulers and in-flight slabs, then stop the workers.

        Every admitted request is served before the workers exit (same
        drain contract as the thread pool); each worker's final metric
        dump is collected for :meth:`worker_metrics`.
        """
        for scheduler in self.schedulers:
            scheduler.stop()
        if not self._started or self._stopped:
            return
        self._stopped = True
        for shard in self._shards:
            if shard.dispatcher is not None:
                shard.dispatcher.join(timeout)
        drain_deadline = time.monotonic() + (timeout if timeout is not None else 60.0)
        for shard in self._shards:
            with shard.slot_cond:
                while (
                    len(shard.free_slots) < self.slab_slots
                    and shard.failed is None
                    and time.monotonic() < drain_deadline
                ):
                    shard.slot_cond.wait(0.05)
        for shard in self._shards:
            if shard.failed is None:
                try:
                    with shard.send_lock:
                        shard.commands.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        for shard in self._shards:
            if shard.completer is not None:
                shard.completer.join(timeout if timeout is not None else 30.0)
        self._teardown(force=False)

    def _teardown(self, *, force: bool) -> None:
        for shard in self._shards:
            process = shard.process
            if process is not None:
                process.join(5.0 if force else 30.0)
                if process.is_alive():  # pragma: no cover - hung worker
                    process.terminate()
                    process.join(5.0)
            for connection in (shard.commands, shard.events):
                if connection is not None:
                    try:
                        connection.close()
                    except OSError:  # pragma: no cover - already closed
                        pass
            shard.ring = None
            if shard.slab_segment is not None:
                shard.slab_segment.close()
                try:
                    shard.slab_segment.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass
                shard.slab_segment = None
        with self._segments_lock:
            for segment in self._segments.values():
                segment.close()
                try:
                    segment.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass
            self._segments.clear()
            self._key_segment.clear()
            self._segment_keys.clear()

    def __enter__(self) -> "ProcessWorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Dispatch (parent -> worker)
    # ------------------------------------------------------------------ #
    def _dispatch_loop(self, shard: _Shard) -> None:
        while True:
            item = self.schedulers[shard.index].get_batch()
            if item is None:
                return
            key, requests = item
            try:
                self._dispatch(shard, key, requests)
            except BaseException as error:  # noqa: BLE001 - fail these futures only
                for request in requests:
                    if request.future is not None and not request.future.done():
                        request.future.set_exception(error)

    def _dispatch(self, shard: _Shard, key: str, requests: List[InferenceRequest]) -> None:
        dispatched = self.clock()
        model, bits, forward_bits, accountant = self._resolve(key)
        batch = np.stack([request.x for request in requests])
        with shard.slot_cond:
            while not shard.free_slots:
                if shard.failed is not None:
                    raise shard.failed
                shard.slot_cond.wait(0.1)
            slot = shard.free_slots.popleft()
        with self._stats_lock:
            batch_id = self._batch_counter
            self._batch_counter += 1
        shard.ring.write(slot, batch, batch_id, len(requests))
        written = self.clock()
        with shard.slot_cond:
            shard.inflight[slot] = _InflightBatch(
                requests=requests,
                key=key,
                model=model,
                bits=bits,
                forward_bits=forward_bits,
                accountant=accountant,
                dispatched=dispatched,
                written=written,
                batch_id=batch_id,
            )
        try:
            with shard.send_lock:
                shard.commands.send(("batch", slot, key, len(requests), batch_id))
        except (BrokenPipeError, OSError) as error:
            with shard.slot_cond:
                shard.inflight.pop(slot, None)
                shard.free_slots.append(slot)
                shard.slot_cond.notify()
            raise RuntimeError(f"shard {shard.index} worker is gone") from error

    def _resolve(self, key: str) -> Tuple[str, Optional[int], Dict[str, int], Optional[BatchAccountant]]:
        """Generation-memoised ``key -> (model, bits, forward_bits,
        accountant)``; the worker owns the plan, the parent only needs the
        cost-model inputs (none of which require compilation)."""
        model, _, bits_text = key.rpartition("@")
        generation = self.repository.generation(model)
        with self._meta_lock:
            cached = self._meta.get(key)
        if cached is not None and cached[0] == generation:
            return cached[1]
        bits = int(bits_text)
        forward_bits = self.repository.forward_bits(model, bits)
        accountant = self.accountant_for(model) if self.accountant_for is not None else None
        resolved = (model, bits, forward_bits, accountant)
        with self._meta_lock:
            self._meta[key] = (generation, resolved)
        return resolved

    # ------------------------------------------------------------------ #
    # Completion (worker -> parent)
    # ------------------------------------------------------------------ #
    def _completion_loop(self, shard: _Shard) -> None:
        while True:
            try:
                message = shard.events.recv()
            except (EOFError, OSError):
                if not self._stopped:
                    self._mark_failed(
                        shard,
                        RuntimeError(
                            f"shard {shard.index} worker died unexpectedly "
                            f"(exit code {shard.process.exitcode})"
                        ),
                    )
                return
            kind = message[0]
            if kind == "done":
                self._complete(shard, *message[1:])
            elif kind == "error":
                _, slot, batch_id, text = message
                self._fail_batch(
                    shard, slot,
                    RuntimeError(f"shard {shard.index} batch {batch_id} failed: {text}"),
                )
            elif kind == "swapped":
                self._finish_swap(shard, message[1], message[3])
            elif kind == "stats":
                shard.stats_dump = message[1]
                shard.stats_event.set()
            elif kind == "stopped":
                shard.final_dump = message[1]
                return
            elif kind == "fatal":  # pragma: no cover - post-start fatal
                self._mark_failed(shard, RuntimeError(str(message[1])))
                return

    def _complete(
        self,
        shard: _Shard,
        slot: int,
        batch_id: int,
        key: str,
        count: int,
        out_shape: Tuple[int, ...],
        kernel_seconds: float,
    ) -> None:
        ended = self.clock()
        logits, _, _ = shard.ring.read(slot, tuple(out_shape))
        with shard.slot_cond:
            info = shard.inflight.pop(slot)
            shard.free_slots.append(slot)
            shard.slot_cond.notify()
        requests = info.requests
        predictions = np.argmax(logits, axis=-1)
        record = BatchRecord(
            batch_id=batch_id,
            size=len(requests),
            compute_seconds=kernel_seconds,
            model=info.model,
            bits=info.bits,
        )
        if info.accountant is not None:
            info.accountant.annotate(record, info.forward_bits)
        post_stamp = self.clock()
        if self._kernel_hist is not None:
            labels = dict(model=info.model, shard=str(shard.index))
            self._roundtrip_hist.labels(**labels).observe(ended - info.written)
            self._kernel_hist.labels(**labels).observe(kernel_seconds)
            self._batch_size_hist.labels(**labels).observe(len(requests))
        energy_uj = (
            record.energy_pj / record.size * 1e-6 if record.energy_pj is not None else None
        )
        transport_seconds = ended - info.written
        latencies: List[float] = []
        for index, request in enumerate(requests):
            queue_seconds = info.written - request.enqueued_at
            latency = queue_seconds + transport_seconds
            latencies.append(latency)
            if self._queue_wait_hist is not None:
                self._queue_wait_hist.labels(
                    model=info.model, shard=str(shard.index)
                ).observe(info.dispatched - request.enqueued_at)
            trace = request.trace
            if trace is not None:
                trace.mark("queue_wait", at=info.dispatched)
                trace.mark("batch_assembly", at=info.written)
                trace.mark("kernel", at=ended)
                trace.mark("post", at=post_stamp)
                if self.trace_log is not None:
                    self.trace_log.append(trace)
            if self.slo_monitor is not None and request.slo is not None:
                self.slo_monitor.observe_request(
                    info.model, request.slo, latency_s=latency, energy_uj=energy_uj
                )
            result = InferenceResult(
                request_id=request.request_id,
                logits=logits[index],
                prediction=int(predictions[index]),
                batch_id=batch_id,
                batch_size=len(requests),
                queue_seconds=queue_seconds,
                compute_seconds=transport_seconds,
                model=info.model,
                bits=info.bits,
                trace=trace,
            )
            if request.future is not None:
                request.future.set_result(result)
        self.stats.record_batch(record, latencies)
        with self._stats_lock:
            self.batch_records.append(record)

    def _fail_batch(self, shard: _Shard, slot: int, error: BaseException) -> None:
        with shard.slot_cond:
            info = shard.inflight.pop(slot, None)
            shard.free_slots.append(slot)
            shard.slot_cond.notify()
        if info is None:  # pragma: no cover - error for an unknown slot
            return
        for request in info.requests:
            if request.future is not None and not request.future.done():
                request.future.set_exception(error)

    def _mark_failed(self, shard: _Shard, error: BaseException) -> None:
        with shard.slot_cond:
            shard.failed = error
            inflight = list(shard.inflight.values())
            shard.inflight.clear()
            shard.free_slots = deque(range(self.slab_slots))
            shard.slot_cond.notify_all()
        for info in inflight:
            for request in info.requests:
                if request.future is not None and not request.future.done():
                    request.future.set_exception(error)

    # ------------------------------------------------------------------ #
    # Hot swap
    # ------------------------------------------------------------------ #
    def _on_swap(self, model: str, bits: int, generation: int) -> None:
        """Repository swap listener: ship the new export to its shard.

        Packs the swapped export into a fresh arena segment and sends the
        manifest down the owning shard's (ordered) control pipe: batches
        already sent drain on the old mapping, then the worker remaps.
        """
        if not self._started or self._stopped:
            return
        from repro.serve.repository import FLOAT_BITS

        if bits == FLOAT_BITS:  # pragma: no cover - repository forbids this
            return
        key = variant_key(model, bits)
        shard = self._shards[self.router.shard_for_key(key)]
        if shard.failed is not None:
            return
        export = self.repository.export(model, bits)
        segment, manifest = pack_exports({key: export}, generation=generation)
        with self._segments_lock:
            self._segments[segment.name] = segment
            self._segment_keys[segment.name] = {key}
        try:
            with shard.send_lock:
                shard.commands.send(("swap", manifest))
        except (BrokenPipeError, OSError):  # pragma: no cover - worker gone
            with self._segments_lock:
                self._segments.pop(segment.name, None)
                self._segment_keys.pop(segment.name, None)
            segment.close()
            segment.unlink()

    def _finish_swap(self, shard: _Shard, segment_name: str, swapped_keys: List[str]) -> None:
        """Swap ack: retire segments no longer mapping any live key.

        The worker closes its old mapping *before* acking (pipe order), so
        a superseded swap segment can be unlinked here.  The initial arena
        is shared by every shard and is only unlinked at :meth:`stop`.
        """
        with self._segments_lock:
            for key in swapped_keys:
                previous = self._key_segment.get(key)
                self._key_segment[key] = segment_name
                self._segment_keys.setdefault(segment_name, set()).add(key)
                if previous is None or previous == segment_name or previous == self._arena_name:
                    continue
                owners = self._segment_keys.get(previous)
                if owners is not None:
                    owners.discard(key)
                    if not owners:
                        self._segment_keys.pop(previous, None)
                        segment = self._segments.pop(previous, None)
                        if segment is not None:
                            segment.close()
                            segment.unlink()

    # ------------------------------------------------------------------ #
    # Worker metrics (stats mailbox)
    # ------------------------------------------------------------------ #
    def worker_metrics(self, timeout: float = 10.0) -> Dict[str, dict]:
        """Per-shard metric registry dumps, collected over the stats
        mailbox: live workers are polled; stopped workers contribute the
        final dump captured at shutdown.  Keys are shard indices as
        strings (the ``shard`` label value used when merging)."""
        pending: List[_Shard] = []
        for shard in self._shards:
            if shard.final_dump is not None or shard.failed is not None:
                continue
            shard.stats_event.clear()
            try:
                with shard.send_lock:
                    shard.commands.send(("stats",))
            except (BrokenPipeError, OSError):  # pragma: no cover - worker gone
                continue
            pending.append(shard)
        deadline = time.monotonic() + timeout
        for shard in pending:
            shard.stats_event.wait(max(0.0, deadline - time.monotonic()))
        dumps: Dict[str, dict] = {}
        for shard in self._shards:
            dump = shard.final_dump if shard.final_dump is not None else shard.stats_dump
            if dump is not None:
                dumps[str(shard.index)] = dump
        return dumps
