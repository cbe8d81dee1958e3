"""The concurrent multi-model inference service.

Composition of the serving layers::

    submit(model, x, slo)
        │  PrecisionRouter: cheapest bitwidth variant meeting the SLO
        ▼
    Scheduler: one bounded micro-batch queue per (model, bits) variant
        │  max-batch / max-delay dispatch, QueueFullError backpressure
        ▼
    WorkerPool: N threads, per-worker ExecutionContext arenas
        │  one immutable ExecutionPlan per variant, shared by all workers;
        │  N threads reserved on the process-wide BLAS thread budget
        ▼
    ResultFuture per request + ServeStats / BatchRecord accounting

Queues are per **variant**, not per model: a dispatched batch executes
through exactly one compiled plan, so requests routed to different
bitwidths of the same model must never share a batch.

The service is the one way into serving.  Deterministic tests drive it
with an injected clock: requests submitted before :meth:`InferenceService.start`
wait in their queues, and :meth:`InferenceService.stop` drains them.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.hardware.energy import EnergyModel
from repro.hardware.latency import ComputeProfile
from repro.obs.registry import MetricRegistry, MetricsSnapshot
from repro.obs.slo import SLOMonitor
from repro.obs.trace import Trace, TraceLog
from repro.runtime import blas
from repro.runtime.plan import ExecutionPlan
from repro.serve.repository import ModelRepository
from repro.serve.routing import DEFAULT_SLO, PrecisionRouter, RequestSLO, RoutingDecision
from repro.serve.scheduler import QueueFullError, QueuePolicy, Scheduler
from repro.serve.types import (
    BatchAccountant,
    InferenceRequest,
    ResultFuture,
    ServeStats,
    record_blas_threads,
)
from repro.serve.workers import BatchExecutor, WorkerPool


def _queue_key(model: str, bits: int) -> str:
    return f"{model}@{bits}"


class _RepositoryExecutor(BatchExecutor):
    """Resolve ``model@bits`` queue keys against the repository + router.

    Resolutions are memoised per queue key *alongside the repository's
    generation counter* for the model: the plan, forward-bits mapping and
    accountant of a variant are immutable, so workers only take the
    repository / router locks on a variant's first batch.  The per-batch
    generation check is a lock-free int read
    (:meth:`~repro.serve.repository.ModelRepository.generation`); when a
    hot-swap bumps the counter, the next batch re-resolves and picks up
    the new plan.  Batches resolved before the bump drain on the old
    (immutable) plan; no lock is ever held across a compile, because
    :meth:`~repro.serve.repository.ModelRepository.swap` installs the
    already-compiled plan before bumping the counter.
    """

    def __init__(self, service: "InferenceService") -> None:
        self.service = service
        self._lock = threading.Lock()
        self._resolved: Dict[str, Tuple[int, Tuple]] = {}

    def resolve(
        self, queue_key: str
    ) -> Tuple[ExecutionPlan, Dict[str, int], Optional[BatchAccountant], str, Optional[int]]:
        model, _, bits_text = queue_key.rpartition("@")
        generation = self.service.repository.generation(model)
        with self._lock:
            cached = self._resolved.get(queue_key)
        if cached is not None and cached[0] == generation:
            return cached[1]
        bits = int(bits_text)
        service = self.service
        plan = service.repository.plan(model, bits)
        forward_bits = service.repository.forward_bits(model, bits)
        accountant = service.router.accountant(model) if service.modelled_accounting else None
        resolved = (plan, forward_bits, accountant, model, bits)
        with self._lock:
            self._resolved[queue_key] = (generation, resolved)
        return resolved


class InferenceService:
    """Concurrent multi-model serving over a repository of compiled plans.

    Parameters
    ----------
    repository:
        The models and bitwidth variants to serve.  Registered variants get
        one scheduler queue each; plans compile on service start (``warm``)
        so workers never stall on the process-wide compile lock.
    workers:
        Worker threads.  Each owns private execution contexts, and the
        numpy kernels release the GIL, so workers overlap.  While the
        service runs, each worker's BLAS calls get ``max(1, cpus //
        workers)`` OpenBLAS threads (the process-wide budget of
        :mod:`repro.runtime.blas`, shared with any other running pool),
        so workers do not oversubscribe the CPUs.  ``workers=1`` keeps
        every CPU for BLAS, which suits a load with one batch in flight.
    queue_policy:
        Batching / backpressure policy applied to every variant queue.
    compute_profile, energy_model:
        Analytic device models for routing costs and per-batch accounting;
        both optional (without them routing falls back to bit-ordering and
        batches carry wall-clock accounting only).
    clock:
        Injectable time source (tests).
    metrics:
        The :class:`~repro.obs.registry.MetricRegistry` every layer of
        this service reports into (scheduler queues, router decisions,
        worker phase histograms, the stats view, the plan cache, the SLO
        monitor).  ``None`` creates a private registry.
    tracing:
        Open a per-request :class:`~repro.obs.trace.Trace` at submit time
        (spans marked by the executing worker, completed traces attached
        to results and the newest 256 retained in :attr:`traces`).

    The service checks served requests against their SLOs with its own
    :class:`~repro.obs.slo.SLOMonitor` (:attr:`slo`) on this registry and
    clock.
    """

    def __init__(
        self,
        repository: ModelRepository,
        *,
        workers: int = 1,
        queue_policy: Optional[QueuePolicy] = None,
        compute_profile: Optional[ComputeProfile] = None,
        energy_model: Optional[EnergyModel] = None,
        warm: bool = True,
        clock: Callable[[], float] = time.perf_counter,
        metrics: Optional[MetricRegistry] = None,
        tracing: bool = True,
    ) -> None:
        self.repository = repository
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self.tracing = tracing
        #: Optional callable receiving every structured observability
        #: record the service emits -- SLO alert dicts (``kind:
        #: "slo_alert"``) and model swap / rollback audit events (``kind:
        #: "model_swap"`` / ``"model_rollback"``).
        self.metrics_sink: Optional[Callable[[dict], None]] = None
        self.router = PrecisionRouter(
            repository,
            energy_model=energy_model,
            compute_profile=compute_profile,
            metrics=self.metrics,
        )
        self.modelled_accounting = compute_profile is not None or energy_model is not None
        self.clock = clock
        self.stats = ServeStats(self.metrics)
        self.scheduler = Scheduler(clock=clock, metrics=self.metrics)
        self.traces = TraceLog(256)
        self.slo = SLOMonitor(self.metrics, clock=clock, sink=self._on_slo_alert)
        self._queue_policy = queue_policy or QueuePolicy()
        self._request_ids = itertools.count()
        self._known_queues = set()
        #: Optional callable ``(model, x, label, prediction)`` receiving
        #: every :meth:`record_feedback` sample; set by the adaptation
        #: manager that watches this service.
        self.feedback_sink: Optional[Callable[[str, np.ndarray, int, Optional[int]], None]] = None
        if repository.plan_cache._metric_counters is None:
            # Surface compile / hit / invalidation counts alongside the
            # serving metrics; a cache already bound keeps its registry.
            repository.plan_cache.bind_metrics(self.metrics)
        self._swap_counter = self.metrics.counter(
            "repo_swaps_total",
            "Hot swaps / rollbacks installed, by model and kind.",
            labels=("model", "kind"),
        )
        repository.add_swap_listener(self._on_swap)
        for model in repository.models():
            for bits in repository.variants(model):
                key = _queue_key(model, bits)
                self.scheduler.register(key, self._queue_policy)
                self._known_queues.add(key)
        if warm:
            repository.warm()
        self.pool = WorkerPool(
            self.scheduler,
            _RepositoryExecutor(self),
            workers=workers,
            stats=self.stats,
            clock=clock,
            metrics=self.metrics,
            trace_log=self.traces,
            slo_monitor=self.slo,
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "InferenceService":
        """Start the worker pool; returns ``self`` (also via ``with``)."""
        self.pool.start()
        return self

    def stop(self, timeout: Optional[float] = None) -> None:
        """Drain the queues, stop the workers, run a final SLO evaluation.

        Args:
            timeout: Per-thread join timeout in seconds (``None`` waits).
        """
        self.pool.stop(timeout)
        self.slo.evaluate()

    def __enter__(self) -> "InferenceService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #
    def submit(
        self,
        model: str,
        x: np.ndarray,
        slo: RequestSLO = DEFAULT_SLO,
    ) -> ResultFuture:
        """Route, admit and enqueue one request.

        Args:
            model: Repository model name.
            x: One sample in the model's per-sample input shape (copied).
            slo: Routing objective (quality floor, energy/latency budgets).

        Returns:
            A :class:`~repro.serve.types.ResultFuture` fulfilled by the
            worker that executes the request's batch.

        Raises:
            repro.serve.scheduler.QueueFullError: the routed variant's
                queue is at its bounded depth (counted in
                ``stats.rejected``).
            repro.serve.routing.NoVariantError: no variant satisfies a
                strict SLO.
            ValueError: the sample's shape does not match the model.
            KeyError: the model is not registered.
        """
        decision = self.route(model, slo)
        x = np.array(x, dtype=np.float64, copy=True)
        expected = self.repository.input_shape(model)
        if x.shape != expected:
            raise ValueError(
                f"request shape {x.shape} does not match model {model!r}'s "
                f"per-sample input shape {expected}"
            )
        future = ResultFuture()
        request_id = next(self._request_ids)
        enqueued_at = self.clock()
        trace = (
            Trace(request_id, clock=self.clock, model=model, started_at=enqueued_at)
            if self.tracing
            else None
        )
        request = InferenceRequest(
            request_id=request_id,
            x=x,
            enqueued_at=enqueued_at,
            model=model,
            bits=decision.bits,
            future=future,
            trace=trace,
            slo=slo,
        )
        key = _queue_key(model, decision.bits)
        self._ensure_queue(key)
        try:
            self.scheduler.submit(key, request)
        except QueueFullError:
            self.stats.record_rejected()
            raise
        return future

    def _ensure_queue(self, key: str) -> None:
        """Register a queue for a variant added to the repository after
        construction (the repository is mutable and thread-safe, so late
        ``add_export`` calls are legitimate).  The local set keeps the
        check off the scheduler lock on the submit hot path."""
        if key in self._known_queues:
            return
        try:
            self.scheduler.register(key, self._queue_policy)
        except ValueError:
            pass  # another submitter registered it first
        self._known_queues.add(key)

    def route(self, model: str, slo: RequestSLO = DEFAULT_SLO) -> RoutingDecision:
        """The routing decision ``submit`` would make (without enqueueing).

        Args:
            model: Repository model name.
            slo: The request's service-level objective.

        Returns:
            The router's :class:`~repro.serve.routing.RoutingDecision`.

        Raises:
            repro.serve.routing.NoVariantError: no variant satisfies a
                strict SLO (or the quality floor excludes every variant).
        """
        return self.router.route(model, slo)

    # ------------------------------------------------------------------ #
    # Labelled feedback (drives online adaptation)
    # ------------------------------------------------------------------ #
    def record_feedback(
        self,
        model: str,
        x: np.ndarray,
        label: int,
        *,
        prediction: Optional[int] = None,
    ) -> None:
        """Report the ground-truth label of a previously served sample.

        Feedback is the quality signal of the online-adaptation loop: it
        feeds the service's aggregate ``stats`` (observed accuracy) and is
        forwarded to the attached :attr:`feedback_sink` -- typically an
        :class:`repro.adapt.OnlineAdaptationManager`, which buffers the
        sample for fine-tuning and evaluates its drift triggers.

        Args:
            model: Repository model the sample was served from.
            x: The sample, in the model's per-sample input shape.
            label: Its ground-truth class.
            prediction: The class the service predicted, if the caller kept
                the :class:`~repro.serve.types.InferenceResult`; lets the
                stats track observed accuracy.

        Raises:
            KeyError: ``model`` is not registered with the repository.
            ValueError: the sample's shape does not match the model's
                per-sample input shape.
        """
        expected = self.repository.input_shape(model)  # raises KeyError when unknown
        x = np.asarray(x, dtype=np.float64)
        if x.shape != expected:
            raise ValueError(
                f"feedback shape {x.shape} does not match model {model!r}'s "
                f"per-sample input shape {expected}"
            )
        # Registry-backed counters are individually atomic, so concurrent
        # feedback reporters and batch-recording workers can no longer
        # lose updates against each other (the historical ServeStats race).
        self.stats.record_feedback(int(label), prediction)
        sink = self.feedback_sink
        if sink is not None:
            sink(model, x, int(label), None if prediction is None else int(prediction))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def pending(self, model: Optional[str] = None) -> int:
        """Queued-but-unserved request count (one model, or the service).

        A variant added to the repository after construction counts from
        its first request; until then it has no queue and nothing pending.

        Raises:
            KeyError: ``model`` is not registered.
        """
        if model is None:
            return self.scheduler.pending()
        total = 0
        for bits in self.repository.variants(model):
            key = _queue_key(model, bits)
            if key in self._known_queues:
                total += self.scheduler.pending(key)
        return total

    @property
    def batch_records(self) -> List:
        """Per-batch accounting records, in execution order."""
        return self.pool.batch_records

    def metrics_snapshot(self) -> MetricsSnapshot:
        """A point-in-time, immutable snapshot of every service metric.

        While the pool runs, the ``blas_threads`` gauge is first re-read
        from OpenBLAS: a capped ``Trainer.fit`` beside the pool (an
        adaptation job) runs its workers on one thread until it returns.
        """
        if self.pool.running:
            record_blas_threads(self.metrics, blas.current_threads())
        return self.metrics.snapshot()

    def evaluate_slo(self) -> List:
        """Run one SLO burn evaluation now; returns the alerts raised
        (each is also forwarded to :attr:`metrics_sink`)."""
        return self.slo.evaluate()

    # ------------------------------------------------------------------ #
    # Observability hooks
    # ------------------------------------------------------------------ #
    def _emit(self, record: dict) -> None:
        """Forward one structured observability record to the sink."""
        sink = self.metrics_sink
        if sink is not None:
            sink(record)

    def _on_slo_alert(self, alert) -> None:
        self._emit(alert.as_dict())

    def _on_swap(self, model: str, bits: int, generation: int) -> None:
        """Repository swap listener: count the install and emit an audit
        record distinguishing forward swaps from rollbacks."""
        try:
            source = self.repository.current_version(model, bits).source
        except KeyError:  # pragma: no cover - variant vanished mid-notify
            source = "swap"
        kind = "rollback" if source == "rollback" else "swap"
        self._swap_counter.labels(model=model, kind=kind).inc()
        self._emit(
            {
                "kind": f"model_{kind}",
                "model": model,
                "bits": bits,
                "generation": generation,
                "at": self.clock(),
            }
        )
