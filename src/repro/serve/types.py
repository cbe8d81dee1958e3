"""Shared request / result / accounting types of the serving stack.

Every layer of the stack speaks these types: the scheduler queues
:class:`InferenceRequest` objects, workers and the single-model engine
produce :class:`InferenceResult` per request and one :class:`BatchRecord`
per dispatched batch, and :class:`ServeStats` aggregates either side.
:class:`BatchAccountant` owns the modelled (energy / device-latency) side of
the accounting so the cooperative engine and the threaded worker pool share
one implementation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.hardware.accounting import inference_energy_pj
from repro.hardware.energy import EnergyModel
from repro.hardware.latency import ComputeProfile, LatencyModel
from repro.hardware.profile import ModelProfile
from repro.obs.registry import DEFAULT_LATENCY_BUCKETS, MetricRegistry


class ResultFuture:
    """Hand-rolled future for one request's :class:`InferenceResult`.

    The submitting thread holds the future; the worker that executes the
    request's batch fulfils it.  Smaller than ``concurrent.futures.Future``
    on purpose: exactly one producer, results are never cancelled.
    """

    __slots__ = ("_event", "_result", "_error")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._result: Optional["InferenceResult"] = None
        self._error: Optional[BaseException] = None

    def set_result(self, result: "InferenceResult") -> None:
        """Fulfil the future (worker side)."""
        self._result = result
        self._event.set()

    def set_exception(self, error: BaseException) -> None:
        """Fail the future; ``result()`` re-raises ``error`` (worker side)."""
        self._error = error
        self._event.set()

    def done(self) -> bool:
        """Whether a result or error has been set (non-blocking)."""
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> "InferenceResult":
        """Block until the request's batch executed.

        Raises:
            TimeoutError: nothing arrived within ``timeout`` seconds.
            BaseException: whatever error the executing worker recorded.
        """
        if not self._event.wait(timeout):
            raise TimeoutError("inference result not ready within the timeout")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


@dataclass
class InferenceRequest:
    """One queued sample awaiting a batch slot."""

    request_id: int
    x: np.ndarray
    enqueued_at: float
    #: Name of the repository model this request targets ("" for the
    #: single-model engine, which serves exactly one plan).
    model: str = ""
    #: Bitwidth variant the router picked for this request (None before
    #: routing / for the single-model engine).
    bits: Optional[int] = None
    #: Completion handle fulfilled by the executing worker (None in the
    #: cooperative single-model engine, which returns results directly).
    future: Optional[ResultFuture] = None
    #: Per-request span recorder (:class:`repro.obs.Trace`); opened by the
    #: service at submit time, marked by the executing worker, attached to
    #: the result.  ``None`` when tracing is disabled.
    trace: Optional[object] = None
    #: The :class:`~repro.serve.routing.RequestSLO` this request was routed
    #: under, carried along so the worker can check the served latency /
    #: energy against its budgets (``None``: no SLO accounting).
    slo: Optional[object] = None


@dataclass
class InferenceResult:
    """Outcome of one request after its batch executed."""

    request_id: int
    logits: np.ndarray
    prediction: int
    batch_id: int
    batch_size: int
    queue_seconds: float
    compute_seconds: float
    model: str = ""
    bits: Optional[int] = None
    #: The request's completed :class:`repro.obs.Trace` (queue-wait /
    #: batch-assembly / kernel / post spans), when tracing was enabled.
    trace: Optional[object] = None

    @property
    def latency_seconds(self) -> float:
        """End-to-end request latency: queueing plus batch compute."""
        return self.queue_seconds + self.compute_seconds


@dataclass
class BatchRecord:
    """Accounting for one dispatched batch."""

    batch_id: int
    size: int
    compute_seconds: float
    energy_pj: Optional[float] = None
    device_seconds: Optional[float] = None
    model: str = ""
    bits: Optional[int] = None


class ServeStats:
    """Aggregate view over everything a server / worker pool served so far.

    Since the observability refactor this is a **thin view over a
    :class:`repro.obs.MetricRegistry`**: every total lives in a registry
    counter / histogram (shared with dashboards, the ``repro.cli metrics``
    command and the SLO monitor), and the historical attribute surface --
    ``stats.requests``, ``stats.rejected`` and friends -- reads straight
    through to it.  The attributes are read-only: every mutation goes
    through the atomic recorders (:meth:`record_batch`,
    :meth:`record_rejected`, :meth:`record_feedback`), which is what fixed
    the historical feedback-vs-batch-counter race under multi-worker load.

    Args:
        registry: Registry to publish into; ``None`` creates a private
            one.  Two stats views sharing one registry share totals.
    """

    def __init__(self, registry: Optional[MetricRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricRegistry()
        self._requests = self.registry.counter(
            "serve_requests_total", "Requests served, by model.", labels=("model",)
        )
        self._batches = self.registry.counter(
            "serve_batches_total", "Batches dispatched and executed."
        )
        self._rejected = self.registry.counter(
            "serve_rejected_total", "Requests rejected by queue backpressure."
        )
        self._feedback = self.registry.counter(
            "serve_feedback_total", "Labelled feedback samples reported."
        )
        self._feedback_predicted = self.registry.counter(
            "serve_feedback_predicted_total",
            "Feedback samples that carried the service's prediction.",
        )
        self._feedback_correct = self.registry.counter(
            "serve_feedback_correct_total",
            "Feedback samples whose prediction matched the label.",
        )
        self._wall_compute = self.registry.counter(
            "serve_compute_seconds_total", "Wall-clock seconds spent in plan compute."
        )
        self._energy = self.registry.counter(
            "serve_energy_pj_total", "Modelled device energy of every batch, in pJ."
        )
        self._device_seconds = self.registry.counter(
            "serve_device_seconds_total", "Modelled device latency of every batch."
        )
        self._latency_hist = self.registry.histogram(
            "serve_request_latency_seconds",
            "End-to-end request latency (queueing + batch compute).",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        # Raw latencies are kept alongside the histogram so
        # latency_percentile stays exact (the histogram's buckets are for
        # dashboards, not for the bench reports' p50/p99 numbers).
        self._lock = threading.Lock()
        self._latencies: List[float] = []

    # -- reads (the historical attribute surface) ----------------------- #
    @property
    def requests(self) -> int:
        """Requests served so far (all models)."""
        return int(self._requests.total())

    @property
    def requests_by_model(self) -> Dict[str, int]:
        """Requests served per repository model (engine traffic excluded)."""
        return {
            labels["model"]: int(counter.value)
            for labels, counter in self._requests.series()
            if labels["model"] and counter.value
        }

    @property
    def batches(self) -> int:
        """Batches executed so far."""
        return int(self._batches.value)

    @property
    def rejected(self) -> int:
        """Requests rejected by queue backpressure."""
        return int(self._rejected.value)

    @property
    def feedback(self) -> int:
        """Labelled feedback samples reported through ``record_feedback``."""
        return int(self._feedback.value)

    @property
    def feedback_predicted(self) -> int:
        """Feedback samples that carried the service's prediction alongside."""
        return int(self._feedback_predicted.value)

    @property
    def feedback_correct(self) -> int:
        """Feedback samples whose reported prediction matched the label."""
        return int(self._feedback_correct.value)

    @property
    def wall_compute_seconds(self) -> float:
        """Wall-clock seconds spent inside plan compute."""
        return self._wall_compute.value

    @property
    def energy_pj(self) -> float:
        """Modelled device energy across every batch, in picojoules."""
        return self._energy.value

    @property
    def device_seconds(self) -> float:
        """Modelled device latency summed across every batch."""
        return self._device_seconds.value

    @property
    def latencies(self) -> List[float]:
        """Per-request end-to-end latencies, in execution order (a copy)."""
        with self._lock:
            return list(self._latencies)

    @property
    def mean_batch_size(self) -> float:
        """Average requests per dispatched batch."""
        batches = self.batches
        return self.requests / batches if batches else 0.0

    @property
    def observed_accuracy(self) -> Optional[float]:
        """Accuracy over feedback samples that carried a prediction (or None)."""
        predicted = self.feedback_predicted
        if not predicted:
            return None
        return self.feedback_correct / predicted

    @property
    def throughput_rps(self) -> float:
        """Requests per second of plan compute (excludes queueing idle time)."""
        seconds = self.wall_compute_seconds
        if seconds <= 0:
            return 0.0
        return self.requests / seconds

    def latency_percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) of per-request latency, in seconds."""
        with self._lock:
            if not self._latencies:
                return 0.0
            values = np.asarray(self._latencies)
        return float(np.percentile(values, q))

    # -- atomic recorders ----------------------------------------------- #
    def record_batch(self, record: BatchRecord, latencies: List[float]) -> None:
        """Fold one executed batch into the totals (atomic)."""
        self._requests.labels(model=record.model).inc(record.size)
        self._batches.inc()
        self._wall_compute.inc(record.compute_seconds)
        if record.energy_pj is not None:
            self._energy.inc(record.energy_pj)
        if record.device_seconds is not None:
            self._device_seconds.inc(record.device_seconds)
        hist = self._latency_hist._default()
        for latency in latencies:
            hist.observe(latency)
        with self._lock:
            self._latencies.extend(latencies)

    def record_rejected(self) -> None:
        """Count one request rejected by backpressure (atomic)."""
        self._rejected.inc()

    def record_feedback(
        self, label: int, prediction: Optional[int] = None
    ) -> None:
        """Count one labelled feedback sample (atomic).

        Each underlying counter update is atomic, so feedback totals are
        never lost under concurrent reporters -- the historical
        read-modify-write on plain ints was.
        """
        self._feedback.inc()
        if prediction is not None:
            self._feedback_predicted.inc()
            if int(prediction) == int(label):
                self._feedback_correct.inc()


def record_blas_threads(registry: Optional[MetricRegistry], blas_threads: Optional[int]) -> None:
    """Set ``registry``'s ``blas_threads`` gauge, the OpenBLAS thread count
    a pool start or stop left in effect (0 when it cannot be read).

    Every serving pool records here when it reserves or releases its
    compute threads on the :mod:`repro.runtime.blas` budget; ``None``
    (no registry) records nothing.
    """
    if registry is None:
        return
    registry.gauge(
        "blas_threads",
        "OpenBLAS threads per BLAS call as of this process's last pool "
        "start or stop (0: unreadable).",
    ).set(blas_threads if blas_threads is not None else 0)


class BatchAccountant:
    """Analytic (modelled) energy / device-latency accounting for batches.

    Wraps the :mod:`repro.hardware` models for one served model: given the
    per-layer forward bitwidths of the plan a batch executed on, attaches
    the estimated edge-device energy (pJ) and latency (s) to the batch
    record.  Stateless apart from the models, so one accountant can be
    shared by any number of workers.
    """

    def __init__(
        self,
        profile: Optional[ModelProfile],
        energy_model: Optional[EnergyModel] = None,
        compute_profile: Optional[ComputeProfile] = None,
    ) -> None:
        self.profile = profile
        self.energy_model = energy_model
        self._latency_model = (
            LatencyModel(profile, compute_profile)
            if profile is not None and compute_profile is not None
            else None
        )

    def annotate(self, record: BatchRecord, forward_bits: Dict[str, int]) -> None:
        """Fill ``record.energy_pj`` / ``record.device_seconds`` if modelled."""
        if self.profile is not None:
            record.energy_pj = inference_energy_pj(
                self.profile, forward_bits, record.size, self.energy_model
            )
        if self._latency_model is not None:
            record.device_seconds = self._latency_model.inference_seconds(
                record.size, forward_bits
            )

    def request_costs(self, forward_bits: Dict[str, int]) -> "VariantCost":
        """Modelled per-request energy (pJ) and latency (s) at these bitwidths."""
        energy = (
            inference_energy_pj(self.profile, forward_bits, 1, self.energy_model)
            if self.profile is not None
            else None
        )
        latency = (
            self._latency_model.inference_seconds(1, forward_bits)
            if self._latency_model is not None
            else None
        )
        return VariantCost(energy_pj=energy, device_seconds=latency)


@dataclass(frozen=True)
class VariantCost:
    """Modelled per-request cost of serving one bitwidth variant."""

    energy_pj: Optional[float]
    device_seconds: Optional[float]

    @property
    def energy_uj(self) -> Optional[float]:
        """The modelled energy in microjoules (the SLO budget's unit)."""
        return None if self.energy_pj is None else self.energy_pj * 1e-6
