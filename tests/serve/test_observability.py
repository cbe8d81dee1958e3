"""Observability through the serving stack: traces, metrics, SLO, audit.

Every test here runs on injected clocks -- no wall-clock sleeps, no
timing-dependent assertions.
"""

import threading

import numpy as np
import pytest

from repro.hardware.latency import COMPUTE_PROFILES
from repro.hardware.energy import EnergyModel
from repro.models import build_model
from repro.obs import ManualClock, MetricRegistry
from repro.quant import export_quantized_model
from repro.serve import (
    InferenceService,
    ModelRepository,
    QueuePolicy,
    RequestSLO,
    ServeStats,
)
from repro.serve.types import BatchRecord

SHAPE = (1, 12, 12)


def _repo(bits=(4, 8), seed=0, models=("tiny",)):
    repo = ModelRepository()
    for name in models:
        model = build_model(
            "tiny_convnet", num_classes=5, in_channels=1, rng=np.random.default_rng(seed)
        )
        repo.add_model(name, model, SHAPE)
        for width in bits:
            repo.add_export(
                name,
                export_quantized_model(
                    model, {n: width for n, _ in model.named_parameters()}
                ),
            )
    return repo


def _serve(service, count, model="tiny", slo=None, seed=0):
    rng = np.random.default_rng(seed)
    futures = [
        service.submit(model, rng.normal(size=SHAPE), *(() if slo is None else (slo,)))
        for _ in range(count)
    ]
    return [future.result(timeout=10.0) for future in futures]


class TestEndToEndTraces:
    def test_request_trace_has_ordered_contiguous_spans(self):
        # tick > 0: every clock reading is distinct and deterministic, so
        # span ordering/containment asserts exactly, multi-threaded or not.
        clock = ManualClock(tick=0.001)
        repo = _repo()
        with InferenceService(repo, workers=2, clock=clock) as service:
            results = _serve(service, 12)
        for result in results:
            trace = result.trace
            assert trace is not None
            names = [span.name for span in trace.spans]
            assert names == ["queue_wait", "batch_assembly", "kernel", "post"]
            # Spans tile the request lifetime: each opens where the
            # previous closed, and durations sum to the recorded total.
            for before, after in zip(trace.spans, trace.spans[1:]):
                assert after.start == before.end
            assert sum(s.duration for s in trace.spans) == pytest.approx(
                trace.total_seconds, abs=1e-9
            )
            assert trace.total_seconds > 0
        # Completed traces also land in the service's ring.
        assert len(service.traces) == 12
        assert service.traces.appended == 12

    def test_tracing_disabled_attaches_no_traces(self):
        repo = _repo()
        with InferenceService(repo, workers=1, tracing=False) as service:
            results = _serve(service, 4)
        assert all(result.trace is None for result in results)
        assert len(service.traces) == 0


class TestServiceMetrics:
    def test_serving_populates_phase_histograms_and_counters(self):
        repo = _repo()
        registry = MetricRegistry()
        with InferenceService(repo, workers=2, metrics=registry) as service:
            _serve(service, 20)
        snap = registry.snapshot()
        assert snap.histogram_value("serve_queue_wait_seconds", model="tiny").count == 20
        kernel = snap.histogram_value("serve_kernel_seconds", model="tiny")
        assert kernel.count >= 1 and kernel.sum > 0
        assert snap.counter_value("serve_requests_total", model="tiny") == 20
        assert snap.counter_value("serve_queue_submitted_total", queue="tiny@4") == 20
        assert snap.counter_value("serve_routed_total", model="tiny", bits="4") == 20
        assert snap.histogram_value("serve_batch_size", model="tiny").count >= 1
        # The repository's plan cache reports its warm-up compiles here too
        # (the fp32 variant's among them).
        assert snap.counter_value("plan_cache_misses_total") == 3

    def test_slo_violations_alert_through_metrics_sink(self):
        repo = _repo()
        events = []
        profile = COMPUTE_PROFILES["smartphone_npu"]
        service = InferenceService(
            repo, workers=1, compute_profile=profile, energy_model=EnergyModel()
        )
        service.metrics_sink = events.append
        impossible = RequestSLO(max_latency_s=1e-12)
        with service:
            _serve(service, 20, slo=impossible)
        # stop() runs a final evaluation; the all-violations window must
        # have crossed the burn threshold and reached the sink.
        alerts = [event for event in events if event["kind"] == "slo_alert"]
        assert alerts, f"no slo_alert in {events}"
        assert alerts[0]["model"] == "tiny"
        assert alerts[0]["burn_rate"] >= 1.0
        snap = service.metrics_snapshot()
        assert snap.counter_value(
            "slo_violations_total", model="tiny", objective="latency"
        ) == 20
        assert snap.counter_value(
            "slo_evaluations_total", model="tiny", objective="latency"
        ) >= 1

    def test_swap_and_rollback_emit_audit_events_and_counters(self):
        repo = _repo(bits=(8,))
        events = []
        service = InferenceService(repo, workers=1, warm=True)
        service.metrics_sink = events.append
        model = build_model(
            "tiny_convnet", num_classes=5, in_channels=1, rng=np.random.default_rng(9)
        )
        export = export_quantized_model(
            model, {n: 8 for n, _ in model.named_parameters()}
        )
        repo.swap("tiny", export)
        repo.rollback("tiny", 8)
        kinds = [event["kind"] for event in events]
        assert kinds == ["model_swap", "model_rollback"]
        assert events[0]["model"] == "tiny" and events[0]["bits"] == 8
        snap = service.metrics_snapshot()
        assert snap.counter_value("repo_swaps_total", model="tiny", kind="swap") == 1
        assert snap.counter_value("repo_swaps_total", model="tiny", kind="rollback") == 1


class TestQueueDepthGauge:
    def _scheduler(self, max_depth=None):
        from repro.serve import Scheduler

        registry = MetricRegistry()
        scheduler = Scheduler(clock=ManualClock(), metrics=registry)
        scheduler.register("m@8", QueuePolicy(max_batch_size=2, max_depth=max_depth))
        return scheduler, registry

    def _depth(self, registry):
        return registry.snapshot().counter_value("serve_queue_depth", queue="m@8")

    def test_gauge_tracks_enqueue_and_dequeue_commit(self):
        from repro.serve.types import InferenceRequest

        scheduler, registry = self._scheduler()
        for index in range(3):
            scheduler.submit("m@8", InferenceRequest(index, np.zeros(SHAPE), 0.0))
            assert self._depth(registry) == index + 1
        # Dequeue-commit: popping a full batch drops the gauge by the
        # batch size the moment the requests leave the pending deque --
        # the requests are now the worker's, not the queue's.
        key, batch = scheduler.get_batch(timeout=0)
        assert key == "m@8"
        assert len(batch) == 2
        assert self._depth(registry) == 1
        assert self._depth(registry) == scheduler.pending("m@8")

    def test_gauge_is_stamped_on_the_rejection_path(self):
        from repro.serve import QueueFullError
        from repro.serve.types import InferenceRequest

        scheduler, registry = self._scheduler(max_depth=2)
        for index in range(2):
            scheduler.submit("m@8", InferenceRequest(index, np.zeros(SHAPE), 0.0))
        with pytest.raises(QueueFullError):
            scheduler.submit("m@8", InferenceRequest(9, np.zeros(SHAPE), 0.0))
        # The refused request never entered the queue; the gauge still
        # reflects the true depth (it is re-stamped, not skipped, on
        # rejection).
        assert self._depth(registry) == 2


class TestServeStatsView:
    def test_stats_are_registry_backed_views(self):
        registry = MetricRegistry()
        stats = ServeStats(registry)
        stats.record_batch(BatchRecord(batch_id=0, size=3, compute_seconds=0.25,
                                       model="tiny"), [0.1, 0.2, 0.3])
        assert stats.requests == 3
        assert stats.batches == 1
        assert stats.requests_by_model == {"tiny": 3}
        assert registry.snapshot().counter_value("serve_requests_total", model="tiny") == 3
        assert registry.snapshot().histogram_value(
            "serve_request_latency_seconds"
        ).count == 3
        # Exact percentiles still come from the raw latency list.
        assert stats.latency_percentile(50) == pytest.approx(0.2)
        # Read-only views: the atomic recorders are the only writers.
        with pytest.raises(AttributeError):
            stats.requests = 0

    def test_feedback_and_batch_recording_race(self):
        """Regression: feedback counters updated concurrently with batch
        counters must lose no updates (the historical ServeStats race)."""
        stats = ServeStats()
        per_thread = 400

        def feedback_worker(worker: int):
            for index in range(per_thread):
                # Alternate correct/incorrect so observed_accuracy is exact.
                stats.record_feedback(label=index % 2, prediction=0)

        def batch_worker(worker: int):
            for index in range(per_thread):
                stats.record_batch(
                    BatchRecord(batch_id=index, size=1, compute_seconds=0.001,
                                model=f"m{worker}"),
                    [0.001],
                )

        threads = [
            threading.Thread(target=feedback_worker, args=(index,)) for index in range(3)
        ] + [
            threading.Thread(target=batch_worker, args=(index,)) for index in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stats.feedback == 3 * per_thread
        assert stats.feedback_predicted == 3 * per_thread
        assert stats.feedback_correct == 3 * per_thread // 2
        assert stats.observed_accuracy == pytest.approx(0.5)
        assert stats.requests == 3 * per_thread
        assert stats.batches == 3 * per_thread
        assert len(stats.latencies) == 3 * per_thread


class TestSLOThroughService:
    def test_final_evaluation_runs_on_stop(self):
        repo = _repo()
        service = InferenceService(repo, workers=1)
        with service:
            _serve(service, 20, slo=RequestSLO(max_latency_s=30.0))
        snap = service.metrics_snapshot()
        assert snap.counter_value(
            "slo_observations_total", model="tiny", objective="latency"
        ) == 20
        assert snap.counter_value(
            "slo_evaluations_total", model="tiny", objective="latency"
        ) >= 1
