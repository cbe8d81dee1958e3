"""The concurrent serving stack: scheduler, repository, router, service."""

import threading
import time

import numpy as np
import pytest

from repro.hardware import EnergyModel, profile_model
from repro.hardware.latency import COMPUTE_PROFILES
from repro.models import build_model
from repro.quant import export_quantized_model
from repro.runtime import compile_plan
from repro.serve import (
    FLOAT_BITS,
    BatchAccountant,
    BatchRecord,
    InferenceRequest,
    InferenceService,
    ModelRepository,
    NoVariantError,
    PrecisionRouter,
    QueueFullError,
    QueuePolicy,
    RequestSLO,
    Scheduler,
    run_serve_bench,
)
from repro.tensor import Tensor, no_grad

SHAPE = (1, 12, 12)


def _model(seed=0, classes=5):
    return build_model(
        "tiny_convnet", num_classes=classes, in_channels=1, rng=np.random.default_rng(seed)
    )


def _repo(bits=(4, 8), seed=0):
    model = _model(seed)
    repo = ModelRepository()
    repo.add_model("tiny", model, SHAPE)
    for width in bits:
        repo.add_export(
            "tiny",
            export_quantized_model(model, {n: width for n, _ in model.named_parameters()}),
        )
    return repo, model


def _request(request_id=0, enqueued_at=0.0):
    return InferenceRequest(request_id, np.zeros(SHAPE), enqueued_at)


from repro.obs import ManualClock as FakeClock  # noqa: E402 - shared test clock


class TestScheduler:
    def test_backpressure_rejects_at_bounded_depth(self):
        scheduler = Scheduler(clock=FakeClock())
        scheduler.register("m", QueuePolicy(max_batch_size=8, max_depth=3))
        for index in range(3):
            scheduler.submit("m", _request(index))
        with pytest.raises(QueueFullError, match="bounded depth"):
            scheduler.submit("m", _request(3))
        assert scheduler.pending("m") == 3
        # Popping a batch frees capacity again.
        scheduler.get_batch(timeout=0)
        scheduler.submit("m", _request(4))

    def test_full_batch_is_due_partial_waits_for_delay(self):
        clock = FakeClock()
        scheduler = Scheduler(clock=clock)
        scheduler.register("m", QueuePolicy(max_batch_size=2, max_queue_delay_s=1.0))
        scheduler.submit("m", _request(0, clock()))
        assert scheduler.get_batch(timeout=0) is None
        clock.advance(1.5)
        name, batch = scheduler.get_batch(timeout=0)
        assert name == "m" and [r.request_id for r in batch] == [0]
        scheduler.submit("m", _request(1, clock()))
        scheduler.submit("m", _request(2, clock()))
        assert scheduler.get_batch(timeout=0) is not None  # full batch, no waiting

    def test_round_robin_across_models(self):
        clock = FakeClock()
        scheduler = Scheduler(clock=clock)
        scheduler.register("a", QueuePolicy(max_batch_size=1))
        scheduler.register("b", QueuePolicy(max_batch_size=1))
        for index in range(4):
            scheduler.submit("a", _request(index, clock()))
            scheduler.submit("b", _request(10 + index, clock()))
        served = [scheduler.get_batch(timeout=0)[0] for _ in range(8)]
        assert served.count("a") == 4 and served.count("b") == 4
        assert served[:2] in (["a", "b"], ["b", "a"])  # neither starves

    def test_unknown_model_and_bad_policy(self):
        scheduler = Scheduler()
        scheduler.register("m")
        with pytest.raises(KeyError, match="not registered"):
            scheduler.submit("ghost", _request())
        with pytest.raises(ValueError, match="already registered"):
            scheduler.register("m")
        with pytest.raises(ValueError, match="max_batch_size"):
            QueuePolicy(max_batch_size=0)
        with pytest.raises(ValueError, match="max_queue_delay_s"):
            QueuePolicy(max_queue_delay_s=-1.0)
        with pytest.raises(ValueError, match="max_depth"):
            QueuePolicy(max_depth=0)

    def test_blocking_get_batch_wakes_on_submit_and_stop(self):
        scheduler = Scheduler()
        scheduler.register("m", QueuePolicy(max_batch_size=1))
        got = []
        served = threading.Event()

        def consumer():
            while True:
                item = scheduler.get_batch()
                if item is None:
                    return
                got.append(item[1][0].request_id)
                served.set()

        thread = threading.Thread(target=consumer)
        thread.start()
        scheduler.submit("m", _request(7, time.perf_counter()))
        assert served.wait(timeout=5.0), "consumer never received the batch"
        scheduler.stop()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert got == [7]

    def test_stop_drains_partial_batches(self):
        scheduler = Scheduler()
        scheduler.register("m", QueuePolicy(max_batch_size=100, max_queue_delay_s=float("inf")))
        for index in range(3):
            scheduler.submit("m", _request(index, time.perf_counter()))
        scheduler.stop()
        name, batch = scheduler.get_batch()
        assert name == "m" and len(batch) == 3
        assert scheduler.get_batch() is None


class TestRepository:
    def test_variants_sorted_narrowest_first(self):
        repo, _ = _repo(bits=(8, 4))
        assert repo.variants("tiny") == [4, 8, FLOAT_BITS]

    def test_registration_errors(self):
        repo, model = _repo(bits=(8,))
        with pytest.raises(ValueError, match="already registered"):
            repo.add_model("tiny", model, SHAPE)
        with pytest.raises(ValueError, match="already has"):
            repo.add_export(
                "tiny", export_quantized_model(model, {n: 8 for n, _ in model.named_parameters()})
            )
        with pytest.raises(KeyError, match="not registered"):
            repo.plan("ghost")
        with pytest.raises(KeyError, match="no 6-bit variant"):
            repo.plan("tiny", 6)

    def test_forward_bits_without_compiling(self):
        repo, _ = _repo(bits=(4,))
        bits = repo.forward_bits("tiny", 4)
        assert set(bits.values()) == {4}
        assert repo.plan_cache.compiles == 0  # pricing is metadata-only
        assert set(repo.forward_bits("tiny", FLOAT_BITS).values()) == {32}

    def test_plans_match_direct_compilation(self):
        repo, model = _repo(bits=(8,))
        x = np.random.default_rng(3).normal(size=(3,) + SHAPE)
        model.eval()
        with no_grad():
            expected = model(Tensor(x)).data
        np.testing.assert_allclose(repo.plan("tiny", FLOAT_BITS).run(x), expected,
                                   rtol=1e-6, atol=1e-8)
        # The quantised variant serves integer codes of the same weights.
        assert repo.plan("tiny", 8).quantized

    def test_concurrent_lookups_compile_each_variant_once(self):
        repo, _ = _repo(bits=(4, 8))
        results = []
        barrier = threading.Barrier(8)

        def worker(bits):
            barrier.wait()
            results.append((bits, repo.plan("tiny", bits)))

        threads = [
            threading.Thread(target=worker, args=(bits,)) for bits in (4, 8) * 4
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert repo.plan_cache.compiles == 2  # one per variant, not per lookup
        by_bits = {}
        for bits, plan in results:
            by_bits.setdefault(bits, plan)
            assert by_bits[bits] is plan

    def test_load_export_file_round_trip(self, tmp_path):
        from repro.quant import save_export

        repo, model = _repo(bits=())
        export = export_quantized_model(model, {n: 8 for n, _ in model.named_parameters()})
        path = save_export(export, tmp_path / "tiny8.npz")
        assert repo.load_export_file("tiny", path) == 8
        x = np.random.default_rng(1).normal(size=(2,) + SHAPE)
        np.testing.assert_array_equal(
            repo.plan("tiny", 8).run(x),
            repo.plan_cache.get_or_compile(model, export, SHAPE).run(x),
        )
        # Same content hash: the reloaded archive shares the cached plan.
        assert repo.plan_cache.compiles == 1

    def test_warm_compiles_everything(self):
        repo, _ = _repo(bits=(4, 8))
        assert repo.warm() == 3  # 4-bit + 8-bit + fp32
        assert repo.plan_cache.compiles == 3  # fp32 compiles through the cache too


class TestRouting:
    def test_default_routes_to_narrowest(self):
        repo, _ = _repo(bits=(4, 8))
        router = PrecisionRouter(repo)
        assert router.route("tiny").bits == 4

    def test_min_bits_is_a_quality_floor(self):
        repo, _ = _repo(bits=(4, 8))
        router = PrecisionRouter(repo)
        assert router.route("tiny", RequestSLO(min_bits=8)).bits == 8
        assert router.route("tiny", RequestSLO(min_bits=16)).bits == FLOAT_BITS
        with pytest.raises(NoVariantError, match="quality floor"):
            router.route("tiny", RequestSLO(min_bits=64))

    def test_energy_budget_admits_or_degrades(self):
        repo, _ = _repo(bits=(4, 8))
        router = PrecisionRouter(repo, compute_profile=COMPUTE_PROFILES["microcontroller"])
        cost4 = router.variant_cost("tiny", 4)
        cost32 = router.variant_cost("tiny", FLOAT_BITS)
        assert cost4.energy_uj < cost32.energy_uj
        # A budget between the 4-bit and fp32 costs, with a quality floor of
        # fp32, cannot be met: non-strict degrades (to the floor variant)...
        budget = RequestSLO(min_bits=FLOAT_BITS, max_energy_uj=cost4.energy_uj * 1.5)
        decision = router.route("tiny", budget)
        assert decision.degraded and decision.bits == FLOAT_BITS
        # ... and strict rejects.
        with pytest.raises(NoVariantError, match="strict"):
            router.route(
                "tiny",
                RequestSLO(
                    min_bits=FLOAT_BITS, max_energy_uj=cost4.energy_uj * 1.5, strict=True
                ),
            )

    def test_latency_budget_filters(self):
        repo, _ = _repo(bits=(4, 8))
        router = PrecisionRouter(repo, compute_profile=COMPUTE_PROFILES["microcontroller"])
        slow = router.variant_cost("tiny", FLOAT_BITS).device_seconds
        fast = router.variant_cost("tiny", 4).device_seconds
        assert fast < slow
        decision = router.route("tiny", RequestSLO(max_latency_s=(fast + slow) / 2))
        assert decision.bits == 4 and not decision.degraded

    def test_prefer_quality_picks_widest_within_budget(self):
        repo, _ = _repo(bits=(4, 8))
        router = PrecisionRouter(repo, compute_profile=COMPUTE_PROFILES["microcontroller"])
        assert router.route("tiny", RequestSLO(prefer="quality")).bits == FLOAT_BITS
        cost8 = router.variant_cost("tiny", 8)
        capped = RequestSLO(prefer="quality", max_energy_uj=cost8.energy_uj * 1.01)
        assert router.route("tiny", capped).bits == 8

    def test_prefer_validation(self):
        with pytest.raises(ValueError, match="prefer"):
            RequestSLO(prefer="fastest")


class TestInferenceService:
    def test_end_to_end_matches_serial_plan(self):
        repo, model = _repo(bits=(8,))
        service = InferenceService(repo, workers=3)
        samples = np.random.default_rng(2).normal(size=(12,) + SHAPE)
        with service:
            futures = [service.submit("tiny", sample) for sample in samples]
            results = [future.result(timeout=10.0) for future in futures]
        expected = repo.plan("tiny", 8).run(samples)
        got = np.stack([r.logits for r in results])
        np.testing.assert_array_equal(got, expected)
        assert {r.model for r in results} == {"tiny"}
        assert {r.bits for r in results} == {8}
        assert service.stats.requests == 12
        assert service.stats.requests_by_model == {"tiny": 12}

    def test_backpressure_counts_rejections(self):
        repo, _ = _repo(bits=(8,))
        service = InferenceService(
            repo,
            workers=1,
            queue_policy=QueuePolicy(
                max_batch_size=4, max_queue_delay_s=float("inf"), max_depth=2
            ),
        )
        sample = np.zeros(SHAPE)
        # Workers not started: the queue fills and then rejects.
        service.submit("tiny", sample)
        service.submit("tiny", sample)
        with pytest.raises(QueueFullError):
            service.submit("tiny", sample)
        assert service.stats.rejected == 1
        assert service.pending("tiny") == 2
        service.stop()

    def test_slo_routing_per_request(self):
        repo, _ = _repo(bits=(4, 8))
        service = InferenceService(repo, workers=2)
        sample = np.random.default_rng(0).normal(size=SHAPE)
        with service:
            cheap = service.submit("tiny", sample).result(timeout=10.0)
            precise = service.submit(
                "tiny", sample, RequestSLO(min_bits=FLOAT_BITS)
            ).result(timeout=10.0)
        assert cheap.bits == 4
        assert precise.bits == FLOAT_BITS
        assert cheap.prediction == int(np.argmax(cheap.logits))

    def test_multi_model_serving(self):
        repo, _ = _repo(bits=(8,))
        other = _model(seed=9, classes=7)
        repo.add_model("other", other, SHAPE)
        service = InferenceService(repo, workers=2)
        rng = np.random.default_rng(4)
        with service:
            futures = [
                (name, service.submit(name, rng.normal(size=SHAPE)))
                for name in ["tiny", "other"] * 6
            ]
            results = [(name, future.result(timeout=10.0)) for name, future in futures]
        for name, result in results:
            assert result.model == name
            assert result.logits.shape == ((5,) if name == "tiny" else (7,))
        assert service.stats.requests_by_model == {"tiny": 6, "other": 6}

    def test_shape_validation(self):
        repo, _ = _repo(bits=(8,))
        service = InferenceService(repo, workers=1)
        with pytest.raises(ValueError, match="does not match"):
            service.submit("tiny", np.zeros((2, 2)))
        service.stop()

    def test_variant_added_after_construction_is_servable(self):
        repo, model = _repo(bits=(8,))
        service = InferenceService(repo, workers=1)
        with service:
            # The repository is mutable: a variant registered mid-flight
            # gets a queue on first submit instead of a KeyError.
            repo.add_export(
                "tiny",
                export_quantized_model(model, {n: 4 for n, _ in model.named_parameters()}),
            )
            result = service.submit(
                "tiny", np.random.default_rng(0).normal(size=SHAPE)
            ).result(timeout=10.0)
        assert result.bits == 4

    def test_pending_counts_a_late_variant_from_its_first_request(self):
        repo, model = _repo(bits=(8,))
        service = InferenceService(
            repo,
            workers=1,
            queue_policy=QueuePolicy(max_batch_size=4, max_queue_delay_s=float("inf")),
        )
        repo.add_export(
            "tiny",
            export_quantized_model(model, {n: 4 for n, _ in model.named_parameters()}),
        )
        # The 4-bit variant has no queue yet, so nothing is pending in it.
        assert service.pending("tiny") == 0
        service.submit("tiny", np.zeros(SHAPE))  # routed to the new 4-bit variant
        assert service.pending("tiny") == 1
        assert service.pending() == 1
        with pytest.raises(KeyError):
            service.pending("ghost")
        service.stop()

    def test_submit_after_stop_raises_instead_of_hanging(self):
        repo, _ = _repo(bits=(8,))
        service = InferenceService(repo, workers=1)
        service.start()
        service.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            service.submit("tiny", np.zeros(SHAPE))
        assert service.stats.rejected == 0  # a stopped service is not backpressure

    def test_batch_records_carry_variant_and_accounting(self):
        repo, _ = _repo(bits=(4,))
        service = InferenceService(
            repo, workers=1, compute_profile=COMPUTE_PROFILES["microcontroller"]
        )
        with service:
            futures = [
                service.submit("tiny", np.random.default_rng(i).normal(size=SHAPE))
                for i in range(4)
            ]
            for future in futures:
                future.result(timeout=10.0)
        assert service.batch_records
        record = service.batch_records[0]
        assert record.model == "tiny" and record.bits == 4
        assert record.energy_pj and record.energy_pj > 0
        assert record.device_seconds and record.device_seconds > 0
        assert service.stats.energy_pj > 0


def _unstarted(clock, bits=(8,), batch=4, delay=float("inf"), **kwargs):
    repo, model = _repo(bits=bits)
    service = InferenceService(
        repo,
        workers=1,
        clock=clock,
        queue_policy=QueuePolicy(max_batch_size=batch, max_queue_delay_s=delay),
        **kwargs,
    )
    return service, repo


def _drain(service, futures):
    """Start the worker on what is already queued; ``stop`` flushes the tail."""
    service.start()
    service.stop(timeout=10.0)
    return [future.result(timeout=10.0) for future in futures]


class TestDeterministicServing:
    """Requests submitted to an unstarted one-worker service under a
    ManualClock wait in their queue; ``start`` and ``stop`` then serve them
    in a fixed sequence of batches."""

    def test_submit_copies_the_sample(self):
        service, repo = _unstarted(FakeClock(), batch=2)
        buffer = np.zeros(SHAPE)
        first = np.random.default_rng(0).normal(size=SHAPE)
        buffer[...] = first
        futures = [service.submit("tiny", buffer)]
        buffer[...] = 100.0  # front-end reuses its input buffer
        futures.append(service.submit("tiny", buffer))
        results = _drain(service, futures)
        expected = repo.plan("tiny", 8).run(np.stack([first, buffer]))
        np.testing.assert_array_equal(results[0].logits, expected[0])
        np.testing.assert_array_equal(results[1].logits, expected[1])

    def test_results_carry_request_ids_in_submit_order(self):
        service, _ = _unstarted(FakeClock(), batch=3)
        rng = np.random.default_rng(1)
        futures = [service.submit("tiny", rng.normal(size=SHAPE)) for _ in range(5)]
        results = _drain(service, futures)
        assert [r.request_id for r in results] == list(range(5))

    def test_delay_turns_a_lone_request_into_a_partial_batch(self):
        clock = FakeClock()
        service, _ = _unstarted(clock, batch=8, delay=0.5)
        future = service.submit("tiny", np.zeros(SHAPE))
        assert service.scheduler.get_batch(timeout=0) is None  # not due yet
        clock.advance(0.6)
        service.start()
        # Served before stop() could flush it: the delay made it due.
        result = future.result(timeout=10.0)
        service.stop(timeout=10.0)
        assert result.batch_size == 1
        assert result.queue_seconds == pytest.approx(0.6)

    def test_ten_requests_at_batch_four_drain_as_four_four_two(self):
        service, _ = _unstarted(FakeClock(), batch=4)
        rng = np.random.default_rng(2)
        futures = [service.submit("tiny", rng.normal(size=SHAPE)) for _ in range(10)]
        assert len(_drain(service, futures)) == 10
        assert service.pending() == 0
        assert [record.size for record in service.batch_records] == [4, 4, 2]

    def test_stats_totals(self):
        # A ticking clock gives every span a non-zero, reproducible duration.
        service, _ = _unstarted(FakeClock(tick=1e-3), batch=4)
        rng = np.random.default_rng(3)
        _drain(service, [service.submit("tiny", rng.normal(size=SHAPE)) for _ in range(9)])
        stats = service.stats
        assert stats.requests == 9
        assert stats.batches == 3
        assert stats.mean_batch_size == pytest.approx(3.0)
        assert len(stats.latencies) == 9
        assert stats.throughput_rps > 0
        assert stats.latency_percentile(95) >= stats.latency_percentile(50)

    def test_four_bit_variant_models_under_half_the_fp32_energy(self):
        service, _ = _unstarted(FakeClock(), bits=(4,), batch=4, energy_model=EnergyModel())
        rng = np.random.default_rng(4)
        samples = [rng.normal(size=SHAPE) for _ in range(4)]
        futures = [service.submit("tiny", x) for x in samples]
        futures += [service.submit("tiny", x, RequestSLO(min_bits=FLOAT_BITS)) for x in samples]
        _drain(service, futures)
        energy = {record.bits: record.energy_pj for record in service.batch_records}
        assert sorted(energy) == [4, FLOAT_BITS]
        assert energy[4] < energy[FLOAT_BITS] * 0.5


@pytest.fixture
def served_model():
    model = build_model("tiny_convnet", num_classes=5, in_channels=1, rng=np.random.default_rng(0))
    shape = (1, 12, 12)
    return model, shape, compile_plan(model, shape)


def _accounted_energy_uj(model, shape, plan, sizes, device="smartphone_npu"):
    """BatchAccountant's per-request energy over batches of ``sizes``."""
    accountant = BatchAccountant(
        profile_model(model, shape), EnergyModel(), COMPUTE_PROFILES[device]
    )
    energy_pj = 0.0
    for size in sizes:
        record = BatchRecord(batch_id=0, size=size, compute_seconds=0.0)
        accountant.annotate(record, plan.bits_by_layer())
        energy_pj += record.energy_pj
    return energy_pj / sum(sizes) * 1e-6


class TestServeBench:
    def test_report_structure(self, served_model):
        model, shape, plan = served_model
        report = run_serve_bench(
            model, shape, bits_list=(8,), batch_size=4, requests=16, repeats=1
        )
        variants = [row.variant for row in report.rows]
        assert variants == ["module-forward", "module-no-grad", "plan-fp32", "plan-8bit"]
        assert report.row("plan-8bit").weight_kib < report.row("plan-fp32").weight_kib
        assert report.row("module-forward").speedup_vs_module == 1.0
        assert all(row.throughput_rps > 0 for row in report.rows)
        assert len(report.format_rows()) == len(report.rows) + 2
        assert report.row("plan-fp32").energy_uj_per_request == _accounted_energy_uj(
            model, shape, plan, [4, 4, 4, 4]
        )

    def test_bench_restores_model_weights_and_mode(self, served_model):
        model, shape, _ = served_model
        model.train()
        before = {name: p.data.copy() for name, p in model.named_parameters()}
        run_serve_bench(model, shape, bits_list=(4, 8), batch_size=4, requests=8,
                        repeats=1, device=None)
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(param.data, before[name])
        assert model.training

    def test_bench_validates_sizes(self, served_model):
        model, shape, _ = served_model
        with pytest.raises(ValueError, match="repeats"):
            run_serve_bench(model, shape, repeats=0, requests=4, device=None)
        with pytest.raises(ValueError, match="requests"):
            run_serve_bench(model, shape, requests=0, device=None)
        with pytest.raises(ValueError, match="batch_size"):
            run_serve_bench(model, shape, batch_size=0, requests=4, device=None)

    def test_bench_variants_export_from_original_weights(self, served_model):
        from repro.quant import export_quantized_model

        model, shape, _ = served_model
        # 8-bit after a lossy 4-bit variant must equal a clean 8-bit export.
        clean = export_quantized_model(model, {n: 8 for n, _ in model.named_parameters()})
        run_serve_bench(model, shape, bits_list=(4,), batch_size=4, requests=8,
                        repeats=1, device=None)
        after = export_quantized_model(model, {n: 8 for n, _ in model.named_parameters()})
        for name, tensor in clean.quantized.items():
            assert after.quantized[name] == tensor

    def test_bench_with_prebuilt_export(self, served_model):
        from repro.quant import export_quantized_model

        model, shape, _ = served_model
        export = export_quantized_model(model, {n: 6 for n, _ in model.named_parameters()})
        report = run_serve_bench(
            model, shape, export=export, batch_size=4, requests=12, repeats=1, device=None
        )
        assert report.row("plan-6bit").bits == 6
        assert report.row("plan-6bit").energy_uj_per_request is None
