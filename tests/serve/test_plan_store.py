"""One plan store: every served variant's plan lives only in the PlanCache.

The fp32 variant is an all-float export snapshotted at ``add_model`` and
compiles through the repository's plan cache like any quantised export.
Workers keep one execution context per queue, so once every worker has
run a hot-swapped plan, no superseded plan is left alive.
"""

import gc
import threading
import weakref

import numpy as np
import pytest

import repro.runtime.cache as cache_module
from repro.models import build_model
from repro.quant import export_quantized_model
from repro.runtime import compile_plan, compile_quantized_plan
from repro.serve import FLOAT_BITS, InferenceService, ModelRepository, QueuePolicy

SHAPE = (1, 12, 12)


def _model(name="tiny_convnet", shape=SHAPE, width=1.0, seed=0):
    return build_model(
        name, num_classes=10, width_multiplier=width, in_channels=shape[0],
        rng=np.random.default_rng(seed),
    )


def _export(model, bits=8):
    return export_quantized_model(model, {n: bits for n, _ in model.named_parameters()})


def _repo(model, **kwargs):
    repo = ModelRepository(**kwargs)
    repo.add_model("tiny", model, SHAPE)
    repo.add_export("tiny", _export(model), bits=8)
    return repo


def _gate_compiles(monkeypatch):
    """Hold every plan-cache compile until the returned ``proceed`` is set."""
    real = cache_module.compile_quantized_plan
    compiling, proceed = threading.Event(), threading.Event()

    def gated(*args, **kwargs):
        compiling.set()
        assert proceed.wait(10.0), "test never released the gated compile"
        return real(*args, **kwargs)

    monkeypatch.setattr(cache_module, "compile_quantized_plan", gated)
    return compiling, proceed


def _in_thread(call):
    """Run ``call`` on another thread; its result, or a failure if it blocks."""
    out = []
    thread = threading.Thread(target=lambda: out.append(call()))
    thread.start()
    thread.join(10.0)
    assert not thread.is_alive(), "the lookup blocked behind a compile"
    return out[0]


class TestFloatVariant:
    @pytest.mark.parametrize("name, width, shape", [
        ("tiny_convnet", 1.0, (1, 12, 12)),
        ("small_convnet", 0.5, (3, 32, 32)),
        ("resnet20", 1.0, (3, 32, 32)),
        ("mobilenetv2", 0.35, (3, 32, 32)),
    ])
    def test_matches_compile_plan_byte_for_byte(self, name, width, shape):
        model = _model(name, shape, width)
        repo = ModelRepository()
        repo.add_model(name, model, shape)
        plan = repo.plan(name, FLOAT_BITS)
        direct = compile_plan(model, shape)
        assert not plan.quantized
        assert plan.describe() == direct.describe()
        rng = np.random.default_rng(1)
        for batch in (1, 16):
            x = rng.normal(size=(batch,) + shape)
            np.testing.assert_array_equal(plan.run(x), direct.run(x))
        assert repo.plan_cache.compiles == 1

    def test_concurrent_lookups_compile_it_once(self):
        repo = ModelRepository()
        repo.add_model("tiny", _model(), SHAPE)
        plans = [None] * 8
        barrier = threading.Barrier(len(plans))

        def lookup(index):
            barrier.wait()
            plans[index] = repo.plan("tiny", FLOAT_BITS)

        threads = [threading.Thread(target=lookup, args=(i,)) for i in range(len(plans))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert repo.plan_cache.compiles == 1
        assert all(plan is plans[0] for plan in plans)

    def test_the_snapshot_is_taken_at_add_model(self):
        model = _model()
        repo = ModelRepository()
        repo.add_model("tiny", model, SHAPE)
        x = np.random.default_rng(2).normal(size=(4,) + SHAPE)
        registered = compile_plan(model, SHAPE).run(x)
        for param in model.parameters():
            param.data = param.data * 2.0
        np.testing.assert_array_equal(repo.plan("tiny", FLOAT_BITS).run(x), registered)


class TestCacheHitsAreLookups:
    def test_each_model_is_fingerprinted_once(self, monkeypatch):
        walked = []
        real = cache_module.architecture_fingerprint

        def counting(model):
            walked.append(model)
            return real(model)

        monkeypatch.setattr(cache_module, "architecture_fingerprint", counting)
        models = {"tiny": _model(), "replica": _model(seed=1)}
        repo = ModelRepository()
        for name, model in models.items():
            repo.add_model(name, model, SHAPE)
            repo.add_export(name, _export(model), bits=8)
        for _ in range(50):
            for name in models:
                for bits in (8, FLOAT_BITS):
                    repo.plan(name, bits)
        assert len(walked) == 2
        assert {id(model) for model in walked} == {id(model) for model in models.values()}
        # The two models share an architecture: 2 fp32 plans (different
        # weights) and 2 8-bit plans, every other lookup a hit.
        assert repo.plan_cache.compiles == 4
        assert repo.plan_cache.hits == 50 * 4 - 4

    def test_remembering_a_fingerprint_keeps_no_model_alive(self):
        cache = cache_module.PlanCache()
        model = _model()
        plan = cache.get_or_compile(model, _export(model), SHAPE)
        assert cache.get_or_compile(model, _export(model), SHAPE) is plan
        dropped = weakref.ref(model)
        del model
        gc.collect()
        assert dropped() is None


class TestCompilesOutsideTheRepositoryLock:
    def test_lookups_answer_while_a_variant_compiles(self, monkeypatch):
        repo = _repo(_model())
        served = repo.plan("tiny", 8)
        compiling, proceed = _gate_compiles(monkeypatch)
        compiler = threading.Thread(target=repo.plan, args=("tiny", FLOAT_BITS))
        compiler.start()
        try:
            assert compiling.wait(10.0)
            assert _in_thread(lambda: repo.plan("tiny", 8)) is served
            assert _in_thread(lambda: repo.variants("tiny")) == [8, FLOAT_BITS]
        finally:
            proceed.set()
            compiler.join(10.0)
        assert repo.plan_cache.compiles == 2

    def test_swap_installs_a_precompiled_plan_and_bumps_the_generation(self, monkeypatch):
        repo = _repo(_model())
        served = repo.plan("tiny", 8)
        incoming = _export(_model(seed=9))
        compiling, proceed = _gate_compiles(monkeypatch)
        swapper = threading.Thread(target=repo.swap, args=("tiny", incoming), kwargs={"bits": 8})
        swapper.start()
        try:
            assert compiling.wait(10.0)
            # The incoming plan compiles before anything is installed.
            assert repo.generation("tiny") == 0
            assert _in_thread(lambda: repo.plan("tiny", 8)) is served
        finally:
            proceed.set()
            swapper.join(10.0)
        assert repo.generation("tiny") == 1
        compiles, hits = repo.plan_cache.compiles, repo.plan_cache.hits
        plan = repo.plan("tiny", 8)
        assert (repo.plan_cache.compiles, repo.plan_cache.hits) == (compiles, hits + 1)
        x = np.random.default_rng(3).normal(size=(2,) + SHAPE)
        np.testing.assert_array_equal(
            plan.run(x), compile_quantized_plan(_model(), incoming, SHAPE).run(x)
        )


class _FinalRound:
    """Wraps the service's executor; once ``barrier`` is set, each worker
    waits there after resolving a batch, so a round of one single-request
    batch per worker reaches every worker."""

    def __init__(self, inner):
        self.inner = inner
        self.barrier = None

    def resolve(self, queue_key):
        payload = self.inner.resolve(queue_key)
        if self.barrier is not None:
            self.barrier.wait(10.0)
        return payload


class TestSupersededPlansAreReleased:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_superseded_plan_survives_once_every_worker_ran_the_new_one(self, workers):
        repo = _repo(_model(), history_depth=1)
        service = InferenceService(
            repo, workers=workers, queue_policy=QueuePolicy(max_batch_size=1)
        )
        gate = _FinalRound(service.pool.executor)
        service.pool.executor = gate
        x = np.zeros(SHAPE)
        superseded = []
        with service:
            service.submit("tiny", x).result(timeout=30.0)
            for seed in range(1, 9):
                superseded.append(weakref.ref(repo.plan("tiny", 8)))
                repo.swap("tiny", _export(_model(seed=seed)), bits=8)
                service.submit("tiny", x).result(timeout=30.0)
            gate.barrier = threading.Barrier(workers)
            for future in [service.submit("tiny", x) for _ in range(workers)]:
                future.result(timeout=30.0)
            gc.collect()
            alive = sum(ref() is not None for ref in superseded)
        assert (alive, len(superseded)) == (0, 8)
        assert repo.plan_cache.invalidations == 8
