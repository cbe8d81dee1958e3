"""Concurrent plan execution: shared plans, per-thread arenas, the cache.

The structural guarantee under test: an :class:`ExecutionPlan` is an
immutable compiled artifact, all mutable execution state lives in
:class:`ExecutionContext` arenas, and therefore ONE plan instance executed
from many threads produces byte-identical results to serial execution.
"""

import threading

import numpy as np
import pytest

from repro.models import build_model
from repro.quant import export_quantized_model
from repro.runtime import (
    DEFAULT_PASSES,
    ExecutionContext,
    PlanCache,
    compile_plan,
    compile_quantized_plan,
)


def _build(name="tiny_convnet", seed=0, shape=(1, 12, 12)):
    model = build_model(
        name, num_classes=5, in_channels=shape[0], rng=np.random.default_rng(seed)
    )
    return model, shape


def _run_threads(count, target):
    threads = [threading.Thread(target=target, args=(index,)) for index in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestConcurrentExecution:
    N_THREADS = 6
    BATCHES_PER_THREAD = 8

    @pytest.mark.parametrize("quantized", [False, True])
    def test_one_plan_many_threads_byte_identical_to_serial(self, quantized):
        model, shape = _build()
        if quantized:
            export = export_quantized_model(model, {n: 8 for n, _ in model.named_parameters()})
            plan = compile_quantized_plan(model, export, shape)
        else:
            plan = compile_plan(model, shape)

        batches = [
            np.random.default_rng(index).normal(size=(4,) + shape)
            for index in range(self.N_THREADS * self.BATCHES_PER_THREAD)
        ]
        serial = [plan.run(batch) for batch in batches]

        barrier = threading.Barrier(self.N_THREADS)
        outputs = [None] * len(batches)
        errors = []

        def worker(thread_index):
            try:
                barrier.wait()
                for step in range(self.BATCHES_PER_THREAD):
                    index = thread_index * self.BATCHES_PER_THREAD + step
                    outputs[index] = plan.run(batches[index])
            except BaseException as error:  # pragma: no cover - surfaced below
                errors.append(error)

        _run_threads(self.N_THREADS, worker)
        assert not errors
        for got, expected in zip(outputs, serial):
            np.testing.assert_array_equal(got, expected)

    def test_explicit_contexts_are_independent(self):
        model, shape = _build()
        plan = compile_plan(model, shape)
        ctx_a = plan.create_context()
        ctx_b = plan.create_context()
        x_a = np.random.default_rng(1).normal(size=(3,) + shape)
        x_b = np.random.default_rng(2).normal(size=(3,) + shape)
        out_a = plan.run(x_a, ctx=ctx_a)
        out_b = plan.run(x_b, ctx=ctx_b)
        # Re-running with ctx_b must not have disturbed ctx_a's results.
        np.testing.assert_array_equal(plan.run(x_a, ctx=ctx_a), out_a)
        np.testing.assert_array_equal(plan.run(x_b, ctx=ctx_b), out_b)

    def test_context_from_another_plan_rejected(self):
        model, shape = _build()
        other_plan = compile_plan(_build(seed=3)[0], shape)
        plan = compile_plan(model, shape)
        with pytest.raises(ValueError, match="different plan"):
            plan.run(np.zeros((1,) + shape), ctx=other_plan.create_context())

    def test_context_type(self):
        model, shape = _build()
        plan = compile_plan(model, shape)
        assert isinstance(plan.create_context(), ExecutionContext)

    def test_concurrent_execution_builds_zero_graph_nodes_per_thread(self):
        from repro.tensor import graph_nodes_created

        model, shape = _build()
        plan = compile_plan(model, shape)
        x = np.random.default_rng(0).normal(size=(2,) + shape)
        counts = {}

        def worker(index):
            plan.run(x)  # warm the thread's context
            before = graph_nodes_created()
            plan.run(x)
            counts[index] = graph_nodes_created() - before

        _run_threads(4, worker)
        assert counts == {0: 0, 1: 0, 2: 0, 3: 0}


class TestOutBuffer:
    def test_out_buffer_batch(self):
        model, shape = _build()
        plan = compile_plan(model, shape)
        x = np.random.default_rng(5).normal(size=(4,) + shape)
        expected = plan.run(x)
        out = np.empty_like(expected)
        returned = plan.run(x, out=out)
        assert returned is out
        np.testing.assert_array_equal(out, expected)

    def test_out_buffer_single_sample(self):
        model, shape = _build()
        plan = compile_plan(model, shape)
        x = np.random.default_rng(6).normal(size=shape)
        expected = plan.run(x)
        out = np.empty_like(expected)
        assert plan.run(x, out=out) is out
        np.testing.assert_array_equal(out, expected)

    def test_out_buffer_does_not_alias_internal_state(self):
        model, shape = _build()
        plan = compile_plan(model, shape)
        rng = np.random.default_rng(7)
        a = plan.run(rng.normal(size=(2,) + shape), out=np.empty((2, 5)))
        a_copy = a.copy()
        plan.run(rng.normal(size=(2,) + shape))
        np.testing.assert_array_equal(a, a_copy)

    def test_out_buffer_shape_mismatch(self):
        model, shape = _build()
        plan = compile_plan(model, shape)
        with pytest.raises(ValueError, match="out buffer"):
            plan.run(np.zeros((2,) + shape), out=np.empty((3, 5)))


class TestPlanCache:
    def test_identical_exports_share_one_plan(self):
        model, shape = _build()
        bits = {n: 8 for n, _ in model.named_parameters()}
        cache = PlanCache()
        first = cache.get_or_compile(model, export_quantized_model(model, bits), shape)
        second = cache.get_or_compile(model, export_quantized_model(model, bits), shape)
        assert first is second
        assert cache.compiles == 1
        assert cache.hits == 1

    def test_different_bitwidths_get_different_plans(self):
        model, shape = _build()
        cache = PlanCache()
        plan8 = cache.get_or_compile(
            model, export_quantized_model(model, {n: 8 for n, _ in model.named_parameters()}), shape
        )
        plan4 = cache.get_or_compile(
            model, export_quantized_model(model, {n: 4 for n, _ in model.named_parameters()}), shape
        )
        assert plan8 is not plan4
        assert cache.compiles == 2

    def test_different_architectures_never_share_a_plan(self):
        # Same parameter values, different topology (stride) -> the export
        # content hashes match but the architecture fingerprints must not.
        from repro.runtime.cache import architecture_fingerprint

        model_a, shape = _build()
        model_b, _ = _build()
        for param_a, param_b in zip(model_a.parameters(), model_b.parameters()):
            param_b.data = param_a.data.copy()
        fingerprint = architecture_fingerprint(model_a)
        assert fingerprint == architecture_fingerprint(model_b)
        mutated = False
        for _, module in model_b.named_modules():
            if hasattr(module, "stride"):
                module.stride = 2
                mutated = True
                break
        assert mutated
        assert architecture_fingerprint(model_b) != fingerprint

    def test_concurrent_lookups_compile_exactly_once(self):
        model, shape = _build()
        export = export_quantized_model(model, {n: 6 for n, _ in model.named_parameters()})
        cache = PlanCache()
        plans = [None] * 8
        barrier = threading.Barrier(len(plans))

        def worker(index):
            barrier.wait()
            plans[index] = cache.get_or_compile(model, export, shape)

        _run_threads(len(plans), worker)
        assert cache.compiles == 1
        assert all(plan is plans[0] for plan in plans)
        x = np.random.default_rng(1).normal(size=(2,) + shape)
        np.testing.assert_array_equal(
            plans[0].run(x), compile_quantized_plan(model, export, shape).run(x)
        )


class TestPlanCacheLRU:
    def _export(self, model, bits):
        return export_quantized_model(model, {n: bits for n, _ in model.named_parameters()})

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            PlanCache(capacity=0)

    def test_evicts_least_recently_used(self):
        model, shape = _build()
        cache = PlanCache(capacity=2)
        plan4 = cache.get_or_compile(model, self._export(model, 4), shape)
        cache.get_or_compile(model, self._export(model, 6), shape)
        # Touch the 4-bit entry so the 6-bit one is the LRU victim.
        assert cache.get_or_compile(model, self._export(model, 4), shape) is plan4
        cache.get_or_compile(model, self._export(model, 8), shape)
        assert len(cache) == 2
        assert cache.evictions == 1
        # 6-bit was evicted: requesting it recompiles; 4-bit stayed cached.
        compiles_before = cache.compiles
        assert cache.get_or_compile(model, self._export(model, 4), shape) is plan4
        cache.get_or_compile(model, self._export(model, 6), shape)
        assert cache.compiles == compiles_before + 1

    def test_evicted_plan_stays_valid_for_holders(self):
        model, shape = _build()
        cache = PlanCache(capacity=1)
        plan6 = cache.get_or_compile(model, self._export(model, 6), shape)
        x = np.random.default_rng(2).normal(size=(3,) + shape)
        before = plan6.run(x)
        cache.get_or_compile(model, self._export(model, 8), shape)  # evicts plan6
        assert cache.evictions == 1
        # The holder's reference keeps executing, byte-identical.
        np.testing.assert_array_equal(plan6.run(x), before)

    def test_unbounded_by_default(self):
        model, shape = _build()
        cache = PlanCache()
        for bits in (3, 4, 5, 6, 7, 8):
            cache.get_or_compile(model, self._export(model, bits), shape)
        assert len(cache) == 6
        assert cache.evictions == 0


class TestPlanCachePassConfig:
    def test_pass_configuration_is_part_of_the_key(self):
        model, shape = _build()
        export = export_quantized_model(model, {n: 8 for n, _ in model.named_parameters()})
        cache = PlanCache()
        optimised = cache.get_or_compile(model, export, shape)
        raw = cache.get_or_compile(model, export, shape, optimize=False)
        subset = cache.get_or_compile(model, export, shape, passes=("fold_constants",))
        assert cache.compiles == 3
        assert len({id(optimised), id(raw), id(subset)}) == 3
        # Same request shapes hit their own entries.
        assert cache.get_or_compile(model, export, shape, optimize=False) is raw
        assert cache.hits == 1

    def test_key_for_resolves_the_pass_pipeline(self):
        model, shape = _build()
        export = export_quantized_model(model, {n: 8 for n, _ in model.named_parameters()})
        full = PlanCache.key_for(model, export, shape)
        assert PlanCache.key_for(model, export, shape, passes=DEFAULT_PASSES) == full
        no_affine = PlanCache.key_for(
            model, export, shape,
            passes=tuple(p for p in DEFAULT_PASSES if p != "fuse_affine"),
        )
        assert full != no_affine
        assert "fuse_affine" not in no_affine[3]
