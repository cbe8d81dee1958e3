"""Process-sharded serving: backend identity, hot swap, worker metrics.

These tests spawn real worker processes (``multiprocessing`` spawn
context), so they keep models tiny and request counts small; the
throughput comparison itself lives in ``benchmarks/test_bench_serve.py``
(and is skipped on single-core hosts).
"""

import os

import numpy as np
import pytest

from repro.models import build_model
from repro.obs import merge_registry_dumps, total_counter
from repro.quant import export_quantized_model
from repro.runtime import codegen, compile_plan, compile_quantized_plan
from repro.runtime.tuning import TuningCache, TuningConfig
from repro.serve import (
    InferenceService,
    ModelRepository,
    QueuePolicy,
)
from repro.serve.bench import run_backend_bench

SHAPE = (16,)
CONV_SHAPE = (1, 12, 12)


def _model(seed=0):
    return build_model(
        "mlp", num_classes=5, in_channels=SHAPE[0], rng=np.random.default_rng(seed)
    )


def _conv_model(seed=0):
    return build_model(
        "tiny_convnet", num_classes=5, in_channels=CONV_SHAPE[0],
        rng=np.random.default_rng(seed),
    )


def _repo(names=("alpha", "beta"), bits=8):
    repo = ModelRepository()
    for index, name in enumerate(names):
        model = _model(index)
        repo.add_model(name, model, SHAPE)
        repo.add_export(
            name,
            export_quantized_model(model, {n: bits for n, _ in model.named_parameters()}),
            bits=bits,
        )
    return repo


def _policy(batch=4):
    # Infinite delay: batches dispatch exactly when full, so batch
    # composition (and the BLAS reduction order inside each batch) is a
    # pure function of submission order -- the identity tests depend on it.
    return QueuePolicy(max_batch_size=batch, max_queue_delay_s=float("inf"))


def _serve(service, names, samples):
    futures = []
    with service:
        for index, sample in enumerate(samples):
            futures.append(service.submit(names[index % len(names)], sample))
        service.stop()
        return [future.result(timeout=120.0) for future in futures]


class TestProcessBackend:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            InferenceService(_repo(), backend="fiber")

    def test_serves_and_matches_thread_backend_bitwise(self):
        names = ["alpha", "beta"]
        rng = np.random.default_rng(0)
        samples = [rng.normal(size=SHAPE) for _ in range(16)]

        thread_results = _serve(
            InferenceService(_repo(), workers=2, queue_policy=_policy()),
            names,
            samples,
        )
        process_results = _serve(
            InferenceService(
                _repo(), queue_policy=_policy(), backend="process", shards=2
            ),
            names,
            samples,
        )
        assert len(process_results) == len(thread_results) == 16
        for thread_result, process_result in zip(thread_results, process_results):
            np.testing.assert_array_equal(thread_result.logits, process_result.logits)
            assert thread_result.prediction == process_result.prediction

    def test_mobilenetv2_matches_thread_backend_and_live_plan_bitwise(self):
        """mobilenetv2 x0.35's logits depend on the BLAS thread count (1 vs
        2 OpenBLAS threads differ in the last bits), so identity holds only
        at equal counts: 2 workers and 2 shards fit the same one, and a
        ``plan.run`` made while the thread pool still holds its
        reservation runs at the workers' count too."""
        shape = (3, 32, 32)
        names = ["mbv2_a", "mbv2_b"]

        def repo():
            repo = ModelRepository()
            for index, name in enumerate(names):
                model = build_model(
                    "mobilenetv2", num_classes=10, in_channels=3, width_multiplier=0.35,
                    rng=np.random.default_rng(index),
                )
                repo.add_model(name, model, shape)
                repo.add_export(
                    name,
                    export_quantized_model(model, {n: 8 for n, _ in model.named_parameters()}),
                    bits=8,
                )
            return repo

        rng = np.random.default_rng(3)
        samples = [rng.normal(size=shape) for _ in range(16)]
        thread_repo = repo()
        service = InferenceService(thread_repo, workers=2, queue_policy=_policy())
        with service:
            futures = [
                service.submit(names[index % len(names)], sample)
                for index, sample in enumerate(samples)
            ]
            thread_results = [future.result(timeout=120.0) for future in futures]
            # Each model's requests formed full batches of 4 in submission order.
            for offset, name in enumerate(names):
                own = list(range(offset, len(samples), len(names)))
                for start in range(0, len(own), 4):
                    batch = own[start:start + 4]
                    result = thread_results[batch[0]]
                    live = thread_repo.plan(name, result.bits).run(
                        np.stack([samples[index] for index in batch])
                    )
                    for row, index in enumerate(batch):
                        np.testing.assert_array_equal(thread_results[index].logits, live[row])
        process_results = _serve(
            InferenceService(repo(), queue_policy=_policy(), backend="process", shards=2),
            names,
            samples,
        )
        assert len(process_results) == len(thread_results) == 16
        for thread_result, process_result in zip(thread_results, process_results):
            np.testing.assert_array_equal(thread_result.logits, process_result.logits)

    def test_pending_and_stats_account_across_shards(self):
        service = InferenceService(
            _repo(), queue_policy=_policy(), backend="process", shards=2
        )
        rng = np.random.default_rng(1)
        results = _serve(service, ["alpha", "beta"], [rng.normal(size=SHAPE) for _ in range(12)])
        assert len(results) == 12
        assert service.stats.requests == 12
        assert service.pending() == 0

    def test_worker_metrics_merge_with_shard_label(self):
        service = InferenceService(
            _repo(), queue_policy=_policy(), backend="process", shards=2
        )
        rng = np.random.default_rng(2)
        _serve(service, ["alpha", "beta"], [rng.normal(size=SHAPE) for _ in range(8)])
        dumps = service.worker_metrics()
        assert sorted(dumps) == ["0", "1"]
        merged = merge_registry_dumps(dumps)
        assert "shard" in merged["shard_requests_total"]["labels"]
        assert total_counter(merged, "shard_requests_total") == 8.0
        assert total_counter(merged, "shard_batches_total") == 2.0


class TestProcessCodegen:
    """Native codegen composes with spawned shard workers.

    The worker inherits the parent's enablement and *resolved* artifact
    directory through :class:`ShardWorkerConfig`, so a plan compiled in
    the worker loads the parent's cached ``.so`` instead of rebuilding --
    and a host whose compiler is broken falls back to numpy silently.
    Native kernels are conv kernels, so these tests serve a small convnet.
    """

    def _tuned_repo(self, tuning_path, bits=8):
        repo = ModelRepository(tuning=TuningConfig(
            cache=TuningCache(tuning_path), budget_s=2.0,
        ))
        model = _conv_model()
        repo.add_model("alpha", model, CONV_SHAPE)
        repo.add_export(
            "alpha",
            export_quantized_model(model, {n: bits for n, _ in model.named_parameters()}),
            bits=bits,
        )
        return repo

    def test_fresh_spawn_worker_reuses_parent_artifacts_bitwise(self, tmp_path):
        if codegen.compiler_command() is None:
            pytest.skip("no C compiler on this host")
        rng = np.random.default_rng(11)
        samples = [rng.normal(size=CONV_SHAPE) for _ in range(8)]
        baseline = _serve(
            InferenceService(self._tuned_repo(str(tmp_path / "base.json")),
                             workers=1, queue_policy=_policy()),
            ["alpha"], samples,
        )

        tuning_path = str(tmp_path / "tuning.json")
        codegen.reset()
        codegen.configure(enable=True, cache_dir_path=str(tmp_path / "codegen"))
        try:
            # Pre-build in the parent: tune the plans the worker serves
            # (the 8-bit export and the fp32 variant) so native kernels,
            # fused epilogues included, compile into the shared artifact
            # directory and the winners persist where the workers will look.
            tuning = TuningConfig(cache=TuningCache(tuning_path), budget_s=2.0)
            model = _conv_model()
            export = export_quantized_model(
                model, {n: 8 for n, _ in model.named_parameters()}
            )
            compile_quantized_plan(model, export, CONV_SHAPE, tuning=tuning)
            compile_plan(model, CONV_SHAPE, tuning=tuning)
            tuning.cache.save()
            cache_dir = codegen.cache_dir()
            before = {
                name: os.stat(os.path.join(cache_dir, name)).st_mtime_ns
                for name in os.listdir(cache_dir)
            }

            results = _serve(
                InferenceService(self._tuned_repo(tuning_path),
                                 queue_policy=_policy(), backend="process", shards=1),
                ["alpha"], samples,
            )
            after = {
                name: os.stat(os.path.join(cache_dir, name)).st_mtime_ns
                for name in os.listdir(cache_dir)
            }
        finally:
            codegen.reset()
        # The spawned worker resolved the parent's artifact directory and
        # loaded the cached .so files: nothing was rebuilt or added.
        assert after == before
        assert len(results) == 8
        for base, native in zip(baseline, results):
            np.testing.assert_array_equal(base.logits, native.logits)
            assert base.prediction == native.prediction

    def test_broken_compiler_worker_falls_back_to_numpy(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(12)
        samples = [rng.normal(size=CONV_SHAPE) for _ in range(8)]
        baseline = _serve(
            InferenceService(self._tuned_repo(str(tmp_path / "base.json")),
                             workers=1, queue_policy=_policy()),
            ["alpha"], samples,
        )

        monkeypatch.setenv("CC", "/bin/false")
        codegen.reset()
        codegen.configure(enable=True, cache_dir_path=str(tmp_path / "codegen"))
        try:
            results = _serve(
                InferenceService(self._tuned_repo(str(tmp_path / "tuning.json")),
                                 queue_policy=_policy(), backend="process", shards=1),
                ["alpha"], samples,
            )
        finally:
            codegen.reset()
        assert len(results) == 8
        for base, fallback in zip(baseline, results):
            np.testing.assert_array_equal(base.logits, fallback.logits)


class TestProcessHotSwap:
    def test_swap_drops_nothing_and_takes_effect(self):
        repo = _repo(names=("tiny",))
        service = InferenceService(
            repo, queue_policy=_policy(), backend="process", shards=1
        )
        rng = np.random.default_rng(3)
        sample = rng.normal(size=SHAPE)
        futures = []
        with service:
            for index in range(40):
                futures.append(service.submit("tiny", np.array(sample)))
                if index == 19:
                    retrained = _model(9)
                    repo.swap(
                        "tiny",
                        export_quantized_model(
                            retrained,
                            {n: 8 for n, _ in retrained.named_parameters()},
                        ),
                        bits=8,
                    )
            service.stop()
            results = [future.result(timeout=120.0) for future in futures]
        # Zero drops: every admitted request came back.
        assert len(results) == 40
        assert service.stats.requests == 40
        # The swap took effect: the same sample yields different logits
        # once the worker remapped to the new export's arena.
        assert not np.array_equal(results[0].logits, results[-1].logits)
        assert repo.generation("tiny") == 1


class TestBackendBench:
    def test_backend_bench_reports_identity(self):
        models = {
            "alpha": (_model(0), SHAPE),
            "beta": (_model(1), SHAPE),
        }
        report = run_backend_bench(
            models, bits=8, workers=2, shards=2, batch_size=4, requests=16
        )
        assert report.identical
        assert {row.backend for row in report.rows} == {"thread", "process"}
        assert report.row("thread").throughput_rps > 0
        assert report.row("process").throughput_rps > 0
        assert any("bitwise-identical" in line for line in report.format_rows())
