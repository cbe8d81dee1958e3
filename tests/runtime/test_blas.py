"""The process-wide BLAS thread budget (:mod:`repro.runtime.blas`).

The arithmetic runs against a fake ``(get, set)`` pair, so it holds on any
host and under any environment; so do the cases where ``Trainer.fit`` and
an adaptation job claim a ceiling on it.  The end-to-end cases drive
numpy's real OpenBLAS through the components that reserve -- the serving
``WorkerPool`` and experiment-orchestrator workers -- and skip where the
library's count cannot be read.
"""

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.adapt import AdaptationJob, run_adaptation_job
from repro.core import APTConfig
from repro.data import ArrayDataset, DataLoader, make_synthetic_digits
from repro.experiments import build_workload, get_scale, orchestrator, run_strategy
from repro.experiments.orchestrator import build_strategy
from repro.models import build_model
from repro.optim import SGD
from repro.quant import export_quantized_model
from repro.runtime import blas
from repro.runtime.plan import VALIDATION_ATOL, VALIDATION_RTOL
from repro.serve import InferenceService, ModelRepository, QueuePolicy
from repro.train import Callback, Trainer
from repro.train.trainer import ONE_BLAS_THREAD_BELOW_MACS


class FakeBlas:
    """Stands in for OpenBLAS's thread-count functions."""

    def __init__(self, threads):
        self.threads = threads
        self.sets = []

    def get(self):
        return self.threads

    def set(self, threads):
        self.threads = threads
        self.sets.append(threads)


def _budget(loaded=4, cpus=4, environ=None):
    fake = FakeBlas(loaded)
    budget = blas.ThreadBudget(
        (fake.get, fake.set), cpus, environ={} if environ is None else environ
    )
    return fake, budget


class TestBudgetArithmetic:
    @pytest.mark.parametrize(
        "cpus, reserved, expected",
        [(4, 1, 4), (4, 2, 2), (4, 3, 1), (2, 2, 1), (2, 8, 1)],
    )
    def test_fit_is_cpus_over_reserved_with_a_floor_of_one(self, cpus, reserved, expected):
        fake, budget = _budget(loaded=cpus, cpus=cpus)
        reservation = budget.reserve(reserved)
        assert fake.threads == expected
        assert reservation.blas_threads == expected

    def test_fit_never_exceeds_the_loaded_count(self):
        fake, budget = _budget(loaded=2, cpus=8)
        budget.reserve(1)
        assert fake.threads == 2
        assert fake.sets == []

    def test_overlapping_reservations_add_up(self):
        fake, budget = _budget(loaded=4, cpus=4)
        first = budget.reserve(2)
        assert fake.threads == 2
        second = budget.reserve(2)
        assert fake.threads == 1
        assert first.release() == 2
        assert second.release() == 4

    def test_double_release_is_a_no_op(self):
        fake, budget = _budget(loaded=4, cpus=4)
        first = budget.reserve(2)
        budget.reserve(2)
        first.release()
        assert first.released
        assert first.release() == 2
        assert fake.threads == 2

    def test_last_release_restores_the_loaded_count(self):
        fake, budget = _budget(loaded=3, cpus=2)
        reservation = budget.reserve(2)
        assert fake.threads == 1
        assert reservation.release() == 3
        assert fake.threads == 3
        assert budget.current() == 3

    @pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_explicit_thread_variable_leaves_the_count_alone(self, variable):
        fake, budget = _budget(loaded=3, cpus=4, environ={variable: "3"})
        reservation = budget.reserve(4)
        assert reservation.blas_threads == 3
        reservation.release()
        assert fake.sets == []

    def test_missing_library_is_a_no_op(self):
        budget = blas.ThreadBudget(None, 4, environ={})
        reservation = budget.reserve(2)
        assert reservation.blas_threads is None
        assert reservation.release() is None
        assert budget.current() is None

    def test_no_library_found_resolves_no_control(self, monkeypatch):
        monkeypatch.setattr(blas, "_candidate_libraries", lambda: ())
        assert blas._resolve_thread_control() is None

    def test_concurrent_reservations_lose_no_update(self):
        fake, budget = _budget(loaded=4, cpus=4)

        def cycle():
            for _ in range(200):
                budget.reserve(2).release()
                budget.reserve(1, ceiling=1).release()

        threads = [threading.Thread(target=cycle) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert budget._reserved == 0 and budget._ceilings == []
        assert fake.threads == 4

    def test_reserve_rejects_non_positive_counts(self):
        _, budget = _budget()
        with pytest.raises(ValueError, match="at least 1"):
            budget.reserve(0)

    def test_usable_cpus_is_positive(self):
        assert blas.usable_cpus() >= 1


class TestCeiling:
    @pytest.mark.parametrize(
        "reserved, ceiling, expected",
        [(1, 1, 1), (1, 3, 3), (1, 8, 4), (2, 1, 1), (2, 3, 2), (3, 2, 1)],
    )
    def test_a_ceiling_lowers_the_fitted_count_and_never_raises_it(
        self, reserved, ceiling, expected
    ):
        fake, budget = _budget(loaded=4, cpus=4)
        claim = budget.reserve(reserved, ceiling=ceiling)
        assert claim.ceiling == ceiling
        assert claim.blas_threads == fake.threads == expected

    def test_ceilings_and_reservations_compose_when_they_overlap(self):
        fake, budget = _budget(loaded=8, cpus=8)
        pool = budget.reserve(2)
        assert fake.threads == 4
        fit = budget.reserve(1, ceiling=1)
        assert fake.threads == 1
        loose = budget.reserve(1, ceiling=3)
        assert fake.threads == 1  # the lowest held ceiling binds
        assert fit.release() == 2  # 8 // 4 reserved, under the ceiling of 3
        assert loose.release() == 4
        assert pool.release() == 8

    def test_equal_ceilings_release_one_at_a_time(self):
        fake, budget = _budget(loaded=4, cpus=4)
        first = budget.reserve(1, ceiling=1)
        second = budget.reserve(1, ceiling=1)
        first.release()
        first.release()
        assert fake.threads == 1
        assert second.release() == 4

    def test_last_release_restores_the_loaded_count(self):
        fake, budget = _budget(loaded=3, cpus=8)
        claim = budget.reserve(1, ceiling=1)
        assert fake.threads == 1
        assert claim.release() == 3
        assert budget.current() == 3
        assert fake.sets == [1, 3]

    @pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_explicit_thread_variable_leaves_the_count_alone(self, variable):
        fake, budget = _budget(loaded=2, cpus=2, environ={variable: "2"})
        claim = budget.reserve(1, ceiling=1)
        assert claim.blas_threads == 2
        claim.release()
        assert fake.sets == []

    def test_reserve_rejects_a_ceiling_below_one(self):
        _, budget = _budget()
        with pytest.raises(ValueError, match="ceiling must be at least 1"):
            budget.reserve(1, ceiling=0)
        assert budget._reserved == 0


# --------------------------------------------------------------------------- #
# Trainer.fit's one-thread rule, over a fake library
# --------------------------------------------------------------------------- #
class _Stop(Exception):
    pass


class _CountAtBegin(Callback):
    """Reads the fake library's count as training begins; optionally ends
    the fit there (how perfbench's set-up probes end one) or stops it
    early after the first epoch."""

    def __init__(self, fake, *, raise_at_begin=False, raise_at_epoch=False, stop=False):
        self.fake = fake
        self.raise_at_begin = raise_at_begin
        self.raise_at_epoch = raise_at_epoch
        self.stop = stop
        self.threads = None
        self.epochs = 0

    def on_train_begin(self, trainer):
        self.threads = self.fake.threads
        if self.raise_at_begin:
            raise _Stop

    def on_epoch_end(self, trainer, record):
        self.epochs += 1
        if self.raise_at_epoch:
            raise _Stop

    def should_stop(self, trainer, record):
        return self.stop


@pytest.fixture
def fake_budget(monkeypatch):
    """The process-wide budget replaced by one over a 4-CPU fake library."""
    fake, budget = _budget(loaded=4, cpus=4)
    monkeypatch.setattr(blas, "_BUDGET", budget)
    return fake


def _image_trainer(name, width, shape, batch_size, callback, samples=64):
    rng = np.random.default_rng(0)
    model = build_model(name, num_classes=10, width_multiplier=width,
                        in_channels=shape[0], rng=rng)
    data = ArrayDataset(rng.normal(size=(samples,) + shape), rng.integers(0, 10, samples))
    return Trainer(
        model,
        SGD(model.parameters(), lr=0.01),
        DataLoader(data, batch_size=batch_size, rng=np.random.default_rng(1)),
        DataLoader(data, batch_size=batch_size, shuffle=False),
        callbacks=[callback],
    )


class TestTrainerCeiling:
    def test_early_stop_releases_the_ceiling(self, fake_budget):
        probe = _CountAtBegin(fake_budget, stop=True)
        history = _image_trainer("tiny_convnet", 1.0, (1, 12, 12), 16, probe).fit(3)
        assert len(history) == 1 and probe.epochs == 1
        assert probe.threads == 1
        assert fake_budget.threads == 4
        assert fake_budget.sets == [1, 4]

    @pytest.mark.parametrize("where", ["begin", "epoch"])
    def test_a_raising_callback_releases_the_ceiling(self, fake_budget, where):
        probe = _CountAtBegin(
            fake_budget, raise_at_begin=where == "begin", raise_at_epoch=where == "epoch"
        )
        trainer = _image_trainer("tiny_convnet", 1.0, (1, 12, 12), 16, probe)
        with pytest.raises(_Stop):
            trainer.fit(2)
        assert probe.threads == 1
        assert fake_budget.threads == 4
        assert fake_budget.sets == [1, 4]

    @pytest.mark.parametrize("scale", ["bench", "bench_cifar"])
    def test_the_rule_caps_the_bench_fits(self, fake_budget, scale):
        probe = _CountAtBegin(fake_budget, raise_at_begin=True)
        with pytest.raises(_Stop):
            run_strategy(build_workload(get_scale(scale)), build_strategy("apt", {}),
                         callbacks=[probe])
        assert probe.threads == 1
        assert fake_budget.threads == 4

    def test_the_rule_leaves_resnet20_at_batch_32_alone(self, fake_budget):
        probe = _CountAtBegin(fake_budget, raise_at_begin=True)
        trainer = _image_trainer("resnet20", 1.0, (3, 32, 32), 32, probe, samples=32)
        with pytest.raises(_Stop):
            trainer.fit(1)
        assert trainer.step_macs > ONE_BLAS_THREAD_BELOW_MACS
        assert probe.threads == 4
        assert fake_budget.sets == []

    def test_a_fit_beside_a_serving_pool_lowers_its_count_until_it_returns(self, fake_budget):
        """An adaptation job fine-tunes beside the pool that serves the
        model: the count is process-wide, so the pool's workers run on one
        BLAS thread while the capped fit runs and get their fitted count
        back when it returns."""
        model = build_model("tiny_convnet", num_classes=10, in_channels=1,
                            rng=np.random.default_rng(0))
        repo = ModelRepository()
        repo.add_model("digits", model, (1, 12, 12))
        repo.add_export(
            "digits", export_quantized_model(model, {n: 8 for n, _ in model.named_parameters()}),
            bits=8,
        )
        train_set, _ = make_synthetic_digits(train_samples=64, test_samples=16, image_size=12)
        with InferenceService(repo, workers=2) as service:
            assert service.pool.blas_threads == 2
            result = run_adaptation_job(repo, AdaptationJob(
                model="digits", bits=8, train_set=train_set, epochs=1,
                config=APTConfig(initial_bits=6, t_min=6.0, metric_interval=2),
            ))
            assert result.history is not None
            assert fake_budget.threads == 2
            service.submit("digits", np.zeros((1, 12, 12))).result(timeout=30.0)
        assert fake_budget.sets == [2, 1, 2, 4]


# --------------------------------------------------------------------------- #
# Against numpy's OpenBLAS, through the components that reserve
# --------------------------------------------------------------------------- #
_LOADED = blas.current_threads()
needs_blas = pytest.mark.skipif(_LOADED is None, reason="OpenBLAS thread count unreadable")


def _user_chose():
    return any(
        os.environ.get(name, "").strip() for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    )


def _expected_fit(reserved):
    if _user_chose():
        return _LOADED
    return min(_LOADED, max(1, blas.usable_cpus() // reserved))


def _mlp_repo(seed=0):
    repo = ModelRepository()
    repo.add_model(
        "mlp", build_model("mlp", num_classes=5, in_channels=16, rng=np.random.default_rng(seed)),
        (16,),
    )
    return repo


def _child_report(_):
    time.sleep(0.05)  # lets every worker of the pool pick up a task
    return blas.current_threads()


@needs_blas
class TestComponentsReserve:
    def test_worker_pool_reserves_while_running_and_releases_once(self):
        service = InferenceService(_mlp_repo(), workers=2)

        def gauge():
            return service.metrics.snapshot().as_dict()["blas_threads"]["series"][0]["value"]

        other = None
        try:
            with service:
                assert service.pool.blas_threads == _expected_fit(2)
                assert blas.current_threads() == _expected_fit(2)
                assert gauge() == _expected_fit(2)
                service.submit("mlp", np.zeros(16)).result(timeout=30.0)
                # A second pool's reservation outlives this one's.
                other = blas.reserve(2)
                assert blas.current_threads() == _expected_fit(4)
                service.stop()
                assert blas.current_threads() == _expected_fit(2)
            # The context exit stops a second time; releasing again would
            # also drop the other reservation's share.
            assert blas.current_threads() == _expected_fit(2)
            assert gauge() == _expected_fit(2)
        finally:
            if other is not None:
                other.release()
        assert blas.current_threads() == _LOADED

    def test_orchestrator_children_report_the_fitted_count(self):
        with orchestrator._worker_pool(2) as pool:
            reports = pool.map(_child_report, range(4), chunksize=1)
        assert reports == [_expected_fit(2)] * 4
        assert blas.current_threads() == _LOADED

    def test_mobilenetv2_responses_match_plan_run_at_the_pool_count_bitwise(self):
        """mobilenetv2 x0.35's logits depend on the BLAS thread count (1 vs
        2 OpenBLAS threads differ in the last bits), so identity holds only
        at equal counts: a ``plan.run`` made while the pool still holds its
        reservation runs at the workers' count."""
        shape = (3, 32, 32)
        names = ["mbv2_a", "mbv2_b"]
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
        rng = np.random.default_rng(3)
        samples = [rng.normal(size=shape) for _ in range(16)]
        service = InferenceService(
            repo, workers=2,
            queue_policy=QueuePolicy(max_batch_size=4, max_queue_delay_s=float("inf")),
        )
        with service:
            futures = [
                service.submit(names[index % len(names)], sample)
                for index, sample in enumerate(samples)
            ]
            results = [future.result(timeout=120.0) for future in futures]
            assert blas.current_threads() == _expected_fit(2)
            # Each model's requests formed full batches of 4 in submission order.
            for offset, name in enumerate(names):
                own = list(range(offset, len(samples), len(names)))
                for start in range(0, len(own), 4):
                    batch = own[start:start + 4]
                    assert {results[index].batch_size for index in batch} == {4}
                    live = repo.plan(name, results[batch[0]].bits).run(
                        np.stack([samples[index] for index in batch])
                    )
                    for row, index in enumerate(batch):
                        np.testing.assert_array_equal(results[index].logits, live[row])
        assert blas.current_threads() == _LOADED

    def test_pool_churn_keeps_a_serving_pool_within_the_compiler_tolerance(self):
        """Two pools start and stop over and over (each refits the
        process-wide count) while a third serves resnet20, whose GEMMs run
        multi-threaded: every response stays within the tolerance a plan
        must meet at compile time."""
        shape = (3, 16, 16)
        model = build_model(
            "resnet20", num_classes=10, in_channels=3, rng=np.random.default_rng(0)
        )
        repo = ModelRepository()
        repo.add_model("resnet20", model, shape)
        plan = repo.plan("resnet20")
        samples = np.random.default_rng(1).normal(size=(128,) + shape)
        batch = 8
        reference = np.concatenate(
            [plan.run(samples[i:i + batch]) for i in range(0, len(samples), batch)]
        )

        done = threading.Event()
        cycles = []

        def churn(workers, seed):
            churn_repo = _mlp_repo(seed)
            count = 0
            while not done.is_set():
                with InferenceService(churn_repo, workers=workers) as service:
                    service.submit("mlp", np.zeros(16)).result(timeout=30.0)
                count += 1
            cycles.append(count)

        churners = [threading.Thread(target=churn, args=(workers, workers)) for workers in (1, 2)]
        served = InferenceService(
            repo, workers=2,
            queue_policy=QueuePolicy(max_batch_size=batch, max_queue_delay_s=float("inf")),
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with served:
                for thread in churners:
                    thread.start()
                futures = []
                for start in range(0, len(samples), batch):
                    futures.extend(
                        served.submit("resnet20", x) for x in samples[start:start + batch]
                    )
                    time.sleep(0.02)
                results = [future.result(timeout=60.0) for future in futures]
        finally:
            done.set()
            for thread in churners:
                if thread.ident is not None:
                    thread.join(60.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in churners)
        assert len(cycles) == 2 and min(cycles) >= 1
        logits = np.stack([result.logits for result in results])
        np.testing.assert_allclose(logits, reference, rtol=VALIDATION_RTOL, atol=VALIDATION_ATOL)
        assert blas.current_threads() == _LOADED
