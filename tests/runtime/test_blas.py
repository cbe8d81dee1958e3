"""The process-wide BLAS thread budget (:mod:`repro.runtime.blas`).

The arithmetic runs against a fake ``(get, set)`` pair, so it holds on any
host and under any environment.  The end-to-end cases drive numpy's real
OpenBLAS through the components that reserve -- the serving ``WorkerPool``
and experiment-orchestrator workers -- and skip where the library's count
cannot be read.
"""

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.experiments import orchestrator
from repro.models import build_model
from repro.quant import export_quantized_model
from repro.runtime import blas
from repro.runtime.plan import VALIDATION_ATOL, VALIDATION_RTOL
from repro.serve import InferenceService, ModelRepository, QueuePolicy


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
        assert budget._reserved == 0
        assert fake.threads == 4

    def test_reserve_rejects_non_positive_counts(self):
        _, budget = _budget()
        with pytest.raises(ValueError, match="at least 1"):
            budget.reserve(0)

    def test_usable_cpus_is_positive(self):
        assert blas.usable_cpus() >= 1


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
