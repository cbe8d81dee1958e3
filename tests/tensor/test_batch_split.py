"""A training step split over two threads computes the unsplit step's bits.

``repro.tensor.split`` hands half of a batch's per-sample work to a helper
thread while ``Trainer.fit`` has it on.  Here the split is forced at every
size and the conv, max-pool and batch-norm oracles of
``tests/kernels/test_bitwise_oracles.py`` run again at byte equality; two
short APT fits split and unsplit must give the same weights, losses and
bits.  The rest covers the fork-join itself (exceptions, numpy error
state, a forked child) and the rule ``Trainer.fit`` turns it on by.
"""

import dataclasses
import importlib.util
import multiprocessing
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.data import ArrayDataset, DataLoader
from repro.experiments import build_workload, get_scale, run_strategy
from repro.experiments.orchestrator import build_strategy
from repro.models import build_model
from repro.optim import SGD
from repro.runtime import blas
from repro.serve import InferenceService, ModelRepository
from repro.tensor import Tensor, split
from repro.train import Callback, Trainer
from repro.train import trainer as trainer_module


def _load_oracles():
    path = Path(__file__).resolve().parents[1] / "kernels" / "test_bitwise_oracles.py"
    spec = importlib.util.spec_from_file_location("bitwise_oracles_for_split", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()


@pytest.fixture
def forks(monkeypatch):
    """The split on for this thread at every size; counts its fork-joins."""
    count = []
    fork_join = split._fork_join

    def counted(*args):
        count.append(1)
        return fork_join(*args)

    monkeypatch.setattr(split, "SPLIT_MIN_ELEMENTS", 0)
    monkeypatch.setattr(split, "_fork_join", counted)
    with split.active():
        yield count


def _odd_batch(shape, batch=3):
    return (batch,) + tuple(shape[1:])


# --------------------------------------------------------------------------- #
# The oracles, split
# --------------------------------------------------------------------------- #
CONV_GEOMETRIES = oracles.CONV_GEOMETRIES + [
    (_odd_batch(shape, 5),) + tuple(rest) for shape, *rest in oracles.CONV_GEOMETRIES[1:2]
]
CONV_IDS = oracles.CONV_IDS + ["stride2_batch5"]


@pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "no_bias"])
@pytest.mark.parametrize("shape,kernel,stride,padding", CONV_GEOMETRIES, ids=CONV_IDS)
def test_split_conv2d_matches_reference(forks, shape, kernel, stride, padding, with_bias):
    oracles.TestConv2d().test_output_and_gradients_match_reference(
        shape, kernel, stride, padding, with_bias
    )
    # Batch 1 still runs the backward GEMMs side by side.
    assert forks


POOL_GEOMETRIES = oracles.POOL_GEOMETRIES + [
    (_odd_batch(shape),) + tuple(rest) for shape, *rest in oracles.POOL_GEOMETRIES
]
POOL_IDS = oracles.POOL_IDS + [f"{name}_batch3" for name in oracles.POOL_IDS]


@pytest.mark.parametrize("make_input", oracles.POOL_INPUTS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("shape,kernel,stride", POOL_GEOMETRIES, ids=POOL_IDS)
@pytest.mark.parametrize("grad_values", [(), (np.inf, -np.inf, np.nan, -0.0)],
                         ids=["finite_grad", "nonfinite_grad"])
def test_split_max_pool2d_matches_reference(forks, make_input, shape, kernel, stride, grad_values):
    oracles.TestMaxPool2d().test_output_and_input_grad_match_reference(
        make_input, shape, kernel, stride, grad_values
    )
    if shape[0] > 1:
        assert forks


BN_SHAPES = oracles.BN_SHAPES + [(5, 3, 4, 4), (7, 4)]
BN_IDS = oracles.BN_IDS + ["2d_batch5", "1d_batch7"]


@pytest.mark.parametrize("make_input", oracles.BN_INPUTS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("shape", BN_SHAPES, ids=BN_IDS)
@pytest.mark.parametrize("grad_values", [(), (np.inf, -np.inf, np.nan, -0.0)],
                         ids=["finite_grad", "nonfinite_grad"])
def test_split_batch_norm_matches_reference(forks, monkeypatch, make_input, shape, grad_values):
    oracles.TestBatchNorm().test_output_stats_and_gradients_match_reference(
        monkeypatch, make_input, shape, grad_values
    )
    if shape[0] > 1:
        assert forks


@pytest.mark.parametrize("second", ["after", "before"])
@pytest.mark.parametrize("shape", BN_SHAPES, ids=BN_IDS)
def test_split_batch_norm_second_consumer_matches_reference(forks, monkeypatch, shape, second):
    oracles.TestBatchNorm().test_second_consumer_of_x_matches_reference(monkeypatch, shape, second)


@pytest.mark.parametrize("shape", BN_SHAPES, ids=BN_IDS)
def test_split_batch_norm_frozen_affine_matches_reference(forks, monkeypatch, shape):
    oracles.TestBatchNorm().test_frozen_affine_matches_reference(monkeypatch, shape)


def test_split_gradient_accumulation_matches_whole(forks):
    """Two consumers of x: its gradient is copied once and added once."""
    rng = np.random.default_rng(3)
    x_data = oracles.sprinkle(rng, oracles.wide_range(rng, (5, 3, 4, 4)), [-0.0, np.nan, np.inf])
    grads = [oracles.wide_range(rng, x_data.shape) for _ in range(2)]
    results = []
    for on in (True, False):
        with split.active(on), np.errstate(invalid="ignore"):  # inf - inf on both sides
            x = Tensor(x_data, requires_grad=True)
            first, second = x.relu(), x.relu()
            (first * Tensor(grads[0]) + second * Tensor(grads[1])).sum().backward()
            results.append((first.data, x.grad))
    for got, expected in zip(*results):
        oracles.assert_same_bits(got, expected)


# --------------------------------------------------------------------------- #
# Whole training runs
# --------------------------------------------------------------------------- #
class _StepThreads(Callback):
    def on_train_begin(self, trainer):
        self.threads = trainer.step_threads
        self.on = split.is_on()


def _apt_fit(scale):
    strategy = build_strategy("apt", {"metric_interval": 1})
    probe = _StepThreads()
    result = run_strategy(build_workload(scale), strategy, epochs=1, seed=2,
                          callbacks=[probe], keep_trainer=True)
    controller = strategy.controller
    return probe, {
        "params": {name: p.data.tobytes() for name, p in result.trainer.model.named_parameters()},
        "losses": [float(loss).hex() for loss in result.history.train_loss_curve],
        "underflow_events": controller.total_underflow_events(),
        "bits_by_layer": result.bits_by_layer,
        "bits_end": controller.bitwidths,
    }


@pytest.fixture
def four_cpus(monkeypatch):
    """A budget over a 4-thread fake library on 4 CPUs: every capped fit
    runs on one BLAS thread with a CPU for its helper."""
    library = [4]
    budget = blas.ThreadBudget((lambda: library[-1], library.append), cpus=4, environ={})
    monkeypatch.setattr(blas, "_BUDGET", budget)
    return library


@pytest.mark.parametrize(
    "scale",
    [
        get_scale("bench"),
        dataclasses.replace(get_scale("bench_cifar"), train_samples=192, test_samples=64),
    ],
    ids=["tiny_convnet_12x12", "small_convnet_32x32"],
)
def test_apt_training_is_byte_identical_split_and_whole(monkeypatch, four_cpus, scale):
    monkeypatch.setattr(split, "SPLIT_MIN_ELEMENTS", 0)
    split_probe, split_run = _apt_fit(scale)
    monkeypatch.setattr(split, "SPLIT_MIN_ELEMENTS", float("inf"))
    whole_probe, whole_run = _apt_fit(scale)
    assert (split_probe.threads, split_probe.on) == (2, True)
    assert split_run["params"].keys() == whole_run["params"].keys()
    for name in split_run["params"]:
        assert split_run["params"][name] == whole_run["params"][name], name
    assert split_run["losses"] == whole_run["losses"]
    assert split_run["underflow_events"] == whole_run["underflow_events"] > 0
    assert split_run["bits_by_layer"] == whole_run["bits_by_layer"]
    assert split_run["bits_end"] == whole_run["bits_end"]


# --------------------------------------------------------------------------- #
# The fork-join
# --------------------------------------------------------------------------- #
class _HelperHalfFails(Exception):
    pass


def test_an_exception_in_the_helper_reaches_the_caller_and_the_next_split_runs(forks):
    seen = []

    def fn(part):
        seen.append(part)
        if part.start > 0:
            raise _HelperHalfFails(part)

    with pytest.raises(_HelperHalfFails):
        split.rows(4, fn, 1)
    assert sorted(part.start for part in seen) == [0, 2]
    out = np.zeros(6)
    split.rows(6, lambda part: out.__setitem__(part, 1.0), 6)
    assert out.tolist() == [1.0] * 6
    first, second = split.both(lambda: 1, lambda: 2, 1)
    assert (first, second) == (1, 2)
    assert len(forks) == 3
    # A training step after the failure still runs through the helper.
    x = Tensor(np.arange(24.0).reshape(4, 6) - 10.0, requires_grad=True)
    x.relu().sum().backward()
    assert x.grad.tolist() == (x.data > 0).astype(float).tolist()


def test_an_exception_in_the_callers_half_waits_for_the_helper(forks):
    done = []

    def fn(part):
        if part.start == 0:
            raise _HelperHalfFails(part)
        done.append(part)

    with pytest.raises(_HelperHalfFails):
        split.rows(4, fn, 1)
    assert done == [slice(2, 4)]
    assert split._HELPER.busy.acquire(blocking=False)
    split._HELPER.busy.release()


def test_helper_tasks_see_the_callers_numpy_error_state(forks):
    states = {}

    def divide(part):
        states[part.start] = np.geterr()["divide"]
        np.ones(1) / np.zeros(1)

    with np.errstate(divide="raise"):
        with pytest.raises(FloatingPointError):
            split.rows(2, divide, 1)
    assert states == {0: "raise", 1: "raise"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(divide="ignore"):
            split.rows(2, divide, 1)
    assert states == {0: "ignore", 1: "ignore"}


def test_threads_sharing_the_helper_each_run_every_row_once(monkeypatch):
    """Four threads split at once: one holds the helper, the rest run whole."""
    monkeypatch.setattr(split, "SPLIT_MIN_ELEMENTS", 0)
    errors = []

    def worker():
        try:
            with split.active():
                for _ in range(300):
                    hits = np.zeros(7, dtype=np.int64)
                    split.rows(7, lambda part: hits.__setitem__(part, hits[part] + 1), 7)
                    if not (hits == 1).all():
                        errors.append(hits)
        except Exception as error:  # reported below, with the thread's peers
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def _child_fit(_):
    probe, run = _apt_fit(get_scale("smoke"))
    return probe.threads, split._HELPER is not None, run["losses"]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_a_forked_child_trains_with_a_fresh_helper(forks):
    parent_threads, _, parent_losses = _child_fit(0)
    if parent_threads != 2:
        pytest.skip("fits cannot split here (one CPU, or OpenBLAS not on one thread)")
    parent_helper = split._HELPER
    assert parent_helper is not None
    with multiprocessing.get_context("fork").Pool(1) as pool:
        threads, had_helper, losses = pool.apply_async(_child_fit, (0,)).get(timeout=120)
    assert (threads, had_helper) == (2, True)
    assert losses == parent_losses
    assert split._HELPER is parent_helper


# --------------------------------------------------------------------------- #
# When Trainer.fit turns it on
# --------------------------------------------------------------------------- #
class _Stop(Exception):
    pass


class _SplitAtBegin(Callback):
    def __init__(self, raise_at_begin=False):
        self.raise_at_begin = raise_at_begin

    def on_train_begin(self, trainer):
        self.on = split.is_on()
        self.threads = trainer.step_threads
        self.reason = trainer.step_threads_reason
        if self.raise_at_begin:
            raise _Stop


def _tiny_fit(probe, epochs=1):
    rng = np.random.default_rng(0)
    model = build_model("tiny_convnet", num_classes=10, in_channels=1, rng=rng)
    data = ArrayDataset(rng.normal(size=(32, 1, 12, 12)), rng.integers(0, 10, 32))
    trainer = Trainer(model, SGD(model.parameters(), lr=0.01),
                      DataLoader(data, batch_size=16, rng=np.random.default_rng(1)),
                      DataLoader(data, batch_size=16, shuffle=False), callbacks=[probe])
    return trainer.fit(epochs)


def _fake_budget(monkeypatch, loaded, cpus, environ=None):
    library = [loaded]
    budget = blas.ThreadBudget((lambda: library[-1], library.append), cpus=cpus,
                               environ={} if environ is None else environ)
    monkeypatch.setattr(blas, "_BUDGET", budget)
    return library


@pytest.mark.parametrize(
    "loaded, cpus, environ, capped, threads, reason",
    [
        (4, 4, {}, True, 2, "batch split: per-sample work on the fit's thread and a helper"),
        (2, 2, {}, True, 2, "batch split: per-sample work on the fit's thread and a helper"),
        (1, 1, {}, True, 1, "the thread budget holds no CPU for a second thread"),
        (2, 2, {"OPENBLAS_NUM_THREADS": "2"}, True, 1, "OpenBLAS runs 2 threads"),
        (4, 4, {}, False, 1, "OpenBLAS runs 4 threads"),
        (1, 4, {"OMP_NUM_THREADS": "1"}, False, 2,
         "batch split: per-sample work on the fit's thread and a helper"),
    ],
    ids=["capped_4cpus", "capped_2cpus", "capped_1cpu", "env_2_threads", "uncapped",
         "uncapped_env_1_thread"],
)
def test_fit_splits_only_on_one_blas_thread_with_a_cpu_each(
    monkeypatch, loaded, cpus, environ, capped, threads, reason
):
    _fake_budget(monkeypatch, loaded, cpus, environ)
    if not capped:
        monkeypatch.setattr(trainer_module, "ONE_BLAS_THREAD_BELOW_MACS", 0)
    probe = _SplitAtBegin()
    _tiny_fit(probe)
    assert (probe.on, probe.threads, probe.reason) == (threads == 2, threads, reason)
    assert not split.is_on()
    assert blas._BUDGET._reserved == 0


def test_fit_turns_the_split_off_when_it_raises(monkeypatch):
    _fake_budget(monkeypatch, 2, 2)
    probe = _SplitAtBegin(raise_at_begin=True)
    with pytest.raises(_Stop):
        _tiny_fit(probe)
    assert probe.on and not split.is_on()
    assert blas._BUDGET._reserved == 0


def test_a_fit_inside_a_split_block_runs_by_its_own_rule(monkeypatch):
    _fake_budget(monkeypatch, 1, 1)
    probe = _SplitAtBegin()
    with split.active():
        _tiny_fit(probe)
        assert split.is_on()
    assert (probe.on, probe.threads) == (False, 1)


def test_a_fit_beside_a_started_worker_pool_runs_unsplit(monkeypatch):
    """Two serving workers and the fit's two threads are more than 2 CPUs."""
    library = _fake_budget(monkeypatch, 2, 2)
    repo = ModelRepository()
    repo.add_model("mlp", build_model("mlp", num_classes=5, in_channels=16,
                                      rng=np.random.default_rng(0)), (16,))
    probe = _SplitAtBegin()
    with InferenceService(repo, workers=2) as service:
        _tiny_fit(probe)
        service.submit("mlp", np.zeros(16)).result(timeout=30.0)
    assert (probe.on, probe.threads) == (False, 1)
    assert probe.reason == "the thread budget holds no CPU for a second thread"
    assert library == [2, 1, 2]
