"""Training under the one-thread BLAS ceiling is byte-identical.

``Trainer.fit`` caps OpenBLAS at one thread for fits whose steps are too
small to split (``repro.train.trainer.ONE_BLAS_THREAD_BELOW_MACS``).  That
must not move a bit of APT's training: a few APT steps of the bench and
bench_cifar models, once under the ceiling and once at the count OpenBLAS
loaded with, give byte-equal weights, losses, underflow counts and
bitwidths.  Skipped where the budget cannot set the count (no readable
OpenBLAS, an explicit thread variable, or a single-thread library).
"""

import dataclasses
import os

import pytest

from repro.experiments import build_workload, get_scale, run_strategy
from repro.experiments.orchestrator import build_strategy
from repro.runtime import blas
from repro.train import Callback
from repro.train import trainer as trainer_module

_LOADED = blas.current_threads()
_USER_CHOSE = any(
    os.environ.get(name, "").strip() for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
)
pytestmark = pytest.mark.skipif(
    _LOADED is None or _LOADED < 2 or _USER_CHOSE,
    reason="the budget cannot set OpenBLAS's thread count here",
)


class _Threads(Callback):
    def on_train_begin(self, trainer):
        self.threads = blas.current_threads()


def _apt_fit(scale):
    """One APT epoch: the run's bytes, and the BLAS count it ran at."""
    strategy = build_strategy("apt", {"metric_interval": 1})
    threads = _Threads()
    result = run_strategy(build_workload(scale), strategy, epochs=1, seed=2,
                          callbacks=[threads], keep_trainer=True)
    controller = strategy.controller
    return threads.threads, {
        "params": {name: p.data.tobytes() for name, p in result.trainer.model.named_parameters()},
        "losses": [float(loss).hex() for loss in result.history.train_loss_curve],
        "underflow_events": controller.total_underflow_events(),
        "bits_by_layer": result.bits_by_layer,
        "bits_end": controller.bitwidths,
    }


@pytest.mark.parametrize(
    "scale",
    [
        get_scale("bench"),
        # small_convnet x0.5 on 3x32x32 at batch 64 with crop + flip: 3 steps.
        dataclasses.replace(get_scale("bench_cifar"), train_samples=192, test_samples=64),
    ],
    ids=["tiny_convnet_12x12", "small_convnet_32x32"],
)
def test_apt_training_is_byte_identical_under_the_ceiling(monkeypatch, scale):
    capped_threads, capped = _apt_fit(scale)
    monkeypatch.setattr(trainer_module, "ONE_BLAS_THREAD_BELOW_MACS", 0)
    loaded_threads, loaded = _apt_fit(scale)
    assert (capped_threads, loaded_threads) == (1, _LOADED)
    assert capped["params"].keys() == loaded["params"].keys()
    for name in capped["params"]:
        assert capped["params"][name] == loaded["params"][name], name
    assert capped["losses"] == loaded["losses"]
    assert capped["underflow_events"] == loaded["underflow_events"] > 0
    assert capped["bits_by_layer"] == loaded["bits_by_layer"]
    assert capped["bits_end"] == loaded["bits_end"]
