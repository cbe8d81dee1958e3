"""The glibc allocator policy ``Trainer.fit`` applies for the process.

``Tensor.backward`` frees the tape during the step; without the policy
glibc returns that memory to the kernel and the next step faults it back
in (a median ~1.4K minor faults per ``bench`` step, ~7.6K per
``bench_cifar`` step, on a 2-vCPU Xeon with glibc 2.36).  With it, the
median step past the first epoch takes none, with the batch split on
(``repro.tensor.split``) or off.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.models import MLP
from repro.optim import SGD
from repro.train import Trainer, TrainerConfig
from repro.train import allocator
from repro.train import trainer as trainer_module

_GLIBC = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"

#: Median minor page faults per step allowed past the first epoch.  A
#: policy-applying ``bench`` fit read 0 on every seed tried (1-4, 21);
#: the same fit with the policy off read ~1.4K.
MEDIAN_FAULTS_PER_STEP = 100

_FIT_SCRIPT = """
import json, resource, statistics
from repro.experiments import build_workload, get_scale, run_strategy
from repro.experiments.orchestrator import build_strategy
from repro.train.callbacks import Callback
{patch}

class Faults(Callback):
    def __init__(self):
        self.epoch, self.steps = 0, []

    def _faults(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    def on_train_begin(self, trainer):
        self.step_threads = trainer.step_threads
        inner = trainer.optimizer.step
        self.mark = self._faults()

        def step():
            inner()
            now = self._faults()
            self.steps.append((self.epoch, now - self.mark))
            self.mark = now

        trainer.optimizer.step = step

    def on_epoch_end(self, trainer, record):
        self.epoch += 1
        self.mark = self._faults()

probe = Faults()
run_strategy(build_workload(get_scale("bench")), build_strategy("apt", {{"metric_interval": 2}}),
             epochs=3, seed=21, callbacks=[probe])
print(json.dumps([statistics.median(f for epoch, f in probe.steps if epoch >= 1),
                  probe.step_threads]))
"""

#: Run in the probe's process, this makes every op of a split fit split.
SPLIT_EVERY_OP = "from repro.tensor import split\nsplit.SPLIT_MIN_ELEMENTS = 0"
#: Run in the probe's process, this keeps every op of a fit whole.
SPLIT_NO_OP = "from repro.tensor import split\nsplit.SPLIT_MIN_ELEMENTS = float('inf')"


def _probe(patch: str = ""):
    """(median minor faults per step past the first epoch, the fit's step threads)."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _FIT_SCRIPT.format(patch=patch)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return tuple(json.loads(done.stdout.strip().splitlines()[-1]))


def _tiny_trainer(blobs_loaders, small_mlp: MLP) -> Trainer:
    train_loader, test_loader = blobs_loaders
    return Trainer(small_mlp, SGD(small_mlp.parameters(), lr=0.1), train_loader, test_loader,
                   config=TrainerConfig(epochs=1))


class TestPolicy:
    def test_applying_twice_is_harmless(self):
        first = allocator.apply_allocator_policy()
        assert allocator.apply_allocator_policy() is first
        assert first is _GLIBC
        # The heap still serves small and large blocks after both calls.
        assert np.ones(1 << 10).sum() == 1 << 10
        assert np.ones(5 << 20).sum() == 5 << 20

    def test_no_op_without_mallopt(self, monkeypatch, blobs_loaders, small_mlp):
        monkeypatch.setattr(allocator, "_mallopt", None)
        assert allocator.apply_allocator_policy() is False
        history = _tiny_trainer(blobs_loaders, small_mlp).fit()
        assert len(history) == 1

    def test_every_fit_applies_it(self, monkeypatch, blobs_loaders, small_mlp):
        calls = []
        monkeypatch.setattr(trainer_module, "apply_allocator_policy", lambda: calls.append(1))
        trainer = _tiny_trainer(blobs_loaders, small_mlp)
        trainer.fit()
        trainer.fit()
        assert calls == [1, 1]


@pytest.mark.skipif(not _GLIBC, reason="the policy is glibc's mallopt")
def test_a_bench_fit_takes_no_page_faults_per_step():
    assert _probe()[0] <= MEDIAN_FAULTS_PER_STEP


@pytest.mark.skipif(not _GLIBC, reason="the policy is glibc's mallopt")
def test_a_split_bench_fit_takes_no_page_faults_per_step():
    """The bound holds with every op of the fit split over two threads."""
    faults, step_threads = _probe(SPLIT_EVERY_OP)
    if step_threads != 2:
        pytest.skip("the fit cannot split here (one CPU, or OpenBLAS not on one thread)")
    assert faults <= MEDIAN_FAULTS_PER_STEP


@pytest.mark.skipif(not _GLIBC, reason="the policy is glibc's mallopt")
def test_the_probe_sees_faults_without_the_policy():
    """The probe is not blind: release without the policy faults every step.

    The fit keeps every op whole: without the policy a split fit's helper
    thread gets a malloc arena of its own, which holds on to the blocks it
    frees (the process grows instead of faulting).
    """
    off = "from repro.train import allocator\nallocator._mallopt = None\n" + SPLIT_NO_OP
    assert _probe(off)[0] > 4 * MEDIAN_FAULTS_PER_STEP
