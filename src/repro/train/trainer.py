"""The epoch training loop shared by APT and every baseline.

One :class:`Trainer` instance owns a model, an optimiser, data loaders, a
precision strategy and (optionally) the energy meter and memory model.  All
of the paper's experiments are runs of this loop with different strategies,
so the energy / memory / accuracy numbers are produced identically for every
method being compared.

A fit whose steps are too small for OpenBLAS to split (fewer forward
multiply-adds per step than :data:`ONE_BLAS_THREAD_BELOW_MACS`) runs BLAS on
one thread; larger fits keep the process's count.  A fit on one BLAS thread
splits each step's per-sample work over its own thread and one helper
(:mod:`repro.tensor.split`) when the process has a CPU for each.  Every fit
also fixes the process's glibc allocator settings
(:mod:`repro.train.allocator`), so the memory ``Tensor.backward`` releases
during a step stays in the process for the next step instead of being
returned to the kernel and faulted back in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.hardware.accounting import EnergyMeter
from repro.hardware.memory import TrainingMemoryModel
from repro.hardware.profile import profile_model
from repro.nn.loss import CrossEntropyLoss, Loss
from repro.nn.module import Module
from repro.optim.lr_scheduler import LRScheduler
from repro.tensor import Tensor, no_grad, split
from repro.train.allocator import apply_allocator_policy
from repro.train.callbacks import Callback
from repro.train.history import EpochRecord, TrainingHistory
from repro.train.metrics import RunningAverage, accuracy
from repro.train.strategy import FP32Strategy, PrecisionStrategy

#: Forward multiply-adds per training step below which :meth:`Trainer.fit`
#: caps OpenBLAS at one thread.  tools/train_thread_sweep.py timed APT steps
#: at one and two threads in 5-19 alternating pairs per configuration (2-vCPU
#: Xeon, OpenBLAS 0.3.31; table in docs/reproducing.md).  One thread cut CPU
#: per step to 0.47-0.63x everywhere; its median wall time per pair was
#: 0.98-1.05x up to 3.3e8, inside the host's pair-to-pair spread, and
#: 1.08-1.19x at 1.3e9-6.9e9.  The line sits just above bench_cifar (5.2e7),
#: where perfbench's train_apt_cifar confirms the saving end to end; larger
#: fits keep the loaded count until a benchmark covers them.
ONE_BLAS_THREAD_BELOW_MACS = 6 * 10**7


@dataclass
class TrainerConfig:
    """Loop-level knobs that are not precision-related."""

    epochs: int = 10
    #: Evaluate on the test loader every N epochs (1 = every epoch).
    evaluate_every: int = 1
    #: Record per-layer extras (bitwidths, Gavg) into each epoch record.
    record_layer_state: bool = True

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.evaluate_every < 1:
            raise ValueError("evaluate_every must be at least 1")


class Trainer:
    """Runs training under a given precision strategy.

    Parameters
    ----------
    model, optimizer, train_loader, test_loader:
        The usual ingredients.  The optimiser's ``update_hook`` is replaced by
        the strategy's hook during :meth:`fit`.
    strategy:
        Precision strategy; defaults to plain fp32.
    loss_fn:
        Defaults to cross-entropy.
    scheduler:
        Optional learning-rate scheduler stepped once per epoch.
    energy_meter:
        Optional :class:`EnergyMeter`; when provided, per-epoch energy is
        recorded into the history.
    memory_model:
        Optional :class:`TrainingMemoryModel`; when provided, the
        training-time model size is recorded per epoch.
    callbacks:
        Optional sequence of :class:`Callback`.
    """

    def __init__(
        self,
        model: Module,
        optimizer,
        train_loader,
        test_loader,
        strategy: Optional[PrecisionStrategy] = None,
        loss_fn: Optional[Loss] = None,
        scheduler: Optional[LRScheduler] = None,
        energy_meter: Optional[EnergyMeter] = None,
        memory_model: Optional[TrainingMemoryModel] = None,
        callbacks: Sequence[Callback] = (),
        config: Optional[TrainerConfig] = None,
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.train_loader = train_loader
        self.test_loader = test_loader
        self.strategy = strategy or FP32Strategy()
        self.loss_fn = loss_fn or CrossEntropyLoss()
        self.scheduler = scheduler
        self.energy_meter = energy_meter
        self.memory_model = memory_model
        self.callbacks: List[Callback] = list(callbacks)
        self.config = config or TrainerConfig()
        self._global_iteration = 0
        self._last_test_accuracy = 0.0
        #: Forward multiply-adds of one full training batch, set by
        #: :meth:`fit` (``None`` until then, or when it cannot be sized).
        self.step_macs: Optional[int] = None
        #: Threads a training step of the last :meth:`fit` ran on (2 with the
        #: batch split, else 1) and why (``None`` until the first fit).
        self.step_threads: Optional[int] = None
        self.step_threads_reason: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, loader=None) -> float:
        """Top-1 accuracy of the current model on ``loader`` (default: test)."""
        loader = loader if loader is not None else self.test_loader
        self.model.eval()
        correct = RunningAverage()
        with no_grad():
            for inputs, labels in loader:
                logits = self.model(Tensor(inputs))
                correct.update(accuracy(logits.data, labels), weight=len(labels))
        self.model.train()
        value = correct.value
        return float(value) if value is not None else 0.0

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def _train_one_epoch(self) -> (float, float):
        loss_avg = RunningAverage()
        acc_avg = RunningAverage()
        for inputs, labels in self.train_loader:
            self.strategy.before_forward()
            logits = self.model(Tensor(inputs))
            loss = self.loss_fn(logits, labels)
            self.optimizer.zero_grad()
            loss.backward()
            self._global_iteration += 1
            self.strategy.after_backward(self._global_iteration)
            self.optimizer.step()
            loss_avg.update(loss.item(), weight=len(labels))
            acc_avg.update(accuracy(logits.data, labels), weight=len(labels))
        return float(loss_avg.value or 0.0), float(acc_avg.value or 0.0)

    def _average_bits(self) -> float:
        weight_bits = self.strategy.weight_bits()
        if not weight_bits:
            return 32.0
        named = dict(self.model.named_parameters())
        total = 0
        weighted = 0.0
        for name, bits in weight_bits.items():
            param = named.get(name)
            if param is None:
                continue
            total += param.size
            weighted += bits * param.size
        return weighted / total if total else 32.0

    def _record_resources(self, epoch: int, record: EpochRecord) -> None:
        if self.energy_meter is not None:
            samples = getattr(self.train_loader, "num_samples", None)
            if samples is None:
                samples = len(self.train_loader.dataset)
            samples = int(round(samples * self.strategy.effective_sample_fraction()))
            epoch_record = self.energy_meter.record_epoch(epoch, samples, self.strategy.layer_bits())
            record.energy_pj = epoch_record.total_pj
            record.cumulative_energy_pj = self.energy_meter.report.total_pj
        if self.memory_model is not None:
            record.memory_bits = self.memory_model.total_bits(
                self.model,
                self.strategy.weight_bits(),
                keeps_master_copy=self.strategy.keeps_master_copy,
            )

    def _step_macs(self) -> Optional[int]:
        """Forward multiply-adds of one full training batch, from the energy
        meter's profile or else a probe of the training samples' shape
        (``None`` when the loader gives no batch size or sample shape)."""
        batch_size = getattr(self.train_loader, "batch_size", None)
        if batch_size is None:
            return None
        if self.energy_meter is not None:
            profile = self.energy_meter.profile
        else:
            inputs = getattr(getattr(self.train_loader, "dataset", None), "inputs", None)
            if inputs is None:
                return None
            profile = profile_model(self.model, inputs.shape[1:])
        return profile.total_macs * batch_size

    def fit(self, epochs: Optional[int] = None) -> TrainingHistory:
        """Train for ``epochs`` epochs (default: the config value).

        When a step's forward multiply-adds (:attr:`step_macs`) fall below
        :data:`ONE_BLAS_THREAD_BELOW_MACS`, the fit holds a claim of two
        compute threads with a one-thread ceiling on the process's BLAS
        thread budget (``repro.runtime.blas.reserve(2, ceiling=1)``) from
        before ``on_train_begin`` until it returns or raises; larger fits
        leave the count alone.  An explicit ``OPENBLAS_NUM_THREADS`` /
        ``OMP_NUM_THREADS`` still wins.  The count is process-wide, so a
        capped fit beside a started serving ``WorkerPool`` (an adaptation
        job) runs the pool's workers on one BLAS thread as well until the
        fit ends; then they return to their fitted count.

        When OpenBLAS runs one thread for the fit (under the ceiling, or
        because the environment sets one thread, for which a larger fit
        claims two threads without a ceiling) and the claim finds a CPU for
        each of its threads (``Reservation.has_cpus``: not beside a started
        ``WorkerPool`` or inside an orchestrator worker on two CPUs), the
        fit turns on :mod:`repro.tensor.split` for its thread until it
        returns or raises: each step's per-sample kernels run half the
        batch on a helper thread.  :attr:`step_threads` and
        :attr:`step_threads_reason` say which way the fit ran.  Training is
        byte-identical under the ceiling, at the loaded count, and split or
        not (``tests/train/test_blas_ceiling_bits.py``,
        ``tests/tensor/test_batch_split.py``).

        The fit first applies :func:`repro.train.allocator.apply_allocator_policy`,
        so the tape that ``loss.backward()`` releases as it runs is reused by
        the next step rather than returned to the kernel and faulted back
        in, and the helper's freed blocks stay in the main heap.  Unlike
        the BLAS claim and the split, the policy is not undone when the fit
        returns: it persists for the rest of the process (a no-op without
        glibc's ``mallopt``).
        """
        apply_allocator_policy()
        self.step_macs = self._step_macs()
        # Imported here, so that importing repro.train does not load the runtime.
        from repro.runtime import blas

        claim = None
        if self.step_macs is not None and self.step_macs < ONE_BLAS_THREAD_BELOW_MACS:
            claim = blas.reserve(2, ceiling=1)
        elif blas.current_threads() == 1:
            claim = blas.reserve(2)
        blas_threads = claim.blas_threads if claim is not None else blas.current_threads()
        if blas_threads != 1:
            self.step_threads = 1
            self.step_threads_reason = (
                "OpenBLAS's thread count is unknown" if blas_threads is None
                else f"OpenBLAS runs {blas_threads} threads"
            )
        elif not claim.has_cpus:
            self.step_threads = 1
            self.step_threads_reason = "the thread budget holds no CPU for a second thread"
        else:
            self.step_threads = 2
            self.step_threads_reason = "batch split: per-sample work on the fit's thread and a helper"
        try:
            with split.active(self.step_threads == 2):
                return self._fit(epochs)
        finally:
            if claim is not None:
                claim.release()

    def _fit(self, epochs: Optional[int]) -> TrainingHistory:
        epochs = epochs if epochs is not None else self.config.epochs
        history = TrainingHistory(strategy_name=self.strategy.name)
        self.strategy.prepare(self.model)
        self.optimizer.update_hook = self.strategy.make_update_hook()
        for callback in self.callbacks:
            callback.on_train_begin(self)

        self.model.train()
        for epoch in range(epochs):
            lr = self.scheduler.step(epoch) if self.scheduler is not None else self.optimizer.lr
            train_loss, train_accuracy = self._train_one_epoch()
            self.strategy.end_epoch(epoch)

            if epoch % self.config.evaluate_every == 0 or epoch == epochs - 1:
                test_accuracy = self.evaluate()
                self._last_test_accuracy = test_accuracy
            else:
                test_accuracy = self._last_test_accuracy

            record = EpochRecord(
                epoch=epoch,
                train_loss=train_loss,
                train_accuracy=train_accuracy,
                test_accuracy=test_accuracy,
                learning_rate=lr,
                average_bits=self._average_bits(),
            )
            self._record_resources(epoch, record)
            if self.config.record_layer_state:
                layer_bits = self.strategy.weight_bits()
                if layer_bits:
                    record.extra["layer_bits"] = dict(layer_bits)
            history.append(record)

            stop = False
            for callback in self.callbacks:
                callback.on_epoch_end(self, record)
                stop = callback.should_stop(self, record) or stop
            if stop:
                break
        return history
