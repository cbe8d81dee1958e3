"""train_apt_cifar: the paper's own training loop.

This is ``repro.cli train --scale bench_cifar --strategy apt`` with the
CLI's own APT defaults: small_convnet x0.5 on synthetic CIFAR-10 at 32x32
with augmentation, batch 64, energy and memory accounting on.  The seed
picks the dataset, the initial weights and the shuffling.  The number of
epochs is fixed by ``--seconds`` (see :func:`epochs_for`), so a run does a
fixed amount of work.

Op boundaries come from public hooks only: ``Callback.on_train_begin`` and
``on_epoch_end``, and the end of each optimizer step.  A step runs from the
previous boundary to the end of its ``optimizer.step()``; the epoch-boundary
work (controller update, evaluation, accounting) falls between steps, so it
counts in throughput but not in step latency.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import resource
import statistics
import time
from typing import Dict, List, Optional

import numpy as np

from repro.cli import build_train_parser
from repro.core.strategy import APTStrategy
from repro.data import DataLoader
from repro.experiments import build_workload, get_scale, run_strategy
from repro.experiments.orchestrator import build_strategy
from repro.nn.loss import CrossEntropyLoss
from repro.optim.sgd import SGD
from repro.tensor import Tensor, graph_nodes_created
from repro.train.callbacks import Callback
from repro.train.trainer import Trainer

from perfbench import measure, spans
from perfbench.layers import TAIL_PERCENT

NAME = "train_apt_cifar"
#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Optimizer steps of the untimed warm-up fit.
WARMUP_STEPS = 3
#: Seconds one bench_cifar epoch takes on the reference host (2-CPU Xeon).
EPOCH_SECONDS = 5.5
#: p90 needs 10 steps beyond it, so a run makes at least this many steps.
MIN_STEPS = 110


class _Stop(Exception):
    """Raised from a hook to end a set-up-only or warm-up fit early."""


def _scale(seed: int, smoke: bool):
    return dataclasses.replace(get_scale("bench" if smoke else "bench_cifar"), seed=seed)


def _strategy() -> APTStrategy:
    """APT exactly as the CLI builds it from its own defaults."""
    args = build_train_parser().parse_args(["--strategy", "apt"])
    return build_strategy("apt", {
        "initial_bits": args.initial_bits,
        "t_min": args.t_min,
        "t_max": args.t_max if args.t_max is not None else math.inf,
        "metric_interval": args.metric_interval,
    })


def epochs_for(seconds: float, steps_per_epoch: int) -> int:
    """Epochs that fill ``seconds`` on the reference host, never below MIN_STEPS."""
    return max(math.ceil(MIN_STEPS / steps_per_epoch), math.ceil(seconds / EPOCH_SECONDS))


class StepClock(Callback):
    """Stamps op boundaries into preallocated arrays.

    ``stop_at_begin`` ends the fit when training is about to start (a
    set-up-only run); ``stop_after`` ends it after that many steps.
    """

    def __init__(self, capacity: int, *, stop_at_begin: bool = False,
                 stop_after: Optional[int] = None,
                 tracer: Optional[spans.Tracer] = None) -> None:
        self.start = np.zeros(capacity)
        self.end = np.zeros(capacity)
        self.count = 0
        self.stop_at_begin = stop_at_begin
        self.stop_after = stop_after
        self.tracer = tracer
        self.began: Optional[float] = None
        self.mark: Optional[float] = None
        self.finished: Optional[float] = None
        self.cpu_began = self.cpu_finished = 0.0
        self.trainer: Optional[Trainer] = None
        self.data_began = 0.0
        self.step_span: Optional[list] = None
        self.nodes_at_step = 0
        self.nodes: List[int] = []
        self.undos: List = []

    def on_train_begin(self, trainer: Trainer) -> None:
        self.began = self.mark = time.perf_counter()
        if self.stop_at_begin:
            raise _Stop
        self.cpu_began = time.process_time()
        self.trainer = trainer
        if self.tracer is not None:
            model = trainer.model
            self.undos.append(spans.wrap(self.tracer, type(model), "__call__", "nn.forward",
                                         when=lambda module: module is model))
        optimizer = trainer.optimizer
        inner = optimizer.step

        def step() -> None:
            inner()
            now = time.perf_counter()
            index = self.count
            self.start[index] = self.mark
            self.end[index] = now
            self.count = index + 1
            self.mark = now
            if self.step_span is not None:
                self.nodes.append(graph_nodes_created() - self.nodes_at_step)
                self.tracer.close(self.step_span)
                self.step_span = None
            if self.stop_after is not None and self.count >= self.stop_after:
                raise _Stop

        optimizer.step = step

    def on_epoch_end(self, trainer: Trainer, record) -> None:
        self.mark = self.finished = time.perf_counter()
        self.cpu_finished = time.process_time()


def _trace_training(tracer: spans.Tracer, clock: StepClock) -> List:
    """Wrap the training entry points; a step span opens at each train batch."""
    undos = [
        spans.wrap(tracer, CrossEntropyLoss, "__call__", "nn.loss"),
        spans.wrap(tracer, Tensor, "backward", "tensor.backward"),
        spans.wrap(tracer, SGD, "step", "optim.step"),
        spans.wrap(tracer, APTStrategy, "after_backward", "core.observe"),
        spans.wrap(tracer, APTStrategy, "end_epoch", "core.end_epoch"),
        spans.wrap(tracer, Trainer, "evaluate", "train.evaluate"),
    ]
    original_iter = DataLoader.__iter__

    def traced_iter(loader):
        inner = original_iter(loader)
        trainer = clock.trainer
        is_train = trainer is not None and loader is trainer.train_loader
        while True:
            step = None
            if is_train:
                step = tracer.open("train.step", op=clock.count, start=clock.mark)
                clock.nodes_at_step = graph_nodes_created()
            fetch = tracer.open("data.batch")
            try:
                item = next(inner)
            except StopIteration:
                tracer.close(fetch)
                if step is not None:
                    tracer.discard(step)
                return
            tracer.close(fetch)
            clock.step_span = step
            yield item

    DataLoader.__iter__ = traced_iter
    undos.append(lambda: setattr(DataLoader, "__iter__", original_iter))
    return undos


def _fit(seed: int, smoke: bool, epochs: int, clock: StepClock):
    """Data build plus ``run_strategy``; returns (data seconds, strategy, result).

    The result is ``None`` when ``clock`` stopped the fit early.
    """
    started = time.perf_counter()
    workload = build_workload(_scale(seed, smoke))
    data_s = time.perf_counter() - started
    strategy = _strategy()
    clock.data_began = started
    try:
        result = run_strategy(workload, strategy, epochs=epochs, seed=seed, callbacks=[clock])
    except _Stop:
        result = None
    return data_s, strategy, result


def run(seed: int, seconds: float, trace: bool, smoke: bool = False) -> Dict:
    scale = _scale(seed, smoke)
    steps_per_epoch = math.ceil(scale.train_samples / scale.batch_size)
    epochs = epochs_for(seconds, steps_per_epoch)
    capacity = epochs * steps_per_epoch
    tracer = spans.Tracer() if trace else None
    undos: List = []

    # Cold set-up plus a few steps: absorbs one-time lazy work (first BLAS
    # call, first kernels) so the timed set-ups and steps below start warm.
    warm = StepClock(capacity, stop_after=WARMUP_STEPS)
    cold_started = time.perf_counter()
    _fit(seed, smoke, epochs, warm)
    cold_s = warm.began - cold_started
    warmup_s = warm.end[warm.count - 1] - warm.began
    del warm
    gc.collect()

    setup_samples, data_samples, trainer_samples = [], [], []
    for _ in range(SETUP_REPEATS - 1):
        probe = StepClock(1, stop_at_begin=True)
        data_s = _fit(seed, smoke, epochs, probe)[0]
        setup_samples.append(probe.began - probe.data_began)
        data_samples.append(data_s)
        trainer_samples.append(probe.began - probe.data_began - data_s)
        del probe
        gc.collect()

    clock = StepClock(capacity, tracer=tracer)
    if tracer is not None:
        undos = _trace_training(tracer, clock)
        tracer.phase = "timed"
    with spans.installed(undos):
        data_s, strategy, result = _fit(seed, smoke, epochs, clock)
        undos.extend(clock.undos)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_samples.append(clock.began - clock.data_began)
    data_samples.append(data_s)
    trainer_samples.append(clock.began - clock.data_began - data_s)

    steps = clock.count
    step_seconds = clock.end[:steps] - clock.start[:steps]
    wall = clock.finished - clock.began
    latency = measure.latency_summary(step_seconds, TAIL_PERCENT[NAME])
    controller = strategy.controller
    history = result.history
    losses = [record.train_loss for record in history]
    config = strategy.config
    bits_ok = all(
        config.min_bits <= bits <= config.max_bits
        for record in history
        for bits in record.extra.get("layer_bits", {}).values()
    ) and all(config.min_bits <= bits <= config.max_bits for bits in controller.bitwidths)
    finite = [math.isfinite(loss) for loss in losses]
    checks = [
        {"name": "every epoch's loss is finite", "ok": all(finite), "detail": str(losses)},
        {"name": "last epoch's loss below the first", "ok": losses[-1] < losses[0],
         "detail": f"{losses[0]:.4f} -> {losses[-1]:.4f}"},
        {"name": "every layer's bits within the APTConfig range", "ok": bits_ok,
         "detail": f"[{config.min_bits}, {config.max_bits}], end {controller.bitwidths}"},
        {"name": "every planned step ran", "ok": steps == capacity,
         "detail": f"{steps} of {capacity}"},
    ]
    failed = sum(steps_per_epoch for ok in finite if not ok)

    out = {
        "e2e": {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s",
                        "n": len(setup_samples)},
            "throughput_per_s": {"value": steps / wall, "unit": "1/s", "n": steps},
            "latency_ms_p50": {"value": latency.p50_ms, "unit": "ms", "n": steps},
            "latency_ms_tail": {"value": latency.tail_ms, "unit": "ms", "n": steps,
                                "percent": latency.tail_percent},
            "cpu_ms_per_op": {"value": (clock.cpu_finished - clock.cpu_began) * 1e3 / steps,
                              "unit": "ms", "n": steps},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB", "n": 1},
        },
        "attempted": steps,
        "failed": failed,
        "checks": checks,
        "records": {
            "epochs": epochs,
            "steps_per_epoch": steps_per_epoch,
            "loss_per_epoch": losses,
            "final_test_accuracy": history.final_test_accuracy,
            "energy_ratio_vs_fp32_modelled": result.normalised_energy,
            "memory_ratio_vs_fp32_modelled": result.normalised_memory,
            "underflow_events": controller.total_underflow_events(),
            "bits_end": controller.bitwidths,
        },
        "setup": {
            "setup.data_s": statistics.median(data_samples),
            "setup.trainer_s": statistics.median(trainer_samples),
            "setup.warmup_s": warmup_s,
            "setup.cold_s": cold_s,
        },
    }
    if tracer is not None:
        out["table"] = tracer.table()
        out["per_layer"] = _per_layer(out["table"], clock, controller)
    return out


def _mean_ms(table: spans.SpanTable, name: str, *, parent: Optional[str] = "train.step",
             self_time: bool = False) -> float:
    index = table.select(name, phase="timed", parent_name=parent)
    if len(index) == 0:
        return 0.0
    values = table.self_time[index] if self_time else table.duration[index]
    return float(values.mean() * 1e3)


def _per_layer(table: spans.SpanTable, clock: StepClock, controller) -> Dict[str, float]:
    return {
        "data.batch_ms": _mean_ms(table, "data.batch"),
        "nn.forward_ms": _mean_ms(table, "nn.forward"),
        "nn.loss_ms": _mean_ms(table, "nn.loss"),
        "tensor.backward_ms": _mean_ms(table, "tensor.backward"),
        "tensor.nodes_per_step": float(np.mean(clock.nodes)) if clock.nodes else 0.0,
        "optim.step_ms": _mean_ms(table, "optim.step"),
        "core.observe_ms": _mean_ms(table, "core.observe"),
        "core.end_epoch_ms": _mean_ms(table, "core.end_epoch", parent=None),
        "train.evaluate_ms": _mean_ms(table, "train.evaluate", parent=None),
        "train.residual_ms": _mean_ms(table, "train.step", parent=None, self_time=True),
        "quant.underflow_events": float(controller.total_underflow_events()),
        "core.bits_mean_end": float(controller.average_bits(weighted=False)),
    }
