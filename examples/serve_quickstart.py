"""Serve quickstart: train -> export -> compile -> serve -> scale out.

The full deployment path this library now supports end to end:

1. train a TinyConvNet with APT (the controller picks per-layer bitwidths),
2. export the trained model as integer codes (`export_quantized_model`),
3. compile the export into a quantised ExecutionPlan -- the runtime traces
   the model into a graph IR, runs the optimizing pass pipeline (constant
   folding, affine fusion, kernel-variant selection), plans all
   scratch buffers into one arena, and lowers to integer-weight kernel
   steps with zero autograd at run time; `repro.cli plan-inspect` prints
   the same pass-by-pass summary for any saved export,
4. serve a batch of requests through the micro-batching engine and compare
   throughput / agreement with the training-stack Module forward,
5. scale out: register the model's bitwidth variants in a ModelRepository
   and serve the same test set through the concurrent InferenceService --
   a worker-pool of threads sharing one immutable plan per variant, with
   per-request precision-aware SLO routing,
6. observe: read back the metrics registry the whole stack reported into
   (phase histograms, queue/routing counters, plan-cache hits) and the
   per-request trace spans; `python -m repro.cli metrics --json` dumps
   the same registry for a synthetic load.

Runs in well under a minute on a laptop CPU:

    python examples/serve_quickstart.py
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

from repro.cli import run_plan_inspect
from repro.core import APTConfig, APTTrainer
from repro.data import DataLoader, make_synthetic_digits
from repro.hardware import EnergyModel, profile_model
from repro.hardware.latency import COMPUTE_PROFILES
from repro.models import build_model
from repro.quant import export_quantized_model, save_export
from repro.runtime import compile_quantized_plan
from repro.serve import (
    InferenceService,
    MicroBatchServer,
    ModelRepository,
    QueuePolicy,
    RequestSLO,
)
from repro.tensor import Tensor, no_grad


def main() -> None:
    # 1. Train briefly with APT so each layer settles on its own bitwidth.
    train_set, test_set = make_synthetic_digits(train_samples=600, test_samples=150, image_size=12)
    model = build_model("tiny_convnet", num_classes=10, in_channels=1, rng=np.random.default_rng(0))
    trainer = APTTrainer(
        model,
        DataLoader(train_set, batch_size=64, rng=np.random.default_rng(1)),
        DataLoader(test_set, batch_size=128, shuffle=False),
        config=APTConfig(initial_bits=6, t_min=6.0, metric_interval=2),
        learning_rate=0.08,
        lr_milestones=(4,),
        input_shape=(1, 12, 12),
    )
    history = trainer.fit(epochs=6)
    print(f"trained: final test accuracy {history.final_test_accuracy:.3f}")

    # 2. Export: integer codes at the controller's per-layer bitwidths.
    bitwidths = trainer.controller.bitwidth_by_name()
    export = export_quantized_model(model, bitwidths)
    print(f"export: {export.total_bytes() / 1024:.1f} KiB on flash "
          f"(fp32 would be {model.num_parameters() * 4 / 1024:.1f} KiB)")

    # 3. Compile the export into a quantised execution plan and inspect
    # what the optimizing pipeline did to it: the same summary is available
    # for any saved export via `python -m repro.cli plan-inspect`.
    plan = compile_quantized_plan(model, export, (1, 12, 12))
    print(f"compiled plan: {plan.num_steps} steps, "
          f"{plan.weight_bytes() / 1024:.1f} KiB of baked weights")
    print(plan.describe())
    print()
    with tempfile.TemporaryDirectory() as tmpdir:
        export_path = save_export(export, os.path.join(tmpdir, "digits"))
        run_plan_inspect([
            str(export_path),
            "--model", "tiny_convnet",
            "--in-channels", "1",
            "--image-size", "12",
            "--batch", "32",
        ])

    # 4. Serve the whole test set through the micro-batching engine.
    profile = profile_model(model, (1, 12, 12))
    server = MicroBatchServer(
        plan,
        max_batch_size=32,
        max_queue_delay_s=float("inf"),
        profile=profile,
        energy_model=EnergyModel(),
        compute_profile=COMPUTE_PROFILES["smartphone_npu"],
    )
    results = []
    for index in range(len(test_set)):
        sample, _ = test_set[index]
        server.submit(sample)
        results.extend(server.step())
    results.extend(server.drain())
    stats = server.stats

    labels = np.array([test_set[index][1] for index in range(len(test_set))])
    predictions = np.array([r.prediction for r in results])
    print(f"\nserved {stats.requests} requests in {stats.batches} batches "
          f"(mean batch {stats.mean_batch_size:.1f})")
    print(f"accuracy through the plan: {(predictions == labels).mean():.3f}")
    print(f"host throughput: {stats.throughput_rps:,.0f} req/s   "
          f"p95 latency {stats.latency_percentile(95) * 1e3:.2f} ms")
    print(f"modelled edge energy: {stats.energy_pj / stats.requests * 1e-6:.3f} uJ/request   "
          f"device time {stats.device_seconds * 1e3:.2f} ms total")

    # Sanity: the plan agrees with the Module forward it replaced.
    batch = np.stack([test_set[index][0] for index in range(32)])
    model.eval()
    started = time.perf_counter()
    with no_grad():
        module_logits = model(Tensor(batch)).data
    module_seconds = time.perf_counter() - started
    started = time.perf_counter()
    plan_logits = plan.run(batch)
    plan_seconds = time.perf_counter() - started
    agree = np.argmax(plan_logits, axis=1) == np.argmax(module_logits, axis=1)
    print(f"\nplan vs module on one batch: {agree.mean():.0%} prediction agreement, "
          f"{module_seconds / plan_seconds:.1f}x faster than the Module forward")

    # 5. Scale out: the concurrent multi-variant service.  The repository
    # holds the APT export alongside the fp32 plan; each worker thread owns
    # its own buffer arena over the *same* immutable plans, and every
    # request is routed to the cheapest bitwidth variant meeting its SLO.
    repo = ModelRepository()
    repo.add_model("digits", model, (1, 12, 12))
    apt_bits = repo.add_export("digits", export)
    service = InferenceService(
        repo,
        workers=2,
        queue_policy=QueuePolicy(max_batch_size=32, max_queue_delay_s=0.0, max_depth=512),
        compute_profile=COMPUTE_PROFILES["smartphone_npu"],
    )
    slo = RequestSLO(min_bits=4)  # quality floor; router picks the cheapest >= 4 bits
    with service:
        futures = [
            service.submit("digits", test_set[index][0], slo)
            for index in range(len(test_set))
        ]
        routed = [future.result(timeout=10.0) for future in futures]
    predictions = np.array([r.prediction for r in routed])
    stats = service.stats
    print(f"\nconcurrent service: {stats.requests} requests in {stats.batches} batches "
          f"over 2 workers, all routed to the {routed[0].bits}-bit variant "
          f"(APT export stores {apt_bits} bits max)")
    print(f"accuracy through the service: {(predictions == labels).mean():.3f}   "
          f"p95 latency {stats.latency_percentile(95) * 1e3:.2f} ms")

    # 6. Observe: every layer above reported into the service's metrics
    # registry, and each result carries its trace -- contiguous spans
    # covering the request from enqueue to response.
    snapshot = service.metrics_snapshot()
    queue_wait = snapshot.histogram_value("serve_queue_wait_seconds", model="digits")
    kernel = snapshot.histogram_value("serve_kernel_seconds", model="digits")
    print(f"\nobservability: queue-wait histogram holds {queue_wait.count} requests "
          f"(mean {queue_wait.mean * 1e3:.2f} ms), kernel histogram {kernel.count} batches")
    print(f"plan cache: {snapshot.counter_value('plan_cache_hits_total'):.0f} hits / "
          f"{snapshot.counter_value('plan_cache_misses_total'):.0f} compiles")
    spans = " + ".join(
        f"{span.name} {span.duration * 1e3:.2f} ms" for span in routed[0].trace.spans
    )
    print(f"first request trace: {spans}")


if __name__ == "__main__":
    main()
