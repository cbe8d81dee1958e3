"""Serving benchmark: compiled plan inference vs the Module forward.

Quantifies what the execution runtime buys over the training stack it
replaced: the float and quantised plans are timed against the Module
``__call__`` path (the pre-runtime deployment flow, which dequantised an
export into the training model and paid autograd-graph construction on
every inference) and against the same forward under ``no_grad``.

The comparison test works with ``--benchmark-disable`` too, so the CI smoke
job checks the headline claim -- plan inference at least 2x the
Module-forward throughput on TinyConvNet -- on every run.
"""

import os

import numpy as np
import pytest

from repro.models import build_model
from repro.quant import export_quantized_model
from repro.runtime import compile_plan, compile_quantized_plan
from repro.serve import run_scaling_bench, run_serve_bench
from repro.tensor import Tensor, no_grad

_INPUT_SHAPE = (1, 12, 12)
_BATCH = 16


@pytest.fixture(scope="module")
def served():
    model = build_model("tiny_convnet", num_classes=10, in_channels=1, rng=np.random.default_rng(0))
    model.eval()
    export = export_quantized_model(model, {n: 8 for n, _ in model.named_parameters()})
    return {
        "model": model,
        "float_plan": compile_plan(model, _INPUT_SHAPE),
        "quantized_plan": compile_quantized_plan(model, export, _INPUT_SHAPE),
        "batch": np.random.default_rng(3).normal(size=(_BATCH,) + _INPUT_SHAPE),
    }


@pytest.mark.benchmark(group="serve")
def test_serve_module_forward(benchmark, served):
    model, batch = served["model"], served["batch"]
    logits = benchmark(lambda: model(Tensor(batch)).data)
    assert logits.shape == (_BATCH, 10)


@pytest.mark.benchmark(group="serve")
def test_serve_module_forward_no_grad(benchmark, served):
    model, batch = served["model"], served["batch"]

    def forward():
        with no_grad():
            return model(Tensor(batch)).data

    assert benchmark(forward).shape == (_BATCH, 10)


@pytest.mark.benchmark(group="serve")
def test_serve_float_plan(benchmark, served):
    logits = benchmark(lambda: served["float_plan"].run(served["batch"]))
    assert logits.shape == (_BATCH, 10)


@pytest.mark.benchmark(group="serve")
def test_serve_quantized_plan(benchmark, served):
    logits = benchmark(lambda: served["quantized_plan"].run(served["batch"]))
    assert logits.shape == (_BATCH, 10)


def test_plan_at_least_2x_module_forward_throughput(served, report_rows, best_seconds):
    """Acceptance: plan inference >= 2x Module-forward throughput (TinyConvNet).

    Measures plan.run against the Module ``__call__`` (the pre-runtime
    deployment path) on identical batches.  The ratio is ~3-4x on an idle
    core; a loaded machine can skew one measurement, so the check takes the
    best of a few attempts before declaring a miss.
    """
    model, batch = served["model"], served["batch"]
    float_plan, quantized_plan = served["float_plan"], served["quantized_plan"]
    best_float = best_quantized = 0.0
    for _ in range(5):
        module_seconds = best_seconds(lambda: model(Tensor(batch)))
        best_float = max(best_float, module_seconds / best_seconds(lambda: float_plan.run(batch)))
        best_quantized = max(
            best_quantized, module_seconds / best_seconds(lambda: quantized_plan.run(batch))
        )
        if best_float >= 2.0 and best_quantized >= 2.0:
            break
    report_rows(
        "plan vs Module-forward (TinyConvNet)",
        [f"float plan {best_float:.2f}x, quantised plan {best_quantized:.2f}x module-forward"],
    )
    assert best_float >= 2.0, f"float plan only {best_float:.2f}x module-forward (expected >= 2x)"
    assert best_quantized >= 2.0, (
        f"quantised plan only {best_quantized:.2f}x module-forward (expected >= 2x)"
    )


def test_multiworker_throughput_scales_over_one_worker(report_rows):
    """Acceptance: multi-worker serving beats the 1-worker baseline.

    One compiled plan is shared by every worker thread (each with its own
    buffer arena) and the numpy kernels release the GIL.  Two inputs:

    * TinyConvNet fp32 at 1x24x24, whose GEMMs are too small to start an
      OpenBLAS thread -- the workers' own overlap;
    * resnet20 x1.0 8-bit at 3x32x32, whose GEMMs run multi-threaded.
      Without the BLAS thread budget every worker fans out over every CPU
      and two workers served 0.79-0.82x of one on 2 CPUs; with it each of
      N workers runs ``cpus // N`` BLAS threads.

    Smoke scale shrinks the streams.  On a single-CPU host thread
    parallelism cannot beat one worker, so the strict assertion only runs
    where a second core exists -- CI provides several -- and the
    multi-worker path is still exercised for correctness.
    """
    cpus = os.cpu_count() or 1
    smoke = os.environ.get("REPRO_BENCH_SCALE") == "smoke"
    workers = min(4, max(2, cpus))
    cases = (
        # name, model, input shape, bits, batch size, requests
        (
            "tiny_convnet",
            build_model("tiny_convnet", num_classes=10, in_channels=1,
                        rng=np.random.default_rng(0)),
            (1, 24, 24), None, 32, 192 if smoke else 512,
        ),
        (
            "resnet20",
            build_model("resnet20", num_classes=10, in_channels=3,
                        rng=np.random.default_rng(0)),
            (3, 32, 32), 8, 16, 96 if smoke else 256,
        ),
    )
    bests = {}
    for name, model, shape, bits, batch_size, requests in cases:
        best = 0.0
        for _ in range(3):
            report = run_scaling_bench(
                {name: (model, shape)},
                bits=bits,
                workers_list=(1, workers),
                batch_size=batch_size,
                requests=requests,
                repeats=2,
            )
            best = max(best, report.row(workers).speedup_vs_baseline)
            if best > 1.05:
                break
        bests[name] = best
        report_rows(
            f"multi-worker scaling ({name}, {cpus} cpus)",
            report.format_rows() + [f"best of attempts: {best:.2f}x with {workers} workers"],
        )
        assert report.row(1).throughput_rps > 0
    if cpus < 2:
        pytest.skip(
            f"single-CPU host cannot demonstrate thread scaling "
            f"(measured {bests}); multi-worker path exercised"
        )
    for name, best in bests.items():
        assert best > 1.0, (
            f"{workers}-worker serving of {name} only reached {best:.2f}x the "
            f"1-worker throughput on {cpus} cpus (expected > 1.0x)"
        )


def test_serve_bench_report(served, report_rows):
    """End-to-end serve-bench report: every variant timed on the same batches."""
    report = run_serve_bench(
        served["model"], _INPUT_SHAPE, bits_list=(8,), batch_size=_BATCH, requests=128, repeats=3
    )
    report_rows("serve-bench (TinyConvNet)", report.format_rows())
    # The float plan must beat the training-stack path, and the quantised
    # plan holds ~4x fewer bytes.
    assert report.row("plan-fp32").throughput_rps > report.row("module-forward").throughput_rps
    assert report.row("plan-8bit").weight_kib < report.row("plan-fp32").weight_kib / 2
