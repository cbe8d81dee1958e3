"""Serving benchmark: compiled plans vs the training-stack forward.

:func:`run_serve_bench` splits a stream of synthetic requests into
micro-batches, times every variant on the same bare batches (best of
``repeats`` passes) and reports throughput, per-request latency (the
duration of the batch a request rode in) and analytic per-request energy:

* ``module-forward`` -- the status-quo deployment path this PR replaces:
  dequantised weights in the training ``Module``, whose ``__call__`` builds
  an autograd graph on every inference;
* ``module-no-grad`` -- the same forward under ``no_grad`` (graph recording
  off, but still one ``Tensor`` per op);
* ``plan-fp32`` -- the compiled float plan;
* ``plan-<k>bit`` -- compiled quantised plans executing integer codes at
  each requested bitwidth.

:func:`run_scaling_bench` is the concurrent companion: it serves the same
request stream through the multi-model :class:`~repro.serve.service.
InferenceService` at several worker-pool sizes and reports how throughput
scales over the single-worker baseline.  One compiled plan is shared across
worker threads, each with its own buffer arena, and the numpy kernels
release the GIL; what lets the workers scale on a small host is the BLAS
thread budget (:mod:`repro.runtime.blas`), which gives each of N workers
``cpus // N`` OpenBLAS threads instead of letting every worker fan out over
all of them.  Each row records the BLAS thread count it ran at.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.energy import EnergyModel
from repro.hardware.latency import COMPUTE_PROFILES
from repro.hardware.profile import profile_model
from repro.nn.module import Module
from repro.quant.affine import FLOAT_BITS_THRESHOLD
from repro.quant.deploy import QuantizedModelExport, export_quantized_model
from repro.runtime.plan import ExecutionPlan, compile_plan, compile_quantized_plan
from repro.serve.repository import ModelRepository
from repro.serve.scheduler import QueuePolicy
from repro.serve.service import InferenceService
from repro.serve.types import BatchAccountant, BatchRecord
from repro.tensor import Tensor, no_grad


@dataclass
class ServeBenchRow:
    """One variant's aggregate numbers."""

    variant: str
    bits: Optional[int]
    weight_kib: float
    throughput_rps: float
    mean_latency_ms: float
    p95_latency_ms: float
    energy_uj_per_request: Optional[float]
    speedup_vs_module: float


@dataclass
class ServeBenchReport:
    """Result of one serve benchmark run."""

    model: str
    input_shape: Tuple[int, ...]
    batch_size: int
    requests: int
    device: Optional[str]
    rows: List[ServeBenchRow] = field(default_factory=list)

    def row(self, variant: str) -> ServeBenchRow:
        """The row named ``variant`` (raises ``KeyError`` when absent)."""
        for row in self.rows:
            if row.variant == variant:
                return row
        raise KeyError(f"no benchmark row named {variant!r}")

    def format_rows(self) -> List[str]:
        """The report as aligned text lines (header + one line per variant)."""
        header = (
            f"{'variant':<16s} {'bits':>4s} {'weights':>10s} {'req/s':>10s} "
            f"{'mean ms':>9s} {'p95 ms':>9s} {'uJ/req':>9s} {'vs module':>10s}"
        )
        lines = [header, "-" * len(header)]
        for row in self.rows:
            energy = f"{row.energy_uj_per_request:9.2f}" if row.energy_uj_per_request else "        -"
            lines.append(
                f"{row.variant:<16s} {row.bits if row.bits else '-':>4} "
                f"{row.weight_kib:9.1f}K {row.throughput_rps:10.0f} "
                f"{row.mean_latency_ms:9.3f} {row.p95_latency_ms:9.3f} "
                f"{energy} {row.speedup_vs_module:9.2f}x"
            )
        return lines


def _request_stream(
    input_shape: Tuple[int, ...], count: int, rng: np.random.Generator
) -> np.ndarray:
    return rng.normal(size=(count,) + tuple(input_shape))


def _time_batches(
    run: Callable[[np.ndarray], object], batches: Sequence[np.ndarray], repeats: int
) -> List[float]:
    """Per-batch seconds of the fastest of ``repeats`` passes of ``run``
    over ``batches``."""
    best: Optional[List[float]] = None
    for _ in range(repeats):
        seconds = []
        for batch in batches:
            started = time.perf_counter()
            run(batch)
            seconds.append(time.perf_counter() - started)
        if best is None or sum(seconds) < sum(best):
            best = seconds
    assert best is not None
    return best


def _energy_uj_per_request(
    accountant: Optional[BatchAccountant], plan: ExecutionPlan, batches: Sequence[np.ndarray]
) -> Optional[float]:
    """Modelled energy per request of serving ``batches`` through ``plan``."""
    if accountant is None:
        return None
    forward_bits = plan.bits_by_layer()
    energy_pj = 0.0
    for batch_id, batch in enumerate(batches):
        record = BatchRecord(batch_id=batch_id, size=len(batch), compute_seconds=0.0)
        accountant.annotate(record, forward_bits)
        energy_pj += record.energy_pj
    return energy_pj / sum(len(batch) for batch in batches) * 1e-6  # pJ -> uJ


def run_serve_bench(
    model: Module,
    input_shape: Tuple[int, ...],
    *,
    bits_list: Sequence[int] = (8, 4),
    export: Optional[QuantizedModelExport] = None,
    batch_size: int = 16,
    requests: int = 256,
    repeats: int = 3,
    device: Optional[str] = "smartphone_npu",
    seed: int = 0,
) -> ServeBenchReport:
    """Benchmark serving ``model`` through compiled plans at several bitwidths.

    Parameters
    ----------
    model:
        Architecture (and weights) to serve.  The model is snapshotted into
        plans; its weights are not modified except when ``export`` /
        ``bits_list`` loads quantised values (the standard deployment flow).
    input_shape:
        Per-sample input shape.
    bits_list:
        Uniform weight bitwidths to export and serve.  Every export is
        built from the model's own weights; the model comes back unchanged
        (``compile_quantized_plan`` restores its state after tracing).
        Ignored when ``export`` is given (its own bitwidths are used).
    export:
        A pre-built export to serve instead of synthesising uniform-bitwidth
        exports from the model.
    batch_size, requests:
        Micro-batch size and number of synthetic requests per variant.
    repeats:
        Timing repetitions; the best run is reported.
    device:
        Key into :data:`~repro.hardware.latency.COMPUTE_PROFILES` for the
        analytic energy / device-latency models, or ``None`` to skip them.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    if requests < 1:
        raise ValueError(f"requests must be at least 1, got {requests}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    rng = np.random.default_rng(seed)
    samples = _request_stream(input_shape, requests, rng)
    batches = [
        samples[start : start + batch_size] for start in range(0, requests, batch_size)
    ]
    accountant = (
        BatchAccountant(profile_model(model, input_shape), EnergyModel(), COMPUTE_PROFILES[device])
        if device
        else None
    )

    report = ServeBenchReport(
        model=type(model).__name__,
        input_shape=tuple(input_shape),
        batch_size=batch_size,
        requests=requests,
        device=device,
    )
    was_training = model.training
    model.eval()

    def forward(batch: np.ndarray) -> None:
        model(Tensor(batch))

    # Baseline: the training-stack forward (builds an autograd graph).
    module_batch_seconds = _time_batches(forward, batches, repeats)
    module_seconds = sum(module_batch_seconds)

    def add_row(
        variant: str,
        bits: Optional[int],
        weight_kib: float,
        batch_seconds: List[float],
        energy_uj_per_request: Optional[float] = None,
    ) -> None:
        seconds = sum(batch_seconds)
        # A request's latency is the duration of the batch it rode in.
        latencies = np.repeat(batch_seconds, [len(batch) for batch in batches])
        report.rows.append(
            ServeBenchRow(
                variant=variant,
                bits=bits,
                weight_kib=weight_kib,
                throughput_rps=requests / seconds,
                mean_latency_ms=float(np.mean(latencies)) * 1e3,
                p95_latency_ms=float(np.percentile(latencies, 95)) * 1e3,
                energy_uj_per_request=energy_uj_per_request,
                speedup_vs_module=module_seconds / seconds,
            )
        )

    def add_plan_row(variant: str, plan: ExecutionPlan, bits: Optional[int]) -> None:
        # One arena, preallocated by the plan's memory planner at the
        # largest batch the bench runs.
        ctx = plan.create_context(batch_size=batch_size)
        add_row(
            variant,
            bits,
            plan.weight_bytes() / 1024,
            _time_batches(lambda batch: plan.run(batch, ctx=ctx), batches, repeats),
            _energy_uj_per_request(accountant, plan, batches),
        )

    module_weight_kib = sum(p.data.nbytes for p in model.parameters()) / 1024
    add_row("module-forward", None, module_weight_kib, module_batch_seconds)
    with no_grad():
        add_row("module-no-grad", None, module_weight_kib,
                _time_batches(forward, batches, repeats))
    try:
        add_plan_row("plan-fp32", compile_plan(model, input_shape), 32)
        if export is not None:
            bits_present = sorted({t.bits for t in export.quantized.values()})
            label = f"plan-{bits_present[0]}bit" if len(bits_present) == 1 else "plan-mixed"
            bits = bits_present[0] if len(bits_present) == 1 else None
            add_plan_row(label, compile_quantized_plan(model, export, input_shape), bits)
        else:
            for bits in bits_list:
                uniform = {name: bits for name, _ in model.named_parameters()}
                synthetic = export_quantized_model(model, uniform)
                add_plan_row(
                    f"plan-{bits}bit",
                    compile_quantized_plan(model, synthetic, input_shape),
                    bits,
                )
    finally:
        model.train(was_training)
    return report


# --------------------------------------------------------------------------- #
# Multi-worker scaling benchmark
# --------------------------------------------------------------------------- #
@dataclass
class ScalingBenchRow:
    """Throughput of one worker-pool size."""

    workers: int
    seconds: float
    throughput_rps: float
    #: Relative to the report's first workers_list entry (its baseline).
    speedup_vs_baseline: float
    mean_batch_size: float
    #: OpenBLAS threads each worker ran at (``None``: unreadable).
    blas_threads: Optional[int] = None


@dataclass
class ScalingBenchReport:
    """Result of one multi-worker scaling run."""

    models: List[str]
    bits: Optional[int]
    batch_size: int
    requests: int
    rows: List[ScalingBenchRow] = field(default_factory=list)

    def row(self, workers: int) -> ScalingBenchRow:
        """The row for one pool size (raises ``KeyError`` when absent)."""
        for row in self.rows:
            if row.workers == workers:
                return row
        raise KeyError(f"no scaling row for {workers} workers")

    def format_rows(self) -> List[str]:
        """The report as aligned text lines (one per pool size)."""
        baseline = self.rows[0].workers if self.rows else 1
        header = (
            f"{'workers':>7s} {'seconds':>9s} {'req/s':>10s} "
            f"{f'vs {baseline} wkr':>9s} {'mean batch':>11s} {'blas thr':>8s}"
        )
        lines = [header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row.workers:7d} {row.seconds:9.3f} {row.throughput_rps:10.0f} "
                f"{row.speedup_vs_baseline:8.2f}x {row.mean_batch_size:11.1f} "
                f"{_format_threads(row.blas_threads):>8s}"
            )
        return lines


def _format_threads(blas_threads: Optional[int]) -> str:
    return "?" if blas_threads is None else str(blas_threads)


def run_scaling_bench(
    models: Mapping[str, Tuple[Module, Tuple[int, ...]]],
    *,
    bits: Optional[int] = None,
    workers_list: Sequence[int] = (1, 2, 4),
    batch_size: int = 16,
    requests: int = 256,
    repeats: int = 3,
    seed: int = 0,
) -> ScalingBenchReport:
    """Serve one request stream at several worker-pool sizes.

    Parameters
    ----------
    models:
        ``name -> (module, per_sample_input_shape)``.  Requests are spread
        round-robin over the named models, exercising the multi-model
        scheduler; a single-entry mapping benchmarks single-model scaling.
    bits:
        Serve every model's uniform ``bits``-bit quantised export, or (the
        default, ``None``) the compiled fp32 plan.
    workers_list:
        Worker-pool sizes to time.  Throughput is reported relative to the
        first entry (conventionally 1).
    batch_size, requests, repeats, seed:
        As in :func:`run_serve_bench`; ``requests`` is the total across all
        models, and the best of ``repeats`` timings is reported per size.
    """
    if not models:
        raise ValueError("models mapping must not be empty")
    if bits is not None and not 2 <= bits < FLOAT_BITS_THRESHOLD:
        raise ValueError(
            f"bits must be in [2, {FLOAT_BITS_THRESHOLD - 1}] or None for fp32, got {bits}"
        )
    if not workers_list:
        raise ValueError("workers_list must not be empty")
    if requests < 1:
        raise ValueError(f"requests must be at least 1, got {requests}")
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")

    repository = ModelRepository()
    for name, (model, input_shape) in models.items():
        repository.add_model(name, model, input_shape)
        if bits is not None:
            uniform = {pname: bits for pname, _ in model.named_parameters()}
            repository.add_export(name, export_quantized_model(model, uniform), bits=bits)
    repository.warm()

    rng = np.random.default_rng(seed)
    names = list(models)
    streams = {
        name: _request_stream(models[name][1], requests // len(names) + 1, rng)
        for name in names
    }
    policy = QueuePolicy(max_batch_size=batch_size, max_queue_delay_s=float("inf"))

    report = ScalingBenchReport(
        models=names, bits=bits, batch_size=batch_size, requests=requests
    )
    for workers in workers_list:
        best = float("inf")
        best_stats = None
        for _ in range(repeats):
            service = InferenceService(
                repository, workers=workers, queue_policy=policy, warm=False
            )
            futures = []
            started = time.perf_counter()
            with service:
                for index in range(requests):
                    name = names[index % len(names)]
                    sample = streams[name][index // len(names)]
                    futures.append(service.submit(name, sample))
                service.stop()
                for future in futures:
                    future.result(timeout=60.0)
            seconds = time.perf_counter() - started
            if seconds < best:
                best = seconds
                best_stats = service.stats
        assert best_stats is not None
        report.rows.append(
            ScalingBenchRow(
                workers=workers,
                seconds=best,
                throughput_rps=requests / best,
                speedup_vs_baseline=0.0,  # filled below once the baseline is known
                mean_batch_size=best_stats.mean_batch_size,
                blas_threads=service.pool.blas_threads,
            )
        )
    baseline = report.rows[0].throughput_rps
    for row in report.rows:
        row.speedup_vs_baseline = row.throughput_rps / baseline if baseline > 0 else 0.0
    return report

