"""Serving benchmark: compiled plans vs the training-stack forward.

:func:`run_serve_bench` feeds a stream of synthetic requests through the
micro-batching engine for each requested variant and reports throughput,
latency and analytic per-request energy:

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

:func:`run_backend_bench` compares the thread and process serving
backends on one identical request stream: same models, same samples, same
batching policy and the same BLAS thread count per worker when ``workers ==
shards``, so the logits must come back bitwise identical (the report
records whether they did) while the process backend escapes the GIL
entirely.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.energy import EnergyModel
from repro.hardware.latency import COMPUTE_PROFILES, ComputeProfile
from repro.hardware.profile import ModelProfile, profile_model
from repro.nn.module import Module
from repro.quant.affine import FLOAT_BITS_THRESHOLD
from repro.quant.deploy import QuantizedModelExport, export_quantized_model
from repro.runtime.plan import ExecutionPlan, compile_plan, compile_quantized_plan
from repro.serve.engine import MicroBatchServer
from repro.serve.repository import ModelRepository
from repro.serve.scheduler import QueuePolicy
from repro.serve.service import InferenceService
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


def _time_module(model: Module, batches: Sequence[np.ndarray], grad: bool, repeats: int) -> float:
    """Best-of-``repeats`` seconds to push all batches through the module."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        if grad:
            for batch in batches:
                model(Tensor(batch))
        else:
            with no_grad():
                for batch in batches:
                    model(Tensor(batch))
        best = min(best, time.perf_counter() - started)
    return best


def _serve_through_engine(
    plan: ExecutionPlan,
    samples: np.ndarray,
    batch_size: int,
    profile: Optional[ModelProfile],
    energy_model: Optional[EnergyModel],
    compute_profile: Optional[ComputeProfile],
    repeats: int,
) -> Tuple[float, MicroBatchServer]:
    """Best-of-``repeats`` seconds to serve all samples; returns last server."""
    best = float("inf")
    server: Optional[MicroBatchServer] = None
    for _ in range(repeats):
        # Infinite delay: a batch dispatches exactly when it is full, so the
        # benchmark measures full micro-batches (drain flushes the tail).
        server = MicroBatchServer(
            plan,
            max_batch_size=batch_size,
            max_queue_delay_s=float("inf"),
            profile=profile,
            energy_model=energy_model,
            compute_profile=compute_profile,
        )
        started = time.perf_counter()
        for sample in samples:
            server.submit(sample)
            server.step()
        server.drain()
        best = min(best, time.perf_counter() - started)
    assert server is not None
    return best, server


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
    profile = profile_model(model, input_shape) if device else None
    energy_model = EnergyModel() if device else None
    compute_profile = COMPUTE_PROFILES[device] if device else None

    report = ServeBenchReport(
        model=type(model).__name__,
        input_shape=tuple(input_shape),
        batch_size=batch_size,
        requests=requests,
        device=device,
    )
    was_training = model.training
    model.eval()

    def module_weight_kib() -> float:
        return sum(p.data.nbytes for p in model.parameters()) / 1024

    # Baseline: the training-stack forward (builds an autograd graph).
    module_seconds = _time_module(model, batches, grad=True, repeats=repeats)
    report.rows.append(
        ServeBenchRow(
            variant="module-forward",
            bits=None,
            weight_kib=module_weight_kib(),
            throughput_rps=requests / module_seconds,
            mean_latency_ms=module_seconds / len(batches) * 1e3,
            p95_latency_ms=module_seconds / len(batches) * 1e3,
            energy_uj_per_request=None,
            speedup_vs_module=1.0,
        )
    )
    no_grad_seconds = _time_module(model, batches, grad=False, repeats=repeats)
    report.rows.append(
        ServeBenchRow(
            variant="module-no-grad",
            bits=None,
            weight_kib=module_weight_kib(),
            throughput_rps=requests / no_grad_seconds,
            mean_latency_ms=no_grad_seconds / len(batches) * 1e3,
            p95_latency_ms=no_grad_seconds / len(batches) * 1e3,
            energy_uj_per_request=None,
            speedup_vs_module=module_seconds / no_grad_seconds,
        )
    )

    def add_plan_row(variant: str, plan: ExecutionPlan, bits: Optional[int]) -> None:
        seconds, server = _serve_through_engine(
            plan, samples, batch_size, profile, energy_model, compute_profile, repeats
        )
        stats = server.stats
        energy = (
            stats.energy_pj / stats.requests * 1e-6 if stats.energy_pj else None
        )  # pJ -> uJ
        report.rows.append(
            ServeBenchRow(
                variant=variant,
                bits=bits,
                weight_kib=plan.weight_bytes() / 1024,
                throughput_rps=requests / seconds,
                mean_latency_ms=float(np.mean(stats.latencies)) * 1e3,
                p95_latency_ms=stats.latency_percentile(95) * 1e3,
                energy_uj_per_request=energy,
                speedup_vs_module=module_seconds / seconds,
            )
        )

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


# --------------------------------------------------------------------------- #
# Thread vs process backend benchmark
# --------------------------------------------------------------------------- #
@dataclass
class BackendBenchRow:
    """Throughput of one serving backend on the shared request stream."""

    backend: str
    #: Worker threads (thread backend) or shard processes (process backend).
    workers: int
    seconds: float
    throughput_rps: float
    #: Relative to the thread row (the report's baseline backend).
    speedup_vs_thread: float
    mean_batch_size: float
    #: OpenBLAS threads each worker thread / shard process ran at
    #: (``None``: unreadable).
    blas_threads: Optional[int] = None


@dataclass
class BackendBenchReport:
    """Result of one thread-vs-process backend comparison."""

    models: List[str]
    bits: Optional[int]
    batch_size: int
    requests: int
    shards: int
    #: Whether both backends returned bitwise-identical logits for every
    #: request (same plans, same batch composition -- they must).
    identical: bool = True
    rows: List[BackendBenchRow] = field(default_factory=list)

    def row(self, backend: str) -> BackendBenchRow:
        """The row for one backend (raises ``KeyError`` when absent)."""
        for row in self.rows:
            if row.backend == backend:
                return row
        raise KeyError(f"no backend row named {backend!r}")

    def format_rows(self) -> List[str]:
        """The report as aligned text lines (one per backend)."""
        header = (
            f"{'backend':<8s} {'workers':>7s} {'seconds':>9s} {'req/s':>10s} "
            f"{'vs thread':>9s} {'mean batch':>11s} {'blas thr':>8s}"
        )
        lines = [header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row.backend:<8s} {row.workers:7d} {row.seconds:9.3f} "
                f"{row.throughput_rps:10.0f} {row.speedup_vs_thread:8.2f}x "
                f"{row.mean_batch_size:11.1f} {_format_threads(row.blas_threads):>8s}"
            )
        lines.append(
            "responses bitwise-identical across backends: "
            + ("yes" if self.identical else "NO")
        )
        return lines


def _serve_stream(
    repository: ModelRepository,
    names: Sequence[str],
    streams: Mapping[str, np.ndarray],
    requests: int,
    policy: QueuePolicy,
    *,
    backend: str,
    workers: int,
    shards: Optional[int],
) -> Tuple[float, List[np.ndarray], float, Optional[int]]:
    """Serve the stream once; returns (seconds, per-request logits, mean
    batch, BLAS threads per worker).

    Requests are submitted from this single thread in a fixed order; with
    an infinite queue delay a batch dispatches exactly when it is full, so
    batch composition -- and therefore the BLAS reduction order inside each
    batch -- is identical for every backend, making the returned logits
    comparable bit-for-bit.
    """
    service = InferenceService(
        repository,
        workers=workers,
        queue_policy=policy,
        warm=True,
        backend=backend,
        shards=shards,
    )
    futures = []
    with service:
        # Timing starts after start-up (worker spawn, arena packing, plan
        # compilation): both backends are measured warm, on serving alone.
        started = time.perf_counter()
        for index in range(requests):
            name = names[index % len(names)]
            sample = streams[name][index // len(names)]
            futures.append(service.submit(name, sample))
        service.stop()
        results = [future.result(timeout=120.0) for future in futures]
        seconds = time.perf_counter() - started
    logits = [np.array(result.logits, copy=True) for result in results]
    return seconds, logits, service.stats.mean_batch_size, service.pool.blas_threads


def run_backend_bench(
    models: Mapping[str, Tuple[Module, Tuple[int, ...]]],
    *,
    bits: Optional[int] = None,
    workers: int = 2,
    shards: Optional[int] = None,
    batch_size: int = 16,
    requests: int = 128,
    repeats: int = 1,
    seed: int = 0,
) -> BackendBenchReport:
    """Serve one request stream through both backends and compare.

    Parameters
    ----------
    models:
        ``name -> (module, per_sample_input_shape)``.  Requests alternate
        round-robin over the named models (the multi-model case is where
        process sharding pays: each shard compiles and serves only its
        own models).
    bits:
        Serve every model's uniform ``bits``-bit quantised export, or
        (default) the compiled fp32 plan.
    workers:
        Thread count for the thread backend.
    shards:
        Shard (process) count for the process backend; defaults to
        ``workers`` so both backends get the same parallelism budget --
        and the same BLAS thread count per worker, which the bitwise
        identity check relies on.
    batch_size, requests, repeats, seed:
        As in :func:`run_scaling_bench`.  The identity check always uses
        the first repeat of each backend (identical streams).
    """
    if not models:
        raise ValueError("models mapping must not be empty")
    if bits is not None and not 2 <= bits < FLOAT_BITS_THRESHOLD:
        raise ValueError(
            f"bits must be in [2, {FLOAT_BITS_THRESHOLD - 1}] or None for fp32, got {bits}"
        )
    if requests < 1:
        raise ValueError(f"requests must be at least 1, got {requests}")
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    shard_count = shards if shards is not None else workers

    rng = np.random.default_rng(seed)
    names = list(models)
    streams = {
        name: _request_stream(models[name][1], requests // len(names) + 1, rng)
        for name in names
    }
    policy = QueuePolicy(max_batch_size=batch_size, max_queue_delay_s=float("inf"))

    report = BackendBenchReport(
        models=names,
        bits=bits,
        batch_size=batch_size,
        requests=requests,
        shards=shard_count,
    )
    reference: Optional[List[np.ndarray]] = None
    for backend, parallelism in (("thread", workers), ("process", shard_count)):
        best = float("inf")
        best_mean_batch = 0.0
        for repeat in range(repeats):
            # A fresh repository per run: plan caches and schedulers start
            # cold for both backends alike.
            repository = ModelRepository()
            for name, (model, input_shape) in models.items():
                repository.add_model(name, model, input_shape)
                if bits is not None:
                    uniform = {p: bits for p, _ in model.named_parameters()}
                    repository.add_export(
                        name, export_quantized_model(model, uniform), bits=bits
                    )
            seconds, logits, mean_batch, threads = _serve_stream(
                repository, names, streams, requests, policy,
                backend=backend, workers=parallelism, shards=shard_count,
            )
            if repeat == 0:
                if reference is None:
                    reference = logits
                else:
                    report.identical = report.identical and len(logits) == len(
                        reference
                    ) and all(
                        np.array_equal(a, b) for a, b in zip(reference, logits)
                    )
            if seconds < best:
                best = seconds
                best_mean_batch = mean_batch
        report.rows.append(
            BackendBenchRow(
                backend=backend,
                workers=parallelism,
                seconds=best,
                throughput_rps=requests / best,
                speedup_vs_thread=0.0,  # filled below
                mean_batch_size=best_mean_batch,
                blas_threads=threads,
            )
        )
    baseline = report.row("thread").throughput_rps
    for row in report.rows:
        row.speedup_vs_thread = row.throughput_rps / baseline if baseline > 0 else 0.0
    return report
