"""The two serving workloads: an open-loop mixed-precision stream and a
closed loop over the paper's two models.

Both target ``InferenceService(workers=2)`` on the thread backend with the
heuristic kernel choice, no tuning cache and codegen off: the service as
shipped.  The seed makes the models, exports, inputs and arrival schedule;
the service sees only the generated requests.

Bookkeeping stays lean so it does not distort what it measures: stamps go
into preallocated arrays indexed by request slot, the futures ``submit``
returns are dropped at once, and completion is read from the public
``ResultFuture.set_result`` call, which is wrapped for the whole process.
Only every ``VERIFY_EVERY``-th response keeps a copy of its logits, checked
against the export's Module forward after the timed phase.
"""

from __future__ import annotations

import ctypes
import gc
import itertools
import queue
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.energy import EnergyModel
from repro.hardware.latency import COMPUTE_PROFILES
from repro.models import build_model
from repro.quant.deploy import export_quantized_model, load_into_model
from repro.runtime.executor import ExecutionPlan
from repro.runtime.passes import PassManager
from repro.serve import (
    FLOAT_BITS,
    InferenceService,
    ModelRepository,
    NoVariantError,
    PrecisionRouter,
    QueueFullError,
    QueuePolicy,
    RequestSLO,
    ResultFuture,
    Scheduler,
)
from repro.tensor import Tensor, no_grad

from perfbench import measure, spans
from perfbench.layers import TAIL_PERCENT

OPEN = "serve_open_mixed"
CLOSED = "serve_closed_resnet20_mbv2"

WORKERS = 2
SETUP_REPEATS = 5
VERIFY_EVERY = 64
INPUT_POOL = 64
WARMUP_PER_QUEUE = 32
DRAIN_TIMEOUT_S = 30.0
#: The plan compiler's own validation tolerance (runtime/plan.py).
RTOL, ATOL = 1e-5, 1e-7

OPEN_RATE = 600.0
OPEN_MODELS = (("tiny_convnet", 1.0, (1, 12, 12)), ("small_convnet", 0.5, (3, 32, 32)))
OPEN_BITS = (8, 4)
#: SLO classes with their shares of the stream and the variant each must reach.
OPEN_SLOS = (RequestSLO(), RequestSLO(min_bits=8), RequestSLO(prefer="quality"))
OPEN_SLO_SHARES = (0.5, 0.3, 0.2)
OPEN_EXPECTED_BITS = (4, 8, FLOAT_BITS)
OPEN_POLICY = QueuePolicy(max_batch_size=16, max_queue_delay_s=0.002, max_depth=256)

CLOSED_MODELS = (("resnet20", 1.0), ("mobilenetv2", 0.35))
CLOSED_SHAPE = (3, 32, 32)
#: Requests kept in flight per model: twice the max batch, so a full batch
#: waits in the queue whenever a worker frees up.
CLOSED_OUTSTANDING = 32
CLOSED_POLICY = QueuePolicy(max_batch_size=16)
#: Slots reserved per timed second (well above the ~70 req/s it reaches).
CLOSED_SLOTS_PER_S = 400

_OK, _REJECTED, _NO_VARIANT = 0, 1, 2
_PR_SET_TIMERSLACK, _PR_GET_TIMERSLACK = 29, 30


@dataclass
class Deployment:
    """One set-up: the started service plus the inputs it will be sent."""

    service: InferenceService
    names: Tuple[str, ...]
    inputs: Tuple[np.ndarray, ...]
    policy: QueuePolicy
    data_s: float
    service_s: float

    @property
    def setup_s(self) -> float:
        return self.data_s + self.service_s


def _deploy(exports: Callable[[np.random.Generator], List], policy: QueuePolicy,
            seed: int, modelled: bool) -> Deployment:
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    repository = ModelRepository()
    names, inputs = [], []
    for name, model, shape, variants, float_variant in exports(rng):
        repository.add_model(name, model, shape, float_variant=float_variant)
        for bits, export in variants:
            repository.add_export(name, export, bits=bits)
        names.append(name)
        inputs.append(rng.standard_normal((INPUT_POOL,) + shape))
    built = time.perf_counter()
    extra = (
        {"compute_profile": COMPUTE_PROFILES["smartphone_cpu"], "energy_model": EnergyModel()}
        if modelled else {}
    )
    service = InferenceService(repository, workers=WORKERS, queue_policy=policy, **extra)
    service.start()
    return Deployment(service, tuple(names), tuple(inputs), policy,
                      built - started, time.perf_counter() - built)


def _open_exports(rng: np.random.Generator) -> List:
    out = []
    for name, width, shape in OPEN_MODELS:
        model = build_model(name, num_classes=10, width_multiplier=width,
                            in_channels=shape[0], rng=rng)
        variants = [
            (bits, export_quantized_model(model, {p: bits for p, _ in model.named_parameters()}))
            for bits in OPEN_BITS
        ]
        out.append((name, model, shape, variants, True))
    return out


def _closed_exports(rng: np.random.Generator) -> List:
    """One APT-style export per model: per-layer bitwidths 4..8 from the seed."""
    out = []
    for name, width in CLOSED_MODELS:
        model = build_model(name, num_classes=10, width_multiplier=width,
                            in_channels=CLOSED_SHAPE[0], rng=rng)
        bits = {p: int(rng.integers(4, 9)) for p, _ in model.named_parameters()}
        out.append((name, model, CLOSED_SHAPE, [(None, export_quantized_model(model, bits))],
                    False))
    return out


def deploy(workload: str, seed: int) -> Deployment:
    if workload == OPEN:
        return _deploy(_open_exports, OPEN_POLICY, seed, modelled=True)
    return _deploy(_closed_exports, CLOSED_POLICY, seed, modelled=False)


# --------------------------------------------------------------------------- #
# Completion stamps
# --------------------------------------------------------------------------- #
class Recorder:
    """Where the wrapped ``ResultFuture`` calls stamp completions.

    Slots are request ids minus ``base`` (the service numbers requests in
    submit order and this benchmark submits from one thread).  ``notify``
    receives the slot of every completion, or -1 for a failed future,
    whose slot is unknown.
    """

    def __init__(self, capacity: int, base: int, num_classes: int = 10, *,
                 notify: Optional[Callable[[int], None]] = None,
                 detail: bool = False) -> None:
        self.capacity = capacity
        self.base = base
        self.done = np.full(capacity, np.nan)
        self.bits = np.zeros(capacity, dtype=np.int16)
        self.logits = np.full((capacity // VERIFY_EVERY + 1, num_classes), np.nan)
        self.service_s = np.full(capacity, np.nan) if detail else None
        self.notify = notify
        self.errors: List[str] = []

    def result(self, result) -> None:
        now = time.perf_counter()
        slot = result.request_id - self.base
        if not 0 <= slot < self.capacity:
            return
        self.done[slot] = now
        self.bits[slot] = result.bits
        if slot % VERIFY_EVERY == 0:
            self.logits[slot // VERIFY_EVERY] = result.logits
        if self.service_s is not None:
            self.service_s[slot] = result.queue_seconds + result.compute_seconds
        if self.notify is not None:
            self.notify(slot)

    def error(self, error: BaseException) -> None:
        self.errors.append(repr(error))
        if self.notify is not None:
            self.notify(-1)

    def completed(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.done))) + len(self.errors)


def install_completion_hooks(recorder: Recorder) -> Callable[[], None]:
    """Route every ``ResultFuture`` completion through ``recorder``; returns an undo."""
    set_result = ResultFuture.set_result
    set_exception = ResultFuture.set_exception

    def recorded_result(future, result):
        recorder.result(result)
        set_result(future, result)

    def recorded_exception(future, error):
        recorder.error(error)
        set_exception(future, error)

    ResultFuture.set_result = recorded_result
    ResultFuture.set_exception = recorded_exception

    def undo() -> None:
        ResultFuture.set_result = set_result
        ResultFuture.set_exception = set_exception

    return undo


# --------------------------------------------------------------------------- #
# Load generators
# --------------------------------------------------------------------------- #
def _timer_slack(nanoseconds: Optional[int]) -> Optional[int]:
    """Set this thread's timer slack (Linux); returns the previous value."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        previous = libc.prctl(_PR_GET_TIMERSLACK, 0, 0, 0, 0)
        if nanoseconds is not None:
            libc.prctl(_PR_SET_TIMERSLACK, nanoseconds, 0, 0, 0)
        return previous if previous > 0 else None
    except (OSError, AttributeError):
        return None


def open_loop(submit: Callable[[int], None], due: np.ndarray, sent: np.ndarray,
              t0: float, stall: Optional[Tuple[int, float]] = None) -> None:
    """Send request ``i`` at ``t0 + due[i]`` whatever came back; stamp ``sent``.

    The generator thread sleeps with 1 us timer slack (the default 50 us
    would make every send late by that much); the service's threads,
    started earlier, keep the default.  ``stall=(i, seconds)`` sleeps
    before request ``i`` (tests only).
    """
    previous_slack = _timer_slack(1000)
    perf = time.perf_counter
    sleep = time.sleep
    try:
        for index in range(len(due)):
            if stall is not None and index == stall[0]:
                sleep(stall[1])
            wait = t0 + due[index] - perf()
            if wait > 0:
                sleep(wait)
            sent[index] = perf()
            submit(index)
    finally:
        if previous_slack is not None:
            _timer_slack(previous_slack)


def closed_loop(submit: Callable[[int], bool], model_of_slot: Callable[[int], int],
                num_models: int, outstanding: int, completions: "queue.SimpleQueue",
                deadline: float, capacity: int) -> int:
    """Keep ``outstanding`` requests in flight per model until ``deadline``.

    ``submit(model)`` sends one request and returns whether it was
    admitted; each completion (a slot put on ``completions``) is refilled
    with a request for the same model.  Returns the number of requests sent.
    """
    sent = 0
    inflight = 0
    for _ in range(outstanding):
        for model in range(num_models):
            sent += 1
            inflight += submit(model)
    perf = time.perf_counter
    while inflight:
        slot = completions.get(timeout=DRAIN_TIMEOUT_S)
        inflight -= 1
        if slot < 0 or sent >= capacity or perf() >= deadline:
            continue
        sent += 1
        inflight += submit(model_of_slot(slot))
    return sent


# --------------------------------------------------------------------------- #
# Tracing
# --------------------------------------------------------------------------- #
class ServeTrace:
    """Wraps the serving entry points; plan runs are named by model."""

    def __init__(self, tracer: spans.Tracer) -> None:
        self.tracer = tracer
        self.plan_names: Dict[int, str] = {}
        names = self.plan_names
        self.undos = [
            spans.wrap(tracer, InferenceService, "submit", "serve.submit"),
            spans.wrap(tracer, PrecisionRouter, "route", "serve.route"),
            spans.wrap(tracer, Scheduler, "submit", "serve.enqueue"),
            spans.wrap(tracer, Scheduler, "get_batch", "serve.get_batch"),
            spans.wrap(tracer, ExecutionPlan, "run", lambda plan, args: names.get(id(plan))),
            spans.wrap(tracer, ModelRepository, "plan", "runtime.compile"),
            spans.wrap(tracer, PassManager, "run", "runtime.passes"),
        ]

    def name_plans(self, deployment: Deployment) -> None:
        repository = deployment.service.repository
        for name in deployment.names:
            for bits in repository.variants(name):
                self.plan_names[id(repository.plan(name, bits))] = f"runtime.plan_run.{name}"


# --------------------------------------------------------------------------- #
# The run
# --------------------------------------------------------------------------- #
def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _histogram_delta(before, after, name: str) -> Tuple[float, int]:
    """(sum, count) of a histogram family over all its series, after - before."""
    def totals(snapshot):
        metric = snapshot.get(name)
        if metric is None:
            return 0.0, 0
        return (sum(entry.value.sum for entry in metric.series),
                sum(entry.value.count for entry in metric.series))

    sum_after, count_after = totals(after)
    sum_before, count_before = totals(before)
    return sum_after - sum_before, count_after - count_before


def _wait_recorded(service: InferenceService, requests: int, timeout: float) -> None:
    """Wait until batch records account for ``requests`` requests."""
    deadline = time.perf_counter() + timeout
    while sum(record.size for record in service.batch_records) < requests:
        if time.perf_counter() > deadline:
            return
        time.sleep(0.005)


def _warm_up(deployment: Deployment, slos: Sequence[RequestSLO]) -> int:
    """Fill every variant queue a few times over; returns requests sent."""
    futures = []
    for index, name in enumerate(deployment.names):
        for slo in slos:
            for k in range(WARMUP_PER_QUEUE):
                futures.append(deployment.service.submit(
                    name, deployment.inputs[index][k % INPUT_POOL], slo))
    for future in futures:
        future.result(timeout=DRAIN_TIMEOUT_S)
    _wait_recorded(deployment.service, len(futures), DRAIN_TIMEOUT_S)
    return len(futures)


def _reference(deployment: Deployment, model: str, bits: int, x: np.ndarray) -> np.ndarray:
    """The export's Module forward (the compiled plans' correctness oracle)."""
    repository = deployment.service.repository
    module = repository.clone_model(model)
    if bits != FLOAT_BITS:
        load_into_model(repository.export(model, bits), module)
    module.eval()
    with no_grad():
        return module(Tensor(x)).data


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    is_open = workload == OPEN
    tracer = spans.Tracer() if trace else None

    cold_started = time.perf_counter()
    cold = deploy(workload, seed)
    cold_s = time.perf_counter() - cold_started
    cold.service.stop()
    del cold
    gc.collect()

    setup_s, data_s, service_s = [], [], []
    for _ in range(SETUP_REPEATS - 1):
        sample = deploy(workload, seed)
        setup_s.append(sample.setup_s)
        data_s.append(sample.data_s)
        service_s.append(sample.service_s)
        sample.service.stop()
        del sample
        gc.collect()

    traced = ServeTrace(tracer) if tracer is not None else None
    undos = traced.undos if traced is not None else []
    with spans.installed(undos):
        if tracer is not None:
            tracer.phase = "final_setup"
        deployment = deploy(workload, seed)
        setup_s.append(deployment.setup_s)
        data_s.append(deployment.data_s)
        service_s.append(deployment.service_s)
        if traced is not None:
            tracer.phase = "warmup"
            traced.name_plans(deployment)
        warm_started = time.perf_counter()
        slos = OPEN_SLOS if is_open else (RequestSLO(),)
        warm_requests = _warm_up(deployment, slos)
        warmup_s = time.perf_counter() - warm_started
        if tracer is not None:
            tracer.phase = "timed"
        timed = (_timed_open if is_open else _timed_closed)(
            deployment, seed, seconds, warm_requests, tracer)
        deployment.service.stop()

    out = _summarise(workload, deployment, timed)
    out["e2e"]["setup_s"] = {"value": statistics.median(setup_s), "unit": "s", "n": len(setup_s)}
    out["setup"] = {
        "setup.data_s": statistics.median(data_s),
        "setup.trainer_s": statistics.median(service_s),
        "setup.warmup_s": warmup_s,
        "setup.cold_s": cold_s,
    }
    if tracer is not None:
        out["table"] = tracer.table()
        out["per_layer"] = _per_layer(out["table"], deployment, timed, out["records"])
        out["per_layer"]["serve.failed_share"] = out["failed"] / out["attempted"]
    return out


@dataclass
class Timed:
    """Everything stamped during one timed phase."""

    recorder: Recorder
    attempted: int
    status: np.ndarray
    model: np.ndarray
    sample: np.ndarray
    expected_bits: np.ndarray
    due: np.ndarray
    sent: np.ndarray
    t0: float
    cpu_s: float
    end: float
    timed_out: int
    batches: List
    snapshots: Tuple
    #: The process's peak RSS when the timed phase ended, before the
    #: benchmark's own output checks allocate anything.
    peak_rss_mib: float


def _timed_open(deployment: Deployment, seed: int, seconds: float, base: int,
                tracer: Optional[spans.Tracer]) -> Timed:
    rng = np.random.default_rng([seed, 1])
    count = int(OPEN_RATE * seconds)
    due = np.cumsum(rng.exponential(1.0 / OPEN_RATE, count))
    model = rng.integers(0, len(deployment.names), count).astype(np.int8)
    slo_class = rng.choice(len(OPEN_SLOS), size=count, p=OPEN_SLO_SHARES).astype(np.int8)
    sample = rng.integers(0, INPUT_POOL, count).astype(np.int16)
    expected = np.asarray(OPEN_EXPECTED_BITS, dtype=np.int16)[slo_class]
    sent = np.zeros(count)
    status = np.zeros(count, dtype=np.int8)
    recorder = Recorder(count, base, detail=tracer is not None)

    service = deployment.service
    names, inputs = deployment.names, deployment.inputs
    models, classes, samples = model.tolist(), slo_class.tolist(), sample.tolist()
    set_op = tracer.set_op if tracer is not None else None

    def submit(index: int) -> None:
        m = models[index]
        if set_op is not None:
            set_op(index)
        try:
            service.submit(names[m], inputs[m][samples[index]], OPEN_SLOS[classes[index]])
        except QueueFullError:
            status[index] = _REJECTED
        except NoVariantError:
            # Cannot happen with these non-strict SLOs; it would also shift
            # later request ids, which the bitwidth and output checks catch.
            status[index] = _NO_VARIANT

    before = service.metrics_snapshot()
    batches_before = len(service.batch_records)
    with spans.installed([install_completion_hooks(recorder)]):
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        open_loop(submit, due, sent, t0)
        accepted = count - int(np.count_nonzero(status != _OK))
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while recorder.completed() < accepted and time.perf_counter() < deadline:
            time.sleep(0.002)
        cpu_s = time.process_time() - cpu0
    end = float(np.nanmax(recorder.done)) if np.any(~np.isnan(recorder.done)) else t0
    _wait_recorded(service, base + accepted, DRAIN_TIMEOUT_S)
    return Timed(recorder, count, status, model, sample, expected, due + t0, sent, t0, cpu_s,
                 end, accepted - recorder.completed(), service.batch_records[batches_before:],
                 (before, service.metrics_snapshot()), _peak_rss_mib())


def _timed_closed(deployment: Deployment, seed: int, seconds: float, base: int,
                  tracer: Optional[spans.Tracer]) -> Timed:
    rng = np.random.default_rng([seed, 2])
    capacity = int(CLOSED_SLOTS_PER_S * seconds) + 2 * CLOSED_OUTSTANDING * len(deployment.names)
    sample = rng.integers(0, INPUT_POOL, capacity).astype(np.int16)
    model = np.zeros(capacity, dtype=np.int8)
    due = np.zeros(capacity)
    sent = np.zeros(capacity)
    status = np.zeros(capacity, dtype=np.int8)
    completions: "queue.SimpleQueue[int]" = queue.SimpleQueue()
    recorder = Recorder(capacity, base, notify=completions.put, detail=tracer is not None)
    repository = deployment.service.repository
    variant = [repository.variants(name)[0] for name in deployment.names]
    service = deployment.service
    names, inputs = deployment.names, deployment.inputs
    samples = sample.tolist()
    slots = itertools.count()
    set_op = tracer.set_op if tracer is not None else None
    perf = time.perf_counter
    refill_due = [0.0]

    def submit(m: int) -> bool:
        slot = next(slots)
        model[slot] = m
        due[slot] = refill_due[0]
        if set_op is not None:
            set_op(slot)
        sent[slot] = perf()
        try:
            service.submit(names[m], inputs[m][samples[slot]])
        except QueueFullError:
            status[slot] = _REJECTED
            return False
        except NoVariantError:
            status[slot] = _NO_VARIANT
            return False
        return True

    def model_of_slot(slot: int) -> int:
        refill_due[0] = recorder.done[slot]
        return int(model[slot])

    before = service.metrics_snapshot()
    batches_before = len(service.batch_records)
    timed_out = 0
    with spans.installed([install_completion_hooks(recorder)]):
        cpu0 = time.process_time()
        t0 = refill_due[0] = perf()
        try:
            count = closed_loop(submit, model_of_slot, len(names), CLOSED_OUTSTANDING,
                                completions, t0 + seconds, capacity)
        except queue.Empty:
            count = next(slots)
            timed_out = count - recorder.completed()
        cpu_s = time.process_time() - cpu0
    end = float(np.nanmax(recorder.done))
    _wait_recorded(service, base + count, DRAIN_TIMEOUT_S)
    expected = np.asarray(variant, dtype=np.int16)[model[:count]]
    return Timed(recorder, count, status[:count], model[:count], sample[:count], expected,
                 due[:count], sent[:count], t0, cpu_s, end, timed_out,
                 service.batch_records[batches_before:], (before, service.metrics_snapshot()),
                 _peak_rss_mib())


def _summarise(workload: str, deployment: Deployment, timed: Timed) -> Dict:
    recorder = timed.recorder
    count = timed.attempted
    done = recorder.done[:count]
    ok = ~np.isnan(done)
    served = int(np.count_nonzero(ok))
    # Open loop: from the due time, so a generator stall counts against every
    # request it delays.  Closed loop: from the send.
    began = timed.due if workload == OPEN else timed.sent
    latency = measure.latency_summary((done - began)[ok], TAIL_PERCENT[workload])
    wrong_bits = int(np.count_nonzero(recorder.bits[:count][ok] != timed.expected_bits[ok]))

    # Every VERIFY_EVERY-th served response against the export's Module forward.
    verify_slots = np.arange(0, count, VERIFY_EVERY)
    verify_slots = verify_slots[ok[verify_slots]]
    wrong_outputs = 0
    for m, name in enumerate(deployment.names):
        for bits in np.unique(recorder.bits[verify_slots]):
            group = verify_slots[(timed.model[verify_slots] == m)
                                 & (recorder.bits[verify_slots] == bits)]
            if len(group) == 0:
                continue
            x = deployment.inputs[m][timed.sample[group]]
            reference = _reference(deployment, name, int(bits), x)
            served_logits = recorder.logits[group // VERIFY_EVERY]
            close = np.all(np.isclose(served_logits, reference, rtol=RTOL, atol=ATOL), axis=1)
            wrong_outputs += int(np.count_nonzero(~close))

    rejected = int(np.count_nonzero(timed.status == _REJECTED))
    no_variant = int(np.count_nonzero(timed.status == _NO_VARIANT))
    errors = len(recorder.errors)
    failed = rejected + no_variant + errors + timed.timed_out + wrong_outputs + wrong_bits
    policy = deployment.policy
    sizes = np.asarray([record.size for record in timed.batches])
    full_share = float(np.mean(sizes == policy.max_batch_size)) if len(sizes) else 0.0
    late_ms = (timed.sent - timed.due)[timed.status == _OK] * 1e3
    late_p50 = float(np.median(late_ms)) if len(late_ms) else 0.0
    checks = [
        {"name": "no request rejected, misrouted, failed or timed out",
         "ok": rejected + no_variant + errors + timed.timed_out == 0,
         "detail": f"rejected {rejected}, no variant {no_variant}, errors {errors}, "
                   f"timed out {timed.timed_out}"},
        {"name": "each SLO class served at its expected bitwidth", "ok": wrong_bits == 0,
         "detail": f"{wrong_bits} of {served} on another variant"},
        {"name": f"every {VERIFY_EVERY}th response matches the export's Module forward",
         "ok": wrong_outputs == 0 and len(verify_slots) > 0,
         "detail": f"{len(verify_slots) - wrong_outputs} of {len(verify_slots)} within "
                   f"rtol {RTOL}, atol {ATOL}"},
    ]
    if workload == CLOSED:
        checks.append({"name": "at least 95% of batches full", "ok": full_share >= 0.95,
                       "detail": f"{full_share:.3f} of {len(sizes)} batches"})
    else:
        checks.append({"name": "median generator lateness under 0.5 ms",
                       "ok": late_p50 < 0.5, "detail": f"{late_p50:.3f} ms"})
    return {
        "e2e": {
            "throughput_per_s": {"value": served / (timed.end - timed.t0), "unit": "1/s",
                                 "n": served},
            "latency_ms_p50": {"value": latency.p50_ms, "unit": "ms", "n": latency.samples},
            "latency_ms_tail": {"value": latency.tail_ms, "unit": "ms", "n": latency.samples,
                                "percent": latency.tail_percent},
            "cpu_ms_per_op": {"value": timed.cpu_s * 1e3 / served, "unit": "ms", "n": served},
            "peak_rss_mib": {"value": timed.peak_rss_mib, "unit": "MiB", "n": 1},
        },
        "attempted": count,
        "failed": failed,
        "checks": checks,
        "records": {
            "requests": count,
            "served": served,
            "batches": len(sizes),
            "batch_full_share": full_share,
            "batch_size_mean": float(sizes.mean()) if len(sizes) else 0.0,
            "late_ms_p50": late_p50,
            "late_ms_max": float(late_ms.max()) if len(late_ms) else 0.0,
        },
    }


def _per_layer(table: spans.SpanTable, deployment: Deployment, timed: Timed,
               timed_records: Dict) -> Dict[str, float]:
    before, after = timed.snapshots
    out: Dict[str, float] = {}

    def mean(name: str, scale: float, *, self_time: bool = False) -> float:
        index = table.select(name, phase="timed")
        if len(index) == 0:
            return 0.0
        values = table.self_time[index] if self_time else table.duration[index]
        return float(values.mean() * scale)

    out["serve.submit_us"] = mean("serve.submit", 1e6, self_time=True)
    out["serve.route_us"] = mean("serve.route", 1e6)
    out["serve.enqueue_us"] = mean("serve.enqueue", 1e6)
    for key, metric in (("serve.queue_wait_ms", "serve_queue_wait_seconds"),
                        ("serve.batch_assembly_ms", "serve_batch_assembly_seconds"),
                        ("serve.post_ms", "serve_post_seconds")):
        seconds, count = _histogram_delta(before, after, metric)
        out[key] = seconds / count * 1e3 if count else 0.0

    recorder = timed.recorder
    count = timed.attempted
    done = recorder.done[:count]
    ok = ~np.isnan(done)
    residual = (done - timed.sent)[ok] - recorder.service_s[:count][ok]
    out["serve.residual_ms"] = float(residual.mean() * 1e3) if len(residual) else 0.0

    out["serve.batch_size_mean"] = timed_records["batch_size_mean"]
    out["serve.batch_fill"] = timed_records["batch_full_share"]
    wall = timed.end - timed.t0
    busy = 0.0
    for name in deployment.names:
        runs = table.select(f"runtime.plan_run.{name}", phase="timed")
        run_s = float(table.duration[runs].sum())
        busy += run_s
        served = sum(record.size for record in timed.batches if record.model == name)
        out[f"runtime.plan_run_ms.{name}"] = run_s / len(runs) * 1e3 if len(runs) else 0.0
        out[f"runtime.plan_run_us_per_sample.{name}"] = run_s / served * 1e6 if served else 0.0
    out["serve.worker_wait_ms"] = mean("serve.get_batch", 1e3)
    out["serve.worker_busy_share"] = busy / (WORKERS * wall) if wall > 0 else 0.0

    compiles = table.select("runtime.compile", phase="final_setup")
    top_level = [i for i in compiles
                 if table.parent[i] < 0 or table.name[table.parent[i]] != "runtime.compile"]
    out["runtime.compile_s"] = float(table.duration[top_level].sum())
    passes = table.select("runtime.passes", phase="final_setup")
    out["runtime.passes_ms"] = float(table.duration[passes].sum() * 1e3)
    repository = deployment.service.repository
    steps = arena = 0
    for name in deployment.names:
        for bits in repository.variants(name):
            plan = repository.plan(name, bits)
            steps += len(plan.steps)
            arena += plan.memory_stats.arena_bytes(deployment.policy.max_batch_size)
    out["runtime.plan_steps"] = float(steps)
    out["runtime.arena_mib"] = arena * WORKERS / 2 ** 20

    out["load.late_ms_p50"] = timed_records["late_ms_p50"]
    out["load.late_ms_max"] = timed_records["late_ms_max"]
    return out
