"""The benchmark's own tests: smoke runs, the tail rule and the load generators."""

from __future__ import annotations

import itertools
import json
import queue
import random
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import measure  # noqa: E402
from perfbench.layers import END_TO_END, PER_LAYER, PER_LAYER_NAMES  # noqa: E402

#: Checks a loaded host can fail without anything being wrong with the
#: program's outputs; smoke runs do not assert them.
_TIMING_CHECKS = ("median generator lateness", "at least 95% of batches full")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize(
    "workload, seconds, extra",
    [
        ("train_apt_cifar", "1", ("--smoke",)),
        ("serve_open_mixed", "2", ()),
        ("serve_closed_resnet20_mbv2", "3", ()),
    ],
)
def test_smoke_run_prints_every_metric_and_passes_output_checks(workload, seconds, extra):
    done = _run("--workload", workload, "--seed", "3", "--seconds", seconds,
                "--trace", "1", *extra)
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(PER_LAYER_NAMES)
    failing = [line for line in lines if line.startswith("check FAIL")]
    assert all(any(name in line for name in _TIMING_CHECKS) for line in failing), failing
    table = [line.split()[0] for line in lines if line.split()[:1]]
    for metric in END_TO_END:
        assert metric.name in table


def test_untraced_run_reports_the_end_to_end_metrics():
    done = _run("--workload", "train_apt_cifar", "--seed", "4", "--seconds", "1",
                "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert set(metrics) == {metric.name for metric in END_TO_END}
    for metric in END_TO_END:
        assert metrics[metric.name]["unit"] == metric.unit
        assert metrics[metric.name]["value"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run("--workload", "serve_open_mixed", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": layer.name, "unit": layer.unit, "better": layer.better} for layer in PER_LAYER
    ]


def test_tail_rule_refuses_a_percentile_with_fewer_than_ten_samples_beyond():
    values = np.arange(1, 100, dtype=float)  # 99 samples: 9 beyond p90
    with pytest.raises(measure.TailTooThin):
        measure.percentile(values, 90, min_beyond=measure.MIN_BEYOND)
    assert measure.percentile(np.arange(1, 101, dtype=float), 90,
                              min_beyond=measure.MIN_BEYOND) == 90.0
    with pytest.raises(measure.TailTooThin):
        measure.latency_summary(np.ones(999), 99)
    assert measure.latency_summary(np.ones(1000), 99).samples == 1000


def test_injected_generator_stall_shows_in_latency_and_lateness():
    from perfbench.serve import open_loop

    count = 200
    due = np.arange(count) * 0.001
    sent = np.zeros(count)
    done = np.zeros(count)

    def submit(index):
        done[index] = time.perf_counter()

    t0 = time.perf_counter() + 0.01
    open_loop(submit, due, sent, t0, stall=(50, 0.05))
    late = sent - (t0 + due)
    latency = done - (t0 + due)
    # Request 50 was due 1 ms after request 49, so the 50 ms stall makes it
    # at least 49 ms late, and the backlog behind it late too.
    assert late[50] >= 0.049 and np.count_nonzero(late > 0.02) >= 25
    assert latency[50] >= 0.049
    assert measure.latency_summary(latency, 90).tail_ms > 20.0


def test_closed_loop_refill_keeps_per_model_outstanding_constant():
    from perfbench.serve import closed_loop

    outstanding_per_model = 8
    completions: "queue.SimpleQueue[int]" = queue.SimpleQueue()
    pending: "queue.SimpleQueue" = queue.SimpleQueue()
    lock = threading.Lock()
    outstanding = [0, 0]
    peak = [0, 0]
    model_of = {}
    refills = []
    slots = itertools.count()

    def submit(model: int) -> bool:
        slot = next(slots)
        model_of[slot] = model
        with lock:
            outstanding[model] += 1
            peak[model] = max(peak[model], outstanding[model])
        pending.put(slot)
        return True

    def model_of_slot(slot: int) -> int:
        refills.append(model_of[slot])
        return model_of[slot]

    def server() -> None:
        rng = random.Random(0)
        while True:
            slot = pending.get()
            if slot is None:
                return
            time.sleep(rng.random() * 0.0005)
            with lock:
                outstanding[model_of[slot]] -= 1
            completions.put(slot)

    thread = threading.Thread(target=server, daemon=True)
    thread.start()
    try:
        sent = closed_loop(submit, model_of_slot, 2, outstanding_per_model, completions,
                           time.perf_counter() + 0.3, capacity=10 ** 6)
    finally:
        pending.put(None)
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert peak == [outstanding_per_model, outstanding_per_model]
    assert outstanding == [0, 0]
    assert sent == 2 * outstanding_per_model + len(refills) and len(refills) > 50
    submitted = [model_of[slot] for slot in range(2 * outstanding_per_model, sent)]
    assert submitted == refills
