"""Training steps at one and at the loaded number of OpenBLAS threads.

The sweep behind :data:`repro.train.trainer.ONE_BLAS_THREAD_BELOW_MACS`.
For each configuration it trains one model on a fixed random batch with
SGD under a precision strategy (APT with the CLI's defaults, or fp32),
making the calls ``Trainer`` makes per step, and times alternating pairs
of sides: OpenBLAS at the count it loaded with, and OpenBLAS capped at one
thread through the budget's ceiling
(``repro.runtime.blas.reserve(1, ceiling=1)``, what a capped
``Trainer.fit`` holds).  The pair order alternates so drift on a shared
host hits both sides alike.  Each side reports wall time and process CPU
time (all threads) per step:

    PYTHONPATH=src python tools/train_thread_sweep.py
    PYTHONPATH=src python tools/train_thread_sweep.py --strategy fp32 --only resnet20

Run it on a quiet host with no ``OPENBLAS_NUM_THREADS`` /
``OMP_NUM_THREADS`` set: either one turns the budget off, and then both
sides would run at the same count.
"""

from __future__ import annotations

import argparse
import itertools
import statistics
import sys
import time
from typing import List, Tuple

import numpy as np

from repro.experiments.orchestrator import build_strategy
from repro.hardware.profile import profile_model
from repro.models import build_model
from repro.nn.loss import CrossEntropyLoss
from repro.optim.sgd import SGD
from repro.runtime import blas
from repro.tensor import Tensor

#: (model, width multiplier, input shape, batch size), by forward MACs per step.
CONFIGS: Tuple[Tuple[str, float, Tuple[int, ...], int], ...] = (
    ("tiny_convnet", 1.0, (1, 12, 12), 64),    # the bench scale
    ("small_convnet", 0.5, (3, 32, 32), 64),   # the bench_cifar scale
    ("resnet20", 0.25, (3, 32, 32), 32),
    ("small_convnet", 0.75, (3, 32, 32), 64),
    ("small_convnet", 1.0, (3, 32, 32), 64),
    ("resnet20", 0.5, (3, 32, 32), 32),
    ("resnet20", 1.0, (3, 32, 32), 32),
    ("mobilenetv2", 0.35, (3, 32, 32), 32),
)

#: Seconds each side of a pair trains for (at least 2 steps).
SIDE_SECONDS = 2.5


def _side(step, steps: int, capped: bool) -> Tuple[float, float]:
    """(wall ms, CPU ms) per step over ``steps`` steps."""
    claim = blas.reserve(1, ceiling=1) if capped else None
    try:
        wall, cpu = time.perf_counter(), time.process_time()
        for _ in range(steps):
            step()
        return ((time.perf_counter() - wall) * 1e3 / steps,
                (time.process_time() - cpu) * 1e3 / steps)
    finally:
        if claim is not None:
            claim.release()


def sweep_one(name: str, width: float, shape: Tuple[int, ...], batch: int, pairs: int,
              strategy_kind: str) -> dict:
    rng = np.random.default_rng(0)
    model = build_model(name, num_classes=10, width_multiplier=width,
                        in_channels=shape[0], rng=rng)
    macs = profile_model(model, shape).total_macs * batch
    inputs = rng.normal(size=(batch,) + shape)
    labels = rng.integers(0, 10, size=batch)
    optimizer = SGD(model.parameters(), lr=0.01, momentum=0.9)
    strategy = build_strategy(strategy_kind, {"metric_interval": 5})
    strategy.prepare(model)
    optimizer.update_hook = strategy.make_update_hook()
    loss_fn = CrossEntropyLoss()
    iterations = itertools.count(1)
    model.train()

    def step() -> None:
        strategy.before_forward()
        loss = loss_fn(model(Tensor(inputs)), labels)
        optimizer.zero_grad()
        loss.backward()
        strategy.after_backward(next(iterations))
        optimizer.step()

    warm = _side(step, 2, capped=False)[0]
    steps = max(2, round(SIDE_SECONDS * 1e3 / warm))
    sides = {True: [], False: []}
    for index in range(pairs):
        for capped in ((False, True) if index % 2 == 0 else (True, False)):
            sides[capped].append(_side(step, steps, capped))
    one, loaded = sides[True], sides[False]
    return {
        "config": f"{name} x{width} {'x'.join(map(str, shape))} b{batch}",
        "macs": macs,
        "steps": steps,
        "wall_ratio": [a[0] / b[0] for a, b in zip(one, loaded)],
        "wall_one": statistics.median(a[0] for a in one),
        "wall_loaded": statistics.median(b[0] for b in loaded),
        "cpu_one": statistics.median(a[1] for a in one),
        "cpu_loaded": statistics.median(b[1] for b in loaded),
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=3, help="alternating pairs per config")
    parser.add_argument("--strategy", choices=["apt", "fp32"], default="apt",
                        help="precision strategy the steps train under (default apt)")
    parser.add_argument("--only", default=None, help="run only configs of this model")
    args = parser.parse_args(argv)
    loaded = blas.current_threads()
    probe = blas.reserve(1, ceiling=1)
    capped_count = blas.current_threads()
    probe.release()
    if loaded is None or capped_count == loaded:
        print(f"the budget cannot cap OpenBLAS here (loaded {loaded}, capped {capped_count}); "
              "unset OPENBLAS_NUM_THREADS / OMP_NUM_THREADS", file=sys.stderr)
        return 1
    print(f"{args.strategy} steps; OpenBLAS threads: loaded {loaded}, capped 1; "
          f"{args.pairs} alternating pairs")
    print("| config | fwd MACs/step | steps/side | wall ms 1 thr | wall ms loaded "
          "| wall 1/loaded (per pair) | CPU ms 1 thr | CPU ms loaded |")
    print("|---|---|---|---|---|---|---|---|")
    for name, width, shape, batch in CONFIGS:
        if args.only and name != args.only:
            continue
        row = sweep_one(name, width, shape, batch, args.pairs, args.strategy)
        ratios = " / ".join(f"{ratio:.2f}" for ratio in row["wall_ratio"])
        print(f"| {row['config']} | {row['macs']:.2g} | {row['steps']} "
              f"| {row['wall_one']:.1f} | {row['wall_loaded']:.1f} "
              f"| {row['wall_one'] / row['wall_loaded']:.2f} ({ratios}) "
              f"| {row['cpu_one']:.1f} | {row['cpu_loaded']:.1f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
