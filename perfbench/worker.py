"""One workload run in a fresh process.

    python -m perfbench.worker --workload W --seed N --seconds S --trace 0|1 --out result.json

``perfbench/run.py`` starts this with a hermetic environment and reads the
JSON it writes.  Peak RSS is this process's own high-water mark when the
timed phase ends, so it covers set-up, warm-up and the timed phase of the
one workload it ran, but not the output checks that follow.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from perfbench.layers import WORKLOADS


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    if workload == "train_apt_cifar":
        from perfbench import train

        return train.run(seed, seconds, trace, smoke=smoke)
    from perfbench import serve

    return serve.run(workload, seed, seconds, trace)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.worker")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="train on the small 'bench' scale (benchmark self-tests)")
    parser.add_argument("--out", required=True, help="result JSON path")
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    table = result.pop("table", None)
    if table is not None and args.spans:
        result["spans_file"] = str(table.write(Path(args.spans)))
        result["span_rows"] = _span_rows(table)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _span_rows(table) -> list:
    """Per span name in the timed phase: calls, mean total and mean self ms."""
    rows = []
    for name in table.names():
        index = table.select(name, phase="timed")
        if len(index) == 0:
            continue
        rows.append({
            "span": name,
            "calls": int(len(index)),
            "total_ms": float(table.duration[index].mean() * 1e3),
            "self_ms": float(table.self_time[index].mean() * 1e3),
        })
    return rows


if __name__ == "__main__":
    sys.exit(main())
