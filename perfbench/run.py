"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts the workload in a fresh
process with a hermetic environment: ``REPRO_CODEGEN`` unset (codegen
off), ``REPRO_CODEGEN_CACHE`` and the working directory in a new empty
directory under ``.bench_work/`` (so no tuning cache or build artefact of
an earlier run is found), and BLAS/OpenMP thread variables left as the
caller has them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload twice, untraced and then traced, and prints the per-layer
metrics with the tracing overhead on every end-to-end metric.  The last
line of standard output is the JSON result; the lines before it are the
host record and human-readable tables.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import hostinfo  # noqa: E402
from perfbench.layers import END_TO_END, PER_LAYER, PER_LAYER_NAMES, WORKLOADS  # noqa: E402

#: A run must end within this many seconds (both children included).
RUN_BUDGET_S = 170.0


def _fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def _child(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
           deadline: float) -> Dict:
    """Run one workload in a fresh process; returns its result dict."""
    work = ROOT / ".bench_work" / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ)
    env.pop("REPRO_CODEGEN", None)
    env["REPRO_CODEGEN_CACHE"] = str(work / "codegen-cache")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    out = work / "result.json"
    command = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--out", str(out),
    ]
    if trace:
        command += ["--spans", str(ROOT / ".bench_work" / "spans" / f"{workload}-s{seed}.json")]
    if smoke:
        command.append("--smoke")
    try:
        subprocess.run(command, cwd=work, env=env, check=True,
                       timeout=max(1.0, deadline - time.monotonic()),
                       stdout=sys.stderr)
        return json.loads(out.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _overhead(name: str, traced: float, untraced: float) -> float:
    """Relative worsening of a metric under tracing (positive = tracing costs)."""
    better = next(metric.better for metric in END_TO_END if metric.name == name)
    if better == "higher":
        return untraced / traced - 1.0
    return traced / untraced - 1.0


def _print_e2e(result: Dict, traced: Optional[Dict] = None) -> None:
    header = f"{'end-to-end':<18s} {'value':>12s} {'unit':<5s} {'n':>6s}"
    if traced is not None:
        header += f" {'traced':>12s} {'overhead':>9s}"
    print(header)
    for metric in END_TO_END:
        entry = result["e2e"][metric.name]
        label = metric.name
        if "percent" in entry:
            label += f" p{entry['percent']}"
        line = f"{label:<18s} {entry['value']:12.4f} {entry['unit']:<5s} {entry['n']:6d}"
        if traced is not None:
            other = traced["e2e"][metric.name]["value"]
            line += f" {other:12.4f} {_overhead(metric.name, other, entry['value']):+9.1%}"
        print(line)


def _print_checks(result: Dict) -> None:
    for check in result["checks"]:
        print(f"check {'ok  ' if check['ok'] else 'FAIL'} {check['name']}: {check['detail']}")
    print(f"ops attempted {result['attempted']}, failed {result['failed']}")
    print("records " + json.dumps(result["records"]))


def _print_layers(metrics: Dict[str, float], workload: str, span_rows: List[Dict]) -> None:
    print(f"{'per-layer':<40s} {'value':>12s} {'unit':<6s} from | should move (on) "
          f"| predicted unchanged on")
    for layer in PER_LAYER:
        value = metrics[layer.name]
        mark = "*" if workload in layer.on else " "
        print(f"{mark}{layer.name:<39s} {value:12.4f} {layer.unit:<6s} {layer.source} | "
              f"{layer.moves} ({', '.join(layer.on)}) | {layer.unchanged_on}")
    print("(* = measured on this workload; other rows read 0 here)")
    print(f"{'span (timed phase)':<40s} {'calls':>8s} {'total ms':>10s} {'self ms':>10s}")
    for row in span_rows:
        print(f"{row['span']:<40s} {row['calls']:8d} {row['total_ms']:10.4f} "
              f"{row['self_ms']:10.4f}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", 2)
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", 2)
    if args.seconds <= 0:
        return _fail("--seconds must be positive", 2)

    try:
        plain = _child(args.workload, args.seed, args.seconds, False, args.smoke, deadline)
        traced = (
            _child(args.workload, args.seed, args.seconds, True, args.smoke, deadline)
            if args.trace else None
        )
    except subprocess.TimeoutExpired:
        return _fail(f"run exceeded {RUN_BUDGET_S:.0f} s", 3)
    except subprocess.CalledProcessError as error:
        return _fail(f"workload process failed with exit code {error.returncode}", 4)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}")
    _print_e2e(plain, traced)
    _print_checks(plain)
    runs = [plain]
    if traced is None:
        metrics = {
            metric.name: {"value": plain["e2e"][metric.name]["value"], "unit": metric.unit}
            for metric in END_TO_END
        }
    else:
        _print_checks(traced)
        runs.append(traced)
        values = dict.fromkeys(PER_LAYER_NAMES, 0.0)
        values.update(traced.get("per_layer", {}))
        values.update(traced["setup"])
        for metric in END_TO_END:
            values[f"trace.overhead.{metric.name}"] = _overhead(
                metric.name, traced["e2e"][metric.name]["value"],
                plain["e2e"][metric.name]["value"])
        _print_layers(values, args.workload, traced.get("span_rows", []))
        if traced.get("spans_file"):
            print(f"spans written to {traced['spans_file']}")
        metrics = {layer.name: {"value": values[layer.name], "unit": layer.unit}
                   for layer in PER_LAYER}
    print("host " + json.dumps(hostinfo.host_record(ROOT)))
    print(f"run took {time.monotonic() - started:.1f} s")
    print(json.dumps({
        "correct": all(check["ok"] for run in runs for check in run["checks"]),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
