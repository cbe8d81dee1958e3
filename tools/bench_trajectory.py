"""Fold every ``BENCH_*.json`` record into one machine-readable trajectory.

Each benchmark suite that records one leaves a headline record at the repo
root (``BENCH_obs.json``).
This tool flattens all of them into a single ``BENCH_trajectory.json``
keyed by benchmark name, with every numeric leaf addressed by a dotted
path -- the shape a dashboard or a regression bot can diff across
commits without knowing any suite's schema:

    python tools/bench_trajectory.py
    python tools/bench_trajectory.py --out trajectory.json --indent 0
    python tools/bench_trajectory.py --print obs.overhead

The record also captures the commit the numbers were measured at (when
the working tree is a git checkout), so trajectory files collected from
CI artifacts line up with history.  No dependencies beyond the stdlib.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable

#: Non-numeric leaves worth keeping: identity verdicts and such.
_KEEP_BOOLS = True


def flatten(value, prefix: str = "") -> Dict[str, float]:
    """Dotted-path -> numeric leaf map of one benchmark record.

    Lists are indexed (``rows.0.throughput_rps``); strings are dropped
    (labels live in the path); booleans become 0/1 so identity checks
    (``identical``) trend alongside the throughput numbers.
    """
    flat: Dict[str, float] = {}
    if isinstance(value, dict):
        for key in sorted(value):
            flat.update(flatten(value[key], f"{prefix}{key}."))
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            flat.update(flatten(item, f"{prefix}{index}."))
    elif isinstance(value, bool):
        if _KEEP_BOOLS:
            flat[prefix[:-1]] = float(value)
    elif isinstance(value, (int, float)):
        flat[prefix[:-1]] = float(value)
    return flat


def _git_commit(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def collect(root: Path) -> Dict[str, Dict[str, float]]:
    """``{suite: {dotted.metric: value}}`` over every BENCH_*.json in root."""
    suites: Dict[str, Dict[str, float]] = {}
    for path in sorted(root.glob("BENCH_*.json")):
        name = path.stem[len("BENCH_"):]
        try:
            with open(path, encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"warning: skipping {path.name}: {error}", file=sys.stderr)
            continue
        suites[name] = flatten(record)
    return suites


def build_trajectory(root: Path) -> dict:
    return {
        "commit": _git_commit(root),
        "suites": collect(root),
    }


def main(argv: Iterable[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="directory holding BENCH_*.json")
    parser.add_argument(
        "--out", default="BENCH_trajectory.json",
        help="output path ('-' prints to stdout)",
    )
    parser.add_argument(
        "--print", dest="query", default=None, metavar="PREFIX",
        help="also print every metric whose 'suite.dotted.path' starts with PREFIX",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)

    root = Path(args.root)
    trajectory = build_trajectory(root)
    if not trajectory["suites"]:
        print(f"error: no BENCH_*.json found under {root}", file=sys.stderr)
        return 1
    text = json.dumps(trajectory, indent=2, sort_keys=True)
    if args.out == "-":
        print(text)
    else:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        metrics = sum(len(m) for m in trajectory["suites"].values())
        print(
            f"{args.out}: {len(trajectory['suites'])} suites, "
            f"{metrics} metrics"
        )
    if args.query:
        for suite, metrics in sorted(trajectory["suites"].items()):
            for path, value in sorted(metrics.items()):
                full = f"{suite}.{path}"
                if full.startswith(args.query):
                    print(f"{full} = {value:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
