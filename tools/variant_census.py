"""Census of kernel-variant picks: which variant the tuner chooses, where.

A kernel variant earns its place in :mod:`repro.runtime.variants` only if
it wins somewhere this system runs.  This tool compiles every registry
model at the shapes the CLI and the perfbench workloads use, at fp32 and
8, 4 and 2 bits, with the native codegen backend off and (where a C
compiler exists) on, and lets a fresh autotuner race every call site:

    PYTHONPATH=src python tools/variant_census.py
    PYTHONPATH=src python tools/variant_census.py --out census.json

Every call site is raced :data:`RUNS` times per mode.  Each run of each
compile uses a fresh ephemeral
:class:`~repro.runtime.tuning.TuningConfig` (no cache, unbounded budget),
so every race is measured, never read back.  Per kernel signature the
output records the candidates, the heuristic pick, how often each variant
was the tuner's pick, and the median margin of the pick over the
runner-up (read from :attr:`~repro.runtime.tuning.Autotuner.races`, not
timed again).  A negative margin means the tuner kept the heuristic's
pick inside ``Autotuner.DISPLACE_MARGIN``.  The default output is
``docs/variant_census.json``, which the test-suite checks: every
non-reference registered variant must win at least one signature in it,
as the majority pick by a median margin above ``DISPLACE_MARGIN``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.models import available_models, build_model
from repro.quant import export_quantized_model
from repro.runtime import Autotuner, TuningConfig, codegen, compile_plan, compile_quantized_plan
from repro.runtime import passes as runtime_passes
from repro.runtime.variants import available_variants, heuristic_choice, reference_variant

OUT_PATH = Path(__file__).resolve().parent.parent / "docs" / "variant_census.json"

#: Bitwidths every model is exported at (32 = the float plan).
BITS = (32, 8, 4, 2)

#: Races per call site per mode.
RUNS = 3

#: The CLI's default input (``--in-channels 1 --image-size 12``, width
#: 1.0), except where an architecture fixes its own: resnet20, resnet110
#: and mobilenetv2 always take 3 channels, and cifarnet a 32x32 image.
_CLI_DEFAULT_SHAPE = (1, 12, 12)
_CLI_SHAPES = {
    "mlp": (1,),
    "cifarnet": (1, 32, 32),
    "resnet20": (3, 12, 12),
    "resnet110": (3, 12, 12),
    "mobilenetv2": (3, 12, 12),
}

#: The perfbench workloads' models: (name, width multiplier, input shape).
PERFBENCH_SHAPES = (
    ("resnet20", 1.0, (3, 32, 32)),
    ("mobilenetv2", 0.35, (3, 32, 32)),
    ("tiny_convnet", 1.0, (1, 12, 12)),
    ("small_convnet", 0.5, (3, 32, 32)),
)


def census_configs() -> List[Tuple[str, str, float, Tuple[int, ...]]]:
    """(source, model, width, per-sample shape) of every compiled config."""
    configs = [
        ("cli", name, 1.0, _CLI_SHAPES.get(name, _CLI_DEFAULT_SHAPE))
        for name in available_models()
    ]
    for name, width, shape in PERFBENCH_SHAPES:
        configs.append(("perfbench", name, width, shape))
    return configs


class CensusTuner(Autotuner):
    """An autotuner that logs every selection it makes."""

    def __init__(self, config: TuningConfig) -> None:
        super().__init__(config)
        self.log: List[dict] = []

    def select(self, desc, candidates, make_runner):
        name, provenance = super().select(desc, candidates, make_runner)
        signature = desc.signature()
        times = self.races.get(signature, {}) if provenance == "tuned" else {}
        others = [seconds for variant, seconds in times.items() if variant != name]
        margin = min(others) / times[name] - 1.0 if others and times[name] > 0 else None
        self.log.append({
            "signature": signature,
            "op": desc.op,
            "candidates": sorted(candidates),
            "heuristic": heuristic_choice(desc),
            "pick": name,
            "provenance": provenance,
            "margin": margin,
        })
        return name, provenance


def _compile(name: str, width: float, shape, bits: int, tuner: Autotuner) -> None:
    model = build_model(
        name, num_classes=10, width_multiplier=width, in_channels=shape[0],
        rng=np.random.default_rng(0),
    )
    if bits == 32:
        compile_plan(model, shape, tuning=tuner)
        return
    export = export_quantized_model(model, {p: bits for p, _ in model.named_parameters()})
    compile_quantized_plan(model, export, shape, tuning=tuner)


def run_census(native_modes: Tuple[str, ...], progress=None) -> dict:
    """Race every call site :data:`RUNS` times per mode; returns the census record."""
    entries: Dict[Tuple[str, str], dict] = {}
    configs = census_configs()
    for mode in native_modes:
        codegen.configure(enable=(mode == "native"))
        for run in range(RUNS):
            for source, name, width, shape in configs:
                for bits in BITS:
                    tuner = CensusTuner(TuningConfig(cache=None, budget_s=float("inf")))
                    _compile(name, width, shape, bits, tuner)
                    site = f"{source}:{name}x{width:g}@{bits}"
                    for race in tuner.log:
                        entry = entries.setdefault((race["signature"], mode), {
                            "op": race["op"],
                            "candidates": race["candidates"],
                            "heuristic": race["heuristic"],
                            "picks": Counter(),
                            "margins": defaultdict(list),
                            "sites": set(),
                        })
                        entry["picks"][race["pick"]] += 1
                        if race["margin"] is not None:
                            entry["margins"][race["pick"]].append(race["margin"])
                        entry["sites"].add(site)
                    if progress is not None:
                        progress(f"[{mode} run {run + 1}/{RUNS}] {site}: "
                                 f"{len(tuner.log)} races")
    codegen.configure(enable=False)
    return _record(entries, native_modes, configs)


def _record(entries, native_modes, configs) -> dict:
    signatures: Dict[str, dict] = {}
    summary: Dict[str, Dict[str, Dict[str, Dict[str, int]]]] = {}
    for (signature, mode), entry in sorted(entries.items()):
        row = signatures.setdefault(signature, {
            "op": entry["op"], "heuristic": entry["heuristic"], "modes": {},
        })
        row["modes"][mode] = {
            "candidates": entry["candidates"],
            "picks": dict(sorted(entry["picks"].items())),
            "median_margin": {
                variant: round(statistics.median(values), 4)
                for variant, values in sorted(entry["margins"].items())
            },
            "sites": sorted(entry["sites"]),
        }
        races = sum(entry["picks"].values())
        per_op = summary.setdefault(entry["op"], {})
        for variant in entry["candidates"]:
            counts = per_op.setdefault(variant, {}).setdefault(mode, {"races": 0, "wins": 0})
            counts["races"] += races
            counts["wins"] += entry["picks"].get(variant, 0)
    compiler = codegen.compiler_command()
    return {
        "generator": "tools/variant_census.py",
        "runs": RUNS,
        "modes": list(native_modes),
        "bits": list(BITS),
        "configs": [
            {"source": source, "model": name, "width": width, "shape": list(shape)}
            for source, name, width, shape in configs
        ],
        "race_batch": runtime_passes._RACE_BATCH,
        "repeats": TuningConfig().repeats,
        "warmup": TuningConfig().warmup,
        "displace_margin": Autotuner.DISPLACE_MARGIN,
        "host": {
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "numpy": np.__version__,
            "compiler": os.path.basename(compiler) if compiler else None,
        },
        "variants": {op: list(names) for op, names in available_variants().items()},
        "references": {op: reference_variant(op) for op in available_variants()},
        "summary": summary,
        "signatures": signatures,
    }


def dumps(census: dict) -> str:
    """The census as JSON with one line per signature, so a regenerated
    file diffs signature by signature."""
    head = json.dumps(
        {key: value for key, value in census.items() if key != "signatures"},
        indent=1, sort_keys=True,
    )
    rows = ",\n".join(
        f"  {json.dumps(signature)}: {json.dumps(row, sort_keys=True)}"
        for signature, row in sorted(census["signatures"].items())
    )
    return head[:-2] + ',\n "signatures": {\n' + rows + "\n }\n}\n"


def markdown_table(census: dict) -> str:
    """The per-variant races/wins summary as a markdown table."""
    modes = census["modes"]
    header = "| op | variant | " + " | ".join(f"{m} wins / races" for m in modes) + " |"
    lines = [header, "|" + "---|" * (2 + len(modes))]
    for op, names in sorted(census["variants"].items()):
        for variant in names:
            counts = census["summary"].get(op, {}).get(variant, {})
            cells = []
            for mode in modes:
                cell = counts.get(mode)
                cells.append(f"{cell['wins']} / {cell['races']}" if cell else "--")
            label = f"`{variant}`" + (" (reference)" if variant == census["references"][op] else "")
            lines.append(f"| {op} | {label} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(OUT_PATH), help="JSON output path")
    args = parser.parse_args(argv)
    # Native races need a C compiler; without one the census is numpy-only.
    modes = ("numpy",) if codegen.compiler_command() is None else ("numpy", "native")
    with tempfile.TemporaryDirectory() as artifacts:
        codegen.configure(cache_dir_path=artifacts)
        census = run_census(modes, progress=lambda line: print(line, file=sys.stderr))
    Path(args.out).write_text(dumps(census))
    print(markdown_table(census))
    return 0


if __name__ == "__main__":
    sys.exit(main())
