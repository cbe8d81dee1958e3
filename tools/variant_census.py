"""Census of conv-variant races: which variant runs fastest, where.

A conv variant earns its place in :mod:`repro.runtime.variants` only if
it wins somewhere this system runs.  This tool compiles every registry
model at the shapes the CLI and the perfbench workloads use, at fp32 and
8, 4 and 2 bits, as the runtime serves it, and runs each plan step by step
on a batch of :data:`RACE_BATCH` probe samples.  At every conv step it
races every variant :func:`~repro.runtime.variants.admitted_variants`
lists there on that step's real input, through
:func:`repro.runtime.variants.run_conv`:

    PYTHONPATH=src python tools/variant_census.py
    PYTHONPATH=src python tools/variant_census.py --out census.json

Every call site is raced :data:`RUNS` times.  A race times each candidate
:data:`WARMUP` time untimed, then :data:`REPEATS` times, and keeps its best
time.  The fastest candidate is the race's pick, unless the served
variant (recorded as the ``heuristic``) is within :data:`DISPLACE_MARGIN`
of it: then the served variant is kept, with a negative margin.  Per
kernel signature the output records the candidates, the served variant,
how often each variant was picked, and the median margin of the pick over
the runner-up.  The host block records the OpenBLAS thread count the races
ran at.  The default output is ``docs/variant_census.json``, which the
test-suite checks: every non-reference variant must win at least one
signature in it, as the majority pick by a median margin above
``DISPLACE_MARGIN``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import kernels
from repro.models import available_models, build_model
from repro.quant import export_quantized_model
from repro.runtime import blas, compile_plan, compile_quantized_plan
from repro.runtime.executor import ConvStep
from repro.runtime.variants import CONV_VARIANTS, KernelDesc, admitted_variants, run_conv

OUT_PATH = Path(__file__).resolve().parent.parent / "docs" / "variant_census.json"

#: Bitwidths every model is exported at (32 = the float plan).
BITS = (32, 8, 4, 2)

#: Races per call site.
RUNS = 3

#: Samples in the probe batch each plan runs on, and so in every race.
RACE_BATCH = 16

#: Untimed and timed runs of each candidate per race (the best time counts).
WARMUP = 1
REPEATS = 3

#: Relative speedup a candidate must show over the served variant to
#: be the pick.  Races are a handful of timed repeats, so near-ties are
#: noise: within the margin the served variant is kept.
DISPLACE_MARGIN = 0.05

#: The one race mode (conv variants run through numpy's BLAS).
MODE = "numpy"

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


def signature(desc: KernelDesc, weight_dtype: str, bits: int) -> str:
    """The conv call site's key: geometry, stored weight dtype and bitwidth."""
    return "|".join((
        "conv2d",
        "x=" + "x".join(str(dim) for dim in desc.x_shape),
        f"k={desc.kernel_size[0]}x{desc.kernel_size[1]}",
        f"s={desc.stride[0]}x{desc.stride[1]}",
        f"p={desc.padding[0]}x{desc.padding[1]}",
        f"co={desc.out_channels}",
        f"w={weight_dtype}",
        f"b={bits}",
    ))


def _best_seconds(run) -> float:
    for _ in range(WARMUP):
        run()
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def _race(step: ConvStep, x: np.ndarray) -> Optional[dict]:
    """Race every conv variant admitted at ``step`` on its input ``x``;
    ``None`` where only the reference is admitted."""
    desc = KernelDesc(
        x_shape=tuple(x.shape[1:]), kernel_size=tuple(step.kernel_size),
        stride=tuple(step.stride), padding=tuple(step.padding),
        out_channels=step.out_channels,
    )
    # The reference applies everywhere, and so does im2col_slices or
    # gemm_1x1 wherever the conv has more than one output channel (every
    # registry model's do).
    candidates = list(admitted_variants(desc))
    if len(candidates) == 1:
        return None
    out_h, out_w = kernels.conv_output_hw(
        x.shape[2], x.shape[3], desc.kernel_size, desc.stride, desc.padding
    )
    scratch = np.empty((x.shape[0], desc.out_channels, out_h * out_w))
    # Packed as the lowering packs it: every variant races the same weight.
    weight = kernels.pack_weight_matrix(step.weight_matrix)
    times = {
        name: _best_seconds(lambda: run_conv(
            name, x, weight, desc.kernel_size, desc.stride, desc.padding, out=scratch,
        ))
        for name in candidates
    }
    incumbent = step.variant  # the served variant, as the plan ships it
    pick = min(times, key=times.get)
    if pick != incumbent and times[pick] >= times[incumbent] * (1.0 - DISPLACE_MARGIN):
        pick = incumbent
    others = [seconds for name, seconds in times.items() if name != pick]
    return {
        "signature": signature(desc, str(step.weight_matrix.dtype), step.bits),
        "op": "conv2d",
        "candidates": sorted(candidates),
        "heuristic": incumbent,
        "pick": pick,
        "margin": min(others) / times[pick] - 1.0,
    }


def race_config(name: str, width: float, shape: Tuple[int, ...], bits: int) -> List[dict]:
    """Compile one config as served and race the variants at each conv step.

    The plan runs step by step on a seeded probe batch, so every race runs
    on the activations its conv step reads when the plan runs.
    """
    model = build_model(
        name, num_classes=10, width_multiplier=width, in_channels=shape[0],
        rng=np.random.default_rng(0),
    )
    if bits == 32:
        plan = compile_plan(model, shape)
    else:
        export = export_quantized_model(model, {p: bits for p, _ in model.named_parameters()})
        plan = compile_quantized_plan(model, export, shape)
    ctx = plan.create_context(RACE_BATCH)
    env = ctx.env
    env[0] = np.random.default_rng(0).normal(size=(RACE_BATCH,) + tuple(shape))
    races = []
    for step in plan.steps:
        if isinstance(step, ConvStep):
            race = _race(step, env[step.x])
            if race is not None:
                races.append(race)
        step.run(env, ctx)
    return races


def tally(entries: Dict[str, dict], races: List[dict], site: str) -> None:
    """Fold one config's races into the per-signature ``entries``."""
    for race in races:
        entry = entries.setdefault(race["signature"], {
            "op": race["op"],
            "candidates": race["candidates"],
            "heuristic": race["heuristic"],
            "picks": Counter(),
            "margins": defaultdict(list),
            "sites": set(),
        })
        entry["picks"][race["pick"]] += 1
        entry["margins"][race["pick"]].append(race["margin"])
        entry["sites"].add(site)


def run_census(progress=None) -> dict:
    """Race every call site :data:`RUNS` times; returns the census record."""
    entries: Dict[str, dict] = {}
    configs = census_configs()
    for run in range(RUNS):
        for source, name, width, shape in configs:
            for bits in BITS:
                races = race_config(name, width, shape, bits)
                site = f"{source}:{name}x{width:g}@{bits}"
                tally(entries, races, site)
                if progress is not None:
                    progress(f"[run {run + 1}/{RUNS}] {site}: {len(races)} races")
    return record(entries, configs)


def record(entries: Dict[str, dict], configs) -> dict:
    """The census record of the tallied ``entries``."""
    signatures: Dict[str, dict] = {}
    summary: Dict[str, Dict[str, Dict[str, Dict[str, int]]]] = {}
    for signature_key, entry in sorted(entries.items()):
        signatures[signature_key] = {
            "op": entry["op"],
            "heuristic": entry["heuristic"],
            "modes": {MODE: {
                "candidates": entry["candidates"],
                "picks": dict(sorted(entry["picks"].items())),
                "median_margin": {
                    variant: round(statistics.median(values), 4)
                    for variant, values in sorted(entry["margins"].items())
                },
                "sites": sorted(entry["sites"]),
            }},
        }
        races = sum(entry["picks"].values())
        per_op = summary.setdefault(entry["op"], {})
        for variant in entry["candidates"]:
            counts = per_op.setdefault(variant, {}).setdefault(MODE, {"races": 0, "wins": 0})
            counts["races"] += races
            counts["wins"] += entry["picks"].get(variant, 0)
    return {
        "generator": "tools/variant_census.py",
        "runs": RUNS,
        "modes": [MODE],
        "bits": list(BITS),
        "configs": [
            {"source": source, "model": name, "width": width, "shape": list(shape)}
            for source, name, width, shape in configs
        ],
        "race_batch": RACE_BATCH,
        "repeats": REPEATS,
        "warmup": WARMUP,
        "displace_margin": DISPLACE_MARGIN,
        "host": {
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "numpy": np.__version__,
            "blas_threads": blas.current_threads(),
        },
        "variants": {"conv2d": list(CONV_VARIANTS)},
        "references": {"conv2d": CONV_VARIANTS[0]},
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
        f"  {json.dumps(signature_key)}: {json.dumps(row, sort_keys=True)}"
        for signature_key, row in sorted(census["signatures"].items())
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
    census = run_census(progress=lambda line: print(line, file=sys.stderr))
    Path(args.out).write_text(dumps(census))
    print(markdown_table(census))
    return 0


if __name__ == "__main__":
    sys.exit(main())
