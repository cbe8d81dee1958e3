"""Command-line interface.

Two entry points (also exposed as console scripts in ``pyproject.toml``):

``repro-train``
    Train one model with one precision strategy on one of the built-in
    workload scales, optionally saving the history (JSON) and a checkpoint.

    .. code-block:: bash

        repro-train --scale bench --strategy apt --epochs 14 --t-min 6.0
        repro-train --scale bench --strategy fixed --bits 8
        repro-train --scale smoke --strategy fp32 --history-out run.json

``repro-experiment``
    Regenerate one of the paper's figures / tables (or the ablations, or the
    automatic T_min search) and print its rows, optionally as JSON.

    Sweeps run through the experiment orchestrator: ``--workers N`` fans the
    independent training jobs of a figure/table out over N processes, and
    ``--cache-dir DIR`` memoises completed runs on disk so re-running an
    experiment (or another experiment sharing jobs with it) retrains nothing.

    .. code-block:: bash

        repro-experiment fig2 --scale bench
        repro-experiment table1 --scale bench --json-out table1.json
        repro-experiment table1 --scale bench --workers 4 --cache-dir .repro-cache
        repro-experiment tune-tmin --scale smoke

``serve-bench`` (``python -m repro.cli serve-bench``)
    Compile a model into execution plans (float, and quantised at each
    requested bitwidth -- or from a saved export / checkpoint) and report
    serving throughput, latency and analytic energy per request against the
    training-stack Module forward, every variant timed on the same bare
    batches.  With ``--workers`` the bench switches to the concurrent
    :class:`~repro.serve.service.InferenceService` and reports throughput
    scaling across worker-pool sizes instead; ``--model`` then accepts a
    comma-separated list to exercise multi-model scheduling.

    .. code-block:: bash

        python -m repro.cli serve-bench --model tiny_convnet --bits 8,4
        python -m repro.cli serve-bench --model small_convnet --batch-size 32
        python -m repro.cli serve-bench --model tiny_convnet --export model.npz
        python -m repro.cli serve-bench --model tiny_convnet --workers 1,4
        python -m repro.cli serve-bench --model tiny_convnet,small_convnet \
            --workers 2 --scaling-bits 8

``plan-inspect`` (``python -m repro.cli plan-inspect``)
    Compile a saved quantised export into an execution plan and print the
    optimizing pipeline's pass-by-pass graph summary: node counts around
    every pass, how many ops were fused into kernels, and the memory
    planner's arena bytes against the per-step scratch baseline.

    The listing includes the kernel variant selected for every conv /
    linear / pooling node and its provenance (``tuned`` / ``cached`` /
    ``heuristic``); ``--tune`` autotunes the selection under a measurement
    budget, optionally against a persistent ``--tuning-cache``.

    .. code-block:: bash

        python -m repro.cli plan-inspect model.npz --model tiny_convnet
        python -m repro.cli plan-inspect model.npz --no-optimize --steps
        python -m repro.cli plan-inspect model.npz --tune 2.0 --tuning-cache tune.json

``autotune`` (``python -m repro.cli autotune``)
    Micro-benchmark every applicable kernel variant of a registry model's
    compiled plan (fp32, plus quantised variants via ``--bits``) and
    persist the winners to an on-disk tuning cache.  Later compilations
    against the same cache -- any process, any model sharing the kernel
    shapes -- select tuned variants with **zero** re-tuning measurements.
    ``--verify`` re-checks every tuned plan bitwise against the untuned
    reference pipeline.

    .. code-block:: bash

        python -m repro.cli autotune --model tiny_convnet --cache tune.json
        python -m repro.cli autotune --model mobilenetv2 --image-size 32 \
            --bits 8,4 --budget 5.0 --verify
        python -m repro.cli plan-inspect model.npz --passes fold_constants,fuse_affine

``codegen`` (``python -m repro.cli codegen``)
    Inspect the native codegen backend (``repro.runtime.codegen``):
    compiler and BLAS-bridge availability, the on-disk compiled-artifact
    cache, and a ``--verify`` probe that emits, compiles and
    bitwise-verifies one conv kernel.

    .. code-block:: bash

        python -m repro.cli codegen --status
        python -m repro.cli codegen --verify --cache-dir /tmp/repro-cg
        python -m repro.cli codegen --clear-cache

``adapt-bench`` (``python -m repro.cli adapt-bench``)
    Serve a model while an APT fine-tuning job retrains it on drifted data
    and hot-swaps the refreshed export into the live service.  Reports the
    swap latency, the serving-throughput degradation while training shares
    the host, and that zero requests failed across the handoff.

    .. code-block:: bash

        python -m repro.cli adapt-bench --model tiny_convnet --bits 8
        python -m repro.cli adapt-bench --workers 4 --epochs 3 --requests 512

``metrics`` (``python -m repro.cli metrics``)
    Run a short instrumented serving session through the concurrent
    :class:`~repro.serve.service.InferenceService` and dump every metric
    the observability layer collected -- request/queue/kernel histograms,
    routing decisions, plan-cache hits and misses, SLO burn evaluations --
    in Prometheus-style text or as JSON.

    .. code-block:: bash

        python -m repro.cli metrics --model tiny_convnet --requests 64
        python -m repro.cli metrics --json
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional, Sequence

from repro.baselines import TABLE1_METHODS
from repro.experiments import (
    build_workload,
    get_scale,
    run_ablations,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_strategy,
    run_table1,
)
from repro.experiments.orchestrator import build_strategy
from repro.experiments.scales import SCALES
from repro.train.callbacks import Callback
from repro.train.serialization import dump_json, save_checkpoint, save_history
from repro.train.trainer import ONE_BLAS_THREAD_BELOW_MACS


def _add_scale_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="bench",
        help="workload scale preset (default: bench)",
    )


def _strategy_params(args: argparse.Namespace) -> dict:
    """Map repro-train flags onto the orchestrator's strategy-param schema."""
    if args.strategy == "fixed":
        return {"bits": args.bits, "master_copy": args.master_copy}
    if args.strategy == "apt":
        return {
            "initial_bits": args.initial_bits,
            "t_min": args.t_min,
            "t_max": args.t_max if args.t_max is not None else math.inf,
            "metric_interval": args.metric_interval,
        }
    return {}


def _build_strategy(args: argparse.Namespace):
    # One strategy factory for the whole codebase: repro-train builds its
    # strategy exactly as an orchestrator worker would build a RunSpec's.
    return build_strategy(args.strategy, _strategy_params(args))


# --------------------------------------------------------------------------- #
# repro-train
# --------------------------------------------------------------------------- #
def build_train_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-train",
        description="Train a model with a chosen precision strategy.",
    )
    _add_scale_argument(parser)
    parser.add_argument(
        "--strategy",
        default="apt",
        choices=["apt", "fp32", "fixed"] + sorted(TABLE1_METHODS),
        help="precision strategy (default: apt)",
    )
    parser.add_argument("--epochs", type=int, default=None, help="override the scale's epoch count")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bits", type=int, default=8, help="bitwidth for --strategy fixed")
    parser.add_argument(
        "--master-copy", action="store_true", help="keep an fp32 master copy (fixed strategy)"
    )
    parser.add_argument("--initial-bits", type=int, default=6, help="APT initial bitwidth")
    parser.add_argument("--t-min", type=float, default=6.0, help="APT T_min threshold")
    parser.add_argument("--t-max", type=float, default=None, help="APT T_max threshold (default inf)")
    parser.add_argument("--metric-interval", type=int, default=5, help="APT Gavg sampling interval")
    parser.add_argument(
        "--optimizer", choices=["sgd", "adam"], default="sgd", help="optimiser (default sgd)"
    )
    parser.add_argument("--history-out", default=None, help="write the training history JSON here")
    parser.add_argument("--checkpoint-out", default=None, help="write a model checkpoint (.npz) here")
    parser.add_argument("--quiet", action="store_true", help="suppress the per-epoch log")
    return parser


class _BlasThreads(Callback):
    """Reads the BLAS thread count the fit runs at, and its per-step MACs."""

    def on_train_begin(self, trainer) -> None:
        from repro.runtime import blas

        self.threads = blas.current_threads()
        self.step_macs = trainer.step_macs

    def describe(self) -> str:
        threads = "n/a" if self.threads is None else self.threads
        if self.step_macs < ONE_BLAS_THREAD_BELOW_MACS:
            verdict = f"< {ONE_BLAS_THREAD_BELOW_MACS:.1e}: capped at one thread"
            if self.threads not in (None, 1):  # the budget stood aside
                verdict += ", overridden by OPENBLAS_NUM_THREADS / OMP_NUM_THREADS"
        else:
            verdict = f">= {ONE_BLAS_THREAD_BELOW_MACS:.1e}: the process's count"
        return f"blas threads={threads}  (forward MACs/step {self.step_macs:.2e} {verdict})"


def run_train(argv: Optional[Sequence[str]] = None) -> int:
    args = build_train_parser().parse_args(argv)
    scale = get_scale(args.scale)
    workload = build_workload(scale)
    strategy = _build_strategy(args)

    blas_threads = _BlasThreads()
    result = run_strategy(
        workload,
        strategy,
        epochs=args.epochs,
        seed=args.seed,
        optimizer_name=args.optimizer,
        callbacks=[blas_threads],
        keep_trainer=bool(args.checkpoint_out),
    )
    history = result.history

    if not args.quiet:
        for record in history:
            print(
                f"epoch {record.epoch:3d}  loss {record.train_loss:.4f}  "
                f"test acc {record.test_accuracy:.3f}  avg bits {record.average_bits:.1f}"
            )
    print(
        f"\nstrategy={strategy.describe()}  final acc={history.final_test_accuracy:.3f}  "
        f"best acc={history.best_test_accuracy:.3f}  "
        f"energy={result.normalised_energy:.3f}x fp32  memory={result.normalised_memory:.3f}x fp32"
    )
    print(blas_threads.describe())

    if args.history_out:
        path = save_history(history, args.history_out)
        print(f"history written to {path}")
    if args.checkpoint_out:
        bitwidths = strategy.weight_bits()
        path = save_checkpoint(
            result.trainer.model,
            args.checkpoint_out,
            bitwidths=bitwidths,
            metadata={"strategy": strategy.name, "final_accuracy": history.final_test_accuracy},
        )
        print(f"checkpoint written to {path}")
    return 0


# --------------------------------------------------------------------------- #
# repro-experiment
# --------------------------------------------------------------------------- #
def build_experiment_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Regenerate one of the paper's figures/tables or run the ablations.",
    )
    parser.add_argument(
        "experiment",
        choices=[
            "fig1", "fig2", "fig3", "fig4", "fig5", "table1",
            "ablations", "schedules", "tune-tmin", "report",
        ],
        help="which experiment to run",
    )
    _add_scale_argument(parser)
    parser.add_argument("--epochs", type=int, default=None, help="override the scale's epoch count")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="fan the experiment's training jobs out over N worker processes (default 1: serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persist/reuse run results in this directory (keyed by content hash)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore the result cache even if --cache-dir is set",
    )
    parser.add_argument("--json-out", default=None, help="also write the result as JSON here")
    parser.add_argument(
        "--markdown-out", default=None, help="for 'report': write the markdown document here"
    )
    return parser


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return parsed


def _positive_float(value: str) -> float:
    parsed = float(value)
    if not parsed > 0:  # also rejects NaN
        raise argparse.ArgumentTypeError(
            f"must be a positive number of seconds, got {value}"
        )
    return parsed


def _model_input_shape(model_name: str, args: argparse.Namespace) -> tuple:
    """Per-sample input shape for a registry model from the shared CLI flags."""
    if model_name == "mlp":
        return (args.in_channels,)
    return (args.in_channels, args.image_size, args.image_size)


def _progress_printer(event) -> None:
    """One stderr line per resolved training job (cache hit or fresh run)."""
    timing = f" ({event.duration_s:.1f}s)" if event.duration_s else ""
    print(
        f"[{event.sequence}/{event.total}] {event.status:<9s} {event.spec.describe()}{timing}",
        file=sys.stderr,
    )


def _run_experiment(name: str, scale, epochs, seed, orchestration):
    if name == "fig1":
        result = run_fig1(scale, epochs=epochs, seed=seed, **orchestration)
    elif name == "fig2":
        result = run_fig2(scale, epochs=epochs, seed=seed, **orchestration)
    elif name == "fig3":
        result = run_fig3(scale, epochs=epochs, seed=seed, **orchestration)
    elif name == "fig4":
        result = run_fig4(scale, epochs=epochs, seed=seed, **orchestration)
    elif name == "fig5":
        result = run_fig5(scale, epochs=epochs, seed=seed, **orchestration)
    elif name == "table1":
        result = run_table1(scale, epochs=epochs, seed=seed, **orchestration)
    elif name == "ablations":
        result = run_ablations(scale, epochs=epochs, seed=seed, **orchestration)
    elif name == "schedules":
        from repro.experiments import run_schedule_comparison

        result = run_schedule_comparison(scale, epochs=epochs, seed=seed, **orchestration)
    elif name == "report":
        from repro.experiments.report import generate_report

        # The report runner has no epochs override (each figure uses the
        # scale's own epoch count) but takes the same orchestration settings.
        result = generate_report(scale, seed=seed, **orchestration)
    elif name == "tune-tmin":
        from repro.core.autotune import tune_t_min

        workload = build_workload(scale)
        probe_epochs = epochs if epochs is not None else max(2, scale.epochs // 4)
        result = tune_t_min(workload, probe_epochs=probe_epochs, seed=seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(name)
    return result


def _result_payload(name: str, result) -> dict:
    if name == "fig1":
        return {"gavg": result.gavg_by_layer, "bits": result.bits_by_layer}
    if name == "fig2":
        return {"curves": result.curves, "best": result.best_accuracy}
    if name == "fig3":
        return {"bits": result.bits_by_layer}
    if name == "fig4":
        return {"targets": result.targets, "energy_to_target": result.energy_to_target}
    if name == "fig5":
        return {"points": [vars(point) for point in result.points]}
    if name == "table1":
        return {"rows": [vars(row) for row in result.rows]}
    if name == "ablations":
        return {"points": [vars(point) for point in result.points]}
    if name == "schedules":
        return {"rows": [vars(row) for row in result.rows]}
    if name == "report":
        return {"scale": result.scale_name, "sections": [section.title for section in result.sections]}
    if name == "tune-tmin":
        return {"best_t_min": result.best_t_min, "trials": [vars(trial) for trial in result.trials]}
    raise ValueError(name)


def run_experiment(argv: Optional[Sequence[str]] = None) -> int:
    args = build_experiment_parser().parse_args(argv)
    scale = get_scale(args.scale)
    if args.cache_dir is not None:
        from pathlib import Path

        cache_path = Path(args.cache_dir)
        # Fail before training, not when the first result is stored.
        if cache_path.exists() and not cache_path.is_dir():
            print(f"--cache-dir {args.cache_dir!r} exists and is not a directory", file=sys.stderr)
            return 2
    if args.experiment == "tune-tmin" and (args.workers > 1 or args.cache_dir):
        print(
            "note: tune-tmin runs its own adaptive search; "
            "--workers/--cache-dir are ignored for it",
            file=sys.stderr,
        )
    orchestration = {
        "workers": args.workers,
        "cache_dir": args.cache_dir,
        "use_cache": not args.no_cache,
        "progress": _progress_printer,
    }
    result = _run_experiment(args.experiment, scale, args.epochs, args.seed, orchestration)

    if args.experiment == "report":
        markdown = result.to_markdown()
        print(markdown)
        if args.markdown_out:
            from pathlib import Path

            Path(args.markdown_out).write_text(markdown)
            print(f"\nreport written to {args.markdown_out}")
    else:
        for row in result.format_rows():
            print(row)
    if args.json_out:
        path = dump_json(_result_payload(args.experiment, result), args.json_out)
        print(f"\nresult written to {path}")
    return 0


# --------------------------------------------------------------------------- #
# repro serve-bench
# --------------------------------------------------------------------------- #
def build_serve_bench_parser() -> argparse.ArgumentParser:
    from repro.hardware.latency import COMPUTE_PROFILES
    from repro.models import available_models

    parser = argparse.ArgumentParser(
        prog="repro-serve-bench",
        description=(
            "Compile a model into execution plans and benchmark serving "
            "throughput/latency at each bitwidth against the Module forward."
        ),
    )
    parser.add_argument(
        "--model",
        default="tiny_convnet",
        help=(
            "registry model; with --workers a comma-separated list serves "
            f"multiple models concurrently (known: {', '.join(available_models())})"
        ),
    )
    parser.add_argument("--num-classes", type=int, default=10)
    parser.add_argument("--in-channels", type=int, default=1)
    parser.add_argument("--image-size", type=int, default=12, help="input H=W (conv models)")
    parser.add_argument(
        "--width-multiplier", type=float, default=1.0, help="channel scaling factor"
    )
    parser.add_argument(
        "--bits", default="8,4", help="comma-separated uniform weight bitwidths to serve"
    )
    parser.add_argument(
        "--checkpoint", default=None, help="load trained weights from this .npz checkpoint"
    )
    parser.add_argument(
        "--export",
        default=None,
        help="serve this saved QuantizedModelExport (.npz) instead of synthesising exports",
    )
    parser.add_argument("--batch-size", type=int, default=16, help="micro-batch size")
    parser.add_argument("--requests", type=int, default=256, help="synthetic requests per variant")
    parser.add_argument("--repeats", type=int, default=3, help="timing repetitions (best wins)")
    parser.add_argument(
        "--workers",
        default=None,
        help=(
            "comma-separated worker-pool sizes (e.g. 1,4): run the concurrent "
            "multi-worker scaling bench instead of the per-bitwidth comparison"
        ),
    )
    parser.add_argument(
        "--scaling-bits",
        default="fp32",
        help="bitwidth variant served by the scaling bench: 'fp32' or an integer",
    )
    parser.add_argument(
        "--device",
        default="smartphone_npu",
        choices=sorted(COMPUTE_PROFILES) + ["none"],
        help="edge profile for analytic energy/latency models ('none' to skip)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json-out", default=None, help="also write the report as JSON here")
    return parser


def _run_scaling_bench(args, model_names: List[str]) -> int:
    import numpy as np

    from repro.models import build_model
    from repro.serve import run_scaling_bench

    try:
        workers_list = [int(value) for value in args.workers.split(",") if value.strip()]
    except ValueError:
        print(f"--workers must be a comma-separated list of integers, got {args.workers!r}",
              file=sys.stderr)
        return 2
    if not workers_list or any(workers < 1 for workers in workers_list):
        print(f"--workers entries must be positive, got {args.workers!r}", file=sys.stderr)
        return 2
    if args.scaling_bits == "fp32":
        scaling_bits = None
    else:
        try:
            scaling_bits = int(args.scaling_bits)
        except ValueError:
            print(f"--scaling-bits must be 'fp32' or an integer, got {args.scaling_bits!r}",
                  file=sys.stderr)
            return 2

    ignored = []
    if args.bits != "8,4":
        ignored.append("--bits (use --scaling-bits)")
    if args.device != "smartphone_npu":
        ignored.append("--device")
    if ignored:
        print(f"note: {', '.join(ignored)} ignored by the --workers scaling bench",
              file=sys.stderr)

    models = {}
    for index, name in enumerate(model_names):
        module = build_model(
            name,
            num_classes=args.num_classes,
            width_multiplier=args.width_multiplier,
            in_channels=args.in_channels,
            rng=np.random.default_rng(args.seed + index),
        )
        models[name] = (module, _model_input_shape(name, args))

    try:
        report = run_scaling_bench(
            models,
            bits=scaling_bits,
            workers_list=workers_list,
            batch_size=args.batch_size,
            requests=args.requests,
            repeats=args.repeats,
            seed=args.seed,
        )
    except ValueError as error:
        # e.g. --scaling-bits outside the quantiser's supported range.
        print(f"serve-bench failed: {error}", file=sys.stderr)
        return 2
    print(
        f"serve-bench scaling: models={','.join(report.models)} "
        f"variant={'fp32' if report.bits is None else f'{report.bits}bit'} "
        f"batch={report.batch_size} requests={report.requests}"
    )
    for line in report.format_rows():
        print(line)
    if args.json_out:
        path = dump_json({"rows": [vars(row) for row in report.rows]}, args.json_out)
        print(f"\nreport written to {path}")
    return 0


def run_serve_bench(argv: Optional[Sequence[str]] = None) -> int:
    import numpy as np

    from repro.models import available_models, build_model
    from repro.quant.deploy import load_export
    from repro.serve import run_serve_bench as serve_bench
    from repro.train.serialization import load_checkpoint

    args = build_serve_bench_parser().parse_args(argv)
    model_names = [name for name in args.model.split(",") if name.strip()]
    unknown = [name for name in model_names if name not in available_models()]
    if not model_names or unknown:
        print(
            f"unknown model(s) {unknown or args.model!r}; "
            f"known: {', '.join(available_models())}",
            file=sys.stderr,
        )
        return 2
    if args.workers is not None:
        if args.export or args.checkpoint:
            # The scaling bench rebuilds models from the registry; silently
            # benchmarking fresh weights while the user thinks their
            # artifact is being served would be misleading.
            print(
                "--export/--checkpoint are not supported by the --workers "
                "scaling bench (it synthesises variants via --scaling-bits)",
                file=sys.stderr,
            )
            return 2
        return _run_scaling_bench(args, model_names)
    if len(model_names) > 1:
        print("multiple --model values need --workers (the scaling bench)", file=sys.stderr)
        return 2

    rng = np.random.default_rng(args.seed)
    model = build_model(
        model_names[0],
        num_classes=args.num_classes,
        width_multiplier=args.width_multiplier,
        in_channels=args.in_channels,
        rng=rng,
    )
    input_shape = _model_input_shape(model_names[0], args)
    try:
        if args.checkpoint:
            load_checkpoint(model, args.checkpoint)
            print(f"loaded checkpoint {args.checkpoint}")
        export = load_export(args.export) if args.export else None
    except (FileNotFoundError, KeyError, ValueError) as error:
        # Missing file, architecture mismatch, or unsupported export format.
        print(f"cannot load model artifact: {error}", file=sys.stderr)
        return 2

    try:
        bits_list = [int(bits) for bits in args.bits.split(",") if bits.strip()]
    except ValueError:
        print(f"--bits must be a comma-separated list of integers, got {args.bits!r}", file=sys.stderr)
        return 2
    try:
        report = serve_bench(
            model,
            input_shape,
            bits_list=bits_list,
            export=export,
            batch_size=args.batch_size,
            requests=args.requests,
            repeats=args.repeats,
            device=None if args.device == "none" else args.device,
            seed=args.seed,
        )
    except (KeyError, ValueError) as error:
        # e.g. an export saved from a different architecture than --model.
        print(f"serve-bench failed: {error}", file=sys.stderr)
        return 2
    print(
        f"serve-bench: {report.model} input={report.input_shape} "
        f"batch={report.batch_size} requests={report.requests} device={report.device}"
    )
    for line in report.format_rows():
        print(line)
    if args.json_out:
        path = dump_json({"rows": [vars(row) for row in report.rows]}, args.json_out)
        print(f"\nreport written to {path}")
    return 0


# --------------------------------------------------------------------------- #
# repro plan-inspect
# --------------------------------------------------------------------------- #
def build_plan_inspect_parser() -> argparse.ArgumentParser:
    from repro.models import available_models
    from repro.runtime import available_passes

    parser = argparse.ArgumentParser(
        prog="repro-plan-inspect",
        description=(
            "Compile a saved quantised export into an execution plan and "
            "print the optimizing pipeline's pass-by-pass graph summary "
            "(node counts, fused ops, planned arena bytes)."
        ),
    )
    parser.add_argument("export", help="QuantizedModelExport archive (.npz) to compile")
    parser.add_argument(
        "--model",
        default="tiny_convnet",
        choices=sorted(available_models()),
        help="registry architecture the export was taken from (default: tiny_convnet)",
    )
    parser.add_argument("--num-classes", type=int, default=10)
    parser.add_argument("--in-channels", type=int, default=1)
    parser.add_argument("--image-size", type=int, default=12, help="input H=W (conv models)")
    parser.add_argument(
        "--width-multiplier", type=float, default=1.0, help="channel scaling factor"
    )
    parser.add_argument(
        "--passes",
        default=None,
        help=(
            "comma-separated pass pipeline to run instead of the default "
            f"(known: {', '.join(available_passes())})"
        ),
    )
    parser.add_argument(
        "--no-optimize",
        action="store_true",
        help="disable every pass (inspect the raw traced graph)",
    )
    parser.add_argument(
        "--batch", type=_positive_int, default=16, help="batch size for the arena-bytes report"
    )
    parser.add_argument(
        "--steps", action="store_true", help="also print the lowered step listing"
    )
    parser.add_argument(
        "--tune",
        type=_positive_float,
        default=None,
        metavar="BUDGET_S",
        help=(
            "autotune kernel-variant selection with this measurement budget "
            "in seconds (default: free heuristic selection)"
        ),
    )
    parser.add_argument(
        "--tuning-cache",
        default=None,
        metavar="PATH",
        help="persistent tuning-cache JSON consulted (and updated) by --tune",
    )
    parser.add_argument("--seed", type=int, default=0)
    return parser


def _print_kernel_variants(plan) -> None:
    """Per-node variant/provenance listing of a compiled plan."""
    chosen = plan.kernel_variants()
    if not chosen:
        print("kernel variants: none (no conv / linear / pool steps)")
        return
    print("kernel variants:")
    for key, (variant, provenance) in chosen.items():
        index, label = key.split(":", 1)
        print(f"  {int(index):3d}: {label:<32s} {variant} ({provenance})")


def run_plan_inspect(argv: Optional[Sequence[str]] = None) -> int:
    import numpy as np

    from repro.models import build_model
    from repro.quant.deploy import load_export
    from repro.runtime import (
        Autotuner,
        PlanCompileError,
        TuningCache,
        TuningConfig,
        compile_quantized_plan,
    )

    args = build_plan_inspect_parser().parse_args(argv)
    model = build_model(
        args.model,
        num_classes=args.num_classes,
        width_multiplier=args.width_multiplier,
        in_channels=args.in_channels,
        rng=np.random.default_rng(args.seed),
    )
    input_shape = _model_input_shape(args.model, args)
    passes = None
    if args.passes is not None:
        passes = tuple(name.strip() for name in args.passes.split(",") if name.strip())
    tuner = None
    if args.tune is not None or args.tuning_cache is not None:
        cache = TuningCache(args.tuning_cache) if args.tuning_cache else None
        tuner = Autotuner(TuningConfig(
            cache=cache, budget_s=args.tune if args.tune is not None else 1.0
        ))
    try:
        export = load_export(args.export)
        plan = compile_quantized_plan(
            model,
            export,
            input_shape,
            passes=passes,
            optimize=not args.no_optimize,
            tuning=tuner,
        )
    except FileNotFoundError as error:
        print(f"cannot read export: {error}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, PlanCompileError) as error:
        # Architecture mismatch, unknown pass name, unsupported archive.
        print(f"plan-inspect failed: {error}", file=sys.stderr)
        return 2
    print(plan.describe_pipeline(batch_size=args.batch))
    print()
    _print_kernel_variants(plan)
    if tuner is not None:
        print(f"tuning: {tuner.describe()}")
    if args.steps:
        print()
        print(plan.describe())
    return 0


# --------------------------------------------------------------------------- #
# repro autotune
# --------------------------------------------------------------------------- #
def build_autotune_parser() -> argparse.ArgumentParser:
    from repro.models import available_models

    parser = argparse.ArgumentParser(
        prog="repro-autotune",
        description=(
            "Micro-benchmark every applicable kernel variant of a model's "
            "compiled plan and persist the winners to a tuning cache, so "
            "later compilations (any process, any model sharing the shapes) "
            "select tuned kernels with zero measurements."
        ),
    )
    parser.add_argument(
        "--model",
        default="tiny_convnet",
        choices=sorted(available_models()),
        help="registry architecture to tune (default: tiny_convnet)",
    )
    parser.add_argument(
        "--cache",
        default=".repro-tuning.json",
        help="tuning-cache JSON to consult and update (default: .repro-tuning.json)",
    )
    parser.add_argument(
        "--budget",
        type=_positive_float,
        default=2.0,
        help="total measurement budget in seconds (default: 2.0, must be > 0)",
    )
    parser.add_argument(
        "--bits",
        default=None,
        help=(
            "also tune quantised variants at these comma-separated "
            "bitwidths (fresh in-process exports of the model's weights)"
        ),
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help=(
            "re-run every tuned plan against the untuned reference pipeline "
            "and require bitwise-identical outputs"
        ),
    )
    parser.add_argument("--num-classes", type=int, default=10)
    parser.add_argument("--in-channels", type=int, default=1)
    parser.add_argument("--image-size", type=int, default=12, help="input H=W (conv models)")
    parser.add_argument(
        "--width-multiplier", type=float, default=1.0, help="channel scaling factor"
    )
    parser.add_argument("--seed", type=int, default=0)
    return parser


def run_autotune(argv: Optional[Sequence[str]] = None) -> int:
    import numpy as np

    from repro.models import build_model
    from repro.quant import export_quantized_model
    from repro.runtime import (
        Autotuner,
        DEFAULT_PASSES,
        PlanCompileError,
        TuningCache,
        TuningConfig,
        compile_plan,
        compile_quantized_plan,
    )

    args = build_autotune_parser().parse_args(argv)
    try:
        bits_list = (
            [int(bits) for bits in args.bits.split(",") if bits.strip()]
            if args.bits else []
        )
    except ValueError:
        print(f"--bits must be a comma-separated list of integers, got {args.bits!r}",
              file=sys.stderr)
        return 2
    model = build_model(
        args.model,
        num_classes=args.num_classes,
        width_multiplier=args.width_multiplier,
        in_channels=args.in_channels,
        rng=np.random.default_rng(args.seed),
    )
    input_shape = _model_input_shape(args.model, args)
    cache = TuningCache(args.cache)
    tuner = Autotuner(TuningConfig(cache=cache, budget_s=args.budget))
    reference_passes = tuple(p for p in DEFAULT_PASSES if p != "select_kernels")
    probe = np.random.default_rng(args.seed + 1).normal(size=(4,) + input_shape)

    variants = [("fp32", None)]
    try:
        for width in bits_list:
            export = export_quantized_model(
                model, {name: width for name, _ in model.named_parameters()}
            )
            variants.append((f"int{width}", export))
    except ValueError as error:
        print(f"autotune failed: {error}", file=sys.stderr)
        return 2

    print(f"autotune: {args.model} input={input_shape} cache={cache.path} "
          f"budget={args.budget:.1f}s")
    for label, export in variants:
        try:
            if export is None:
                plan = compile_plan(model, input_shape, tuning=tuner)
            else:
                plan = compile_quantized_plan(model, export, input_shape, tuning=tuner)
        except PlanCompileError as error:  # pragma: no cover - defensive
            print(f"autotune failed compiling {label}: {error}", file=sys.stderr)
            return 2
        print(f"\n[{label}]")
        _print_kernel_variants(plan)
        if args.verify:
            if export is None:
                reference = compile_plan(model, input_shape, passes=reference_passes)
            else:
                reference = compile_quantized_plan(
                    model, export, input_shape, passes=reference_passes
                )
            if not np.array_equal(plan.run(probe), reference.run(probe)):
                print(f"verify FAILED: {label} tuned plan diverges from the "
                      f"reference pipeline", file=sys.stderr)
                return 1
            print("verify: tuned output bitwise-identical to the reference pipeline")
    print()
    print(f"tuning: {tuner.describe()}")
    print(f"measurements: {tuner.measurements}")
    print(f"cache: {len(cache)} entries at {cache.path} "
          f"(hits={cache.hits} misses={cache.misses} retunes={cache.retunes})")
    return 0


# --------------------------------------------------------------------------- #
# repro adapt-bench
# --------------------------------------------------------------------------- #
def build_adapt_bench_parser() -> argparse.ArgumentParser:
    from repro.models import available_models

    image_models = sorted(name for name in available_models() if name != "mlp")
    parser = argparse.ArgumentParser(
        prog="repro-adapt-bench",
        description=(
            "Serve a model while an APT fine-tuning job retrains it on "
            "drifted data and hot-swaps the result; measure swap latency "
            "and serving degradation."
        ),
    )
    parser.add_argument(
        "--model",
        default="tiny_convnet",
        choices=image_models,
        help="registry image model to serve and adapt (default: tiny_convnet)",
    )
    parser.add_argument("--bits", type=int, default=8, help="served/swapped variant bitwidth")
    parser.add_argument("--workers", type=_positive_int, default=2, help="serving worker threads")
    parser.add_argument(
        "--requests", type=_positive_int, default=256, help="requests per measured phase"
    )
    parser.add_argument("--batch-size", type=_positive_int, default=16, help="micro-batch size")
    parser.add_argument("--epochs", type=_positive_int, default=2, help="fine-tune epochs")
    parser.add_argument(
        "--train-samples", type=_positive_int, default=256, help="fine-tune dataset size"
    )
    parser.add_argument("--image-size", type=int, default=12, help="input H=W")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json-out", default=None, help="also write the report as JSON here")
    return parser


def run_adapt_bench_cli(argv: Optional[Sequence[str]] = None) -> int:
    from repro.adapt import run_adapt_bench

    args = build_adapt_bench_parser().parse_args(argv)
    try:
        report = run_adapt_bench(
            args.model,
            bits=args.bits,
            workers=args.workers,
            requests=args.requests,
            batch_size=args.batch_size,
            epochs=args.epochs,
            train_samples=args.train_samples,
            image_size=args.image_size,
            seed=args.seed,
        )
    except ValueError as error:
        # e.g. --bits outside the quantiser's supported range.
        print(f"adapt-bench failed: {error}", file=sys.stderr)
        return 2
    print(
        f"adapt-bench: {report.model} variant={report.bits}bit "
        f"workers={report.workers} epochs={report.epochs}"
    )
    for line in report.format_rows():
        print(line)
    if args.json_out:
        path = dump_json(vars(report), args.json_out)
        print(f"\nreport written to {path}")
    if report.failed_requests:
        print(
            f"adapt-bench: {report.failed_requests} requests failed during the handoff",
            file=sys.stderr,
        )
        return 1
    if report.status != "swapped":
        # The feature under test (fine-tune -> re-export -> hot-swap) did
        # not complete; serving on the old plan succeeding is not a pass.
        print(f"adapt-bench: adaptation did not swap (status {report.status!r})",
              file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------------- #
# repro metrics
# --------------------------------------------------------------------------- #
def build_metrics_parser() -> argparse.ArgumentParser:
    from repro.models import available_models

    parser = argparse.ArgumentParser(
        prog="repro-metrics",
        description=(
            "Run a short instrumented serving session and dump the "
            "observability layer's metrics (histograms, counters, SLO burn)."
        ),
    )
    parser.add_argument(
        "--model",
        default="tiny_convnet",
        choices=sorted(available_models()),
        help="registry model to serve (default: tiny_convnet)",
    )
    parser.add_argument("--num-classes", type=int, default=10)
    parser.add_argument("--in-channels", type=int, default=1)
    parser.add_argument("--image-size", type=int, default=12, help="input H=W (conv models)")
    parser.add_argument(
        "--bits", default="8,4", help="comma-separated uniform weight bitwidths to serve"
    )
    parser.add_argument("--workers", type=_positive_int, default=2, help="serving worker threads")
    parser.add_argument(
        "--requests", type=_positive_int, default=64, help="synthetic requests to serve"
    )
    parser.add_argument("--batch-size", type=_positive_int, default=16, help="micro-batch size")
    parser.add_argument(
        "--max-latency-ms",
        type=float,
        default=None,
        help="per-request latency SLO budget in milliseconds (default: none)",
    )
    from repro.hardware.latency import COMPUTE_PROFILES

    parser.add_argument(
        "--device",
        default="smartphone_npu",
        choices=sorted(COMPUTE_PROFILES) + ["none"],
        help="edge profile for analytic energy/latency models ('none' to skip)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true", help="print the snapshot as JSON")
    parser.add_argument("--json-out", default=None, help="also write the snapshot JSON here")
    return parser


def run_metrics(argv: Optional[Sequence[str]] = None) -> int:
    import numpy as np

    from repro.hardware.energy import EnergyModel
    from repro.hardware.latency import COMPUTE_PROFILES
    from repro.models import build_model
    from repro.quant import export_quantized_model
    from repro.serve import InferenceService, ModelRepository, QueuePolicy, RequestSLO

    args = build_metrics_parser().parse_args(argv)
    try:
        bits_list = [int(bits) for bits in args.bits.split(",") if bits.strip()]
    except ValueError:
        print(f"--bits must be a comma-separated list of integers, got {args.bits!r}",
              file=sys.stderr)
        return 2
    if not bits_list:
        print(f"--bits must name at least one bitwidth, got {args.bits!r}", file=sys.stderr)
        return 2

    rng = np.random.default_rng(args.seed)
    model = build_model(
        args.model, num_classes=args.num_classes, in_channels=args.in_channels, rng=rng
    )
    input_shape = _model_input_shape(args.model, args)
    repository = ModelRepository()
    repository.add_model(args.model, model, input_shape)
    # A replica of the same architecture sharing the same exports: its
    # warm-up resolves every plan from the content-addressed cache, so the
    # dump demonstrates plan_cache hits alongside the compile misses.
    replica = build_model(
        args.model,
        num_classes=args.num_classes,
        in_channels=args.in_channels,
        rng=np.random.default_rng(args.seed),
    )
    replica_name = f"{args.model}-replica"
    repository.add_model(replica_name, replica, input_shape)
    try:
        for width in bits_list:
            export = export_quantized_model(
                model, {name: width for name, _ in model.named_parameters()}
            )
            repository.add_export(args.model, export)
            repository.add_export(replica_name, export)
    except ValueError as error:
        # e.g. a bitwidth outside the quantiser's supported range.
        print(f"metrics run failed: {error}", file=sys.stderr)
        return 2

    slo = RequestSLO(
        max_latency_s=None if args.max_latency_ms is None else args.max_latency_ms / 1000.0
    )
    device = None if args.device == "none" else args.device
    service = InferenceService(
        repository,
        workers=args.workers,
        queue_policy=QueuePolicy(max_batch_size=args.batch_size),
        compute_profile=COMPUTE_PROFILES[device] if device else None,
        energy_model=EnergyModel() if device else None,
    )
    sample_rng = np.random.default_rng(args.seed + 1)
    with service:
        futures = [
            service.submit(
                args.model if index % 2 == 0 else replica_name,
                sample_rng.normal(size=input_shape),
                slo,
            )
            for index in range(args.requests)
        ]
        for future in futures:
            future.result(timeout=60.0)
    snapshot = service.metrics_snapshot()

    if args.json:
        import json

        print(json.dumps(snapshot.as_dict(), indent=2, sort_keys=True))
    else:
        print(
            f"metrics: {args.model} bits={','.join(map(str, bits_list))} "
            f"workers={args.workers} requests={args.requests}"
        )
        print()
        print(snapshot.render_text())
    if args.json_out:
        path = dump_json(snapshot.as_dict(), args.json_out)
        if not args.json:
            print(f"\nsnapshot written to {path}")
    return 0


# --------------------------------------------------------------------------- #
# repro codegen
# --------------------------------------------------------------------------- #
def build_codegen_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-codegen",
        description=(
            "Inspect and exercise the native codegen backend: compiler / "
            "BLAS-bridge availability, the on-disk artifact cache, and a "
            "build-and-bitwise-verify probe of the conv kernel family."
        ),
    )
    parser.add_argument(
        "--status",
        action="store_true",
        help="print the backend status (the default action)",
    )
    parser.add_argument(
        "--clear-cache",
        action="store_true",
        help="delete every compiled artifact from the cache directory",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help=(
            "emit, compile and bitwise-verify one conv2d kernel; exit 1 if "
            "it fails on a host with a working compiler"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="pin the artifact cache directory for this invocation",
    )
    parser.add_argument("--json", action="store_true", help="print results as JSON")
    return parser


def run_codegen(argv: Optional[Sequence[str]] = None) -> int:
    import json

    from repro.runtime import codegen

    args = build_codegen_parser().parse_args(argv)
    if args.cache_dir is not None:
        codegen.configure(cache_dir_path=args.cache_dir)

    if args.clear_cache:
        removed = codegen.clear_cache()
        print(f"codegen: removed {removed} cached artifacts from {codegen.cache_dir()}")

    exit_code = 0
    if args.verify:
        report = codegen.verify_backend()
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(f"codegen verify: compiler={report['compiler']} blas={report['blas']}")
            print(f"  cache_dir: {report['cache_dir']}")
            print(f"  conv2d: {'ok' if report['conv2d'] else 'FAILED'}")
            print(
                f"  builds: {report['built']} compiled, {report['cached']} "
                f"from warm cache, {report['failed']} failed"
            )
        if report["compiler"] is not None and not report["conv2d"]:
            exit_code = 1
    elif args.status or not args.clear_cache:
        status = codegen.status()
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
        else:
            print(f"codegen: enabled={status['enabled']}")
            print(f"  compiler: {status['compiler'] or 'none found'}")
            print(f"  blas: {status['blas']}")
            print(f"  cache_dir: {status['cache_dir']} ({status['artifacts']} artifacts)")
            print(f"  builds: {status['builds']}")
            print(f"  dispatches: {status['dispatches']}")
    return exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Dispatch ``python -m repro.cli {train,experiment,serve-bench,adapt-bench,plan-inspect,autotune,codegen,metrics} ...``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    command, rest = argv[0], argv[1:]
    if command == "train":
        return run_train(rest)
    if command == "experiment":
        return run_experiment(rest)
    if command == "serve-bench":
        return run_serve_bench(rest)
    if command == "adapt-bench":
        return run_adapt_bench_cli(rest)
    if command == "plan-inspect":
        return run_plan_inspect(rest)
    if command == "autotune":
        return run_autotune(rest)
    if command == "codegen":
        return run_codegen(rest)
    if command == "metrics":
        return run_metrics(rest)
    print(
        f"unknown command {command!r}; expected 'train', 'experiment', "
        f"'serve-bench', 'adapt-bench', 'plan-inspect', 'autotune', "
        f"'codegen' or 'metrics'",
        file=sys.stderr,
    )
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
