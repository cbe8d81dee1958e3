"""Parallel experiment orchestration with an on-disk result cache.

Every figure / table of the paper is a *sweep*: the same workload trained
under several precision strategies (or the same strategy under several
hyper-parameters).  This module turns each training job into a declarative,
content-hashed :class:`RunSpec`, executes batches of specs through an
:class:`Orchestrator` that fans out over ``multiprocessing`` workers, and
memoises completed runs in a :class:`ResultStore` keyed by the spec hash so
repeated invocations (re-running a figure, extending a sweep, regenerating
the full report) retrain nothing that is already known.

The flow::

    RunSpec (scale x strategy x seed x epochs x optimizer)
        --content_hash()-->  ResultStore lookup
              hit  -> StrategyRunResult loaded from JSON, zero training
              miss -> worker process trains it (run_strategy), result
                      stored, returned

Determinism: a spec fully determines its run.  Workers rebuild the workload
from the embedded :class:`ExperimentScale` (datasets and model init are
seeded by the scale and the spec seed), so a 4-worker run produces results
identical to a serial run of the same specs — and both produce byte-identical
stored summaries.

Strategies are never pickled; workers receive only the spec (plain data) and
construct the strategy locally via :func:`build_strategy`.  Results come
back as :class:`~repro.experiments.runners.StrategyRunResult` summaries,
which deliberately exclude the live trainer.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.baselines.fixed_precision import FixedPrecisionStrategy
from repro.baselines.methods import TABLE1_METHODS, build_table1_strategy
from repro.baselines.schedules import LinearRampStrategy, StaticMixedPrecisionStrategy
from repro.core.config import APTConfig
from repro.core.strategy import APTStrategy
from repro.experiments.runners import StrategyRunResult, run_strategy
from repro.experiments.scales import ExperimentScale
from repro.experiments.workload import build_workload
from repro.train.serialization import to_jsonable
from repro.train.strategy import FP32Strategy, PrecisionStrategy

PathLike = Union[str, Path]

#: Bump when the stored payload layout changes; mismatched entries are
#: treated as cache misses rather than parse errors.
STORE_FORMAT_VERSION = 1


# --------------------------------------------------------------------------- #
# Run specifications
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RunSpec:
    """One fully-determined training job.

    ``strategy_kind`` selects a constructor in :func:`build_strategy`;
    ``strategy_params`` are its keyword arguments (plain JSON-able values).
    ``label`` is a display / result key only — it does not participate in
    the content hash, so relabelling a sweep does not invalidate its cache.
    """

    scale: ExperimentScale
    strategy_kind: str
    strategy_params: Mapping[str, object] = field(default_factory=dict)
    seed: int = 0
    epochs: Optional[int] = None
    optimizer: str = "sgd"
    learning_rate: Optional[float] = None
    label: str = ""

    def __post_init__(self) -> None:
        # Normalise so that semantically identical specs hash identically:
        # a None epoch / learning rate means "the scale's default".
        object.__setattr__(self, "strategy_params", dict(self.strategy_params))
        if self.epochs is None:
            object.__setattr__(self, "epochs", self.scale.epochs)
        if self.learning_rate is None:
            object.__setattr__(self, "learning_rate", self.scale.learning_rate)
        if not self.label:
            object.__setattr__(self, "label", self.strategy_kind)

    def to_payload(self) -> Dict[str, object]:
        """The hash-relevant content as plain JSON-able data."""
        import dataclasses

        return {
            "scale": to_jsonable(dataclasses.asdict(self.scale)),
            "strategy_kind": self.strategy_kind,
            "strategy_params": to_jsonable(dict(self.strategy_params)),
            "seed": self.seed,
            "epochs": self.epochs,
            "optimizer": self.optimizer,
            "learning_rate": self.learning_rate,
        }

    def content_hash(self) -> str:
        """Stable hex digest of everything that determines the run's outcome."""
        canonical = json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:24]

    def describe(self) -> str:
        return f"{self.label} [{self.strategy_kind}, seed={self.seed}, epochs={self.epochs}]"


def build_strategy(kind: str, params: Mapping[str, object]) -> PrecisionStrategy:
    """Construct the strategy a spec names, inside whichever process runs it."""
    params = dict(params)
    if kind == "fp32":
        return FP32Strategy()
    if kind == "fixed":
        return FixedPrecisionStrategy(
            int(params.get("bits", 8)),
            master_copy=bool(params.get("master_copy", False)),
        )
    if kind == "apt":
        # float() also accepts the "Infinity" string the JSON canonicaliser
        # writes for an infinite T_max.
        config = APTConfig(
            initial_bits=int(params.get("initial_bits", 6)),
            t_min=float(params.get("t_min", 6.0)),
            t_max=float(params.get("t_max", math.inf)),
            metric_interval=int(params.get("metric_interval", 10)),
            bits_step=int(params.get("bits_step", 1)),
        )
        return APTStrategy(config)
    if kind == "static_first_last":
        return StaticMixedPrecisionStrategy.first_last_heavy(
            edge_bits=int(params.get("edge_bits", 12)),
            interior_bits=int(params.get("interior_bits", 6)),
        )
    if kind == "linear_ramp":
        return LinearRampStrategy(
            start_bits=int(params.get("start_bits", 6)),
            end_bits=int(params.get("end_bits", 16)),
            ramp_epochs=int(params.get("ramp_epochs", 10)),
        )
    if kind in TABLE1_METHODS:
        return build_table1_strategy(kind)
    raise ValueError(
        f"unknown strategy kind {kind!r}; known: fp32, fixed, apt, "
        f"static_first_last, linear_ramp, {', '.join(sorted(TABLE1_METHODS))}"
    )


def execute_spec(spec: RunSpec) -> StrategyRunResult:
    """Run one spec from scratch and return its picklable summary.

    Module-level so it can be dispatched to ``multiprocessing`` workers.
    The workload is rebuilt here (not shared) so every run sees exactly the
    data stream its spec determines, independent of what ran before it in
    the same process — the property that makes parallel == serial.
    """
    workload = build_workload(spec.scale)
    strategy = build_strategy(spec.strategy_kind, spec.strategy_params)
    return run_strategy(
        workload,
        strategy,
        epochs=spec.epochs,
        seed=spec.seed,
        optimizer_name=spec.optimizer,
        learning_rate=spec.learning_rate,
    )


def _execute_indexed(item: Tuple[int, RunSpec]) -> Tuple[int, StrategyRunResult, float]:
    index, spec = item
    started = time.perf_counter()
    result = execute_spec(spec)
    return index, result, time.perf_counter() - started


def _reserve_blas_threads(processes: int) -> None:
    """Worker-process initializer: sibling workers train concurrently on
    the same CPUs, so each reserves its share of the BLAS thread budget
    (held until the worker exits)."""
    from repro.runtime import blas

    blas.reserve(processes)


def _worker_pool(processes: int):
    """The ``multiprocessing`` pool :meth:`Orchestrator.run` fans out over."""
    import multiprocessing

    return multiprocessing.Pool(
        processes=processes, initializer=_reserve_blas_threads, initargs=(processes,)
    )


# --------------------------------------------------------------------------- #
# Result store
# --------------------------------------------------------------------------- #
class ResultStore:
    """Exact-hash JSON cache of completed run summaries.

    One file per spec hash under ``root``; writes are atomic (temp file +
    rename) so a killed run never leaves a half-written entry, and a resumed
    sweep simply skips the hashes that made it to disk.
    """

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)

    def path_for(self, spec_or_hash: Union[RunSpec, str]) -> Path:
        spec_hash = (
            spec_or_hash.content_hash() if isinstance(spec_or_hash, RunSpec) else spec_or_hash
        )
        return self.root / f"{spec_hash}.json"

    def __contains__(self, spec: RunSpec) -> bool:
        return self.get(spec) is not None

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))

    def get(self, spec: RunSpec) -> Optional[StrategyRunResult]:
        """The stored summary for this exact spec, or None (a miss)."""
        path = self.path_for(spec)
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if payload.get("format_version") != STORE_FORMAT_VERSION:
            return None
        try:
            return StrategyRunResult.from_dict(payload["result"])
        except (KeyError, TypeError, ValueError):
            return None

    def put(self, spec: RunSpec, result: StrategyRunResult) -> Path:
        """Persist a summary under the spec's hash; returns the entry path."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(spec)
        payload = {
            "format_version": STORE_FORMAT_VERSION,
            "spec_hash": spec.content_hash(),
            "spec": spec.to_payload(),
            "label": spec.label,
            "result": to_jsonable(result.to_dict()),
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
        handle, tmp_name = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
        try:
            with os.fdopen(handle, "w") as tmp:
                tmp.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise
        return path

    def list_hashes(self) -> List[str]:
        if not self.root.exists():
            return []
        return sorted(path.stem for path in self.root.glob("*.json"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.root.glob("*.json"):
            path.unlink()
            removed += 1
        return removed


# --------------------------------------------------------------------------- #
# Orchestrator
# --------------------------------------------------------------------------- #
@dataclass
class RunEvent:
    """Progress notification for one spec in a batch."""

    spec: RunSpec
    #: ``"cached"`` (served from the store) or ``"completed"`` (trained now).
    status: str
    #: Position of the completion within the batch (1-based), for display.
    sequence: int
    total: int
    duration_s: float = 0.0


@dataclass
class BatchReport:
    """What one :meth:`Orchestrator.run` call actually did."""

    total: int = 0
    cache_hits: int = 0
    executed: int = 0
    duration_s: float = 0.0


ProgressCallback = Callable[[RunEvent], None]


class Orchestrator:
    """Executes batches of :class:`RunSpec` with caching and worker fan-out.

    Parameters
    ----------
    store:
        Optional :class:`ResultStore`.  Without one every spec is executed.
    workers:
        ``<= 1`` runs specs serially in-process; ``N > 1`` fans pending specs
        out over a ``multiprocessing`` pool of N processes.  Cache lookups
        and stores always happen in the parent, so the store needs no locks.
    use_cache:
        When False the store is neither consulted nor written (``--no-cache``).
    progress:
        Optional callback fired once per spec as it resolves.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        workers: int = 1,
        use_cache: bool = True,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.store = store
        self.workers = workers
        self.use_cache = use_cache
        self.progress = progress
        self.last_report = BatchReport()

    # -- internals --------------------------------------------------------- #
    def _emit(self, event: RunEvent) -> None:
        if self.progress is not None:
            self.progress(event)

    def _finish(self, spec: RunSpec, result: StrategyRunResult) -> StrategyRunResult:
        if self.store is not None and self.use_cache:
            self.store.put(spec, result)
        return result

    # -- public API -------------------------------------------------------- #
    def run(self, specs: Sequence[RunSpec]) -> List[StrategyRunResult]:
        """Resolve every spec (cache or training) and return results in order."""
        started = time.perf_counter()
        report = BatchReport(total=len(specs))
        results: List[Optional[StrategyRunResult]] = [None] * len(specs)
        pending: List[Tuple[int, RunSpec]] = []
        #: content hash -> index of the first pending spec with that hash;
        #: later twins share its result instead of training again.
        first_with_hash: Dict[str, int] = {}
        duplicates: List[Tuple[int, int]] = []  # (index, index of its twin)
        sequence = 0

        for index, spec in enumerate(specs):
            cached = (
                self.store.get(spec) if (self.store is not None and self.use_cache) else None
            )
            if cached is not None:
                sequence += 1
                report.cache_hits += 1
                results[index] = cached
                self._emit(RunEvent(spec, "cached", sequence, len(specs)))
                continue
            spec_hash = spec.content_hash()
            if spec_hash in first_with_hash:
                duplicates.append((index, first_with_hash[spec_hash]))
            else:
                first_with_hash[spec_hash] = index
                pending.append((index, spec))

        if pending and self.workers > 1 and len(pending) > 1:
            with _worker_pool(min(self.workers, len(pending))) as pool:
                for index, result, duration_s in pool.imap_unordered(_execute_indexed, pending):
                    sequence += 1
                    report.executed += 1
                    spec = specs[index]
                    results[index] = self._finish(spec, result)
                    self._emit(
                        RunEvent(spec, "completed", sequence, len(specs), duration_s=duration_s)
                    )
        else:
            for index, spec in pending:
                spec_started = time.perf_counter()
                result = execute_spec(spec)
                sequence += 1
                report.executed += 1
                results[index] = self._finish(spec, result)
                self._emit(
                    RunEvent(
                        spec,
                        "completed",
                        sequence,
                        len(specs),
                        duration_s=time.perf_counter() - spec_started,
                    )
                )

        for index, twin_index in duplicates:
            sequence += 1
            report.cache_hits += 1
            results[index] = results[twin_index]
            self._emit(RunEvent(specs[index], "cached", sequence, len(specs)))

        report.duration_s = time.perf_counter() - started
        self.last_report = report
        return results  # type: ignore[return-value]


def execute_specs(
    specs: Sequence[RunSpec],
    workers: int = 1,
    cache_dir: Optional[PathLike] = None,
    use_cache: bool = True,
    progress: Optional[ProgressCallback] = None,
) -> List[StrategyRunResult]:
    """One-shot convenience wrapper every experiment module calls.

    ``cache_dir=None`` disables the store entirely; otherwise results land
    under that directory keyed by spec hash.
    """
    store = ResultStore(cache_dir) if cache_dir is not None else None
    orchestrator = Orchestrator(
        store=store, workers=workers, use_cache=use_cache, progress=progress
    )
    return orchestrator.run(specs)
