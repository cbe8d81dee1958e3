"""Micro-benchmark autotuner with a persistent on-disk tuning cache.

The :func:`~repro.runtime.passes.select_kernels` pass must answer one
question per conv / linear / pool node: *which registered variant is
fastest here?*  Three answer modes, in decreasing cost:

* **tuned** -- micro-benchmark every applicable variant on the node's
  traced probe activation (real shapes, real dtypes, the real baked
  weight) under a per-compile time budget, and keep the winner;
* **cached** -- a previous tuning run already answered this
  :meth:`~repro.runtime.variants.KernelDesc.signature` (possibly in
  another process, another model, another day): reuse it with **zero**
  measurements;
* **heuristic** -- no tuner is active, or the budget ran dry: take the
  ranked :func:`~repro.runtime.variants.heuristic_choice`, which costs a
  predicate sweep and nothing else.

:class:`TuningCache` is the persistence layer: a small versioned JSON file
keyed by kernel signature (op, per-sample shape, kernel geometry, weight
dtype, bitwidth) -- deliberately *content-independent*, unlike the
:class:`~repro.runtime.cache.PlanCache`, because a tuning winner depends
only on the kernel call's shape, not the weight values, so winners
transfer across exports, models and hot-swaps.  Each record remembers the
candidate set it was measured over; if the registered variants for a
signature change (a new variant lands in a later release), the stale
record is discarded and the node is **re-tuned** rather than silently
pinned to an old winner.  Hit / miss / retune counts mirror into a
:class:`~repro.obs.registry.MetricRegistry` via :meth:`~TuningCache.bind_metrics`,
exactly like the plan cache's instrumentation.

The tuner itself is deliberately dumb and honest: ``min`` over a few
timed repeats per candidate, wall-clock budgeted, deterministic input (the
traced probe activations, tiled to a serving-representative batch by the
runner factories in :mod:`repro.runtime.passes`).  Every timed kernel
invocation increments
``Autotuner.measurements`` so tests and the CI smoke job can assert that a
warm cache performs *zero* re-tuning measurements.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

from repro.obs.registry import MetricRegistry
from repro.runtime.variants import KernelDesc, heuristic_choice

__all__ = [
    "Autotuner",
    "TuningCache",
    "TuningConfig",
    "TuningRecord",
]

#: On-disk schema version; bumping it invalidates every persisted record.
TUNING_CACHE_VERSION = 1


@dataclass(frozen=True)
class TuningRecord:
    """One persisted tuning decision for a kernel signature."""

    variant: str
    best_us: float
    candidates: Tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "variant": self.variant,
            "best_us": round(self.best_us, 3),
            "candidates": list(self.candidates),
        }

    @staticmethod
    def from_dict(payload: dict) -> "TuningRecord":
        return TuningRecord(
            variant=str(payload["variant"]),
            best_us=float(payload["best_us"]),
            candidates=tuple(payload["candidates"]),
        )


class TuningCache:
    """Persistent signature -> winner store shared across processes.

    Lookups are classified exactly one way each:

    * **hit** -- a record exists and its candidate set matches;
    * **miss** -- no record for the signature;
    * **retune** -- a record exists but was measured over a different
      candidate set (the variant registry changed), so it is discarded.

    The JSON file is written atomically (temp file + rename) by
    :meth:`save`; concurrent tuners in one process serialise on an
    internal lock.  A missing, corrupt or version-mismatched file simply
    starts the cache empty -- tuning is an optimisation, never a
    correctness dependency.
    """

    def __init__(
        self, path: str, *, metrics: Optional[MetricRegistry] = None
    ) -> None:
        """Args:
            path: JSON file backing the cache (created on first save).
            metrics: Registry to mirror hit / miss / retune counters into
                (also available later via :meth:`bind_metrics`).
        """
        self.path = str(path)
        self._lock = threading.Lock()
        self._entries: Dict[str, TuningRecord] = {}
        self._dirty = False
        self.hits = 0
        self.misses = 0
        self.retunes = 0
        self._metric_counters: Optional[dict] = None
        self._load()
        if metrics is not None:
            self.bind_metrics(metrics)

    # -- persistence ------------------------------------------------------ #
    def _read_disk(self) -> Dict[str, TuningRecord]:
        """Parse whatever currently backs ``path`` (empty on any damage)."""
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError, OSError):
            return {}
        if not isinstance(payload, dict) or payload.get("version") != TUNING_CACHE_VERSION:
            return {}
        entries = payload.get("entries", {})
        if not isinstance(entries, dict):
            return {}
        parsed: Dict[str, TuningRecord] = {}
        for signature, record in entries.items():
            try:
                parsed[signature] = TuningRecord.from_dict(record)
            except (KeyError, TypeError, ValueError):
                continue
        return parsed

    def _load(self) -> None:
        self._entries.update(self._read_disk())

    def save(self) -> bool:
        """Merge with the on-disk state, then atomically rename; ``False`` if clean.

        Concurrent savers over one path -- e.g. several shard worker
        processes each tuning a different subset of signatures -- must not
        lose each other's winners to a last-writer-wins rename.  Before
        writing, the file is re-read and any signature this instance does
        not hold is adopted (a *union*; this instance's own records win on
        conflicts, since they are at least as fresh as what it loaded).
        The tempfile is created *in the cache's own directory* (never the
        system temp dir, which may live on another filesystem where
        ``os.replace`` cannot rename atomically) with a per-call unique
        name, so concurrent savers cannot trample each other's
        half-written tempfile; every renamed file is complete.
        """
        with self._lock:
            if not self._dirty:
                return False
            for signature, record in self._read_disk().items():
                self._entries.setdefault(signature, record)
            payload = {
                "version": TUNING_CACHE_VERSION,
                "entries": {
                    signature: record.as_dict()
                    for signature, record in sorted(self._entries.items())
                },
            }
            self._dirty = False
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        handle_fd, tmp_path = tempfile.mkstemp(
            prefix=os.path.basename(self.path) + ".", suffix=".tmp", dir=directory
        )
        try:
            with os.fdopen(handle_fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
            os.replace(tmp_path, self.path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except FileNotFoundError:
                pass
            raise
        return True

    # -- metrics ---------------------------------------------------------- #
    def bind_metrics(self, metrics: MetricRegistry) -> None:
        """Mirror hit / miss / retune counters into a metrics registry.

        The plain-int attributes stay the source of truth; the registry
        counters ``tuning_cache_hits_total``, ``tuning_cache_misses_total``
        and ``tuning_cache_retunes_total`` are synchronised on bind and
        track every later event (same contract as
        :meth:`repro.runtime.cache.PlanCache.bind_metrics`).
        """
        counters = {
            "hits": metrics.counter(
                "tuning_cache_hits_total",
                "Tuning-cache lookups answered by a persisted winner.",
            ),
            "misses": metrics.counter(
                "tuning_cache_misses_total",
                "Tuning-cache lookups with no persisted record.",
            ),
            "retunes": metrics.counter(
                "tuning_cache_retunes_total",
                "Persisted winners discarded because the candidate set changed.",
            ),
        }
        with self._lock:
            for attribute, counter in counters.items():
                counter._default()._force(getattr(self, attribute))
            self._metric_counters = counters

    def _count(self, event: str) -> None:
        if self._metric_counters is not None:
            self._metric_counters[event].inc()

    # -- lookups ---------------------------------------------------------- #
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(
        self, signature: str, candidates: Sequence[str]
    ) -> Optional[TuningRecord]:
        """The persisted winner for ``signature``, if still valid.

        ``candidates`` is the currently-applicable variant set; a record
        measured over a different set is dropped (counted as a retune).
        """
        wanted = tuple(sorted(candidates))
        with self._lock:
            record = self._entries.get(signature)
            if record is None:
                self.misses += 1
                self._count("misses")
                return None
            if tuple(sorted(record.candidates)) != wanted:
                del self._entries[signature]
                self._dirty = True
                self.retunes += 1
                self._count("retunes")
                return None
            self.hits += 1
            self._count("hits")
            return record

    def put(self, signature: str, record: TuningRecord) -> None:
        """Store (or replace) the winner for ``signature``."""
        with self._lock:
            self._entries[signature] = record
            self._dirty = True

    def entries(self) -> Dict[str, TuningRecord]:
        """Snapshot of every persisted record (introspection / CLI)."""
        with self._lock:
            return dict(self._entries)

    def fingerprint(self) -> str:
        """Identity of this cache for plan-cache keying (path-derived)."""
        digest = hashlib.sha256(os.path.abspath(self.path).encode("utf-8"))
        return digest.hexdigest()[:12]


@dataclass
class TuningConfig:
    """How the ``select_kernels`` pass should choose variants.

    Attributes
    ----------
    cache:
        Persistent winner store; ``None`` tunes from scratch every
        compile (measurements are not persisted).
    budget_s:
        Total wall-clock measurement budget per compile.  When it runs
        dry, remaining nodes fall back to the heuristic -- selection
        never blocks a compile indefinitely.
    repeats:
        Timed invocations per candidate (the minimum is kept).
    warmup:
        Untimed invocations per candidate before measuring.
    """

    cache: Optional[TuningCache] = None
    budget_s: float = 1.0
    repeats: int = 3
    warmup: int = 1

    def fingerprint(self) -> str:
        """Plan-cache key component identifying this tuning setup."""
        if self.cache is None:
            return "tuned:ephemeral"
        return f"tuned:{self.cache.fingerprint()}"


class Autotuner:
    """Per-compile variant selector driving a :class:`TuningConfig`.

    One instance accumulates the budget spent and the number of timed
    kernel invocations (``measurements``) across every node of one or
    more compilations; a warm cache keeps ``measurements`` at zero.
    """

    def __init__(self, config: TuningConfig) -> None:
        self.config = config
        self.measurements = 0
        self.spent_s = 0.0
        #: Selection provenance counts: tuned / cached / heuristic.
        self.outcomes: Dict[str, int] = {"tuned": 0, "cached": 0, "heuristic": 0}
        #: Every race this tuner ran: signature -> {candidate: best seconds}
        #: (``tools/variant_census.py`` reads pick margins from here).
        self.races: Dict[str, Dict[str, float]] = {}

    @property
    def budget_left(self) -> float:
        return self.config.budget_s - self.spent_s

    def select(
        self,
        desc: KernelDesc,
        candidates: Sequence[str],
        make_runner: Callable[[str], Callable[[], object]],
    ) -> Tuple[str, str]:
        """Pick a variant for ``desc``; returns ``(variant, provenance)``.

        ``make_runner(name)`` must return a zero-argument callable that
        executes the named variant on representative data (the pass hands
        in the traced probe activation and the real baked weight).
        """
        names = list(candidates)
        if len(names) == 1:
            self.outcomes["heuristic"] += 1
            return names[0], "heuristic"
        signature = desc.signature()
        if self.config.cache is not None:
            record = self.config.cache.get(signature, names)
            if record is not None and record.variant in names:
                self.outcomes["cached"] += 1
                return record.variant, "cached"
        if self.budget_left <= 0.0:
            self.outcomes["heuristic"] += 1
            return heuristic_choice(desc), "heuristic"
        winner, timings = self._measure(names, make_runner, heuristic_choice(desc))
        self.races[signature] = timings
        if self.config.cache is not None:
            self.config.cache.put(
                signature,
                TuningRecord(
                    variant=winner,
                    best_us=timings[winner] * 1e6,
                    candidates=tuple(sorted(names)),
                ),
            )
        self.outcomes["tuned"] += 1
        return winner, "tuned"

    #: Relative speedup a challenger must show over the heuristically
    #: ranked incumbent to displace it.  Races are a handful of timed
    #: repeats, so near-ties are noise: without a margin, a variant that
    #: "wins" by a sliver at compile time can lose at serving time, and
    #: the selection flips from run to run.  Within the margin the
    #: incumbent is kept -- stable plans, and a measurably-better-only
    #: bar for low-ranked candidates like the native codegen kernels.
    DISPLACE_MARGIN = 0.05

    def _measure(
        self,
        names: Sequence[str],
        make_runner: Callable[[str], Callable[[], object]],
        incumbent: Optional[str] = None,
    ) -> Tuple[str, Dict[str, float]]:
        """Race ``names``; returns the winner and every candidate's best time."""
        started = time.perf_counter()
        timings: Dict[str, float] = {}
        for name in names:
            runner = make_runner(name)
            for _ in range(self.config.warmup):
                runner()
            candidate_best = float("inf")
            for _ in range(max(1, self.config.repeats)):
                t0 = time.perf_counter()
                runner()
                candidate_best = min(candidate_best, time.perf_counter() - t0)
                self.measurements += 1
            timings[name] = candidate_best
        self.spent_s += time.perf_counter() - started
        best_name = min(timings, key=timings.get)
        if (
            incumbent in timings
            and best_name != incumbent
            and timings[best_name] >= timings[incumbent] * (1.0 - self.DISPLACE_MARGIN)
        ):
            best_name = incumbent
        return best_name, timings

    def describe(self) -> str:
        """One-line account: outcome counts, measurements, budget spent."""
        parts = [f"{count} {kind}" for kind, count in self.outcomes.items() if count]
        summary = ", ".join(parts) if parts else "nothing selected"
        return (
            f"{summary}; {self.measurements} measurements, "
            f"{self.spent_s * 1e3:.1f} ms of {self.config.budget_s * 1e3:.0f} ms budget"
        )


# --------------------------------------------------------------------------- #
# Compile-scoped tuning context
# --------------------------------------------------------------------------- #
#: The active tuner/export pair is compile-scoped state: the pass pipeline
#: has a fixed ``Graph -> detail`` signature, so :mod:`repro.runtime.plan`
#: parks the tuner (and the export whose integer codes the lowering will
#: bake) here around ``PassManager.run``.  Thread-local for safety, though
#: compilation is already serialised process-wide.
_SCOPE = threading.local()


@contextmanager
def tuning_scope(tuner: Optional[Autotuner], export=None) -> Iterator[None]:
    """Install ``tuner`` / ``export`` for passes running on this thread."""
    previous = getattr(_SCOPE, "state", None)
    _SCOPE.state = (tuner, export)
    try:
        yield
    finally:
        _SCOPE.state = previous


def active_tuning() -> Tuple[Optional[Autotuner], object]:
    """The (tuner, export) pair installed by the innermost scope."""
    return getattr(_SCOPE, "state", None) or (None, None)


def coerce_tuner(tuning) -> Optional[Autotuner]:
    """Normalise a ``tuning=`` argument into an :class:`Autotuner`.

    Accepts ``None`` (heuristic selection), a :class:`TuningConfig`
    (fresh tuner) or an existing :class:`Autotuner` (shared budget and
    measurement counts across several compiles).
    """
    if tuning is None:
        return None
    if isinstance(tuning, Autotuner):
        return tuning
    if isinstance(tuning, TuningConfig):
        return Autotuner(tuning)
    raise TypeError(
        f"tuning must be None, a TuningConfig or an Autotuner, got {type(tuning).__name__}"
    )


def tuning_fingerprint(tuning) -> str:
    """Plan-cache key component for a ``tuning=`` argument."""
    tuner = tuning if not isinstance(tuning, Autotuner) else tuning.config
    if tuner is None:
        return "heuristic"
    return tuner.fingerprint()
