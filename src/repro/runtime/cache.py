"""Content-addressed, bounded cache of compiled quantised execution plans.

Compiling a plan costs a traced forward pass plus lowering, and -- because
tracing runs through the shared model object and thread-local instrumentation
state -- it is serialised process-wide by the compile lock in
:mod:`repro.runtime.plan`.  Serving stacks that hold many (model, bitwidth)
variants therefore want to compile each variant exactly once and share the
resulting (immutable, thread-safe) plan everywhere.

:class:`PlanCache` provides that: entries are keyed by the **content hash**
of the :class:`~repro.quant.deploy.QuantizedModelExport`
(:meth:`~repro.quant.deploy.QuantizedModelExport.content_hash`) together
with an :func:`architecture fingerprint <architecture_fingerprint>` of the
model (module tree + layer geometry -- the export hash covers values, not
topology), the per-sample input shape and the **resolved optimisation-pass
pipeline** (two compilations of one export under different pass
configurations are different plans and cache separately).  Two exports
holding identical codes for the same architecture share one plan no matter
how they were produced (built in process, reloaded from ``.npz``,
deduplicated across model repositories).  Under concurrent lookups of the
same key, exactly one thread compiles while the others wait for its result.

The cache is optionally **bounded**: pass ``capacity`` to evict the
least-recently-used plan once the bound is exceeded, so long-running
adaptive serving (which keeps minting new exports) cannot grow the cache
without limit.  Eviction only drops the cache's reference -- plans are
immutable, so holders of an evicted plan keep executing it unaffected; a
later lookup of the same key simply recompiles.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Optional, Sequence, Tuple

from repro.nn.module import Module
from repro.obs.registry import MetricRegistry
from repro.quant.deploy import QuantizedModelExport
from repro.runtime.passes import resolve_passes
from repro.runtime.plan import ExecutionPlan, compile_quantized_plan
from repro.runtime.tuning import tuning_fingerprint

PlanKey = Tuple[str, str, Tuple[int, ...], Tuple[str, ...], str, str]

#: Geometry attributes that change how a module lowers without changing its
#: parameter values (two convs with identical weights but different strides
#: compile to different plans).
_GEOMETRY_ATTRS = ("kernel_size", "stride", "padding", "in_channels", "out_channels",
                   "in_features", "out_features")


def architecture_fingerprint(model: Module) -> str:
    """Hash of the model's *structure*: module tree, types, layer geometry.

    The export content hash covers parameter values; this covers topology,
    so two architectures that happen to share parameter names and values
    (e.g. the same conv stack at different strides) never share a plan.
    """
    digest = hashlib.sha256()
    for name, module in model.named_modules():
        digest.update(f"{name}:{type(module).__name__}".encode("utf-8"))
        for attr in _GEOMETRY_ATTRS:
            value = getattr(module, attr, None)
            if value is not None:
                digest.update(f":{attr}={value}".encode("utf-8"))
        digest.update(b";")
    return digest.hexdigest()


class PlanCache:
    """Compile-once LRU cache of quantised plans, safe for concurrent lookups.

    The cache guarantees *exactly one* compilation per distinct key even
    when many threads request it simultaneously: the first requester marks
    the key in flight and compiles (under the global compile lock); the
    rest block on an event and pick up the shared plan.  A failed
    compilation clears the in-flight marker so a later request can retry.

    With a ``capacity``, inserting beyond the bound evicts the
    least-recently-used entry (every hit refreshes recency).  In-flight
    compilations are never evicted, and plans already handed out stay
    valid -- they are immutable; eviction only forgets the reference.
    """

    def __init__(
        self, capacity: Optional[int] = None, *, metrics: Optional[MetricRegistry] = None
    ) -> None:
        """Args:
            capacity: Maximum cached plans; ``None`` (default) is unbounded.
            metrics: Registry to mirror the hit / miss / eviction /
                invalidation counters into (also via :meth:`bind_metrics`).

        Raises:
            ValueError: ``capacity`` is not ``None`` and less than 1.
        """
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be at least 1 or None, got {capacity}")
        self._lock = threading.Lock()
        self._plans: "OrderedDict[PlanKey, ExecutionPlan]" = OrderedDict()
        self._inflight: dict = {}
        #: Keys invalidated while their compile was in flight: the landing
        #: plan is handed to its requester but NOT cached, so a stale entry
        #: cannot reappear after the invalidation.
        self._doomed: set = set()
        self.capacity = capacity
        self.hits = 0
        self.compiles = 0
        self.invalidations = 0
        self.evictions = 0
        self._metric_counters: Optional[dict] = None
        if metrics is not None:
            self.bind_metrics(metrics)

    def bind_metrics(self, metrics: MetricRegistry) -> None:
        """Mirror the cache's counters into a metrics registry.

        The plain-int attributes (``hits``, ``compiles``, ...) remain the
        source of truth; the registry counters ``plan_cache_hits_total``,
        ``plan_cache_misses_total`` (a miss is a compile),
        ``plan_cache_evictions_total`` and
        ``plan_cache_invalidations_total`` are synchronised to the current
        totals on bind and track every subsequent event.  Re-binding
        switches registries (last bind wins).
        """
        counters = {
            "hits": metrics.counter(
                "plan_cache_hits_total", "Plan-cache lookups served from cache."
            ),
            "compiles": metrics.counter(
                "plan_cache_misses_total", "Plan-cache misses (fresh compilations)."
            ),
            "evictions": metrics.counter(
                "plan_cache_evictions_total", "Plans evicted by the LRU capacity bound."
            ),
            "invalidations": metrics.counter(
                "plan_cache_invalidations_total", "Plans dropped by explicit invalidation."
            ),
        }
        with self._lock:
            for attribute, counter in counters.items():
                counter._default()._force(getattr(self, attribute))
            self._metric_counters = counters

    def _count(self, event: str) -> None:
        """Bump one mirrored registry counter (caller holds the lock and
        has already bumped the plain-int attribute)."""
        if self._metric_counters is not None:
            self._metric_counters[event].inc()

    @staticmethod
    def key_for(
        model: Module,
        export: QuantizedModelExport,
        input_shape: Tuple[int, ...],
        *,
        passes: Optional[Sequence[str]] = None,
        optimize: bool = True,
        tuning=None,
    ) -> PlanKey:
        """The cache key of one (architecture, export, shape, passes, tuning)
        combo.  The tuning component is the *setup's* fingerprint
        (``"heuristic"``, or the tuning cache's path-derived identity):
        heuristic and autotuned compilations of one export select different
        kernel variants and must cache separately.  The codegen component
        does the same for the native backend: a plan compiled with native
        kernels admissible is not the plan compiled without them.
        """
        from repro.runtime import codegen

        return (
            architecture_fingerprint(model),
            export.content_hash(),
            tuple(input_shape),
            resolve_passes(optimize, passes),
            codegen.fingerprint(),
            tuning_fingerprint(tuning),
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def get(self, key: PlanKey) -> Optional[ExecutionPlan]:
        """The cached plan for ``key``, or ``None`` (does not wait on in-flight)."""
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
            return plan

    def get_or_compile(
        self,
        model: Module,
        export: QuantizedModelExport,
        input_shape: Tuple[int, ...],
        *,
        passes: Optional[Sequence[str]] = None,
        optimize: bool = True,
        validate: bool = True,
        tuning=None,
    ) -> ExecutionPlan:
        """The plan for ``export`` at ``input_shape``, compiling at most once.

        ``model`` supplies the architecture -- it is part of the cache key
        (structure fingerprint), compiles the plan on a miss, and is
        restored to its own state after tracing (see
        :func:`~repro.runtime.plan.compile_quantized_plan`).  The resolved
        ``passes`` / ``optimize`` configuration and the
        tuning setup's fingerprint are part of the key.
        """
        key = self.key_for(
            model, export, input_shape, passes=passes, optimize=optimize,
            tuning=tuning,
        )
        while True:
            with self._lock:
                plan = self._plans.get(key)
                if plan is not None:
                    self._plans.move_to_end(key)
                    self.hits += 1
                    self._count("hits")
                    return plan
                event = self._inflight.get(key)
                if event is None:
                    event = threading.Event()
                    self._inflight[key] = event
                    self.compiles += 1
                    self._count("compiles")
                    break
            # Another thread is compiling this key; wait and re-check.
            event.wait()
        try:
            plan = compile_quantized_plan(
                model,
                export,
                input_shape,
                passes=passes,
                optimize=optimize,
                validate=validate,
                tuning=tuning,
            )
            with self._lock:
                if key in self._doomed:
                    # Invalidated while compiling (the export was swapped
                    # out): hand the plan to this requester but do not
                    # cache the now-stale entry.
                    self._doomed.discard(key)
                else:
                    self._plans[key] = plan
                    self._plans.move_to_end(key)
                    self._evict_over_capacity()
            return plan
        finally:
            with self._lock:
                self._inflight.pop(key, None)
                self._doomed.discard(key)
            event.set()

    def _evict_over_capacity(self) -> None:
        """Drop LRU entries beyond ``capacity`` (caller holds the lock)."""
        if self.capacity is None:
            return
        while len(self._plans) > self.capacity:
            self._plans.popitem(last=False)
            self.evictions += 1
            self._count("evictions")

    def invalidate(self, key: PlanKey) -> bool:
        """Drop one cached plan (e.g. after its export was hot-swapped out).

        Returns ``True`` when an entry was actually removed or a compile of
        the key was in flight (its result will be handed to the requester
        but not cached), ``False`` when the key was absent.  Plans already
        handed out keep working -- they are immutable -- so in-flight
        batches drain on the old plan while new lookups miss and recompile.

        The guarantee is ordering-based: a compile that *began before* the
        invalidation can never re-insert its result afterwards.  A request
        for the same key arriving *after* the invalidation (including a
        waiter of the doomed compile retrying) is a fresh request and is
        compiled and cached normally -- callers replacing an export should
        simply stop requesting the old key, as the repository does.
        """
        with self._lock:
            removed = self._plans.pop(key, None) is not None
            if not removed and key in self._inflight:
                # A compile of this key is racing the invalidation; doom
                # its result so the stale plan cannot land after we return.
                self._doomed.add(key)
                removed = True
            if removed:
                self.invalidations += 1
                self._count("invalidations")
            return removed

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
