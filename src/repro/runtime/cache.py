"""Content-addressed cache of compiled execution plans.

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
topology) and the per-sample input shape.  Two exports holding identical
codes for the same architecture share one plan no matter how they were
produced (built in process, reloaded from ``.npz``, deduplicated across
model repositories).  Both halves are computed once per object -- the
export memoises its hash, the cache remembers each model object's
fingerprint -- so a hit is a dict lookup; a model's architecture must not
change while the cache serves it.  Under concurrent lookups of the same
key, exactly one thread compiles while the others wait for its result.
Every plan compiles with the default pass pipeline; callers wanting other
passes compile with :func:`~repro.runtime.plan.compile_quantized_plan`
directly.

Entries live until :meth:`PlanCache.invalidate` drops them (the serving
repository does so when an export stops being served).  Dropping only
forgets the cache's reference: plans are immutable, so holders of a dropped
plan keep executing it unaffected.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from typing import Dict, Optional, Tuple

from repro.nn.module import Module
from repro.obs.registry import MetricRegistry
from repro.quant.deploy import QuantizedModelExport
from repro.runtime.plan import ExecutionPlan, compile_quantized_plan

PlanKey = Tuple[str, str, Tuple[int, ...]]

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
    """Compile-once cache of plans, safe for concurrent lookups.

    The cache guarantees *exactly one* compilation per distinct key even
    when many threads request it simultaneously: the first requester marks
    the key in flight and compiles (under the global compile lock); the
    rest block on an event and pick up the shared plan.  A failed
    compilation clears the in-flight marker so a later request can retry.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._plans: Dict[PlanKey, ExecutionPlan] = {}
        self._inflight: Dict[PlanKey, threading.Event] = {}
        #: Keys invalidated while their compile was in flight: the landing
        #: plan is handed to its requester but NOT cached, so a stale entry
        #: cannot reappear after the invalidation.
        self._doomed: set = set()
        #: Each model object's :func:`architecture_fingerprint`, walked once.
        self._fingerprints: "weakref.WeakKeyDictionary[Module, str]" = (
            weakref.WeakKeyDictionary()
        )
        self.hits = 0
        self.compiles = 0
        self.invalidations = 0
        self._metric_counters: Optional[dict] = None

    def bind_metrics(self, metrics: MetricRegistry) -> None:
        """Mirror the cache's counters into a metrics registry.

        The plain-int attributes (``hits``, ``compiles``, ``invalidations``)
        remain the source of truth; the registry counters
        ``plan_cache_hits_total``, ``plan_cache_misses_total`` (a miss is a
        compile) and ``plan_cache_invalidations_total`` are synchronised to
        the current totals on bind and track every subsequent event.
        Re-binding switches registries (last bind wins).
        """
        counters = {
            "hits": metrics.counter(
                "plan_cache_hits_total", "Plan-cache lookups served from cache."
            ),
            "compiles": metrics.counter(
                "plan_cache_misses_total", "Plan-cache misses (fresh compilations)."
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

    def key_for(
        self, model: Module, export: QuantizedModelExport, input_shape: Tuple[int, ...]
    ) -> PlanKey:
        """The cache key of one (architecture, export, shape) combo."""
        with self._lock:
            fingerprint = self._fingerprints.get(model)
        if fingerprint is None:
            fingerprint = architecture_fingerprint(model)
            with self._lock:
                self._fingerprints[model] = fingerprint
        return (fingerprint, export.content_hash(), tuple(input_shape))

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def get(self, key: PlanKey) -> Optional[ExecutionPlan]:
        """The cached plan for ``key``, or ``None`` (does not wait on in-flight)."""
        with self._lock:
            return self._plans.get(key)

    def get_or_compile(
        self, model: Module, export: QuantizedModelExport, input_shape: Tuple[int, ...]
    ) -> ExecutionPlan:
        """The plan for ``export`` at ``input_shape``, compiling at most once.

        ``model`` supplies the architecture -- it is part of the cache key
        (structure fingerprint), compiles the plan on a miss, and is
        restored to its own state after tracing (see
        :func:`~repro.runtime.plan.compile_quantized_plan`).
        """
        key = self.key_for(model, export, input_shape)
        while True:
            with self._lock:
                plan = self._plans.get(key)
                if plan is not None:
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
            plan = compile_quantized_plan(model, export, input_shape)
            with self._lock:
                if key in self._doomed:
                    # Invalidated while compiling (the export was swapped
                    # out): hand the plan to this requester but do not
                    # cache the now-stale entry.
                    self._doomed.discard(key)
                else:
                    self._plans[key] = plan
            return plan
        finally:
            with self._lock:
                self._inflight.pop(key, None)
                self._doomed.discard(key)
            event.set()

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
