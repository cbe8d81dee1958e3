"""Named models × bitwidth variants, compiled once and shared.

The :class:`ModelRepository` is the serving stack's model store.  Each
registered model owns:

* the architecture (a :class:`~repro.nn.module.Module`, used only for
  compilation) and its per-sample input shape;
* any number of **bitwidth variants**, each a
  :class:`~repro.quant.deploy.QuantizedModelExport`: quantised exports
  (added in process or loaded from ``.npz`` archives) plus, by default, the
  fp32 variant -- an all-float export of the module's weights, snapshotted
  when the model is added;
* a :class:`~repro.hardware.profile.ModelProfile` for the analytic cost
  models, so the router can price every variant without compiling it.

Plans live in one place, the repository's content-hash-keyed
:class:`~repro.runtime.cache.PlanCache`.  They compile lazily on first
request and exactly once per distinct export (so identical exports --
reloaded archives, duplicate registrations, same-weight replicas -- share
one plan), and a plan leaves the cache when its export stops being served.
The compiled :class:`~repro.runtime.plan.ExecutionPlan` objects are
immutable and safe to execute from any number of worker threads.

Variants are **versioned and hot-swappable**: :meth:`ModelRepository.swap`
atomically replaces a served variant's export with a newer one (e.g. the
output of an online APT fine-tuning job), compiling the incoming plan into
the cache *before* any lock is taken and bumping the model's **generation
counter** so executors re-resolve their memoised plans.  Batches already
dispatched keep draining on the old (immutable) plan; the old export's
entry is invalidated from the plan cache exactly once, and the previous
export is retained for :meth:`ModelRepository.rollback` (which compiles it
again).
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.hardware.profile import ModelProfile, profile_model
from repro.nn.module import Module
from repro.quant.deploy import QuantizedModelExport, export_quantized_model, load_export
from repro.runtime.cache import PlanCache
from repro.runtime.plan import ExecutionPlan, compile_lock

#: Variant key of the uncompressed float variant: an all-float export of the
#: module's own weights.
FLOAT_BITS = 32


#: Signature of a swap listener: ``(model_name, bits, generation)`` after a
#: variant was hot-swapped (or rolled back).  Called outside repository locks.
SwapListener = Callable[[str, int, int], None]


@dataclass(frozen=True)
class ModelVersion:
    """One entry in a model's variant history (audit trail of the lifecycle).

    Attributes
    ----------
    version:
        Monotonically increasing per-model counter; every ``add_export``,
        ``swap`` and ``rollback`` mints the next one.
    bits:
        Variant key the event applied to.
    content_hash:
        :meth:`~repro.quant.deploy.QuantizedModelExport.content_hash` of the
        export installed by this event.
    source:
        ``"add"``, ``"swap"`` or ``"rollback"``.
    generation:
        The model's generation counter after the event (``add`` does not
        bump it: adding a variant never invalidates a resolved plan).
    """

    version: int
    bits: int
    content_hash: str
    source: str = "add"
    generation: int = 0


@dataclass
class _ModelEntry:
    model: Module
    input_shape: Tuple[int, ...]
    profile: ModelProfile
    #: The export served under each variant key, FLOAT_BITS included.
    exports: Dict[int, QuantizedModelExport] = field(default_factory=dict)
    #: Bumped on every swap / rollback; executors compare it to re-resolve
    #: memoised plans without holding repository locks across batches.
    generation: int = 0
    #: Next ModelVersion.version to mint for this model.
    version_counter: int = 0
    #: Full audit trail: one ModelVersion per add/swap/rollback.
    versions: List[ModelVersion] = field(default_factory=list)
    #: Superseded exports per variant key, newest last (rollback stack).
    previous: Dict[int, List[QuantizedModelExport]] = field(default_factory=dict)


def _infer_variant_bits(export: QuantizedModelExport) -> int:
    """Default variant key: the widest stored bitwidth in the export.

    Uniform exports (the common case) key as their single bitwidth; a
    mixed-precision export keys conservatively as its widest layer.  Pass
    ``bits=`` explicitly to override.
    """
    widths = {tensor.bits for tensor in export.quantized.values()}
    if not widths:
        raise ValueError("export holds no quantised tensors; serve the float variant instead")
    return max(widths)


class ModelRepository:
    """Thread-safe store of named models and their compiled plan variants."""

    def __init__(self, *, history_depth: int = 4) -> None:
        """Args:
            history_depth: Superseded exports retained per variant for
                :meth:`rollback`.  Each retained export holds a full copy
                of the model's weights, so the long-running adaptation
                loop needs a bound; the oldest is dropped beyond it.
        """
        if history_depth < 1:
            raise ValueError(f"history_depth must be at least 1, got {history_depth}")
        self._lock = threading.RLock()
        self._entries: Dict[str, _ModelEntry] = {}
        self._swap_listeners: List[SwapListener] = []
        self.history_depth = history_depth
        #: The one store of compiled plans, every variant's included.
        self.plan_cache = PlanCache()

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def add_model(
        self,
        name: str,
        model: Module,
        input_shape: Tuple[int, ...],
        *,
        float_variant: bool = True,
    ) -> None:
        """Register a model architecture under ``name``.

        Args:
            name: Unique model name (the key clients submit against).
            model: The architecture; used for compilation and profiling.
                It becomes shared serving infrastructure -- do not train it
                in place afterwards (see :meth:`clone_model`).
            input_shape: Per-sample input shape (no batch dimension).
            float_variant: ``True`` (the default) registers the fp32
                variant: an all-float export of ``model``'s weights as they
                are now.  The snapshot is taken here, so later changes to
                the module do not reach the fp32 plan.  ``False`` serves
                only quantised exports.

        Raises:
            ValueError: a model of this name is already registered.
        """
        entry = _ModelEntry(
            model=model, input_shape=tuple(input_shape), profile=profile_model(model, input_shape)
        )
        if float_variant:
            # Under the compile lock, which a compile holds while an export
            # is loaded into the module it traces.
            with compile_lock():
                entry.exports[FLOAT_BITS] = export_quantized_model(model, {})
        with self._lock:
            if name in self._entries:
                raise ValueError(f"model {name!r} is already registered")
            self._entries[name] = entry

    def add_export(
        self,
        name: str,
        export: QuantizedModelExport,
        *,
        bits: Optional[int] = None,
    ) -> int:
        """Attach a quantised variant to model ``name``.

        Args:
            name: Registered model to attach the variant to.
            export: The quantised export to serve.
            bits: Variant key; defaults to the export's widest stored
                bitwidth (see :func:`_infer_variant_bits`).

        Returns:
            The variant key the export was stored under.

        Raises:
            KeyError: ``name`` is not registered.
            ValueError: the model already has a variant under this key (use
                :meth:`swap` to replace a served variant).
        """
        key = int(bits) if bits is not None else _infer_variant_bits(export)
        with self._lock:
            entry = self._entry(name)
            if key == FLOAT_BITS or key in entry.exports:
                raise ValueError(f"model {name!r} already has a {key}-bit variant")
            entry.exports[key] = export
            self._record_version(entry, key, export, source="add")
        return key

    def _record_version(
        self, entry: _ModelEntry, bits: int, export: QuantizedModelExport, source: str
    ) -> ModelVersion:
        """Mint the next ModelVersion for ``entry`` (caller holds the lock)."""
        entry.version_counter += 1
        version = ModelVersion(
            version=entry.version_counter,
            bits=bits,
            content_hash=export.content_hash(),
            source=source,
            generation=entry.generation,
        )
        entry.versions.append(version)
        return version

    def load_export_file(
        self,
        name: str,
        path: Union[str, Path],
        *,
        bits: Optional[int] = None,
    ) -> int:
        """Attach a variant from a ``.npz`` archive written by ``save_export``.

        Args:
            name: Registered model to attach the variant to.
            path: Archive path (``.npz`` suffix optional).
            bits: Variant key override, as in :meth:`add_export`.

        Returns:
            The variant key the export was stored under.

        Raises:
            repro.quant.deploy.ExportFormatError: unknown archive format
                version, or the archive fails its content-hash check.
        """
        return self.add_export(name, load_export(path), bits=bits)

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def _entry(self, name: str) -> _ModelEntry:
        entry = self._entries.get(name)
        if entry is None:
            raise KeyError(
                f"model {name!r} is not registered; known models: {sorted(self._entries)}"
            )
        return entry

    def models(self) -> List[str]:
        """Registered model names, sorted."""
        with self._lock:
            return sorted(self._entries)

    def variants(self, name: str) -> List[int]:
        """Bitwidth keys of ``name``'s variants, cheapest (narrowest) first.

        Raises:
            KeyError: the model is not registered.
        """
        with self._lock:
            return sorted(self._entry(name).exports)

    def input_shape(self, name: str) -> Tuple[int, ...]:
        """The model's per-sample input shape (no batch dimension).

        Raises:
            KeyError: the model is not registered.
        """
        with self._lock:
            return self._entry(name).input_shape

    def profile(self, name: str) -> ModelProfile:
        """The model's layer profile for the analytic cost models.

        Raises:
            KeyError: the model is not registered.
        """
        with self._lock:
            return self._entry(name).profile

    def export(self, name: str, bits: int) -> QuantizedModelExport:
        """The export currently served under one variant key.

        Raises:
            KeyError: the model is not registered or has no such variant.
        """
        with self._lock:
            entry = self._entry(name)
            if bits not in entry.exports:
                raise KeyError(f"model {name!r} has no {bits}-bit export")
            return entry.exports[bits]

    def forward_bits(self, name: str, bits: int) -> Dict[str, int]:
        """Per-layer stored bitwidths of one variant (for the cost models).

        Derived from the export's metadata, not the compiled plan, so the
        router can price variants without triggering compilation.
        """
        with self._lock:
            entry = self._entry(name)
            layer_names = [layer.name for layer in entry.profile.layers]
            export = entry.exports.get(bits)
            if export is None:
                raise KeyError(f"model {name!r} has no {bits}-bit export")
            return {
                layer: export.quantized[layer].bits if layer in export.quantized else FLOAT_BITS
                for layer in layer_names
            }

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #
    def plan(self, name: str, bits: int = FLOAT_BITS) -> ExecutionPlan:
        """The compiled plan of the export served under one variant key.

        Every variant, fp32 included, resolves through the plan cache: at
        most one compilation per distinct export, even under concurrent
        lookups, and a cache hit afterwards.

        Args:
            name: Registered model.
            bits: Variant key; :data:`FLOAT_BITS` selects the fp32 plan.

        Returns:
            The immutable :class:`~repro.runtime.plan.ExecutionPlan`,
            shareable across any number of worker threads.

        Raises:
            KeyError: the model is not registered or has no such variant.
        """
        while True:
            with self._lock:
                entry = self._entry(name)
                export = entry.exports.get(bits)
                if export is None:
                    raise KeyError(
                        f"model {name!r} has no {bits}-bit variant; "
                        f"available: {sorted(entry.exports)}"
                    )
                model, input_shape = entry.model, entry.input_shape
            # Compile outside the repository lock: the plan cache provides
            # its own exactly-once guarantee, and holding our lock across a
            # compile would serialise unrelated repository lookups behind it.
            plan = self.plan_cache.get_or_compile(model, export, input_shape)
            with self._lock:
                current = self._entry(name).exports.get(bits)
            if current is export:
                return plan
            # A swap replaced the export while we compiled.  Drop our
            # now-stale cache entry (unless the contents coincide, in which
            # case the keys do too) and resolve the freshly installed
            # version on the next pass -- swap() pre-populated its plan.
            if current is None or current.content_hash() != export.content_hash():
                self.plan_cache.invalidate(self.plan_cache.key_for(model, export, input_shape))

    def warm(self, name: Optional[str] = None) -> int:
        """Eagerly compile every variant (of one model or all); returns count."""
        names = [name] if name is not None else self.models()
        compiled = 0
        for model_name in names:
            for bits in self.variants(model_name):
                self.plan(model_name, bits)
                compiled += 1
        return compiled

    # ------------------------------------------------------------------ #
    # Versioning / hot-swap
    # ------------------------------------------------------------------ #
    def generation(self, name: str) -> int:
        """The model's swap generation counter.

        Starts at 0 and is bumped by every :meth:`swap` / :meth:`rollback`.
        Executors memoise resolved plans alongside the generation they read
        it at and re-resolve when the counter moved -- the handoff that
        lets in-flight batches drain on the old plan while new batches
        pick up the new one.

        The read is deliberately lock-free: workers call this once per
        dispatched batch, entries are never removed, and both the dict
        lookup and the int read are atomic under the GIL.  A read racing a
        concurrent swap at worst returns the pre-swap value, which only
        delays plan re-resolution by one batch -- exactly the drain
        semantics the handoff promises anyway.
        """
        entry = self._entries.get(name)
        if entry is None:
            raise KeyError(
                f"model {name!r} is not registered; known models: {sorted(self._entries)}"
            )
        return entry.generation

    def version_history(self, name: str, bits: Optional[int] = None) -> List[ModelVersion]:
        """The model's variant audit trail, oldest first.

        Args:
            name: Registered model.
            bits: Restrict to one variant key (default: all variants).

        Returns:
            :class:`ModelVersion` records of every add / swap / rollback.
        """
        with self._lock:
            versions = list(self._entry(name).versions)
        if bits is not None:
            versions = [record for record in versions if record.bits == int(bits)]
        return versions

    def current_version(self, name: str, bits: int) -> ModelVersion:
        """The latest :class:`ModelVersion` of one variant.

        Raises:
            KeyError: the model has no such variant.
        """
        history = self.version_history(name, bits)
        if not history:
            raise KeyError(f"model {name!r} has no {bits}-bit variant history")
        return history[-1]

    def add_swap_listener(self, listener: SwapListener) -> None:
        """Register a callback fired after every swap / rollback.

        The listener receives ``(model_name, bits, generation)`` and is
        invoked outside repository locks, from the swapping thread.  Serving
        front-ends use it to invalidate routing-cost memos.
        """
        with self._lock:
            self._swap_listeners.append(listener)

    def swap(
        self,
        name: str,
        export: QuantizedModelExport,
        *,
        bits: Optional[int] = None,
    ) -> ModelVersion:
        """Atomically replace a served variant with a newer export.

        The incoming export is compiled into the plan cache *before* the
        repository lock is taken, so serving never stalls behind the
        compile; the installation itself is a few dictionary writes under
        the lock plus a generation bump.  Batches already resolved against
        the old plan drain on it unaffected (plans are immutable); the old
        export's plan-cache entry is invalidated exactly once, and the old
        export is pushed onto the variant's rollback stack (bounded by
        ``history_depth``; the oldest retained export is dropped beyond
        it).

        Args:
            name: Registered model whose variant is being replaced.
            export: The replacement export (e.g. a fine-tune job's output).
            bits: Variant key to replace; defaults to the export's widest
                stored bitwidth.  Passing it explicitly keeps the key stable
                when adaptation changed the per-layer widths.

        Returns:
            The freshly minted :class:`ModelVersion` (``source="swap"``).

        Raises:
            KeyError: the model is not registered or has no such variant
                (use :meth:`add_export` for a brand-new variant key).
            ValueError: attempting to swap the fp32 variant, a snapshot
                of the module's own weights.
        """
        key = int(bits) if bits is not None else _infer_variant_bits(export)
        if key == FLOAT_BITS:
            raise ValueError(
                "the fp32 variant is a snapshot of the module's weights and "
                "cannot be swapped; export the fine-tuned model and swap a "
                "quantised variant instead"
            )
        with self._lock:
            entry = self._entry(name)
            if key not in entry.exports:
                raise KeyError(
                    f"model {name!r} has no {key}-bit variant to swap; "
                    f"use add_export for a new variant key"
                )
            model, input_shape = entry.model, entry.input_shape
        # Compile outside every lock: the plan cache serialises duplicate
        # compiles itself, and serving keeps resolving the old plan.
        self.plan_cache.get_or_compile(model, export, input_shape)
        with self._lock:
            entry = self._entry(name)
            old = entry.exports.get(key)
            if old is None:  # pragma: no cover - variant removal is not an API
                raise KeyError(f"model {name!r} lost its {key}-bit variant mid-swap")
            stack = entry.previous.setdefault(key, [])
            stack.append(old)
            del stack[: max(0, len(stack) - self.history_depth)]
            entry.exports[key] = export
            entry.generation += 1
            version = self._record_version(entry, key, export, source="swap")
            listeners = list(self._swap_listeners)
            generation = entry.generation
        self._invalidate_replaced(model, input_shape, old, export)
        for listener in listeners:
            listener(name, key, generation)
        return version

    def swap_from_file(
        self,
        name: str,
        path: Union[str, Path],
        *,
        bits: Optional[int] = None,
    ) -> ModelVersion:
        """:meth:`swap` with the export loaded from a ``.npz`` archive.

        Raises:
            repro.quant.deploy.ExportFormatError: the archive has an unknown
                format version or fails its content-hash check; the
                repository is left untouched.
        """
        return self.swap(name, load_export(path), bits=bits)

    def rollback(self, name: str, bits: int) -> ModelVersion:
        """Revert one variant to the export served before its last swap.

        The rolled-back-to export is recompiled through the plan cache if
        needed (its entry was invalidated when it was swapped out) and the
        discarded export's cache entry is invalidated, so the cache never
        accumulates dead versions.

        Args:
            name: Registered model.
            bits: Variant key to roll back.

        Returns:
            The minted :class:`ModelVersion` (``source="rollback"``).

        Raises:
            KeyError: no earlier version of this variant exists.
            RuntimeError: a concurrent swap changed the variant between the
                rollback's read and its install; retry against the new
                state if rolling back is still wanted.
        """
        key = int(bits)
        with self._lock:
            entry = self._entry(name)
            stack = entry.previous.get(key)
            if not stack:
                raise KeyError(
                    f"model {name!r} has no earlier {key}-bit version to roll back to"
                )
            # Peek only: the stack entry is popped at install time, under
            # the same lock that validates nothing swapped in between.
            target = stack[-1]
            discarded = entry.exports[key]
            model, input_shape = entry.model, entry.input_shape
        self.plan_cache.get_or_compile(model, target, input_shape)
        with self._lock:
            entry = self._entry(name)
            stack = entry.previous.get(key)
            if entry.exports.get(key) is not discarded or not stack or stack[-1] is not target:
                raise RuntimeError(
                    f"variant {name}@{key} changed during the rollback "
                    f"(concurrent swap); re-issue the rollback against the "
                    f"new state if it is still wanted"
                )
            stack.pop()
            entry.exports[key] = target
            entry.generation += 1
            version = self._record_version(entry, key, target, source="rollback")
            listeners = list(self._swap_listeners)
            generation = entry.generation
        self._invalidate_replaced(model, input_shape, discarded, target)
        for listener in listeners:
            listener(name, key, generation)
        return version

    def _invalidate_replaced(
        self,
        model: Module,
        input_shape: Tuple[int, ...],
        replaced: QuantizedModelExport,
        installed: QuantizedModelExport,
    ) -> None:
        """Drop the replaced export's cached plan (once, outside locks).

        Skipped when both exports hash identically -- their cache keys
        coincide, and invalidating would drop the plan just installed.
        """
        if replaced.content_hash() == installed.content_hash():
            return
        self.plan_cache.invalidate(self.plan_cache.key_for(model, replaced, input_shape))

    # ------------------------------------------------------------------ #
    # Model access for adaptation
    # ------------------------------------------------------------------ #
    def clone_model(self, name: str) -> Module:
        """A deep copy of the registered module, safe to train.

        The registered module itself is shared serving infrastructure (the
        compiler temporarily loads export values into it), so fine-tuning
        jobs must never train it in place.  The copy is taken under the
        process-wide compile lock so it cannot observe a half-loaded state
        from a concurrent compilation.
        """
        with self._lock:
            model = self._entry(name).model
        with compile_lock():
            return copy.deepcopy(model)
