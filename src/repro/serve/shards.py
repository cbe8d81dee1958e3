"""Process sharding: consistent-hash routing, export arenas, slab transport.

This module holds everything the process serving backend shares between the
parent and its spawned shard workers:

* :class:`ShardRouter` -- a deterministic consistent-hash ring assigning
  ``(model, bits)`` variant keys to shards.  Hashing is sha256-based (not
  Python's salted ``hash``) so the parent and every spawned worker agree on
  the assignment without coordination, and adding a shard only moves the
  keys that land on the new shard's ring points.
* the **export arena** -- all weight/code tensors of the served exports
  packed into one :class:`multiprocessing.shared_memory.SharedMemory`
  segment, described by a picklable :class:`ArenaManifest`.  Workers map
  the segment and reconstruct :class:`~repro.quant.deploy.QuantizedModelExport`
  objects whose arrays are zero-copy *views* into the mapping, so model
  weights cross the process boundary once per generation instead of being
  pickled per batch.
* :class:`SlabRing` -- a ring of fixed-size slabs inside a per-shard
  shared-memory segment used as the batch transport.  Each slab is a
  64-byte header (int64 sequence/batch metadata, seqlock-style: the writer
  bumps the sequence to odd before touching the payload and to even after)
  followed by an aligned payload holding the request batch on the way in
  and the logits on the way out.  Ownership handoff itself rides on the
  control pipe; the seqlock guards against torn reads if a reader ever
  races a writer.
* :func:`shard_worker_main` -- the spawned worker process entry point: it
  attaches the arenas, compiles its shard's plans exactly once through a
  private :class:`~repro.runtime.cache.PlanCache` (seeded from the shared
  on-disk :class:`~repro.runtime.tuning.TuningCache` when tuning is
  configured), and serves batches from its slab ring until told to stop.

Nothing here imports the service layer; :mod:`repro.serve.workers` builds
the parent half (:class:`~repro.serve.workers.ProcessWorkerPool`) on top.
"""

from __future__ import annotations

import hashlib
import os
import secrets
import time
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.quant.affine import AffineQParams
from repro.quant.deploy import QuantizedModelExport
from repro.quant.qtensor import QuantizedTensor
from repro.runtime import blas
from repro.serve.types import record_blas_threads

__all__ = [
    "ArenaManifest",
    "ArenaTensorSpec",
    "ExportManifest",
    "ShardRouter",
    "SlabRing",
    "ShardWorkerConfig",
    "attach_segment",
    "attach_exports",
    "pack_exports",
    "shard_worker_main",
    "variant_key",
]

#: Byte alignment of every tensor inside an arena and of slab payloads.
ARENA_ALIGNMENT = 64

#: Bytes reserved for a slab's header (a 64-byte cache line holding eight
#: int64 slots; only the first four are used today).
SLAB_HEADER_BYTES = 64

#: Header slot indices (int64 offsets into the slab header).
_H_SEQ = 0        # seqlock sequence: odd while a write is in progress
_H_BATCH_ID = 1   # batch id of the payload currently in the slab
_H_COUNT = 2      # requests in the batch
_H_NBYTES = 3     # payload bytes written


def variant_key(model: str, bits: int) -> str:
    """The canonical queue / arena key of one served variant."""
    return f"{model}@{bits}"


def _align(nbytes: int, alignment: int = ARENA_ALIGNMENT) -> int:
    return (nbytes + alignment - 1) // alignment * alignment


# --------------------------------------------------------------------------- #
# Consistent-hash shard routing
# --------------------------------------------------------------------------- #
class ShardRouter:
    """Deterministic consistent-hash assignment of variant keys to shards.

    Each shard owns ``replicas`` points on a sha256 ring; a key is served
    by the shard owning the first point clockwise of the key's hash.  The
    construction is stable across processes and interpreter restarts
    (sha256, not the per-process salted ``hash``), so the parent and every
    spawned worker compute identical assignments, and resizing the pool
    moves only the keys whose ring interval changed.
    """

    def __init__(self, shards: int, *, replicas: int = 64) -> None:
        """Args:
            shards: Shard count (worker processes), at least 1.
            replicas: Virtual ring points per shard; more points smooth
                the key distribution at the cost of a larger ring.
        """
        if shards < 1:
            raise ValueError(f"shards must be at least 1, got {shards}")
        if replicas < 1:
            raise ValueError(f"replicas must be at least 1, got {replicas}")
        self.shards = shards
        self.replicas = replicas
        points: List[Tuple[int, int]] = []
        for shard in range(shards):
            for replica in range(replicas):
                points.append((self._point(f"shard:{shard}:replica:{replica}"), shard))
        points.sort()
        self._ring = points

    @staticmethod
    def _point(text: str) -> int:
        return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")

    def shard_for(self, model: str, bits: int) -> int:
        """The shard serving one ``(model, bits)`` variant."""
        return self.shard_for_key(variant_key(model, bits))

    def shard_for_key(self, key: str) -> int:
        """The shard serving one pre-formatted variant key."""
        target = self._point(f"key:{key}")
        ring = self._ring
        lo, hi = 0, len(ring)
        while lo < hi:
            mid = (lo + hi) // 2
            if ring[mid][0] < target:
                lo = mid + 1
            else:
                hi = mid
        return ring[lo % len(ring)][1]

    def assignment(self, keys) -> Dict[int, List[str]]:
        """Group ``keys`` by owning shard (every shard present, even empty)."""
        grouped: Dict[int, List[str]] = {shard: [] for shard in range(self.shards)}
        for key in keys:
            grouped[self.shard_for_key(key)].append(key)
        return grouped


# --------------------------------------------------------------------------- #
# Export arenas
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ArenaTensorSpec:
    """Placement of one export tensor inside an arena segment."""

    name: str
    #: ``"codes"`` (quantised integer codes), ``"float"`` (fp parameters)
    #: or ``"buffer"`` (non-trainable buffers).
    section: str
    offset: int
    shape: Tuple[int, ...]
    dtype: str
    #: Affine parameters, meaningful only for ``section == "codes"``.
    scale: float = 0.0
    zero_point: int = 0
    bits: int = 0


@dataclass(frozen=True)
class ExportManifest:
    """One export's tensors inside an arena, plus its content hash."""

    key: str
    content_hash: str
    tensors: Tuple[ArenaTensorSpec, ...]


@dataclass(frozen=True)
class ArenaManifest:
    """Everything needed to reconstruct exports from one arena segment.

    Plain picklable data: the parent packs the arena, sends the manifest
    over the control pipe, and each worker attaches the named segment and
    rebuilds zero-copy :class:`~repro.quant.deploy.QuantizedModelExport`
    views from the specs.
    """

    shm_name: str
    generation: int
    nbytes: int
    exports: Tuple[ExportManifest, ...] = field(default_factory=tuple)

    def keys(self) -> List[str]:
        return [export.key for export in self.exports]


def _tensor_sections(export: QuantizedModelExport):
    """Yield ``(section, name, array, qparams)`` in deterministic order."""
    for name in sorted(export.quantized):
        tensor = export.quantized[name]
        yield "codes", name, np.ascontiguousarray(tensor.codes), tensor.qparams
    for name in sorted(export.float_parameters):
        yield "float", name, np.ascontiguousarray(export.float_parameters[name]), None
    for name in sorted(export.buffers):
        yield "buffer", name, np.ascontiguousarray(export.buffers[name]), None


def pack_exports(
    exports: Mapping[str, QuantizedModelExport],
    *,
    generation: int = 0,
) -> Tuple[shared_memory.SharedMemory, ArenaManifest]:
    """Pack exports into one fresh shared-memory arena.

    Returns the owning segment (the caller is responsible for ``close`` +
    ``unlink`` once every worker has remapped away from it) and the
    picklable manifest describing the layout.  An empty mapping is legal
    (a deployment serving only fp32 variants has no codes to share) and
    produces a minimal segment with an empty manifest.
    """
    layout: List[Tuple[str, str, str, np.ndarray, Optional[AffineQParams], int]] = []
    cursor = 0
    for key in sorted(exports):
        for section, name, array, qparams in _tensor_sections(exports[key]):
            layout.append((key, section, name, array, qparams, cursor))
            cursor += _align(array.nbytes)
    total = max(cursor, ARENA_ALIGNMENT)
    segment = shared_memory.SharedMemory(
        create=True, size=total, name=f"repro-arena-{os.getpid()}-{secrets.token_hex(4)}"
    )
    specs_by_key: Dict[str, List[ArenaTensorSpec]] = {key: [] for key in exports}
    for key, section, name, array, qparams, offset in layout:
        destination = np.ndarray(
            array.shape, dtype=array.dtype, buffer=segment.buf, offset=offset
        )
        destination[...] = array
        specs_by_key[key].append(
            ArenaTensorSpec(
                name=name,
                section=section,
                offset=offset,
                shape=tuple(array.shape),
                dtype=array.dtype.str,
                scale=float(qparams.scale) if qparams is not None else 0.0,
                zero_point=int(qparams.zero_point) if qparams is not None else 0,
                bits=int(qparams.bits) if qparams is not None else 0,
            )
        )
    manifest = ArenaManifest(
        shm_name=segment.name,
        generation=generation,
        nbytes=total,
        exports=tuple(
            ExportManifest(
                key=key,
                content_hash=exports[key].content_hash(),
                tensors=tuple(specs_by_key[key]),
            )
            for key in sorted(exports)
        ),
    )
    return segment, manifest


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without adopting its unlink lifecycle.

    CPython's POSIX :class:`~multiprocessing.shared_memory.SharedMemory`
    registers *every* attach with the resource tracker, so a worker merely
    mapping the parent's arena would get the segment unlinked (plus a leak
    warning) when the worker exits.  Worse, spawned children share the
    parent's tracker daemon, so un-registering *after* the attach would
    remove the creator's own entry (the tracker's cache is one set per
    name) and make the eventual ``unlink()`` trip a tracker error.  The
    creating process is the sole owner here; attachers suppress the
    registration itself for the duration of the attach.
    """
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register

    def _skip_shared_memory(resource_name, rtype):
        if rtype != "shared_memory":  # pragma: no cover - no other rtypes here
            original_register(resource_name, rtype)

    resource_tracker.register = _skip_shared_memory
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


def attach_exports(
    manifest: ArenaManifest, segment: shared_memory.SharedMemory
) -> Dict[str, QuantizedModelExport]:
    """Reconstruct zero-copy export views from an attached arena segment.

    The arrays of the returned exports are read-only views into the
    segment's mapping -- nothing is copied, and the compiler only ever
    reads them (dequantisation copies into the plan's own baked buffers).
    Each export's content hash is seeded from the manifest so plan-cache
    keys match the parent's without re-hashing megabytes of weights.
    """
    exports: Dict[str, QuantizedModelExport] = {}
    for export_manifest in manifest.exports:
        export = QuantizedModelExport()
        for spec in export_manifest.tensors:
            view = np.ndarray(
                spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf, offset=spec.offset
            )
            view.flags.writeable = False
            if spec.section == "codes":
                export.quantized[spec.name] = QuantizedTensor(
                    codes=view,
                    qparams=AffineQParams(
                        scale=spec.scale, zero_point=spec.zero_point, bits=spec.bits
                    ),
                )
            elif spec.section == "float":
                export.float_parameters[spec.name] = view
            else:
                export.buffers[spec.name] = view
        export._content_hash = export_manifest.content_hash
        exports[export_manifest.key] = export
    return exports


# --------------------------------------------------------------------------- #
# Slab-ring batch transport
# --------------------------------------------------------------------------- #
class SlabRing:
    """Fixed-size slabs over one shared-memory segment (batch transport).

    Each slab is ``SLAB_HEADER_BYTES`` of int64 header followed by an
    aligned payload area.  The header carries a seqlock-style sequence
    (odd while a writer is inside the payload, even and advanced when the
    write committed) plus the batch id / request count / payload size of
    the current contents.  Slot *ownership* is transferred over the
    control pipe (parent writes, sends ``batch``; worker overwrites the
    payload with the logits, sends ``done``), so the seqlock is a torn-read
    guard and a debugging aid rather than the primary synchronisation.
    """

    def __init__(self, buf, slots: int, slab_bytes: int) -> None:
        if slots < 1:
            raise ValueError(f"slots must be at least 1, got {slots}")
        if slab_bytes <= SLAB_HEADER_BYTES:
            raise ValueError(
                f"slab_bytes must exceed the {SLAB_HEADER_BYTES}-byte header, got {slab_bytes}"
            )
        self._buf = buf
        self.slots = slots
        self.slab_bytes = slab_bytes
        self.payload_bytes = slab_bytes - SLAB_HEADER_BYTES

    @staticmethod
    def required_bytes(slots: int, payload_bytes: int) -> Tuple[int, int]:
        """``(segment_bytes, slab_bytes)`` for ``slots`` slabs of payload."""
        slab = SLAB_HEADER_BYTES + _align(payload_bytes)
        return slots * slab, slab

    def _header(self, slot: int) -> np.ndarray:
        return np.ndarray((8,), dtype=np.int64, buffer=self._buf, offset=slot * self.slab_bytes)

    def payload(self, slot: int, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A zero-copy ndarray view over one slab's payload area."""
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        if nbytes > self.payload_bytes:
            raise ValueError(
                f"payload of {nbytes} bytes exceeds the slab's "
                f"{self.payload_bytes}-byte payload area"
            )
        return np.ndarray(
            shape,
            dtype=dtype,
            buffer=self._buf,
            offset=slot * self.slab_bytes + SLAB_HEADER_BYTES,
        )

    def write(self, slot: int, array: np.ndarray, batch_id: int, count: int) -> None:
        """Copy ``array`` into a slab under the seqlock protocol."""
        header = self._header(slot)
        header[_H_SEQ] += 1  # odd: write in progress
        try:
            view = self.payload(slot, array.shape, array.dtype)
            np.copyto(view, array)
            header[_H_BATCH_ID] = batch_id
            header[_H_COUNT] = count
            header[_H_NBYTES] = array.nbytes
        finally:
            header[_H_SEQ] += 1  # even: committed

    def read(
        self, slot: int, shape: Tuple[int, ...], dtype=np.float64, *, spins: int = 1_000_000
    ) -> Tuple[np.ndarray, int, int]:
        """A stable copy of one slab's payload: ``(array, batch_id, count)``.

        Retries while the seqlock shows a write in progress or the
        sequence moved during the copy; raises ``RuntimeError`` if the
        slab never stabilises (which means the handoff protocol itself is
        broken -- ownership should have been transferred before reading).
        """
        header = self._header(slot)
        for _ in range(spins):
            before = int(header[_H_SEQ])
            if before % 2:
                time.sleep(0)
                continue
            array = np.array(self.payload(slot, shape, dtype), copy=True)
            batch_id = int(header[_H_BATCH_ID])
            count = int(header[_H_COUNT])
            if int(header[_H_SEQ]) == before:
                return array, batch_id, count
        raise RuntimeError(f"slab {slot} never stabilised; seqlock protocol violated")


# --------------------------------------------------------------------------- #
# The spawned shard worker
# --------------------------------------------------------------------------- #
@dataclass
class ShardWorkerConfig:
    """Everything one spawned shard worker needs, in picklable form.

    ``models`` carries the module objects themselves (pickled once at
    spawn); the heavyweight export tensors arrive through ``manifest``
    instead, as offsets into the named arena segment.  ``tuning`` is the
    picklable ``(path, budget_s, repeats, warmup)`` spec of the parent's
    :class:`~repro.runtime.tuning.TuningConfig` -- the config object
    itself holds a lock and an open cache, so workers rebuild it from the
    shared on-disk path and inherit the persisted winners.
    """

    shard: int
    #: Name of this shard's slab-ring transport segment, plus its geometry.
    slab_shm_name: str
    slab_slots: int
    slab_bytes: int
    #: Initial export arena (all quantised variants of every model).
    manifest: ArenaManifest
    #: Model name -> architecture module (pickled at spawn).
    models: Dict[str, object]
    #: Model name -> per-sample input shape.
    input_shapes: Dict[str, Tuple[int, ...]]
    #: Variant keys this shard serves, each ``(model, bits)``.
    keys: Dict[str, Tuple[str, int]]
    #: Largest batch any queue can dispatch (sizes execution contexts).
    max_batch_size: int
    #: ``(cache_path, budget_s, repeats, warmup)`` or ``None``.
    tuning: Optional[Tuple[str, float, int, int]] = None
    #: ``(enabled, artifact_cache_dir)`` of the parent's native codegen
    #: backend, or ``None`` (worker keeps its own environment-driven
    #: default).  The directory is the parent's *resolved* cache dir, so a
    #: spawned worker loads the same compiled ``.so`` artifacts instead of
    #: rebuilding them.
    codegen: Optional[Tuple[bool, str]] = None
    #: Eagerly compile every assigned plan before reporting ready.
    warm: bool = True
    #: Shards the pool spawned.  Sibling shards share the CPUs, so each
    #: reserves this many compute threads on the BLAS thread budget.
    shard_count: int = 1


def _rebuild_tuning(spec: Optional[Tuple[str, float, int, int]]):
    if spec is None:
        return None
    from repro.runtime.tuning import TuningCache, TuningConfig

    path, budget_s, repeats, warmup = spec
    return TuningConfig(
        cache=TuningCache(path), budget_s=budget_s, repeats=repeats, warmup=warmup
    )


def _apply_codegen(spec: Optional[Tuple[str, str]]) -> None:
    """Mirror the parent's codegen enablement into this worker process.

    ``spawn`` workers inherit the environment but not any explicit
    :func:`repro.runtime.codegen.configure` call made in the parent, so
    the picklable spec re-applies it.  ``None`` leaves the worker on its
    own environment-driven default."""
    if spec is None:
        return
    from repro.runtime import codegen

    enabled, cache_dir_path = spec
    codegen.configure(enable=enabled, cache_dir_path=cache_dir_path)


class _ShardState:
    """Mutable worker-process state: arenas, exports, plans, contexts."""

    def __init__(self, config: ShardWorkerConfig) -> None:
        from repro.obs.registry import MetricRegistry
        from repro.runtime.cache import PlanCache

        self.config = config
        self.registry = MetricRegistry()
        _apply_codegen(config.codegen)
        self.tuning = _rebuild_tuning(config.tuning)
        self.plan_cache = PlanCache(metrics=self.registry)
        self.batches = self.registry.counter(
            "shard_batches_total", "Batches executed by this shard worker.",
            labels=("model",),
        )
        self.requests = self.registry.counter(
            "shard_requests_total", "Requests executed by this shard worker.",
            labels=("model",),
        )
        self.kernel_seconds = self.registry.counter(
            "shard_kernel_seconds_total",
            "Wall-clock seconds this shard spent inside plan execution.",
            labels=("model",),
        )
        self.remaps = self.registry.counter(
            "shard_arena_remaps_total",
            "Arena generations this shard remapped onto (hot swaps).",
        )
        #: segment name -> (SharedMemory, set of keys mapped from it)
        self.segments: Dict[str, Tuple[shared_memory.SharedMemory, set]] = {}
        self.exports: Dict[str, QuantizedModelExport] = {}
        self.plans: Dict[str, object] = {}
        self.contexts: Dict[str, object] = {}
        self.map_arena(config.manifest)

    def map_arena(self, manifest: ArenaManifest) -> List[str]:
        """Attach one arena segment and (re)bind its exports; returns the
        keys whose mapping changed (their plans / contexts are dropped)."""
        segment = attach_segment(manifest.shm_name)
        mapped = attach_exports(manifest, segment)
        remapped = [key for key in mapped if key in self.config.keys]
        self.segments[manifest.shm_name] = (segment, set(remapped))
        for key in remapped:
            self.exports[key] = mapped[key]
            self.plans.pop(key, None)
            self.contexts.pop(key, None)
            for name, (_, keys) in list(self.segments.items()):
                if name != manifest.shm_name:
                    keys.discard(key)
        self._release_unreferenced()
        return remapped

    def _release_unreferenced(self) -> None:
        for name, (segment, keys) in list(self.segments.items()):
            if not keys:
                del self.segments[name]
                segment.close()

    def close(self) -> None:
        # Drop every arena view before closing the mappings: a shared
        # memory segment cannot unmap while ndarray views still export
        # its buffer.
        self.exports.clear()
        self.plans.clear()
        self.contexts.clear()
        for segment, _ in self.segments.values():
            segment.close()
        self.segments.clear()

    def plan_for(self, key: str):
        """The compiled plan + context of one variant (compiled on first use)."""
        from repro.runtime.plan import compile_plan
        from repro.serve.repository import FLOAT_BITS

        plan = self.plans.get(key)
        if plan is not None:
            return plan, self.contexts[key]
        model_name, bits = self.config.keys[key]
        module = self.config.models[model_name]
        input_shape = tuple(self.config.input_shapes[model_name])
        if bits == FLOAT_BITS:
            plan = compile_plan(module, input_shape, tuning=self.tuning)
        else:
            plan = self.plan_cache.get_or_compile(
                module, self.exports[key], input_shape, tuning=self.tuning
            )
        self.plans[key] = plan
        self.contexts[key] = plan.create_context(batch_size=self.config.max_batch_size)
        return plan, self.contexts[key]

    def warm(self) -> None:
        for key in self.config.keys:
            self.plan_for(key)


def shard_worker_main(config: ShardWorkerConfig, commands, events) -> None:
    """Entry point of one spawned shard worker process.

    Protocol (over the two pipe connections):

    * parent -> worker: ``("batch", slot, key, count, batch_id)``,
      ``("swap", manifest)``, ``("stats",)``, ``("stop",)``.
    * worker -> parent: ``("ready", shard, blas_threads)`` once plans are
      warm (or ``("fatal", message)`` if setup failed), then
      ``("done", slot, batch_id, key, count, out_shape, kernel_seconds)``
      or ``("error", slot, batch_id, message)`` per batch,
      ``("swapped", segment_name, generation, keys)`` per remap,
      ``("stats", dump)`` on demand and ``("stopped", dump)`` at exit.

    The worker reserves ``config.shard_count`` threads on the BLAS thread
    budget before it compiles anything, so plans are warmed, tuned and run
    at the count its sibling shards share the CPUs with.
    """
    state: Optional[_ShardState] = None
    slab_segment: Optional[shared_memory.SharedMemory] = None
    reservation = blas.reserve(config.shard_count)
    try:
        try:
            state = _ShardState(config)
            record_blas_threads(state.registry, reservation.blas_threads)
            slab_segment = attach_segment(config.slab_shm_name)
            ring = SlabRing(slab_segment.buf, config.slab_slots, config.slab_bytes)
            if config.warm:
                state.warm()
        except BaseException as error:  # noqa: BLE001 - surface setup failures
            try:
                events.send(("fatal", repr(error)))
            except OSError:  # pragma: no cover - parent already gone
                pass
            return
        events.send(("ready", config.shard, reservation.blas_threads))
        while True:
            message = commands.recv()
            kind = message[0]
            if kind == "batch":
                _, slot, key, count, batch_id = message
                try:
                    events.send(_run_batch(state, ring, slot, key, count, batch_id))
                except BaseException as error:  # noqa: BLE001 - keep serving
                    events.send(("error", slot, batch_id, repr(error)))
            elif kind == "swap":
                manifest = message[1]
                remapped = state.map_arena(manifest)
                state.remaps.inc()
                events.send(("swapped", manifest.shm_name, manifest.generation, remapped))
            elif kind == "stats":
                events.send(("stats", state.registry.as_dict()))
            elif kind == "stop":
                events.send(("stopped", state.registry.as_dict()))
                return
    except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover - parent died
        return
    finally:
        if state is not None:
            state.close()
        if slab_segment is not None:
            slab_segment.close()
        try:
            commands.close()
            events.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        reservation.release()


def _run_batch(
    state: _ShardState, ring: SlabRing, slot: int, key: str, count: int, batch_id: int
):
    """Execute one slab batch in the worker; returns the ``done`` message."""
    if key not in state.config.keys:
        raise KeyError(
            f"variant {key!r} was not assigned to shard {state.config.shard} at "
            f"start; the process backend serves the variants registered when "
            f"the service started"
        )
    model_name, _ = state.config.keys[key]
    shape = (count,) + tuple(state.config.input_shapes[model_name])
    batch = ring.payload(slot, shape)
    plan, ctx = state.plan_for(key)
    started = time.perf_counter()
    # The plan writes the result into its own arena first; the final
    # copy into `out` happens after the input view was last read, so the
    # logits may safely overwrite the input payload in place.
    logits = plan.run(np.asarray(batch), ctx=ctx)
    kernel_seconds = time.perf_counter() - started
    ring.write(slot, np.ascontiguousarray(logits, dtype=np.float64), batch_id, count)
    state.batches.labels(model=model_name).inc()
    state.requests.labels(model=model_name).inc(count)
    state.kernel_seconds.labels(model=model_name).inc(kernel_seconds)
    return ("done", slot, batch_id, key, count, tuple(logits.shape), kernel_seconds)
