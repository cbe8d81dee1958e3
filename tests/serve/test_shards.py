"""Sharding primitives: router, export arenas, slab-ring transport."""

import pickle

import numpy as np
import pytest

from repro.models import build_model
from repro.quant import export_quantized_model
from repro.runtime import compile_quantized_plan
from repro.serve.shards import (
    ARENA_ALIGNMENT,
    ShardRouter,
    SlabRing,
    attach_exports,
    attach_segment,
    pack_exports,
    variant_key,
)

SHAPE = (1, 12, 12)


def _model(seed=0):
    return build_model(
        "tiny_convnet", num_classes=5, in_channels=1, rng=np.random.default_rng(seed)
    )


def _export(seed=0, bits=8):
    model = _model(seed)
    return export_quantized_model(model, {n: bits for n, _ in model.named_parameters()})


class TestShardRouter:
    def test_deterministic_across_instances(self):
        keys = [f"model{i}@{b}" for i in range(20) for b in (4, 8, 32)]
        a = ShardRouter(4)
        b = ShardRouter(4)
        assert [a.shard_for_key(k) for k in keys] == [b.shard_for_key(k) for k in keys]

    def test_every_key_lands_on_a_valid_shard(self):
        router = ShardRouter(3)
        for i in range(100):
            assert 0 <= router.shard_for(f"m{i}", 8) < 3

    def test_assignment_partitions_keys_and_lists_every_shard(self):
        router = ShardRouter(4)
        keys = [f"model{i}@8" for i in range(40)]
        grouped = router.assignment(keys)
        assert sorted(grouped) == [0, 1, 2, 3]
        flattened = [key for shard_keys in grouped.values() for key in shard_keys]
        assert sorted(flattened) == sorted(keys)

    def test_distribution_is_roughly_balanced(self):
        router = ShardRouter(4, replicas=64)
        grouped = router.assignment([f"model{i}@8" for i in range(400)])
        sizes = [len(v) for v in grouped.values()]
        # Consistent hashing is not perfectly uniform; assert no shard is
        # starved or hoarding.
        assert min(sizes) > 0
        assert max(sizes) < 400 * 0.6

    def test_resize_moves_few_keys(self):
        keys = [f"model{i}@8" for i in range(200)]
        small = ShardRouter(4)
        grown = ShardRouter(5)
        moved = sum(
            1
            for key in keys
            if small.shard_for_key(key) != grown.shard_for_key(key)
            and grown.shard_for_key(key) != 4
        )
        # Keys either stay put or move to the new shard; cross-moves
        # between surviving shards should be rare.
        assert moved < len(keys) * 0.2

    def test_shard_for_matches_key_form(self):
        router = ShardRouter(3)
        assert router.shard_for("m", 8) == router.shard_for_key(variant_key("m", 8))

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError, match="shards"):
            ShardRouter(0)
        with pytest.raises(ValueError, match="replicas"):
            ShardRouter(2, replicas=0)


class TestExportArena:
    def test_pack_attach_round_trip_is_byte_identical(self):
        exports = {"tiny@8": _export(0, 8), "tiny@4": _export(0, 4), "other@8": _export(1, 8)}
        segment, manifest = pack_exports(exports)
        try:
            attached_segment = attach_segment(segment.name)
            views = attach_exports(manifest, attached_segment)
            assert sorted(views) == sorted(exports)
            for key, original in exports.items():
                view = views[key]
                assert sorted(view.quantized) == sorted(original.quantized)
                for name, tensor in original.quantized.items():
                    np.testing.assert_array_equal(view.quantized[name].codes, tensor.codes)
                    assert view.quantized[name].qparams.scale == tensor.qparams.scale
                    assert view.quantized[name].qparams.zero_point == tensor.qparams.zero_point
                    assert view.quantized[name].qparams.bits == tensor.qparams.bits
                for name, array in original.float_parameters.items():
                    np.testing.assert_array_equal(view.float_parameters[name], array)
                for name, array in original.buffers.items():
                    np.testing.assert_array_equal(view.buffers[name], array)
            del views
            attached_segment.close()
        finally:
            segment.close()
            segment.unlink()

    def test_attached_views_preserve_content_hash(self):
        export = _export()
        segment, manifest = pack_exports({"tiny@8": export})
        try:
            attached = attach_segment(segment.name)
            views = attach_exports(manifest, attached)
            assert views["tiny@8"].content_hash() == export.content_hash()
            del views
            attached.close()
        finally:
            segment.close()
            segment.unlink()

    def test_manifest_offsets_are_aligned(self):
        segment, manifest = pack_exports({"tiny@8": _export()})
        try:
            for export_manifest in manifest.exports:
                for spec in export_manifest.tensors:
                    assert spec.offset % ARENA_ALIGNMENT == 0
        finally:
            segment.close()
            segment.unlink()

    def test_empty_mapping_packs_a_minimal_segment(self):
        segment, manifest = pack_exports({})
        try:
            assert manifest.exports == ()
            assert segment.size >= ARENA_ALIGNMENT
        finally:
            segment.close()
            segment.unlink()


class TestExportPickle:
    """Crossing the process boundary changes nothing about the numbers."""

    def test_export_round_trip_is_byte_identical(self):
        export = _export()
        clone = pickle.loads(pickle.dumps(export))
        assert clone.content_hash() == export.content_hash()
        for name, tensor in export.quantized.items():
            np.testing.assert_array_equal(clone.quantized[name].codes, tensor.codes)

    def test_arena_view_pickle_round_trip_is_byte_identical(self):
        export = _export()
        segment, manifest = pack_exports({"tiny@8": export})
        try:
            attached = attach_segment(segment.name)
            view = attach_exports(manifest, attached)["tiny@8"]
            # Pickling an arena view materialises it (the receiving process
            # has no segment mapping) without changing a byte.
            clone = pickle.loads(pickle.dumps(view))
            assert clone.content_hash() == export.content_hash()
            for name, tensor in export.quantized.items():
                np.testing.assert_array_equal(clone.quantized[name].codes, tensor.codes)
                assert clone.quantized[name].qparams == tensor.qparams
            for name, array in export.float_parameters.items():
                np.testing.assert_array_equal(clone.float_parameters[name], array)
            del view, clone
            attached.close()
        finally:
            segment.close()
            segment.unlink()

    def test_arena_view_plans_match_original_export_plans(self):
        model = _model()
        export = _export()
        segment, manifest = pack_exports({"tiny@8": export})
        try:
            attached = attach_segment(segment.name)
            view = attach_exports(manifest, attached)["tiny@8"]
            x = np.random.default_rng(2).normal(size=(2,) + SHAPE)
            expected = compile_quantized_plan(model, export, SHAPE).run(x)
            actual = compile_quantized_plan(model, view, SHAPE).run(x)
            np.testing.assert_array_equal(actual, expected)
            del view
            attached.close()
        finally:
            segment.close()
            segment.unlink()


class TestSlabRing:
    def _ring(self, slots=2, payload=4096):
        segment_bytes, slab_bytes = SlabRing.required_bytes(slots, payload)
        buf = bytearray(segment_bytes)
        return SlabRing(memoryview(buf), slots, slab_bytes)

    def test_write_read_round_trip(self):
        ring = self._ring()
        batch = np.arange(24, dtype=np.float64).reshape(4, 6)
        ring.write(0, batch, batch_id=7, count=4)
        out, batch_id, count = ring.read(0, (4, 6))
        np.testing.assert_array_equal(out, batch)
        assert batch_id == 7
        assert count == 4
        # The read is a copy: later writes must not alias it.
        ring.write(0, np.zeros((4, 6)), batch_id=8, count=4)
        np.testing.assert_array_equal(out, batch)

    def test_slots_are_independent(self):
        ring = self._ring(slots=3)
        for slot in range(3):
            ring.write(slot, np.full((2, 2), float(slot)), batch_id=slot, count=2)
        for slot in range(3):
            out, batch_id, _ = ring.read(slot, (2, 2))
            assert batch_id == slot
            np.testing.assert_array_equal(out, np.full((2, 2), float(slot)))

    def test_payload_view_is_zero_copy(self):
        ring = self._ring()
        batch = np.arange(8, dtype=np.float64).reshape(2, 4)
        ring.write(1, batch, batch_id=1, count=2)
        view = ring.payload(1, (2, 4))
        np.testing.assert_array_equal(view, batch)

    def test_oversized_payload_is_rejected(self):
        ring = self._ring(payload=128)
        with pytest.raises(ValueError, match="slab"):
            ring.write(0, np.zeros((64, 64)), batch_id=0, count=64)

    def test_torn_write_is_detected(self):
        ring = self._ring()
        ring.write(0, np.ones((2, 2)), batch_id=3, count=2)
        # Simulate a writer dying mid-write: bump the sequence to odd.
        header = ring._header(0)
        header[0] += 1
        with pytest.raises(RuntimeError, match="never stabilised"):
            ring.read(0, (2, 2), spins=100)
