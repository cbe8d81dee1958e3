"""How served convolutions batch their GEMMs, bit for bit.

Two conv lowerings split a batch differently from the reference:

* ``im2col_batched`` multiplies a whole batch's columns in one GEMM where
  every other lowering runs one GEMM per sample.  Its admission
  predicate is static -- geometry only, no probe -- and admits only
  shapes where both calls take the same OpenBLAS path, so the two sum
  every output in the same order, and only maps of fewer than
  ``BATCHED_MAX_PIXELS`` output pixels, where the fold is faster.
* ``im2col_slices`` builds and multiplies its columns a block of samples
  at a time (``COLUMN_BLOCK_BYTES``), so a conv never holds the batch's
  column matrix.  Each block is a shorter stack of the same per-sample
  GEMMs.

These tests hold both claims to the BLAS they run on:

* the predicate itself, without a GEMM;
* an oracle over every ``conv2d`` call site in ``docs/variant_census.json``
  the predicate admits, and another over every site where
  ``im2col_slices`` splits a batch of 16 into blocks, at batches 1-16, for
  float and integer-code weights, against the reference ``im2col``
  lowering;
* the memory a blocked conv holds, traced;
* compiled plans against ``optimize=False`` plans (which lower every conv
  to the reference) for the perfbench serving models and for
  mobilenetv2 x1.0 at 3x8x8, where the maps shrink to one pixel.

OpenBLAS can sum differently at different thread counts, so run this file
both at the default count and with ``OPENBLAS_NUM_THREADS=1``, the count
each serving worker uses on a 2-CPU host.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.models import build_model
from repro.quant import export_quantized_model
from repro.runtime import compile_plan, compile_quantized_plan
from repro.runtime.variants import (
    BATCHED_MAX_PIXELS,
    BATCHED_MIN_MACS,
    KernelDesc,
    admitted_variants,
    column_block,
    run_conv,
    served_variant,
)

CENSUS_PATH = Path(__file__).resolve().parents[2] / "docs" / "variant_census.json"

BATCHES = range(1, 17)


def _batched(desc: KernelDesc) -> bool:
    return "im2col_batched" in admitted_variants(desc)


def _conv(x_shape, out_channels, kernel=(3, 3), stride=(1, 1), padding=(1, 1)):
    return KernelDesc(
        x_shape=x_shape, kernel_size=kernel, stride=stride, padding=padding,
        out_channels=out_channels,
    )


class TestPredicate:
    """Geometry only: nothing here runs a GEMM."""

    def test_admits_resnet20_and_mobilenetv2_dense_convs(self):
        for desc in (
            _conv((16, 32, 32), 32, stride=(2, 2)),   # resnet20 down-sampling
            _conv((32, 16, 16), 32),                  # resnet20 stage 2
            _conv((64, 8, 8), 64),                    # resnet20 stage 3
            _conv((336, 4, 4), 336),                  # mobilenetv2 x1.0 at 4x4
        ):
            assert _batched(desc), desc
            assert served_variant(desc) == "im2col_batched"

    def test_rejects_maps_of_1024_pixels_and_more(self):
        # resnet20's stage-1 conv and mobilenetv2 x0.35's 48-channel one:
        # wide per-sample GEMMs, which run in blocks of columns instead.
        assert BATCHED_MAX_PIXELS == 1024
        for desc in (_conv((16, 32, 32), 16), _conv((48, 32, 32), 48)):
            assert not _batched(desc), desc
            assert served_variant(desc) == "im2col_slices"
        # The limit is sharp: 16 x 63 = 1008 pixels fold, 16 x 64 do not.
        assert _batched(_conv((16, 16, 63), 16))
        assert not _batched(_conv((16, 16, 64), 16))

    @pytest.mark.parametrize("side", [1, 5, 6, 7])
    def test_rejects_pixel_counts_off_the_tile_grid(self, side):
        # P = 1, 25, 36, 49: every GEMM is large, only the tiles are off.
        desc = _conv((960, side, side), 960)
        assert 960 * 960 * 9 * side * side > BATCHED_MIN_MACS
        assert not _batched(desc)
        assert served_variant(desc) == "im2col_slices"

    def test_rejects_per_sample_gemms_at_or_below_the_small_matrix_cutoff(self):
        # 5x5 over 25 channels, 64 pixels: 25 * 625 * 64 = 10**6 exactly.
        at_cutoff = _conv((25, 8, 8), 25, kernel=(5, 5), padding=(2, 2))
        above = _conv((25, 8, 8), 26, kernel=(5, 5), padding=(2, 2))
        assert 25 * 625 * 64 == BATCHED_MIN_MACS
        assert not _batched(at_cutoff)
        assert _batched(above)
        # resnet20's stem (16 * 27 * 1024 multiply-adds) stays per sample.
        assert not _batched(_conv((3, 32, 32), 16))

    def test_rejects_pointwise_convs(self):
        pointwise = _conv((256, 16, 16), 256, kernel=(1, 1), padding=(0, 0))
        assert not _batched(pointwise)
        assert served_variant(pointwise) == "gemm_1x1"
        # A strided 1x1 is not gemm_1x1's; it may fold when large enough.
        assert _batched(_conv((256, 32, 32), 256, kernel=(1, 1), stride=(2, 2),
                              padding=(0, 0)))


def _parse_conv_signature(signature: str) -> KernelDesc:
    _, *fields = signature.split("|")
    values = dict(field.split("=", 1) for field in fields)

    def pair(text):
        return tuple(int(part) for part in text.split("x"))

    return KernelDesc(
        x_shape=pair(values["x"]), kernel_size=pair(values["k"]),
        stride=pair(values["s"]), padding=pair(values["p"]),
        out_channels=int(values["co"]),
    )


def _census_geometries(keep):
    """The distinct conv geometries of the census signatures ``keep`` takes."""
    census = json.loads(CENSUS_PATH.read_text())
    geometries = set()
    for signature, row in census["signatures"].items():
        if row["op"] != "conv2d":
            continue
        desc = _parse_conv_signature(signature)
        if keep(desc):
            geometries.add((desc.x_shape, desc.out_channels, desc.kernel_size,
                            desc.stride, desc.padding))
    return sorted(geometries)


def _site_id(geometry) -> str:
    x_shape, out_channels, kernel, stride, _ = geometry
    return "x{}-co{}-k{}-s{}".format("x".join(map(str, x_shape)), out_channels,
                                     kernel[0], stride[0])


CENSUS_SITES = _census_geometries(_batched)

#: Admitted shapes no census site has, all just above the small-matrix
#: cut-off: three with a deep reduction (K of 432 to 1152), where on
#: SkylakeX the same shapes a little smaller differ between the per-sample
#: and the batched GEMM, and a strided 1x1 conv.
NEAR_CUTOFF = [
    ((64, 16, 16), 8, (3, 3), (1, 1), (1, 1)),
    ((128, 8, 8), 16, (3, 3), (1, 1), (1, 1)),
    ((48, 16, 8), 24, (3, 3), (1, 1), (1, 1)),
    ((128, 16, 16), 128, (1, 1), (2, 2), (0, 0)),
]

ORACLE = CENSUS_SITES + NEAR_CUTOFF


def test_oracle_covers_the_served_sites_and_the_cutoff():
    # resnet20's and mobilenetv2's dense 3x3s at the perfbench shapes.
    assert ((16, 32, 32), 32, (3, 3), (2, 2), (1, 1)) in CENSUS_SITES
    assert ((66, 16, 16), 66, (3, 3), (1, 1), (1, 1)) in CENSUS_SITES
    assert len(CENSUS_SITES) >= 10
    for x_shape, out_channels, kernel, stride, padding in NEAR_CUTOFF:
        desc = _conv(x_shape, out_channels, kernel, stride, padding)
        out_h, out_w = kernels.conv_output_hw(x_shape[1], x_shape[2], kernel, stride,
                                              padding)
        depth = x_shape[0] * kernel[0] * kernel[1]
        assert _batched(desc)
        assert out_channels * depth * out_h * out_w < 1.33 * BATCHED_MIN_MACS


@pytest.mark.parametrize(
    "x_shape,out_channels,kernel,stride,padding", ORACLE, ids=[_site_id(g) for g in ORACLE]
)
def test_fold_is_bitwise_at_every_batch(x_shape, out_channels, kernel, stride, padding):
    rng = np.random.default_rng(sum(x_shape) + out_channels)
    depth = x_shape[0] * kernel[0] * kernel[1]
    weights = {
        "fp32": rng.standard_normal((out_channels, depth)),
        "int8": rng.integers(-128, 128, size=(out_channels, depth)).astype(np.int8),
    }
    x = rng.standard_normal((BATCHES[-1],) + x_shape)
    for tag, weight in weights.items():
        packed = kernels.pack_weight_matrix(weight)
        for batch in BATCHES:
            reference = run_conv("im2col", x[:batch], weight, kernel, stride, padding)
            folded = run_conv("im2col_batched", x[:batch], packed, kernel, stride, padding)
            np.testing.assert_array_equal(
                folded, reference, err_msg=f"{tag} weights, batch {batch}"
            )


def _block(desc: KernelDesc) -> int:
    out_hw = kernels.conv_output_hw(desc.x_shape[1], desc.x_shape[2], desc.kernel_size,
                                    desc.stride, desc.padding)
    return column_block(desc.x_shape, desc.kernel_size, out_hw)


#: Census sites served as ``im2col_slices`` whose columns at
#: the largest batch span more than one block.
BLOCKED_SITES = _census_geometries(
    lambda desc: served_variant(desc) == "im2col_slices" and _block(desc) < BATCHES[-1]
)


def test_blocking_oracle_covers_every_block_shape():
    blocks = {_block(_conv(*site)) for site in BLOCKED_SITES}
    # resnet20's and mobilenetv2's 32x32 3x3s: one sample per block.
    for site in (((16, 32, 32), 16), ((48, 32, 32), 48)):
        assert site + ((3, 3), (1, 1), (1, 1)) in BLOCKED_SITES
        assert _block(_conv(*site)) == 1
    # Blocks of several samples; batches 1-16 end some of them part-full.
    assert any(1 < block < BATCHES[-1] for block in blocks)
    assert any(BATCHES[-1] % block for block in blocks)


@pytest.mark.parametrize(
    "x_shape,out_channels,kernel,stride,padding", BLOCKED_SITES,
    ids=[_site_id(g) for g in BLOCKED_SITES],
)
def test_column_blocks_are_bitwise_at_every_batch(x_shape, out_channels, kernel, stride,
                                                  padding):
    rng = np.random.default_rng(sum(x_shape) + out_channels)
    depth = x_shape[0] * kernel[0] * kernel[1]
    weights = {
        "fp32": rng.standard_normal((out_channels, depth)),
        "int8": rng.integers(-128, 128, size=(out_channels, depth)).astype(np.int8),
    }
    x = rng.standard_normal((BATCHES[-1],) + x_shape)
    for tag, weight in weights.items():
        packed = kernels.pack_weight_matrix(weight)
        for batch in BATCHES:
            reference = run_conv("im2col", x[:batch], weight, kernel, stride, padding)
            blocked = run_conv("im2col_slices", x[:batch], packed, kernel, stride, padding)
            np.testing.assert_array_equal(
                blocked, reference, err_msg=f"{tag} weights, batch {batch}"
            )


def test_conv_never_holds_the_batch_columns():
    # mobilenetv2 x0.35's 48-channel 32x32 conv at the served batch, as a
    # plan step runs it: the served variant into a preallocated output.
    batch, x_shape, out_channels = 16, (48, 32, 32), 48
    desc = _conv(x_shape, out_channels)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((batch,) + x_shape)
    weight = kernels.pack_weight_matrix(rng.standard_normal((out_channels, 48 * 9)))
    out = np.empty((batch, out_channels, 32 * 32))
    batch_columns = x.itemsize * batch * 48 * 9 * 32 * 32  # 54 MiB
    tracemalloc.start()
    try:
        run_conv(served_variant(desc), x, weight, (3, 3), (1, 1), (1, 1), out=out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < batch_columns / 4, f"peak {peak / 2**20:.1f} MiB"


#: (model, width, per-sample shape): the perfbench serving models, and
#: mobilenetv2 x1.0 at 8x8, whose last maps are 1x1 -- where the fold
#: would meet numpy's matrix-vector path.
PLAN_CONFIGS = [
    ("resnet20", 1.0, (3, 32, 32)),
    ("mobilenetv2", 0.35, (3, 32, 32)),
    ("mobilenetv2", 1.0, (3, 8, 8)),
]


@pytest.mark.parametrize("name,width,shape", PLAN_CONFIGS,
                         ids=[f"{c[0]}x{c[1]:g}" for c in PLAN_CONFIGS])
def test_plans_match_unoptimised_plans_bitwise(name, width, shape):
    rng = np.random.default_rng(3)
    model = build_model(name, num_classes=10, width_multiplier=width,
                        in_channels=shape[0], rng=rng)
    # An APT-style export: per-layer bitwidths 4..8, as perfbench serves.
    bits = {p: int(rng.integers(4, 9)) for p, _ in model.named_parameters()}
    export = export_quantized_model(model, bits)
    pairs = {
        "fp32": (compile_plan(model, shape),
                 compile_plan(model, shape, optimize=False)),
        "apt": (compile_quantized_plan(model, export, shape),
                compile_quantized_plan(model, export, shape, optimize=False)),
    }
    x = rng.standard_normal((16,) + shape)
    for tag, (plan, baseline) in pairs.items():
        chosen = list(plan.kernel_variants().values())
        assert "im2col_batched" in chosen, tag
        for batch in (1, 2, 5, 16):
            np.testing.assert_array_equal(
                plan.run(x[:batch]), baseline.run(x[:batch]),
                err_msg=f"{tag} plan, batch {batch}",
            )
