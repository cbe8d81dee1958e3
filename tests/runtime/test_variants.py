"""Kernel variant registry: byte-exactness of every variant, everywhere.

The admission rule under test: for every registered variant and every
geometry its ``applies`` predicate accepts, the variant's output is
**bitwise identical** to the reference implementation -- for float weights
and for quantised integer-code weights alike, and whether or not the weight
was packed.  The sweep runs each variant over edge-case shapes (1x1 conv,
stride > 1, padding, non-overlapping and overlapping pooling, batch of one,
batches that ``im2col_slices`` splits into blocks of columns) rather than
just the friendly defaults.

The census tests hold the registry to its evidence: every non-reference
variant must win some signature in ``docs/variant_census.json`` by more
than race noise (regenerate it with ``tools/variant_census.py``).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.quant import export_quantized_model
from repro.runtime import compile_plan, compile_quantized_plan
from repro.runtime.executor import ConvStep, LinearStep
from repro.runtime.variants import (
    KernelDesc,
    KernelVariant,
    applicable_variants,
    available_variants,
    column_block,
    heuristic_choice,
    reference_variant,
    register_variant,
    run_conv,
    run_linear,
    run_pool,
    variants_for,
)
from zoo import build

RNG = np.random.default_rng(7)

CENSUS_PATH = Path(__file__).resolve().parents[2] / "docs" / "variant_census.json"

#: Conv geometries covering the edge cases: (label, per-sample x_shape,
#: out_channels, kernel, stride, padding, batch).
CONV_CASES = [
    ("plain3x3", (3, 12, 12), 8, (3, 3), (1, 1), (1, 1), 4),
    ("conv1x1", (16, 9, 9), 8, (1, 1), (1, 1), (0, 0), 4),
    ("strided", (4, 13, 13), 6, (3, 3), (2, 2), (1, 1), 4),
    ("padded5x5", (2, 8, 8), 4, (5, 5), (1, 1), (2, 2), 4),
    ("batch_of_one", (3, 7, 7), 5, (3, 3), (1, 1), (0, 0), 1),
    ("large_spatial", (8, 64, 64), 4, (3, 3), (1, 1), (1, 1), 3),
    ("rect_stride", (3, 12, 10), 4, (2, 3), (2, 1), (0, 1), 2),
    # 256 output pixels, 32 * 144 * 256 multiply-adds a sample: im2col_batched.
    ("batch_folded", (16, 16, 16), 32, (3, 3), (1, 1), (1, 1), 3),
    # 576 KiB of columns a sample: im2col_slices runs blocks of 3, then 1.
    ("column_blocks", (8, 32, 32), 8, (3, 3), (1, 1), (1, 1), 4),
]

#: Pooling geometries: (label, x_shape, kernel, stride, batch).
POOL_CASES = [
    ("non_overlapping", (4, 12, 12), (2, 2), (2, 2), 4),
    ("non_overlapping_3x3", (3, 9, 9), (3, 3), (3, 3), 4),
    ("overlapping", (4, 11, 11), (3, 3), (2, 2), 4),
    ("ragged", (2, 10, 10), (3, 3), (3, 3), 2),
    ("batch_of_one", (3, 8, 8), (2, 2), (2, 2), 1),
]


def _conv_weights(out_channels, x_shape, kernel):
    """(float64 matrix, int8-code matrix) filter pairs for one geometry."""
    k_rows = x_shape[0] * kernel[0] * kernel[1]
    fp = RNG.normal(size=(out_channels, k_rows))
    codes = RNG.integers(-128, 128, size=(out_channels, k_rows)).astype(np.int8)
    return [("fp32", fp, 32), ("int8", codes, 8)]


def _conv_desc(x_shape, out_channels, kernel, stride, padding, weight, bits):
    return KernelDesc(
        op="conv2d", x_shape=x_shape, kernel_size=kernel, stride=stride,
        padding=padding, out_channels=out_channels,
        weight_dtype=str(weight.dtype), bits=bits,
    )


@pytest.mark.parametrize("label,x_shape,cout,kernel,stride,padding,batch",
                         CONV_CASES, ids=[c[0] for c in CONV_CASES])
def test_conv_variants_bitwise_identical(label, x_shape, cout, kernel, stride, padding, batch):
    x = RNG.normal(size=(batch,) + x_shape)
    for tag, weight, bits in _conv_weights(cout, x_shape, kernel):
        desc = _conv_desc(x_shape, cout, kernel, stride, padding, weight, bits)
        # The reference over the weight as stored (integer codes for the
        # int8 case); every variant, the reference included, then runs
        # over the packed weight the lowering hands it.
        reference = run_conv("im2col", x, weight, kernel, stride, padding)
        admitted = applicable_variants(desc)
        assert admitted[0].name == "im2col"
        packed = kernels.pack_weight_matrix(weight)
        for variant in admitted:
            produced = run_conv(variant.name, x, packed, kernel, stride, padding)
            np.testing.assert_array_equal(
                produced, np.asarray(reference),
                err_msg=f"{label}/{tag}: conv2d.{variant.name} changed bytes",
            )


def test_conv_edge_cases_exercise_every_variant():
    # The case table must actually admit each non-reference conv variant
    # somewhere, or the sweep above proves nothing about it.
    admitted = set()
    for _, x_shape, cout, kernel, stride, padding, _ in CONV_CASES:
        for _, weight, bits in _conv_weights(cout, x_shape, kernel):
            desc = _conv_desc(x_shape, cout, kernel, stride, padding, weight, bits)
            admitted.update(v.name for v in applicable_variants(desc))
    # "native" only admits with the codegen backend enabled (plus a
    # compiler and a verified build), so the numpy sweep excludes it.
    assert admitted == set(available_variants()["conv2d"]) - {"native"}
    # im2col_slices' column blocks: one sample each (large_spatial), and
    # several samples ending in a part-full block (column_blocks).
    blocks = set()
    for _, x_shape, cout, kernel, stride, padding, batch in CONV_CASES:
        out_hw = kernels.conv_output_hw(x_shape[1], x_shape[2], kernel, stride, padding)
        block = column_block(x_shape, kernel, out_hw)
        if block < batch:
            blocks.add((block, batch % block))
    assert (1, 0) in blocks
    assert any(block > 1 and rest for block, rest in blocks)


@pytest.mark.parametrize("op", ["max_pool2d", "avg_pool2d"])
@pytest.mark.parametrize("label,x_shape,kernel,stride,batch",
                         POOL_CASES, ids=[c[0] for c in POOL_CASES])
def test_pool_variants_bitwise_identical(op, label, x_shape, kernel, stride, batch):
    x = RNG.normal(size=(batch,) + x_shape)
    desc = KernelDesc(op=op, x_shape=x_shape, kernel_size=kernel, stride=stride)
    reference = run_pool(op, "auto", x, kernel, stride)
    admitted = applicable_variants(desc)
    assert admitted[0].name == "auto"
    for variant in admitted[1:]:
        np.testing.assert_array_equal(
            run_pool(op, variant.name, x, kernel, stride), reference,
            err_msg=f"{label}: {op}.{variant.name} changed bytes",
        )


def test_pool_edge_cases_exercise_every_variant():
    for op in ("max_pool2d", "avg_pool2d"):
        admitted = set()
        for _, x_shape, kernel, stride, _ in POOL_CASES:
            desc = KernelDesc(op=op, x_shape=x_shape, kernel_size=kernel, stride=stride)
            admitted.update(v.name for v in applicable_variants(desc))
        assert admitted == set(available_variants()[op])


@pytest.mark.parametrize("bits,weight_dtype", [(32, np.float64), (8, np.int8)])
def test_linear_variants_bitwise_identical(bits, weight_dtype):
    x = RNG.normal(size=(4, 24))
    if weight_dtype is np.float64:
        weight = RNG.normal(size=(24, 5))
    else:
        weight = RNG.integers(-128, 128, size=(24, 5)).astype(weight_dtype)
    desc = KernelDesc(op="linear", x_shape=(24,), out_channels=5,
                      weight_dtype=str(np.dtype(weight_dtype)), bits=bits)
    reference = run_linear("matmul", x, weight)
    packed = kernels.pack_weight_matrix(weight)
    for variant in applicable_variants(desc):
        np.testing.assert_array_equal(run_linear(variant.name, x, packed), reference)


class TestRegistry:
    def test_reference_is_first_registered(self):
        assert reference_variant("conv2d") == "im2col"
        assert reference_variant("linear") == "matmul"
        assert reference_variant("max_pool2d") == "auto"
        assert reference_variant("avg_pool2d") == "auto"

    def test_available_variants_lists_every_op(self):
        assert available_variants() == {
            "conv2d": ("im2col", "im2col_slices", "im2col_batched", "gemm_1x1", "native"),
            "linear": ("matmul",),
            "max_pool2d": ("auto", "gather"),
            "avg_pool2d": ("auto",),
        }

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_variant(KernelVariant(
                op="conv2d", name="im2col", applies=lambda d: True,
                rank=0, description="dup",
            ))

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown op"):
            register_variant(KernelVariant(
                op="softmax", name="x", applies=lambda d: True,
                rank=0, description="",
            ))
        with pytest.raises(ValueError, match="unknown conv2d variant"):
            run_conv("nope", np.zeros((1, 1, 2, 2)), np.zeros((1, 1)),
                     (1, 1), (1, 1), (0, 0))
        with pytest.raises(ValueError, match="unknown pooling variant"):
            run_pool("max_pool2d", "nope", np.zeros((1, 1, 2, 2)), (1, 1), (1, 1))

    def test_heuristic_prefers_gemm_for_1x1(self):
        desc = KernelDesc(op="conv2d", x_shape=(16, 8, 8), kernel_size=(1, 1),
                          stride=(1, 1), padding=(0, 0), out_channels=8,
                          weight_dtype="float64", bits=32)
        assert heuristic_choice(desc) == "gemm_1x1"

    def test_heuristic_prefers_slices_for_spatial_kernels(self):
        desc = KernelDesc(op="conv2d", x_shape=(3, 8, 8), kernel_size=(3, 3),
                          stride=(1, 1), padding=(1, 1), out_channels=4,
                          weight_dtype="float64", bits=32)
        assert heuristic_choice(desc) == "im2col_slices"

    def test_heuristic_keeps_the_reference_at_every_pool(self):
        # max_pool2d.auto takes the tiled reduction where it applies and
        # gathers elsewhere; only a tuner measurement picks gather over it.
        for op in ("max_pool2d", "avg_pool2d"):
            for _, x_shape, kernel, stride, _ in POOL_CASES:
                desc = KernelDesc(op=op, x_shape=x_shape, kernel_size=kernel,
                                  stride=stride)
                assert heuristic_choice(desc) == "auto", (op, x_shape, kernel, stride)

    def test_heuristic_falls_back_to_reference(self):
        # A linear admits only the reference matmul.
        desc = KernelDesc(op="linear", x_shape=(24,), out_channels=5,
                          weight_dtype="float64", bits=32)
        assert heuristic_choice(desc) == "matmul"

    def test_signature_distinguishes_geometry_and_bits(self):
        base = dict(op="conv2d", x_shape=(3, 8, 8), kernel_size=(3, 3),
                    stride=(1, 1), padding=(1, 1), out_channels=4,
                    weight_dtype="int8", bits=8)
        signatures = {KernelDesc(**base).signature()}
        for mutation in (
            {"stride": (2, 2)}, {"padding": (0, 0)}, {"bits": 4},
            {"x_shape": (3, 16, 16)}, {"out_channels": 8},
        ):
            signatures.add(KernelDesc(**{**base, **mutation}).signature())
        assert len(signatures) == 6

    def test_every_variant_has_metadata(self):
        for op, names in available_variants().items():
            for variant in variants_for(op):
                assert variant.description
                assert variant.name in names


class TestCompiledPlanVariants:
    """select_kernels end-to-end: annotated plans stay byte-identical."""

    def test_mobilenet_selects_gemm_1x1_and_stays_exact(self):
        model, shape = build("mobilenetv2")
        plan = compile_plan(model, shape)
        chosen = {v for v, _ in plan.kernel_variants().values()}
        assert "gemm_1x1" in chosen
        baseline = compile_plan(model, shape, optimize=False)
        x = RNG.normal(size=(3,) + shape)
        np.testing.assert_array_equal(plan.run(x), baseline.run(x))

    def test_quantized_plan_runs_float_plan_variants_over_packed_codes(self):
        # Packing erases the integer/float difference at the kernel call:
        # a quantised plan picks exactly the float plan's variants, every
        # conv / linear multiplies by a packed float64 matrix, and the
        # output matches the unoptimised reference byte for byte.
        model, shape = build("tiny_convnet")
        export = export_quantized_model(
            model, {n: 8 for n, _ in model.named_parameters()}
        )
        plan = compile_quantized_plan(model, export, shape)
        float_plan = compile_plan(model, shape)
        assert [v for v, _ in plan.kernel_variants().values()] == [
            v for v, _ in float_plan.kernel_variants().values()
        ]
        for step in plan.steps:
            if isinstance(step, (ConvStep, LinearStep)):
                assert step._weight_exec.dtype == np.float64
                assert step._weight_exec.flags.c_contiguous
        baseline = compile_quantized_plan(model, export, shape, optimize=False)
        x = RNG.normal(size=(3,) + shape)
        np.testing.assert_array_equal(plan.run(x), baseline.run(x))

    def test_describe_shows_variant_and_provenance(self):
        model, shape = build("tiny_convnet")
        plan = compile_plan(model, shape)
        text = plan.describe()
        assert "variant=" in text and "(heuristic)" in text
        assert "variants:" in plan.describe_pipeline()


class TestCensus:
    """Every variant must earn its place in the checked-in census."""

    @pytest.fixture(scope="class")
    def census(self):
        return json.loads(CENSUS_PATH.read_text())

    @staticmethod
    def won(census):
        """(op, variant) pairs that win a signature by more than noise: the
        pick in most of its races there, by a median margin over the
        runner-up above the tuner's displace margin.  A heuristic incumbent
        the tuner merely kept (margin inside the displace margin) has not
        won."""
        won = set()
        for row in census["signatures"].values():
            for mode in row["modes"].values():
                races = sum(mode["picks"].values())
                for variant, count in mode["picks"].items():
                    margin = mode["median_margin"].get(variant)
                    if (2 * count > races and margin is not None
                            and margin > census["displace_margin"]):
                        won.add((row["op"], variant))
        return won

    def test_every_non_reference_variant_wins_a_signature(self, census):
        won = self.won(census)
        for op, names in available_variants().items():
            for name in names:
                if name == reference_variant(op):
                    continue  # references stay: every variant is tested against them
                assert (op, name) in won, (
                    f"{op}.{name} wins no signature in the census by more than "
                    f"the displace margin; delete it or show where it wins "
                    f"(tools/variant_census.py)"
                )

    def test_census_names_only_registered_variants(self, census):
        registered = {
            (op, name) for op, names in available_variants().items() for name in names
        }
        named = set()
        for row in census["signatures"].values():
            named.add((row["op"], row["heuristic"]))
            for mode in row["modes"].values():
                named.update((row["op"], name) for name in mode["candidates"])
                named.update((row["op"], name) for name in mode["picks"])
        for op, names in census["variants"].items():
            named.update((op, name) for name in names)
        assert named <= registered, sorted(named - registered)
