"""Conv variants: byte-exactness of every variant, everywhere.

The admission rule under test: for every conv variant and every geometry
where ``admitted_variants`` lists it, the variant's output is **bitwise
identical** to the reference implementation -- for float weights and for
quantised integer-code weights alike, and whether or not the weight was
packed.  The sweep runs each variant over edge-case shapes (1x1 conv,
stride > 1, padding, batch of one, one output pixel or channel, batches
that ``im2col_slices`` splits into blocks of columns) rather than just the
friendly defaults.

The census tests hold the variants to their evidence: every non-reference
variant must win some signature in ``docs/variant_census.json`` by more
than race noise (regenerate it with ``tools/variant_census.py``), and every
site the census raced must still compile to the variants it recorded there
and run them bit for bit like the unoptimised plan.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.models import build_model
from repro.quant import export_quantized_model
from repro.runtime import blas, compile_plan, compile_quantized_plan
from repro.runtime.executor import ConvStep, LinearStep
from repro.runtime.variants import (
    CONV_VARIANTS,
    KernelDesc,
    admitted_variants,
    column_block,
    run_conv,
    served_variant,
)
from zoo import build

RNG = np.random.default_rng(7)

ROOT = Path(__file__).resolve().parents[2]
CENSUS_PATH = ROOT / "docs" / "variant_census.json"
CENSUS_TOOL = ROOT / "tools" / "variant_census.py"

#: Every call site the checked-in census raced: (site, model, width,
#: per-sample shape, bits), the site named as the census names it.
_CENSUS = json.loads(CENSUS_PATH.read_text())
CENSUS_SITES = [
    (f"{config['source']}:{config['model']}x{config['width']:g}@{bits}",
     config["model"], config["width"], tuple(config["shape"]), bits)
    for config in _CENSUS["configs"]
    for bits in _CENSUS["bits"]
]

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
    ("strided_unpadded", (4, 13, 13), 6, (3, 3), (2, 2), (0, 0), 4),
    ("strided5x5", (3, 15, 15), 4, (5, 5), (2, 2), (2, 2), 3),
    # 1x1 kernels that are not pointwise: gemm_1x1 stands aside.
    ("strided1x1", (8, 10, 10), 6, (1, 1), (2, 2), (0, 0), 3),
    ("padded1x1", (4, 6, 6), 3, (1, 1), (1, 1), (1, 1), 2),
    # One output pixel, or one output channel: numpy's matrix-vector paths.
    ("one_pixel_map", (6, 5, 5), 4, (5, 5), (1, 1), (0, 0), 3),
    ("pointwise_one_pixel", (16, 1, 1), 8, (1, 1), (1, 1), (0, 0), 3),
    ("one_out_channel", (5, 9, 9), 1, (3, 3), (1, 1), (1, 1), 4),
    # A stride-2 downsampling conv the batch fold admits (256 pixels).
    ("batch_folded_strided", (16, 32, 32), 32, (3, 3), (2, 2), (1, 1), 2),
]


def _conv_weights(out_channels, x_shape, kernel):
    """(float64 matrix, int8-code matrix) filter pairs for one geometry."""
    k_rows = x_shape[0] * kernel[0] * kernel[1]
    fp = RNG.normal(size=(out_channels, k_rows))
    codes = RNG.integers(-128, 128, size=(out_channels, k_rows)).astype(np.int8)
    return [("fp32", fp), ("int8", codes)]


def _conv_desc(x_shape, out_channels, kernel, stride, padding):
    return KernelDesc(
        x_shape=x_shape, kernel_size=kernel, stride=stride, padding=padding,
        out_channels=out_channels,
    )


@pytest.mark.parametrize("label,x_shape,cout,kernel,stride,padding,batch",
                         CONV_CASES, ids=[c[0] for c in CONV_CASES])
def test_conv_variants_bitwise_identical(label, x_shape, cout, kernel, stride, padding, batch):
    x = RNG.normal(size=(batch,) + x_shape)
    desc = _conv_desc(x_shape, cout, kernel, stride, padding)
    for tag, weight in _conv_weights(cout, x_shape, kernel):
        # The reference over the weight as stored (integer codes for the
        # int8 case); every variant, the reference included, then runs
        # over the packed weight the lowering hands it.
        reference = run_conv("im2col", x, weight, kernel, stride, padding)
        admitted = admitted_variants(desc)
        assert admitted[0] == "im2col"
        packed = kernels.pack_weight_matrix(weight)
        for variant in admitted:
            produced = run_conv(variant, x, packed, kernel, stride, padding)
            np.testing.assert_array_equal(
                produced, np.asarray(reference),
                err_msg=f"{label}/{tag}: conv2d.{variant} changed bytes",
            )


def test_conv_edge_cases_exercise_every_variant():
    # The case table must actually admit each non-reference conv variant
    # somewhere, or the sweep above proves nothing about it.
    admitted = set()
    for _, x_shape, cout, kernel, stride, padding, _ in CONV_CASES:
        desc = _conv_desc(x_shape, cout, kernel, stride, padding)
        admitted.update(admitted_variants(desc))
    assert admitted == set(CONV_VARIANTS)
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


@pytest.mark.parametrize("weight_dtype", [np.float64, np.int8])
def test_linear_over_the_packed_weight_is_bitwise_identical(weight_dtype):
    # A linear step multiplies by its packed weight.
    x = RNG.normal(size=(4, 24))
    if weight_dtype is np.float64:
        weight = RNG.normal(size=(24, 5))
    else:
        weight = RNG.integers(-128, 128, size=(24, 5)).astype(weight_dtype)
    np.testing.assert_array_equal(x @ kernels.pack_weight_matrix(weight), x @ weight)


class TestSelector:
    def test_the_four_conv_variants_reference_first(self):
        assert CONV_VARIANTS == ("im2col", "im2col_slices", "im2col_batched", "gemm_1x1")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown conv2d variant"):
            run_conv("nope", np.zeros((1, 1, 2, 2)), np.zeros((1, 1)),
                     (1, 1), (1, 1), (0, 0))

    def test_heuristic_prefers_gemm_for_1x1(self):
        desc = _conv_desc((16, 8, 8), 8, (1, 1), (1, 1), (0, 0))
        assert served_variant(desc) == "gemm_1x1"
        assert admitted_variants(desc) == ("im2col", "gemm_1x1")

    def test_heuristic_prefers_slices_for_spatial_kernels(self):
        desc = _conv_desc((3, 8, 8), 4, (3, 3), (1, 1), (1, 1))
        assert served_variant(desc) == "im2col_slices"
        assert admitted_variants(desc) == ("im2col", "im2col_slices")

    def test_served_variant_is_admitted_at_every_edge_case(self):
        for _, x_shape, cout, kernel, stride, padding, _ in CONV_CASES:
            desc = _conv_desc(x_shape, cout, kernel, stride, padding)
            admitted = admitted_variants(desc)
            assert admitted[0] == "im2col"
            assert served_variant(desc) == admitted[-1]

    @pytest.mark.parametrize("x_shape,kernel,padding,variant", [
        ((8, 6, 6), (1, 1), (0, 0), "gemm_1x1"),
        ((5, 9, 9), (3, 3), (1, 1), "im2col_slices"),
        ((144, 28, 28), (3, 3), (1, 1), "im2col_batched"),
    ], ids=["pointwise", "spatial", "batch_folded"])
    def test_only_the_reference_runs_at_one_output_channel(self, x_shape, kernel, padding,
                                                           variant):
        # One filter row makes each sample's GEMM a vector-matrix product,
        # which sums in an order set by the columns' memory layout.
        def desc(out_channels):
            return _conv_desc(x_shape, out_channels, kernel, (1, 1), padding)

        assert served_variant(desc(2)) == variant
        assert admitted_variants(desc(1)) == ("im2col",)
        assert served_variant(desc(1)) == "im2col"


class TestCompiledPlanVariants:
    """select_kernels end-to-end: annotated plans stay byte-identical."""

    def test_mobilenet_selects_gemm_1x1_and_stays_exact(self):
        model, shape = build("mobilenetv2")
        plan = compile_plan(model, shape)
        chosen = set(plan.kernel_variants().values())
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
        assert plan.kernel_variants() == float_plan.kernel_variants()
        for step in plan.steps:
            if isinstance(step, (ConvStep, LinearStep)):
                assert step._weight_exec.dtype == np.float64
                assert step._weight_exec.flags.c_contiguous
        baseline = compile_quantized_plan(model, export, shape, optimize=False)
        x = RNG.normal(size=(3,) + shape)
        np.testing.assert_array_equal(plan.run(x), baseline.run(x))

    #: The conv variant of every step of the perfbench serving models at
    #: 3x32x32, one letter a step: S = im2col_slices, B = im2col_batched,
    #: G = gemm_1x1.  resnet20: 9 S, 12 B; mobilenetv2 x0.35: 4 S, 34 G, 14 B.
    SERVED_CONV_VARIANTS = [
        ("resnet20", 1.0, "SSSSSSSBBSBBBBBBSBBBB"),
        ("mobilenetv2", 0.35, "SSGGSGGSGGBGGBGGBGGBGGBGGBGGBGGBGGBGGBGGBGGBGGBGGBGG"),
    ]

    @pytest.mark.parametrize("name,width,expected", SERVED_CONV_VARIANTS,
                             ids=[c[0] for c in SERVED_CONV_VARIANTS])
    def test_served_models_keep_their_conv_variants(self, name, width, expected):
        model = build_model(name, num_classes=10, width_multiplier=width, in_channels=3,
                            rng=np.random.default_rng(0))
        export = export_quantized_model(model, {n: 8 for n, _ in model.named_parameters()})
        letters = {"im2col_slices": "S", "im2col_batched": "B", "gemm_1x1": "G"}
        for plan in (compile_plan(model, (3, 32, 32)),
                     compile_quantized_plan(model, export, (3, 32, 32))):
            chosen = "".join(letters[v] for v in plan.kernel_variants().values())
            assert chosen == expected, plan.quantized

    def test_describe_shows_the_conv_variants(self):
        model, shape = build("tiny_convnet")
        plan = compile_plan(model, shape)
        text = plan.describe()
        assert "variant=im2col_slices" in text and "(heuristic)" not in text
        assert "variants: im2col_slicesx2" in plan.describe_pipeline()


class TestCensus:
    """Every variant must earn its place in the checked-in census."""

    @pytest.fixture(scope="class")
    def census(self):
        return json.loads(CENSUS_PATH.read_text())

    @pytest.fixture(scope="class")
    def tool(self):
        spec = importlib.util.spec_from_file_location("variant_census", CENSUS_TOOL)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        return tool

    @staticmethod
    def won(census):
        """(op, variant) pairs that win a signature by more than noise: the
        pick in most of its races there, by a median margin over the
        runner-up above the census's displace margin.  A heuristic incumbent
        a race merely kept (margin inside the displace margin) has not
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
        # The reference stays: every variant is tested against it.
        for name in CONV_VARIANTS[1:]:
            assert ("conv2d", name) in won, (
                f"conv2d.{name} wins no signature in the census by more than "
                f"the displace margin; delete it or show where it wins "
                f"(tools/variant_census.py)"
            )

    def test_census_names_only_registered_variants(self, census):
        registered = {("conv2d", name) for name in CONV_VARIANTS}
        named = set()
        for row in census["signatures"].values():
            named.add((row["op"], row["heuristic"]))
            for mode in row["modes"].values():
                named.update((row["op"], name) for name in mode["candidates"])
                named.update((row["op"], name) for name in mode["picks"])
        for op, names in census["variants"].items():
            named.update((op, name) for name in names)
        assert named <= registered, sorted(named - registered)

    def test_census_was_taken_at_every_site_the_tool_races(self, census, tool):
        assert [
            (config["source"], config["model"], config["width"], tuple(config["shape"]))
            for config in census["configs"]
        ] == tool.census_configs()
        assert census["bits"] == list(tool.BITS)

    @pytest.mark.parametrize("site,name,width,shape,bits", CENSUS_SITES,
                             ids=[site[0] for site in CENSUS_SITES])
    def test_every_site_serves_its_census_variants_byte_exactly(
        self, census, tool, site, name, width, shape, bits
    ):
        """Each raced site compiles, as served, to the variants the census
        records as the heuristic's there, and runs them bit for bit like
        the unoptimised plan at batches 1 and 16."""
        model = build_model(name, num_classes=10, width_multiplier=width,
                            in_channels=shape[0], rng=np.random.default_rng(0))
        if bits == 32:
            plan, baseline = (compile_plan(model, shape, optimize=optimize)
                              for optimize in (True, False))
        else:
            export = export_quantized_model(model, {p: bits for p, _ in model.named_parameters()})
            plan, baseline = (compile_quantized_plan(model, export, shape, optimize=optimize)
                              for optimize in (True, False))
        x = np.random.default_rng(1).normal(size=(16,) + shape)
        # Step through one sample to read each conv step's input geometry.
        ctx = plan.create_context(1)
        ctx.env[0] = x[:1]
        served = {}
        for step in plan.steps:
            if isinstance(step, ConvStep):
                desc = KernelDesc(
                    x_shape=tuple(ctx.env[step.x].shape[1:]),
                    kernel_size=tuple(step.kernel_size), stride=tuple(step.stride),
                    padding=tuple(step.padding), out_channels=step.out_channels,
                )
                signature = tool.signature(desc, str(step.weight_matrix.dtype), step.bits)
                served.setdefault(signature, set()).add(step.variant)
            step.run(ctx.env, ctx)
        assert served == {
            signature: {row["heuristic"]}
            for signature, row in census["signatures"].items()
            if site in row["modes"]["numpy"]["sites"]
        }
        for batch in (1, 16):
            np.testing.assert_array_equal(plan.run(x[:batch]), baseline.run(x[:batch]),
                                          err_msg=f"batch {batch}")

    def test_signature_distinguishes_geometry_and_bits(self, tool):
        base = dict(x_shape=(3, 8, 8), kernel_size=(3, 3), stride=(1, 1),
                    padding=(1, 1), out_channels=4)
        signatures = {tool.signature(KernelDesc(**base), "int8", 8)}
        for mutation in (
            {"stride": (2, 2)}, {"padding": (0, 0)},
            {"x_shape": (3, 16, 16)}, {"out_channels": 8},
        ):
            signatures.add(tool.signature(KernelDesc(**{**base, **mutation}), "int8", 8))
        signatures.add(tool.signature(KernelDesc(**base), "int8", 4))
        assert len(signatures) == 6

    def test_the_tool_races_into_the_rows_these_checks_read(self, census, tool):
        site = "cli:tiny_convnetx1@8"
        entries = {}
        tool.tally(entries, tool.race_config("tiny_convnet", 1.0, (1, 12, 12), 8), site)
        raced = tool.record(entries, [("cli", "tiny_convnet", 1.0, (1, 12, 12))])
        # The checked-in census has the same signature strings at this site.
        assert set(raced["signatures"]) == {
            signature for signature, row in census["signatures"].items()
            if site in row["modes"]["numpy"]["sites"]
        }
        assert raced["modes"] == census["modes"] == ["numpy"]
        assert raced["displace_margin"] == census["displace_margin"] == 0.05
        assert raced["variants"] == census["variants"] == {"conv2d": list(CONV_VARIANTS)}
        assert raced["references"] == census["references"] == {"conv2d": "im2col"}
        assert raced["host"]["blas_threads"] == blas.current_threads()
        for row in raced["signatures"].values():
            assert row["op"] == "conv2d"
            assert row["heuristic"] == "im2col_slices"
            (mode,) = row["modes"].values()
            assert mode["candidates"] == ["im2col", "im2col_slices"]
            assert mode["sites"] == [site]
            (pick,) = mode["picks"]
            assert mode["picks"][pick] == 1
            assert pick in mode["candidates"]
            assert set(mode["median_margin"]) == {pick}
        assert self.won(raced) <= {("conv2d", name) for name in CONV_VARIANTS}
