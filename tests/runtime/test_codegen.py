"""Native codegen backend: emit -> build -> verify -> dispatch, bitwise.

The contract under test is the PR-7 admission rule extended to generated
C: a native kernel may only ever serve a signature it has proven
**byte-for-byte identical** to the numpy reference path on, and every
failure mode (no compiler, failed build, failed probe, disabled backend)
degrades to numpy silently.  The sweeps here re-check identity on *fresh*
random data -- independent of the seeded probe the admission rule uses.
"""

import os

import numpy as np
import pytest

from repro import kernels
from repro.quant import export_quantized_model
from repro.runtime import compile_plan, compile_quantized_plan
from repro.runtime import codegen
from repro.runtime.codegen import ConvGeom, EpilogueSpec, epilogue_spec
from repro.runtime.codegen import build as codegen_build
from repro.runtime.codegen.emitter import c_double
from repro.runtime.tuning import Autotuner, TuningCache, TuningConfig
from repro.runtime.variants import KernelDesc, applicable_variants, run_conv
from zoo import build

RNG = np.random.default_rng(23)

HAVE_COMPILER = codegen.compiler_command() is not None
needs_compiler = pytest.mark.skipif(
    not HAVE_COMPILER, reason="no C compiler on this host"
)


@pytest.fixture()
def enabled_codegen(tmp_path):
    """Backend on, artifacts in a fresh per-test directory; reset after."""
    codegen.reset()
    codegen.configure(enable=True, cache_dir_path=str(tmp_path / "artifacts"))
    yield codegen
    codegen.reset()


@pytest.fixture()
def disabled_codegen(monkeypatch):
    monkeypatch.delenv("REPRO_CODEGEN", raising=False)
    codegen.reset()
    yield codegen
    codegen.reset()


# --------------------------------------------------------------------------- #
# Spec builder: only exactly-reproducible epilogues are admissible
# --------------------------------------------------------------------------- #
class TestSpecBuilders:
    def test_c_double_is_exact_hexfloat(self):
        for value in (0.5, 1.0 / 3.0, -2.7182818284590455, 6.0):
            assert float.fromhex(c_double(value).strip("()")) == value
        with pytest.raises(ValueError):
            c_double(float("nan"))
        with pytest.raises(ValueError):
            c_double(float("inf"))

    def test_whitelisted_epilogue_builds_a_spec(self):
        spec = epilogue_spec(
            4, True, True,
            [
                ("add", [("chain",), ("extern", (4, 1, 1))], {}),
                ("clamp", [("chain",)], {"min": 0.0, "max": 6.0}),
            ],
        )
        assert isinstance(spec, EpilogueSpec)
        assert spec.externs == 1
        assert "clamp" in spec.detail()

    def test_transcendentals_are_rejected(self):
        for op in ("exp", "tanh", "sigmoid", "pow", "log"):
            assert epilogue_spec(4, False, False, [(op, [("chain",)], {})]) is None

    def test_inverted_clamp_bounds_are_rejected(self):
        # np.clip lets the upper bound win when lo > hi; the C form does
        # not reproduce that, so the epilogue must not be admitted.
        assert epilogue_spec(
            4, False, False,
            [("clamp", [("chain",)], {"min": 2.0, "max": 1.0})],
        ) is None

    def test_mismatched_extern_shape_is_rejected(self):
        # Only per-channel operands are bakeable: spatial dims are not
        # known until run time.
        for shape in ((5, 1, 1), (4,), (4, 3, 3)):
            assert epilogue_spec(
                4, False, False, [("add", [("chain",), ("extern", shape)], {})]
            ) is None

    def test_empty_epilogue_is_a_valid_spec(self):
        spec = epilogue_spec(8, False, False, [])
        assert isinstance(spec, EpilogueSpec) and spec.is_empty()


# --------------------------------------------------------------------------- #
# Build cache: compile once per signature, share across "processes"
# --------------------------------------------------------------------------- #
@needs_compiler
class TestBuildCache:
    def test_artifact_is_built_once_then_served_from_disk(self, enabled_codegen):
        before = codegen.build_counts()
        geom = ConvGeom(c_in=2, h=6, w=6, kh=3, kw=3, sh=1, sw=1, ph=1, pw=1,
                       c_out=3)
        assert codegen.native_conv_kernel(geom) is not None
        mid = codegen.build_counts()
        assert mid["built"] == before["built"] + 1

        # A fresh kernel memo over the same artifact directory stands in
        # for a fresh process: the .so must load, never rebuild.
        codegen.configure()  # drops loaded-kernel memos only
        assert codegen.native_conv_kernel(geom) is not None
        after = codegen.build_counts()
        assert after["built"] == mid["built"]
        assert after["cached"] == mid["cached"] + 1

    def test_clear_cache_removes_artifacts(self, enabled_codegen):
        geom = ConvGeom(c_in=2, h=6, w=6, kh=3, kw=3, sh=1, sw=1, ph=1, pw=1,
                        c_out=3)
        assert codegen.native_conv_kernel(geom) is not None
        assert codegen.clear_cache() > 0
        assert not any(
            name.endswith(".so") for name in os.listdir(codegen.cache_dir())
        )

    def test_broken_compiler_counts_failed_and_serves_none(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("CC", "/bin/false")
        codegen.reset()
        codegen.configure(enable=True, cache_dir_path=str(tmp_path / "cg"))
        try:
            geom = ConvGeom(c_in=2, h=6, w=6, kh=3, kw=3, sh=1, sw=1, ph=1,
                           pw=1, c_out=3)
            assert codegen.native_conv_kernel(geom) is None
            assert codegen.build_counts()["failed"] >= 1
        finally:
            codegen.reset()

    def test_disabled_backend_never_builds(self, disabled_codegen, tmp_path):
        codegen.configure(cache_dir_path=str(tmp_path / "cg"))
        geom = ConvGeom(c_in=2, h=6, w=6, kh=3, kw=3, sh=1, sw=1, ph=1, pw=1,
                       c_out=3)
        assert codegen.native_conv_kernel(geom) is None
        assert codegen.build_counts()["built"] == 0


# --------------------------------------------------------------------------- #
# Kernel-level bitwise sweeps on fresh (non-probe) data
# --------------------------------------------------------------------------- #
CONV_GEOMS = [
    ("k3s1p1", ConvGeom(c_in=3, h=8, w=8, kh=3, kw=3, sh=1, sw=1, ph=1, pw=1,
                        c_out=4)),
    ("k5s2p2", ConvGeom(c_in=2, h=11, w=9, kh=5, kw=5, sh=2, sw=2, ph=2, pw=2,
                        c_out=6)),
    ("k1s1p0", ConvGeom(c_in=8, h=6, w=6, kh=1, kw=1, sh=1, sw=1, ph=0, pw=0,
                        c_out=5)),
    ("k3s2p0", ConvGeom(c_in=4, h=9, w=9, kh=3, kw=3, sh=2, sw=2, ph=0, pw=0,
                        c_out=7)),
]


def _epilogues(channels):
    yield "bare", None
    yield "affine", epilogue_spec(channels, True, True, [])
    yield "affine+relu", epilogue_spec(
        channels, True, True, [("relu", [("chain",)], {})]
    )
    yield "clamp", epilogue_spec(
        channels, False, False,
        [("clamp", [("chain",)], {"min": 0.0, "max": 6.0})],
    )


@needs_compiler
class TestNativeKernelsBitwise:
    @pytest.mark.parametrize("label,geom", CONV_GEOMS, ids=[g[0] for g in CONV_GEOMS])
    def test_conv_matches_reference_on_fresh_data(self, enabled_codegen, label, geom):
        from repro import kernels as ref_kernels

        for tag, epilogue in _epilogues(geom.c_out):
            kernel = codegen.native_conv_kernel(geom, epilogue)
            assert kernel is not None, f"{label}/{tag} not admitted"
            for batch in (1, 2, 5):
                x = RNG.normal(size=(batch, geom.c_in, geom.h, geom.w))
                weight = np.ascontiguousarray(
                    RNG.normal(size=(geom.c_out, geom.k_rows))
                )
                cols, _, oh, ow = ref_kernels.im2col(
                    x, (geom.kh, geom.kw), (geom.sh, geom.sw), (geom.ph, geom.pw)
                )
                reference = np.matmul(weight, cols).reshape(
                    batch, geom.c_out, oh, ow
                )
                scale = shift = None
                if epilogue is not None and epilogue.has_scale:
                    scale = 0.125
                    reference = reference * np.float64(scale)
                if epilogue is not None and epilogue.has_shift:
                    shift = np.ascontiguousarray(RNG.normal(size=(geom.c_out,)))
                    reference = reference + shift.reshape(1, geom.c_out, 1, 1)
                if epilogue is not None:
                    for op in epilogue.ops:
                        if op.op == "relu":
                            reference = np.maximum(reference, 0.0)
                        elif op.op == "clamp":
                            reference = np.clip(reference, op.lo, op.hi)
                actual = np.empty((batch, geom.c_out, oh, ow))
                assert kernel.run(
                    x, weight, actual,
                    scale=0.0 if scale is None else scale,
                    shift=shift,
                )
                assert actual.tobytes() == reference.tobytes(), (
                    f"{label}/{tag} batch={batch} diverged"
                )

    def test_scalar_and_channel_operands_match_ufunc_replay(self, enabled_codegen):
        geom = CONV_GEOMS[0][1]
        epilogue = epilogue_spec(
            geom.c_out, False, False,
            [
                ("mul", [("chain",), ("scalar", 0.75)], {}),
                ("add", [("chain",), ("extern", (geom.c_out, 1, 1))], {}),
                ("relu", [("chain",)], {}),
            ],
        )
        assert epilogue is not None and epilogue.externs == 1
        kernel = codegen.native_conv_kernel(geom, epilogue)
        assert kernel is not None
        for batch in (1, 4):
            x = RNG.normal(size=(batch, geom.c_in, geom.h, geom.w))
            weight = np.ascontiguousarray(RNG.normal(size=(geom.c_out, geom.k_rows)))
            channel = np.ascontiguousarray(RNG.normal(size=(geom.c_out,)))
            cols, _, oh, ow = kernels.im2col(
                x, (geom.kh, geom.kw), (geom.sh, geom.sw), (geom.ph, geom.pw)
            )
            raw = np.matmul(weight, cols).reshape(batch, geom.c_out, oh, ow)
            reference = np.maximum(
                raw * np.float64(0.75) + channel.reshape(geom.c_out, 1, 1), 0.0
            )
            actual = np.empty((batch, geom.c_out, oh, ow))
            assert kernel.run(x, weight, actual, externs=[channel])
            assert actual.tobytes() == reference.tobytes()

    def test_special_values_survive_the_epilogue(self, enabled_codegen):
        # NaN propagation and the -0.0 tie of np.maximum / np.clip: a zero
        # filter over a positive input leaves +0.0, and ``special - 0.0``
        # hands each channel's special value to relu and clamp unchanged.
        specials = np.ascontiguousarray(
            [np.nan, -0.0, 0.0, -1.5, 7.5, 1e-320, -np.inf, np.inf]
        )
        geom = ConvGeom(c_in=2, h=4, w=4, kh=3, kw=3, sh=1, sw=1, ph=1, pw=1,
                        c_out=8)
        epilogue = epilogue_spec(
            8, False, False,
            [
                ("sub", [("extern", (8, 1, 1)), ("chain",)], {}),
                ("relu", [("chain",)], {}),
                ("clamp", [("chain",)], {"min": -1.0, "max": 6.0}),
            ],
        )
        kernel = codegen.native_conv_kernel(geom, epilogue)
        assert kernel is not None
        x = np.ones((2, 2, 4, 4))
        weight = np.zeros((8, geom.k_rows))
        raw = np.zeros((2, 8, 4, 4))
        reference = np.clip(
            np.maximum(specials.reshape(8, 1, 1) - raw, 0.0), -1.0, 6.0
        )
        actual = np.empty((2, 8, 4, 4))
        assert kernel.run(x, weight, actual, externs=[specials])
        assert actual.tobytes() == reference.tobytes()


# --------------------------------------------------------------------------- #
# Variant-registry integration
# --------------------------------------------------------------------------- #
@needs_compiler
class TestVariantIntegration:
    def test_native_conv_admitted_only_when_enabled(
        self, enabled_codegen
    ):
        desc = KernelDesc(
            op="conv2d", x_shape=(3, 8, 8), kernel_size=(3, 3), stride=(1, 1),
            padding=(1, 1), out_channels=4, weight_dtype="float64", bits=32,
        )
        names = {v.name for v in applicable_variants(desc)}
        assert "native" in names
        codegen.configure(enable=False)
        names = {v.name for v in applicable_variants(desc)}
        assert "native" not in names

    @pytest.mark.parametrize("bits", [32, 8, 4])
    def test_run_conv_native_bitwise_across_bitwidths(self, enabled_codegen, bits):
        # The quantized sweep: centred integer codes land as float64
        # matrices, exactly like the executor hands them to run_conv.
        x = RNG.normal(size=(3, 3, 8, 8))
        if bits == 32:
            matrix = RNG.normal(size=(4, 27))
        else:
            high = 2 ** (bits - 1)
            matrix = RNG.integers(-high, high, size=(4, 27)).astype(np.float64)
        packed = kernels.pack_weight_matrix(matrix)
        reference = run_conv("im2col", x, packed, (3, 3), (1, 1), (1, 1))
        out = np.empty((3, 4, 64))
        produced = run_conv("native", x, packed, (3, 3), (1, 1), (1, 1), out=out)
        np.testing.assert_array_equal(
            produced.reshape(reference.shape), np.asarray(reference)
        )


# --------------------------------------------------------------------------- #
# Whole-plan integration: tuned+native plans stay byte-identical
# --------------------------------------------------------------------------- #
@needs_compiler
class TestPlanIntegration:
    @pytest.mark.parametrize("bits", [32, 8, 4])
    def test_tuned_native_plan_is_byte_identical(self, enabled_codegen, tmp_path, bits):
        model, shape = build("tiny_convnet")
        tuner = Autotuner(TuningConfig(
            cache=TuningCache(str(tmp_path / "t.json")), budget_s=5.0,
        ))
        if bits == 32:
            native_plan = compile_plan(model, shape, tuning=tuner)
            codegen.configure(enable=False)
            reference_plan = compile_plan(model, shape)
        else:
            export = export_quantized_model(
                model, {n: bits for n, _ in model.named_parameters()}
            )
            native_plan = compile_quantized_plan(model, export, shape, tuning=tuner)
            codegen.configure(enable=False)
            reference_plan = compile_quantized_plan(model, export, shape)
        codegen.configure(enable=True)
        for batch in (1, 4):
            x = RNG.normal(size=(batch,) + shape)
            a = native_plan.run(x)
            b = reference_plan.run(x)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_native_variants_actually_dispatch(self, enabled_codegen, tmp_path):
        # Force the native selection (rank never picks it heuristically) by
        # compiling with a pre-seeded tuning record is overkill here; just
        # check the executor path end-to-end via a plan whose tuner picked
        # at least one native site, falling back to a direct assertion on
        # the dispatch counter from admission probes otherwise.
        model, shape = build("cifarnet")
        export = export_quantized_model(
            model, {n: 8 for n, _ in model.named_parameters()}
        )
        tuner = Autotuner(TuningConfig(
            cache=TuningCache(str(tmp_path / "t.json")), budget_s=8.0,
        ))
        plan = compile_quantized_plan(model, export, shape, tuning=tuner)
        before = codegen.dispatch_count()
        x = RNG.normal(size=(4,) + shape)
        plan.run(x)
        variants = {v for v, _ in plan.kernel_variants().values()}
        if "native" in variants:
            assert codegen.dispatch_count() > before
        else:  # tuner measured numpy faster everywhere; admission still ran
            assert codegen.build_counts()["built"] + \
                codegen.build_counts()["cached"] > 0

    def test_plan_cache_key_tracks_codegen_fingerprint(self, enabled_codegen):
        from repro.runtime import PlanCache

        model, shape = build("tiny_convnet")
        export = export_quantized_model(
            model, {n: 8 for n, _ in model.named_parameters()}
        )
        with_native = PlanCache.key_for(model, export, shape)
        codegen.configure(enable=False)
        without = PlanCache.key_for(model, export, shape)
        assert with_native != without
        assert "cg:on" in with_native and "cg:off" in without


# --------------------------------------------------------------------------- #
# Graceful degradation without a compiler
# --------------------------------------------------------------------------- #
class TestNoCompilerFallback:
    def test_plan_compiles_and_matches_reference(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CC", "/bin/false")
        codegen.reset()
        codegen.configure(enable=True, cache_dir_path=str(tmp_path / "cg"))
        try:
            model, shape = build("tiny_convnet")
            export = export_quantized_model(
                model, {n: 8 for n, _ in model.named_parameters()}
            )
            tuner = Autotuner(TuningConfig(
                cache=TuningCache(str(tmp_path / "t.json")), budget_s=2.0,
            ))
            plan = compile_quantized_plan(model, export, shape, tuning=tuner)
            codegen.configure(enable=False)
            reference = compile_quantized_plan(model, export, shape)
            x = RNG.normal(size=(2,) + shape)
            np.testing.assert_array_equal(plan.run(x), reference.run(x))
            variants = {v for v, _ in plan.kernel_variants().values()}
            assert "native" not in variants
        finally:
            codegen.reset()

    def test_status_reports_missing_compiler(self, monkeypatch, tmp_path):
        monkeypatch.setenv("CC", str(tmp_path / "definitely-not-a-compiler"))
        codegen.reset()
        try:
            assert codegen.compiler_command() is None
            status = codegen.status()
            assert status["compiler"] is None
            geom = ConvGeom(c_in=2, h=6, w=6, kh=3, kw=3, sh=1, sw=1, ph=1,
                            pw=1, c_out=3)
            codegen.configure(enable=True, cache_dir_path=str(tmp_path / "cg"))
            assert codegen.native_conv_kernel(geom) is None
        finally:
            codegen.reset()


# --------------------------------------------------------------------------- #
# verify_backend: the CLI probe
# --------------------------------------------------------------------------- #
@needs_compiler
class TestVerifyBackend:
    def test_cold_then_warm(self, enabled_codegen):
        report = codegen.verify_backend()
        assert report["conv2d"]
        assert "linear" not in report and "elementwise" not in report
        assert report["built"] == 1 and report["failed"] == 0
        codegen.configure()  # fresh memos, same artifact dir
        warm = codegen.verify_backend()
        assert warm["built"] == 0 and warm["cached"] == 1
