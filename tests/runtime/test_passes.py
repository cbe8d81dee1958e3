"""Optimizing-pass pipeline: byte-exactness, per-pass behaviour, manager.

The acceptance bar: every pass (and every subset of passes) changes plan
*shape* only.  For each registry model -- float and quantised -- the plan
compiled with any single pass disabled, and the fully optimised plan,
produce **byte-identical** logits to the unoptimised reference interpreter
(``optimize=False``).  And every default pass earns its place: removing
any one of them changes some registry model's plan.
"""

import numpy as np
import pytest

from repro.quant import export_quantized_model
from repro.runtime import (
    DEFAULT_PASSES,
    PassManager,
    available_passes,
    compile_plan,
    compile_quantized_plan,
    resolve_passes,
)
from repro.runtime.executor import ConvStep, LinearStep
from zoo import MODEL_CONFIGS, build

#: Every configuration the byte-identity sweep compiles: the full default
#: pipeline plus each pass individually disabled.
PASS_CONFIGS = [("all", DEFAULT_PASSES)] + [
    (f"no_{name}", tuple(p for p in DEFAULT_PASSES if p != name))
    for name in DEFAULT_PASSES
]


def _batch(shape, seed=3, batch=4):
    return np.random.default_rng(seed).normal(size=(batch,) + shape)


def test_default_pipeline_is_the_three_earning_passes():
    assert DEFAULT_PASSES == ("fold_constants", "fuse_affine", "select_kernels")
    assert set(available_passes()) == set(DEFAULT_PASSES)


@pytest.mark.parametrize("removed", DEFAULT_PASSES)
def test_every_default_pass_changes_some_zoo_plan(removed):
    """A pass earns its place only if some registry plan needs it: dropping
    it must change at least one zoo model's plan, fp32 or quantised."""
    passes = tuple(p for p in DEFAULT_PASSES if p != removed)
    for name in sorted(MODEL_CONFIGS):
        model, shape = build(name)
        export = export_quantized_model(model, {n: 8 for n, _ in model.named_parameters()})
        for compile_ in (
            lambda **kw: compile_plan(model, shape, **kw),
            lambda **kw: compile_quantized_plan(model, export, shape, **kw),
        ):
            if compile_().describe() != compile_(passes=passes).describe():
                return
    pytest.fail(f"removing {removed!r} changes no zoo-model plan")


@pytest.mark.parametrize("name", sorted(MODEL_CONFIGS))
def test_float_passes_are_byte_exact(name):
    model, shape = build(name)
    x = _batch(shape)
    reference = compile_plan(model, shape, optimize=False).run(x)
    for label, passes in PASS_CONFIGS:
        plan = compile_plan(model, shape, passes=passes)
        np.testing.assert_array_equal(
            plan.run(x), reference,
            err_msg=f"{name}: pass config {label!r} changed the output bytes",
        )


@pytest.mark.parametrize("name", sorted(MODEL_CONFIGS))
def test_quantized_passes_are_byte_exact(name):
    model, shape = build(name)
    export = export_quantized_model(model, {n: 6 for n, _ in model.named_parameters()})
    x = _batch(shape, seed=5)
    reference = compile_quantized_plan(model, export, shape, optimize=False).run(x)
    for label, passes in PASS_CONFIGS:
        plan = compile_quantized_plan(model, export, shape, passes=passes)
        np.testing.assert_array_equal(
            plan.run(x), reference,
            err_msg=f"{name}: pass config {label!r} changed the output bytes",
        )


class TestFoldConstants:
    def test_folds_batch_norm_statistics(self):
        model, shape = build("tiny_convnet")
        folded = compile_plan(model, shape, passes=("fold_constants",))
        raw = compile_plan(model, shape, optimize=False)
        # The BN sqrt(var+eps) chain and the linear weight transpose fold
        # away; only ops over runtime values remain.
        assert folded.num_steps < raw.num_steps
        record = folded.pipeline.passes[0]
        assert record.name == "fold_constants"
        assert record.nodes_before - record.nodes_after >= 3

    def test_quantized_codes_survive_without_folding(self):
        # Integer-code substitution is a lowering concern, not a pass: the
        # unoptimised quantised plan still executes integer weights.
        model, shape = build("mlp")
        export = export_quantized_model(model, {n: 8 for n, _ in model.named_parameters()})
        plan = compile_quantized_plan(model, export, shape, optimize=False)
        kernel_steps = [s for s in plan.steps if isinstance(s, LinearStep)]
        assert kernel_steps
        assert all(np.issubdtype(s.weight.dtype, np.integer) for s in kernel_steps)

    def test_weight_transposes_fold_out_of_the_default_pipeline(self):
        # Unoptimised plans still execute the traced parameter transposes
        # (cheap const views); the default pipeline folds them away.
        from repro.runtime.executor import TransposeStep

        model, shape = build("mlp")
        unoptimised = compile_plan(model, shape, optimize=False)
        optimised = compile_plan(model, shape)
        assert any(isinstance(s, TransposeStep) for s in unoptimised.steps)
        assert not any(isinstance(s, TransposeStep) for s in optimised.steps)


class TestFuseAffine:
    def test_bias_and_batch_norm_absorbed(self):
        model, shape = build("tiny_convnet")
        plan = compile_plan(model, shape)
        conv_steps = [s for s in plan.steps if isinstance(s, ConvStep)]
        assert conv_steps
        # Eval-mode BN folds to a per-channel affine, absorbed into the
        # conv as in-place mul/add micro-ops; the trailing ReLU rides
        # along as the kernel's activation epilogue.
        for step in conv_steps:
            assert [op for op, _, _ in step.post] == ["mul", "add", "relu"]

    def test_linear_bias_absorbed(self):
        model, shape = build("mlp")
        plan = compile_plan(model, shape)
        linear_steps = [s for s in plan.steps if isinstance(s, LinearStep)]
        assert linear_steps
        assert all(step.post and step.post[0][0] == "add" for step in linear_steps)

    def test_disabled_by_dropping_the_pass(self):
        model, shape = build("tiny_convnet")
        passes = tuple(p for p in DEFAULT_PASSES if p != "fuse_affine")
        plan = compile_plan(model, shape, passes=passes)
        assert "fuse_affine" not in plan.passes
        assert all(not s.post for s in plan.steps if isinstance(s, ConvStep))


class TestPassManager:
    def test_unknown_pass_rejected(self):
        with pytest.raises(ValueError, match="unknown pass"):
            PassManager(("fold_constants", "loop_unrolling"))
        with pytest.raises(ValueError, match="unknown pass"):
            resolve_passes(passes=("loop_unrolling",))

    def test_available_passes_cover_default(self):
        assert set(DEFAULT_PASSES) <= set(available_passes())

    def test_resolve_passes_knobs(self):
        assert resolve_passes(optimize=False) == ()
        assert resolve_passes() == DEFAULT_PASSES
        assert resolve_passes(passes=("fuse_affine",)) == ("fuse_affine",)

    def test_report_records_every_pass(self):
        model, shape = build("mlp")
        plan = compile_plan(model, shape)
        assert [r.name for r in plan.pipeline.passes] == list(DEFAULT_PASSES)
        assert plan.pipeline.initial_nodes >= plan.pipeline.final_nodes
        assert plan.pipeline.final_nodes == plan.num_steps

    def test_describe_pipeline_mentions_passes_and_memory(self):
        model, shape = build("tiny_convnet")
        text = compile_plan(model, shape).describe_pipeline(batch_size=8)
        for name in DEFAULT_PASSES:
            assert f"pass {name}:" in text
        assert "arena" in text and "steps:" in text
