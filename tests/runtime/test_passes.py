"""Optimizing-pass pipeline: byte-exactness, per-pass behaviour, report.

A plan compiles in one of two configurations: through the whole pass
pipeline (``fold_constants`` -> ``fuse_affine`` -> ``select_kernels``) or,
with ``optimize=False``, through none of it -- the reference interpreter.
The acceptance bar: the pipeline changes plan *shape* only.  For each
registry model -- float and quantised -- the optimised plan produces
**byte-identical** logits to the reference at batch 1 (the per-sample
paths) and batch 16 (the batch fold and multi-sample column blocks), one
case each, so a failure names the batch it broke.  And every pass earns
its place: each one changes some registry model's plan.
"""

import functools

import numpy as np
import pytest

from repro.quant import export_quantized_model
from repro.runtime import PassManager, compile_plan, compile_quantized_plan
from repro.runtime.executor import ConvStep, LinearStep
from zoo import MODEL_CONFIGS, build

PIPELINE_NAMES = ["fold_constants", "fuse_affine", "select_kernels"]


def _compile(name, precision, optimize=True):
    """One zoo model's plan, fp32 or from a 6-bit export."""
    model, shape = build(name)
    if precision == "fp32":
        return compile_plan(model, shape, optimize=optimize)
    export = export_quantized_model(model, {n: 6 for n, _ in model.named_parameters()})
    return compile_quantized_plan(model, export, shape, optimize=optimize)


@functools.lru_cache(maxsize=1)
def _optimised_and_reference(name, precision):
    # The batch cases of one model and precision run back to back, so
    # each pair of plans compiles once.
    return _compile(name, precision), _compile(name, precision, optimize=False)


@pytest.mark.parametrize("batch", [1, 16])
@pytest.mark.parametrize("precision", ["fp32", "quantized"])
@pytest.mark.parametrize("name", sorted(MODEL_CONFIGS))
def test_optimised_plan_matches_the_reference_bytewise(name, precision, batch):
    optimised, reference = _optimised_and_reference(name, precision)
    x = np.random.default_rng(3).normal(size=(16,) + optimised.input_shape)[:batch]
    np.testing.assert_array_equal(
        optimised.run(x), reference.run(x),
        err_msg=f"{name} {precision}: the pipeline changed the bytes at batch {batch}",
    )


def _zoo_plans():
    for name in sorted(MODEL_CONFIGS):
        for precision in ("fp32", "quantized"):
            yield _compile(name, precision)


def _changes_the_plan(optimised, name):
    if name == "select_kernels":
        return any(step.variant != "im2col" for step in optimised.steps
                   if isinstance(step, ConvStep))
    (record,) = [r for r in optimised.pipeline.passes if r.name == name]
    return record.nodes_after < record.nodes_before


@pytest.mark.parametrize("name", PIPELINE_NAMES)
def test_every_pass_changes_some_zoo_plan(name):
    """A pass earns its place only if some registry plan needs it: the
    graph passes remove nodes from some zoo plan, fp32 or quantised, and
    kernel selection gives some conv a non-reference lowering."""
    if not any(_changes_the_plan(plan, name) for plan in _zoo_plans()):
        pytest.fail(f"{name!r} changes no zoo-model plan")


class TestFoldConstants:
    def test_folds_batch_norm_statistics(self):
        model, shape = build("tiny_convnet")
        optimised = compile_plan(model, shape)
        raw = compile_plan(model, shape, optimize=False)
        # The BN sqrt(var+eps) chain and the linear weight transpose fold
        # away; only ops over runtime values remain.
        assert optimised.num_steps < raw.num_steps
        record = optimised.pipeline.passes[0]
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

    def test_reference_plan_fuses_nothing(self):
        model, shape = build("tiny_convnet")
        plan = compile_plan(model, shape, optimize=False)
        assert plan.pipeline.passes == []
        conv_steps = [s for s in plan.steps if isinstance(s, ConvStep)]
        assert conv_steps and all(not s.post for s in conv_steps)


class TestPassManager:
    def test_report_records_every_pass(self):
        model, shape = build("mlp")
        plan = compile_plan(model, shape)
        assert [r.name for r in plan.pipeline.passes] == PIPELINE_NAMES
        assert plan.pipeline.initial_nodes >= plan.pipeline.final_nodes
        assert plan.pipeline.final_nodes == plan.num_steps

    def test_compile_runs_the_pipeline_through_pass_manager(self, monkeypatch):
        # perfbench times the pipeline by wrapping PassManager.run: an
        # optimised compile calls it once and keeps its report, and a
        # reference compile never calls it.
        reports = []
        run = PassManager.run

        def recorded(manager, graph):
            reports.append(run(manager, graph))
            return reports[-1]

        monkeypatch.setattr(PassManager, "run", recorded)
        model, shape = build("mlp")
        plan = compile_plan(model, shape)
        assert len(reports) == 1 and plan.pipeline is reports[0]
        compile_plan(model, shape, optimize=False)
        assert len(reports) == 1

    def test_reference_report_runs_no_pass(self):
        model, shape = build("mlp")
        plan = compile_plan(model, shape, optimize=False)
        assert plan.pipeline.initial_nodes == plan.pipeline.final_nodes == plan.num_steps
        assert "passes=[]" in plan.describe_pipeline()

    def test_describe_pipeline_mentions_passes_and_memory(self):
        model, shape = build("tiny_convnet")
        text = compile_plan(model, shape).describe_pipeline(batch_size=8)
        assert f"passes={PIPELINE_NAMES}" in text
        for name in PIPELINE_NAMES:
            assert f"pass {name}:" in text
        assert "arena" in text and "steps:" in text
