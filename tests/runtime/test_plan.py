"""Execution-plan compilation: equivalence, fusion, quantised execution.

The acceptance bar for the runtime layer:

* every registry model produces identical logits through ``ExecutionPlan``
  (float and quantised variants) as through ``Module.__call__`` under
  ``no_grad``;
* plan execution constructs **zero** autograd-graph nodes (checked with the
  graph-node counter);
* the quantised plan executes integer codes directly and matches the
  dequantised-Module path within affine-grid tolerance.
"""

import numpy as np
import pytest

from repro.models.registry import available_models
from repro.nn import AvgPool2d, Conv2d, Sequential
from repro.quant import export_quantized_model, load_into_model
from repro.runtime import (
    DEFAULT_PASSES,
    ExecutionPlan,
    PlanCompileError,
    compile_plan,
    compile_quantized_plan,
)
from repro.runtime.plan import ConvStep, ElementwiseStep, LinearStep
from repro.tensor import Tensor, graph_nodes_created, no_grad
from zoo import MODEL_CONFIGS, build as _build


def _without(name):
    """The default pipeline minus one pass."""
    return tuple(p for p in DEFAULT_PASSES if p != name)


def test_every_registry_model_has_a_config():
    assert sorted(MODEL_CONFIGS) == sorted(available_models())


@pytest.mark.parametrize("name", sorted(MODEL_CONFIGS))
def test_float_plan_matches_module(name):
    model, shape = _build(name)
    plan = compile_plan(model, shape)
    # Batch size 3 differs from the probe batch: plans are batch-polymorphic.
    x = np.random.default_rng(7).normal(size=(3,) + shape)
    model.eval()
    with no_grad():
        expected = model(Tensor(x)).data
    np.testing.assert_allclose(plan.run(x), expected, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("name", sorted(MODEL_CONFIGS))
def test_quantized_plan_matches_dequantised_module(name):
    model, shape = _build(name)
    bitwidths = {pname: 8 for pname, _ in model.named_parameters()}
    export = export_quantized_model(model, bitwidths)
    plan = compile_quantized_plan(model, export, shape)

    reference = _build(name, seed=1)[0]  # different init: must be overwritten
    load_into_model(export, reference)
    reference.eval()
    x = np.random.default_rng(11).normal(size=(4,) + shape)
    with no_grad():
        expected = reference(Tensor(x)).data
    # The plan applies each layer's affine scale at the kernel boundary
    # instead of materialising dequantised weights; agreement is within
    # floating-point reassociation error, far below one affine grid step.
    np.testing.assert_allclose(plan.run(x), expected, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("window,side", [(2, 8), (3, 9), (5, 10)])
@pytest.mark.parametrize("optimize", [True, False], ids=["optimised", "unoptimised"])
def test_avg_pool_plan_matches_module_bitwise(window, side, optimize):
    # Window areas 4, 9 and 25: the plan's tiled average must round like
    # the Module's mean whether or not the area is a power of two.
    model = Sequential(Conv2d(2, 4, 3, padding=1, rng=np.random.default_rng(0)),
                       AvgPool2d(window))
    model.eval()
    x = np.random.default_rng(5).normal(size=(3, 2, side, side))
    plan = compile_plan(model, (2, side, side), optimize=optimize)
    with no_grad():
        expected = model(Tensor(x)).data
    np.testing.assert_array_equal(plan.run(x), expected)


def test_plan_execution_builds_zero_graph_nodes():
    model, shape = _build("tiny_convnet")
    plan = compile_plan(model, shape)
    x = np.random.default_rng(0).normal(size=(5,) + shape)
    plan.run(x)  # warm any lazy buffers
    before = graph_nodes_created()
    plan.run(x)
    assert graph_nodes_created() == before

    # ... while the Module path builds nodes even under no_grad.
    with no_grad():
        model(Tensor(x))
    assert graph_nodes_created() > before


def test_quantized_plan_execution_builds_zero_graph_nodes():
    model, shape = _build("small_convnet")
    export = export_quantized_model(model, {n: 6 for n, _ in model.named_parameters()})
    plan = compile_quantized_plan(model, export, shape)
    x = np.random.default_rng(2).normal(size=(3,) + shape)
    plan.run(x)
    before = graph_nodes_created()
    plan.run(x)
    assert graph_nodes_created() == before


class TestPlanStructure:
    def test_batch_norm_folds_into_conv(self):
        model, shape = _build("tiny_convnet")
        fused = compile_plan(model, shape)
        unfused = compile_plan(model, shape, passes=_without("fuse_affine"))
        assert fused.num_steps < unfused.num_steps
        # Folding BN absorbs its affine chain into the conv as in-place
        # post-ops (replayed byte-exactly, not collapsed into the weights).
        conv_steps = [s for s in fused.steps if isinstance(s, ConvStep)]
        assert all(s.post for s in conv_steps)
        x = np.random.default_rng(3).normal(size=(2,) + shape)
        np.testing.assert_array_equal(fused.run(x), unfused.run(x))

    def test_quantized_weights_stay_integer(self):
        model, shape = _build("tiny_convnet")
        export = export_quantized_model(model, {n: 8 for n, _ in model.named_parameters()})
        plan = compile_quantized_plan(model, export, shape)
        kernel_steps = [s for s in plan.steps if isinstance(s, (ConvStep, LinearStep))]
        assert kernel_steps, "expected conv/linear steps"
        for step in kernel_steps:
            weight = step.weight_matrix if isinstance(step, ConvStep) else step.weight
            assert np.issubdtype(weight.dtype, np.integer)
            assert step.bits == 8

    def test_unoptimised_quantized_plan_runs_packed_weights(self):
        # Lowering packs every conv / linear weight once, whatever the
        # variant: even the pass-free reference interpreter multiplies by
        # a float64 C-contiguous matrix, while the stored weight keeps the
        # integer codes.
        model, shape = _build("tiny_convnet")
        export = export_quantized_model(model, {n: 8 for n, _ in model.named_parameters()})
        plan = compile_quantized_plan(model, export, shape, optimize=False)
        kernel_steps = [s for s in plan.steps if isinstance(s, (ConvStep, LinearStep))]
        assert {type(s) for s in kernel_steps} == {ConvStep, LinearStep}
        for step in kernel_steps:
            weight = step.weight_matrix if isinstance(step, ConvStep) else step.weight
            assert np.issubdtype(weight.dtype, np.integer)
            assert step._weight_exec.dtype == np.float64
            assert step._weight_exec.flags.c_contiguous
            np.testing.assert_array_equal(step._weight_exec, weight)

    def test_compile_quantized_plan_restores_model(self):
        model, shape = _build("tiny_convnet")
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        buffers_before = {n: np.array(b, copy=True) for n, b in model.named_buffers()}
        export = export_quantized_model(model, {n: 4 for n, _ in model.named_parameters()})
        compile_quantized_plan(model, export, shape)
        for n, p in model.named_parameters():
            np.testing.assert_array_equal(p.data, before[n])
        for n, b in model.named_buffers():
            np.testing.assert_array_equal(b, buffers_before[n])

    def test_quantized_plan_weights_are_smaller(self):
        model, shape = _build("small_convnet")
        float_plan = compile_plan(model, shape)
        export = export_quantized_model(model, {n: 8 for n, _ in model.named_parameters()})
        qplan = compile_quantized_plan(model, export, shape)
        assert qplan.weight_bytes() < float_plan.weight_bytes() / 2

    def test_bits_by_layer_aligns_with_profile(self):
        from repro.hardware import profile_model

        model, shape = _build("tiny_convnet")
        export = export_quantized_model(model, {n: 4 for n, _ in model.named_parameters()})
        plan = compile_quantized_plan(model, export, shape)
        profile = profile_model(model, shape)
        profiled = {layer.name for layer in profile.layers}
        assert set(plan.bits_by_layer()) == profiled
        assert set(plan.bits_by_layer().values()) == {4}

    def test_describe_lists_steps(self):
        model, shape = _build("tiny_convnet")
        plan = compile_plan(model, shape)
        text = plan.describe()
        assert "conv2d" in text and "linear" in text
        assert len(text.splitlines()) == plan.num_steps + 1


class TestPlanExecutionContract:
    def test_single_sample_convenience(self):
        model, shape = _build("mlp")
        plan = compile_plan(model, shape)
        x = np.random.default_rng(5).normal(size=shape)
        single = plan.run(x)
        batched = plan.run(x[None])
        assert single.shape == batched.shape[1:]
        np.testing.assert_allclose(single, batched[0])

    def test_rejects_wrong_shape(self):
        model, shape = _build("tiny_convnet")
        plan = compile_plan(model, shape)
        with pytest.raises(ValueError, match="per-sample shape"):
            plan.run(np.zeros((2, 3, 12, 12)))

    def test_repeated_calls_do_not_alias_results(self):
        model, shape = _build("tiny_convnet")
        plan = compile_plan(model, shape)
        rng = np.random.default_rng(9)
        a = plan.run(rng.normal(size=(2,) + shape))
        a_copy = a.copy()
        plan.run(rng.normal(size=(2,) + shape))
        np.testing.assert_array_equal(a, a_copy)

    def test_varying_batch_sizes(self):
        model, shape = _build("small_convnet")
        plan = compile_plan(model, shape)
        model.eval()
        for batch in (1, 2, 7, 16):
            x = np.random.default_rng(batch).normal(size=(batch,) + shape)
            with no_grad():
                expected = model(Tensor(x)).data
            np.testing.assert_allclose(plan.run(x), expected, rtol=1e-6, atol=1e-8)

    def test_plan_is_a_snapshot_of_weights(self):
        model, shape = _build("mlp")
        plan = compile_plan(model, shape)
        x = np.random.default_rng(1).normal(size=(2,) + shape)
        before = plan.run(x)
        for param in model.parameters():
            param.data = param.data + 1.0
        np.testing.assert_array_equal(plan.run(x), before)

    @pytest.mark.parametrize("fuse_affine", [True, False])
    def test_snapshot_survives_in_place_mutation(self, fuse_affine):
        # Folded constants include reshape/transpose *views* of parameters;
        # the plan must copy them, so even in-place writes (which defeat the
        # rebinding check above) cannot reach a compiled plan.
        model, shape = _build("tiny_convnet")
        passes = DEFAULT_PASSES if fuse_affine else _without("fuse_affine")
        plan = compile_plan(model, shape, passes=passes)
        x = np.random.default_rng(4).normal(size=(2,) + shape)
        before = plan.run(x)
        for param in model.parameters():
            param.data *= 0.5
        np.testing.assert_array_equal(plan.run(x), before)


class TestCompileErrors:
    def test_unsupported_op_raises(self):
        from repro import nn
        from repro.tensor import Tensor as T

        class Slicer(nn.Module):
            def __init__(self):
                super().__init__()
                self.linear = nn.Linear(4, 4, rng=np.random.default_rng(0))

            def forward(self, x):
                return self.linear(x)[:, :2]

        with pytest.raises(PlanCompileError, match="getitem"):
            compile_plan(Slicer(), (4,))

    def test_constant_output_raises(self):
        from repro import nn

        class Constant(nn.Module):
            def forward(self, x):
                return Tensor(np.ones(3)) * 2.0

        with pytest.raises(PlanCompileError, match="does not depend"):
            compile_plan(Constant(), (3,))
