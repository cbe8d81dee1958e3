"""Training's slice-built columns, slice-add scatter and one-node batch norm
equal the implementations they replaced, bit for bit.

The ``reference_*`` functions below are those implementations: columns
gathered with one fancy-index read (``kernels.im2col``), gradients
scattered back with ``np.add.at``, the crop padded with ``np.pad``, and
training-mode batch norm composed from 16 Tensor ops.  Every comparison is
on raw bytes, so ``-0.0``, NaN payloads and the rounding of each sum must
all match.
"""

import dataclasses

import numpy as np
import pytest

from repro import kernels, nn
from repro.data import RandomCrop
from repro.experiments import build_workload, get_scale, run_strategy
from repro.experiments.orchestrator import build_strategy
from repro.tensor import Tensor, functional as F, no_grad


# --------------------------------------------------------------------------- #
# Reference implementations
# --------------------------------------------------------------------------- #
def reference_col2im(cols, input_shape, indices, padding):
    """Scatter-add through the gather indices with ``np.add.at``."""
    batch, channels, height, width = input_shape
    pad_h, pad_w = padding
    k, i, j = indices
    padded = np.zeros(
        (batch, channels, height + 2 * pad_h, width + 2 * pad_w), dtype=cols.dtype
    )
    np.add.at(padded, (slice(None), k, i, j), cols)
    if pad_h == 0 and pad_w == 0:
        return padded
    return padded[:, :, pad_h : pad_h + height, pad_w : pad_w + width]


def reference_conv2d(x, weight, bias=None, stride=1, padding=0):
    """``F.conv2d`` over gathered columns and the ``np.add.at`` scatter."""
    stride_pair = kernels.as_pair(stride)
    padding_pair = kernels.as_pair(padding)
    out_channels, _, kernel_h, kernel_w = weight.data.shape
    cols, indices, out_h, out_w = kernels.im2col(
        x.data, (kernel_h, kernel_w), stride_pair, padding_pair
    )
    weight_matrix = weight.data.reshape(out_channels, -1)
    out = kernels.matmul_cols(weight_matrix, cols)
    if bias is not None:
        out = out + bias.data.reshape(1, -1, 1)
    out = out.reshape(x.data.shape[0], out_channels, out_h, out_w)
    input_shape = x.data.shape

    def backward(grad):
        grad_flat = grad.reshape(grad.shape[0], out_channels, -1)
        if weight.requires_grad:
            grad_weight = np.einsum("bop,bfp->of", grad_flat, cols, optimize=True)
            weight._accumulate_grad(grad_weight.reshape(weight.data.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate_grad(grad_flat.sum(axis=(0, 2)))
        if x.requires_grad:
            grad_cols = np.einsum("of,bop->bfp", weight_matrix, grad_flat, optimize=True)
            x._accumulate_grad(reference_col2im(grad_cols, input_shape, indices, padding_pair))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(
        out, parents, backward, "conv2d", ctx={"stride": stride_pair, "padding": padding_pair}
    )


def reference_max_pool2d(x, kernel_size, stride=None):
    """``F.max_pool2d`` by gathered windows, argmax and ``np.add.at``."""
    kernel = kernels.as_pair(kernel_size)
    stride_pair = kernels.as_pair(stride) if stride is not None else kernel
    batch, channels, height, width = x.data.shape
    reshaped = x.data.reshape(batch * channels, 1, height, width)
    cols, indices, out_h, out_w = kernels.im2col(reshaped, kernel, stride_pair, (0, 0))
    argmax = cols.argmax(axis=1)
    out = cols.max(axis=1).reshape(batch, channels, out_h, out_w)

    def backward(grad):
        if not x.requires_grad:
            return
        grad_flat = grad.reshape(batch * channels, -1)
        grad_cols = np.zeros_like(cols)
        rows = np.arange(cols.shape[0])[:, None]
        positions = np.arange(cols.shape[2])[None, :]
        grad_cols[rows, argmax, positions] = grad_flat
        grad_input = reference_col2im(grad_cols, reshaped.shape, indices, (0, 0))
        x._accumulate_grad(grad_input.reshape(batch, channels, height, width))

    return Tensor._make(
        out, (x,), backward, "max_pool2d", ctx={"kernel_size": kernel, "stride": stride_pair}
    )


def reference_batch_norm(x, weight, bias, eps=1e-5):
    """``F.batch_norm`` as the 16-op Tensor composition it replaced."""
    channels = x.shape[1]
    axes = (0,) + tuple(range(2, x.ndim))
    view_shape = (1, channels) + (1,) * (x.ndim - 2)
    mean = x.mean(axis=axes, keepdims=True)
    var = x.var(axis=axes, keepdims=True)
    normalised = (x - mean) / (var + eps).sqrt()
    out = normalised * weight.reshape(view_shape) + bias.reshape(view_shape)
    return out, mean.data.reshape(channels), var.data.reshape(channels)


def reference_random_crop(crop, image):
    """``RandomCrop.__call__`` padding through ``np.pad``."""
    if crop.padding == 0:
        return image
    _, height, width = image.shape
    padded = np.pad(image, ((0, 0), (crop.padding, crop.padding), (crop.padding, crop.padding)))
    top = int(crop.rng.integers(0, 2 * crop.padding + 1))
    left = int(crop.rng.integers(0, 2 * crop.padding + 1))
    return padded[:, top : top + height, left : left + width]


def assert_same_bits(got, expected):
    assert got.shape == expected.shape
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes(), (
        f"{np.sum(got.view(np.uint64) != expected.view(np.uint64))} of {got.size} "
        f"elements differ"
    )


def wide_range(rng, shape):
    """Normal values spread over 16 decades, so every sum's order shows."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)


def sprinkle(rng, array, values, share=0.05):
    """Overwrite a random ``share`` of ``array`` with draws from ``values``."""
    mask = rng.random(array.shape) < share
    array[mask] = rng.choice(values, size=int(mask.sum()))
    return array


#: (input shape, kernel, stride, padding): 1x1, stride > 1, stride > kernel,
#: padded, rectangular and batch 1.
CONV_GEOMETRIES = [
    ((2, 3, 6, 6), (1, 1), (1, 1), (0, 0)),
    ((2, 2, 9, 9), (3, 3), (2, 2), (1, 1)),
    ((2, 2, 10, 10), (2, 2), (3, 3), (0, 0)),
    ((3, 2, 7, 7), (3, 3), (1, 1), (2, 2)),
    ((2, 3, 7, 10), (2, 3), (1, 2), (1, 0)),
    ((1, 4, 8, 8), (3, 3), (1, 1), (1, 1)),
]
CONV_IDS = ["1x1", "stride2", "stride_gt_kernel", "padded", "rectangular", "batch1"]


# --------------------------------------------------------------------------- #
# col2im
# --------------------------------------------------------------------------- #
class TestCol2im:
    @pytest.mark.parametrize("shape,kernel,stride,padding", CONV_GEOMETRIES, ids=CONV_IDS)
    def test_matches_add_at_scatter(self, shape, kernel, stride, padding):
        rng = np.random.default_rng(7)
        batch, channels, height, width = shape
        k, i, j, out_h, out_w = kernels.im2col_indices(
            channels, height, width, kernel, stride, padding
        )
        cols = wide_range(rng, (batch, channels * kernel[0] * kernel[1], out_h * out_w))
        sprinkle(rng, cols, [-0.0, np.inf, -np.inf])
        with np.errstate(invalid="ignore"):  # inf + -inf makes NaN on both sides
            expected = reference_col2im(cols, shape, (k, i, j), padding)
            got = kernels.col2im(cols, shape, kernel, stride, padding)
        assert_same_bits(got, expected)


# --------------------------------------------------------------------------- #
# Slice-built columns and F.conv2d
# --------------------------------------------------------------------------- #
class TestConv2d:
    @pytest.mark.parametrize("shape,kernel,stride,padding", CONV_GEOMETRIES, ids=CONV_IDS)
    def test_slice_columns_equal_gathered_columns(self, shape, kernel, stride, padding):
        x = np.random.default_rng(3).normal(size=shape)
        gathered, _, out_h, out_w = kernels.im2col(x, kernel, stride, padding)
        cols, slice_h, slice_w = kernels.im2col_slices(x, kernel, stride, padding)
        assert (slice_h, slice_w) == (out_h, out_w)
        assert cols.flags.c_contiguous
        assert_same_bits(cols, np.ascontiguousarray(gathered))

    @pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "no_bias"])
    @pytest.mark.parametrize("shape,kernel,stride,padding", CONV_GEOMETRIES, ids=CONV_IDS)
    def test_output_and_gradients_match_reference(
        self, shape, kernel, stride, padding, with_bias
    ):
        rng = np.random.default_rng(11)
        out_channels = 4
        x_data = sprinkle(rng, rng.normal(size=shape), [-0.0])
        w_data = rng.normal(size=(out_channels, shape[1]) + kernel)
        b_data = rng.normal(size=out_channels)
        results = []
        for conv in (F.conv2d, reference_conv2d):
            x = Tensor(x_data, requires_grad=True)
            w = Tensor(w_data, requires_grad=True)
            b = Tensor(b_data, requires_grad=True) if with_bias else None
            out = conv(x, w, b, stride=stride, padding=padding)
            grad = wide_range(np.random.default_rng(5), out.data.shape)
            out.backward(grad)
            results.append((out.data, x.grad, w.grad, None if b is None else b.grad))
        for got, expected in zip(*results):
            if expected is None:
                assert got is None
            else:
                assert_same_bits(got, expected)

    @pytest.mark.parametrize(
        "size,kernel,padding", [(2, 3, 0), (2, 5, 0), (1, 4, 1)],
        ids=["zero", "negative", "negative_padded"],
    )
    def test_empty_output_raises_descriptive_error(self, size, kernel, padding):
        x = np.ones((1, 2, size, size))
        with pytest.raises(ValueError, match="non-positive"):
            kernels.im2col_slices(x, (kernel, kernel), (1, 1), (padding, padding))
        with pytest.raises(ValueError, match="non-positive"):
            F.conv2d(Tensor(x), Tensor(np.ones((3, 2, kernel, kernel))), padding=padding)


# --------------------------------------------------------------------------- #
# F.max_pool2d
# --------------------------------------------------------------------------- #
def relu_style(rng, shape):
    """``x * (x > 0)`` as ``Tensor.relu`` computes it: +0.0 and -0.0 ties."""
    x = rng.normal(size=shape)
    return x * (x > 0)


def repeated_maxima(rng, shape):
    return rng.integers(0, 3, size=shape).astype(np.float64)


def signed_zeros(rng, shape):
    return rng.choice([0.0, -0.0], size=shape)


def with_nans(rng, shape):
    return sprinkle(rng, rng.normal(size=shape), [np.nan], share=0.1)


def with_neg_inf_windows(rng, shape):
    x = rng.normal(size=shape)
    x[:, :, :2, :] = -np.inf  # whole windows of -inf along the top rows
    return sprinkle(rng, x, [-np.inf, np.inf], share=0.1)


POOL_INPUTS = [relu_style, repeated_maxima, signed_zeros, with_nans, with_neg_inf_windows]
#: (input shape, kernel, stride): the first three tile the input; in the
#: rest windows overlap or leave pixels out.
POOL_GEOMETRIES = [
    ((2, 3, 8, 8), (2, 2), None),
    ((2, 2, 6, 9), (2, 3), (2, 3)),
    ((1, 2, 9, 9), (3, 3), None),
    ((2, 2, 9, 9), (3, 3), (2, 2)),
    ((2, 2, 9, 8), (2, 2), None),
]
POOL_IDS = ["2x2", "rect_tiled", "3x3_batch1", "overlapping", "ragged"]


class TestMaxPool2d:
    @pytest.mark.parametrize("make_input", POOL_INPUTS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("shape,kernel,stride", POOL_GEOMETRIES, ids=POOL_IDS)
    @pytest.mark.parametrize("grad_values", [(), (np.inf, -np.inf, np.nan, -0.0)],
                             ids=["finite_grad", "nonfinite_grad"])
    def test_output_and_input_grad_match_reference(
        self, make_input, shape, kernel, stride, grad_values
    ):
        rng = np.random.default_rng(13)
        x_data = make_input(rng, shape)
        results = []
        for pool in (F.max_pool2d, reference_max_pool2d):
            x = Tensor(x_data, requires_grad=True)
            out = pool(x, kernel, stride)
            grad_rng = np.random.default_rng(17)
            grad = grad_rng.normal(size=out.data.shape)
            if grad_values:
                sprinkle(grad_rng, grad, grad_values, share=0.2)
            out.backward(grad)
            results.append((out.data, x.grad))
        for got, expected in zip(*results):
            assert_same_bits(got, expected)

    @pytest.mark.parametrize("make_input", POOL_INPUTS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("shape,kernel,stride", POOL_GEOMETRIES, ids=POOL_IDS)
    def test_no_grad_module_matches_reference(self, make_input, shape, kernel, stride):
        # nn.MaxPool2d runs the grad-free (tiled where it applies) kernel
        # under no_grad; evaluation must see the gather path's bits.
        x = Tensor(make_input(np.random.default_rng(13), shape))
        with no_grad():
            got = nn.MaxPool2d(kernel, stride)(x).data
        assert_same_bits(got, reference_max_pool2d(x, kernel, stride).data)


# --------------------------------------------------------------------------- #
# Training-mode batch norm
# --------------------------------------------------------------------------- #
def constant_channel(rng, shape):
    x = wide_range(rng, shape)
    x[:, 1] = 3.0
    return x


def with_zeros_and_nonfinite(rng, shape):
    x = wide_range(rng, shape)
    x[:, 0] = sprinkle(rng, x[:, 0], [-0.0], share=0.5)
    return sprinkle(rng, x, [np.inf, -np.inf, np.nan], share=0.05)


BN_INPUTS = [wide_range, constant_channel, with_zeros_and_nonfinite]
#: Batch 1 with 1x1 maps, and batch 1 of flat features, leave one sample per
#: channel: zero variance, so only eps keeps the divide finite.  (2, 3, 1, 3)
#: has a size-1 spatial axis that the per-channel sums must still reduce.
BN_SHAPES = [(4, 3, 5, 5), (1, 3, 1, 1), (2, 3, 1, 3), (6, 4), (1, 4)]
BN_IDS = ["2d", "2d_batch1_1x1", "2d_rows", "1d", "1d_batch1"]


def run_batch_norm(monkeypatch, implementation, x_data, grad, frozen=False, second=None):
    """One training-mode forward and backward through the BatchNorm module.

    ``second`` adds another consumer of ``x``: ``"after"`` sums it after
    the batch norm's output, so its gradient reaches ``x`` after the batch
    norm's four terms; ``"before"`` sums it first, so it lands before them.
    """
    monkeypatch.setattr(F, "batch_norm", implementation)
    rng = np.random.default_rng(23)
    channels = x_data.shape[1]
    bn = (nn.BatchNorm2d if x_data.ndim == 4 else nn.BatchNorm1d)(channels)
    bn.weight.data = rng.normal(size=channels)
    bn.bias.data = rng.normal(size=channels)
    bn.update_buffer("running_mean", rng.normal(size=channels))
    bn.update_buffer("running_var", rng.random(channels))
    if frozen:
        bn.weight.requires_grad = False
        bn.bias.requires_grad = False
    x = Tensor(x_data, requires_grad=True)
    with np.errstate(all="ignore"):  # inf - inf, 0 / 0 on both sides
        out = bn(x)
        if second is not None:
            other = x * Tensor(wide_range(rng, x_data.shape))
            out = out + other if second == "after" else other + out
        out.backward(grad)
    return {
        "out": out.data,
        "running_mean": bn.running_mean,
        "running_var": bn.running_var,
        "x.grad": x.grad,
        "weight.grad": bn.weight.grad,
        "bias.grad": bn.bias.grad,
    }


def assert_same_results(got, expected):
    assert got.keys() == expected.keys()
    for name in got:
        if expected[name] is None:
            assert got[name] is None, name
        else:
            assert_same_bits(got[name], expected[name])


class TestBatchNorm:
    @pytest.mark.parametrize("make_input", BN_INPUTS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("shape", BN_SHAPES, ids=BN_IDS)
    @pytest.mark.parametrize("grad_values", [(), (np.inf, -np.inf, np.nan, -0.0)],
                             ids=["finite_grad", "nonfinite_grad"])
    def test_output_stats_and_gradients_match_reference(
        self, monkeypatch, make_input, shape, grad_values
    ):
        rng = np.random.default_rng(19)
        x_data = make_input(rng, shape)
        grad = wide_range(rng, shape)
        if grad_values:
            sprinkle(rng, grad, grad_values, share=0.1)
        got = run_batch_norm(monkeypatch, F.batch_norm, x_data, grad)
        expected = run_batch_norm(monkeypatch, reference_batch_norm, x_data, grad)
        assert_same_results(got, expected)

    @pytest.mark.parametrize("shape", BN_SHAPES, ids=BN_IDS)
    def test_frozen_affine_matches_reference(self, monkeypatch, shape):
        rng = np.random.default_rng(29)
        x_data, grad = with_zeros_and_nonfinite(rng, shape), wide_range(rng, shape)
        got = run_batch_norm(monkeypatch, F.batch_norm, x_data, grad, frozen=True)
        expected = run_batch_norm(monkeypatch, reference_batch_norm, x_data, grad, frozen=True)
        assert got["weight.grad"] is None and got["bias.grad"] is None
        assert_same_results(got, expected)

    @pytest.mark.parametrize("second", ["after", "before"])
    @pytest.mark.parametrize("shape", BN_SHAPES, ids=BN_IDS)
    def test_second_consumer_of_x_matches_reference(self, monkeypatch, shape, second):
        rng = np.random.default_rng(31)
        x_data, grad = wide_range(rng, shape), wide_range(rng, shape)
        got = run_batch_norm(monkeypatch, F.batch_norm, x_data, grad, second=second)
        expected = run_batch_norm(
            monkeypatch, reference_batch_norm, x_data, grad, second=second
        )
        assert_same_results(got, expected)


# --------------------------------------------------------------------------- #
# Whole training runs
# --------------------------------------------------------------------------- #
def _apt_fit(scale):
    """One APT epoch: parameter bytes, per-epoch losses and bit trajectories."""
    strategy = build_strategy("apt", {"metric_interval": 1})
    result = run_strategy(build_workload(scale), strategy, epochs=1, seed=2, keep_trainer=True)
    params = {name: p.data.tobytes() for name, p in result.trainer.model.named_parameters()}
    losses = [float(loss).hex() for loss in result.history.train_loss_curve]
    return params, losses, result.bits_by_layer


@pytest.mark.parametrize(
    "scale",
    [
        get_scale("bench"),
        # small_convnet x0.5 on 3x32x32 with the paper's crop + flip: 3 steps.
        dataclasses.replace(get_scale("bench_cifar"), train_samples=192, test_samples=64),
    ],
    ids=["tiny_convnet_12x12", "small_convnet_32x32"],
)
def test_apt_training_matches_reference_kernels(monkeypatch, scale):
    fast = _apt_fit(scale)
    monkeypatch.setattr(F, "conv2d", reference_conv2d)
    monkeypatch.setattr(F, "max_pool2d", reference_max_pool2d)
    monkeypatch.setattr(F, "batch_norm", reference_batch_norm)
    monkeypatch.setattr(RandomCrop, "__call__", reference_random_crop)
    reference = _apt_fit(scale)
    assert fast[0].keys() == reference[0].keys()
    for name in fast[0]:
        assert fast[0][name] == reference[0][name], name
    assert fast[1] == reference[1]
    assert fast[2] == reference[2]
