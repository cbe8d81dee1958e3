"""The grad-free kernels agree with the autograd ops they underlie."""

import numpy as np
import pytest

from repro import kernels
from repro.kernels.conv import im2col_indices
from repro.tensor import Tensor, functional as F


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestConvKernel:
    def test_matches_functional_conv2d(self, rng):
        x = rng.normal(size=(3, 4, 9, 9))
        w = rng.normal(size=(6, 4, 3, 3))
        b = rng.normal(size=(6,))
        for stride, padding in [(1, 0), (1, 1), (2, 1), ((1, 2), (1, 0))]:
            expected = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
            got = kernels.conv2d(x, w, b, stride=stride, padding=padding)
            np.testing.assert_array_equal(got, expected.data)

    def test_pad_nchw_matches_np_pad(self, rng):
        from repro.kernels.conv import pad_nchw

        x = rng.normal(size=(2, 3, 5, 7))
        np.testing.assert_array_equal(
            pad_nchw(x, 2, 1), np.pad(x, ((0, 0), (0, 0), (2, 2), (1, 1)))
        )

    def test_no_padding_returns_input(self, rng):
        from repro.kernels.conv import pad_nchw

        x = rng.normal(size=(1, 1, 4, 4))
        assert pad_nchw(x, 0, 0) is x


class TestIm2colIndexCache:
    def test_repeated_calls_share_arrays(self):
        first = im2col_indices(3, 8, 8, (3, 3), (1, 1), (1, 1))
        second = im2col_indices(3, 8, 8, (3, 3), (1, 1), (1, 1))
        for a, b in zip(first[:3], second[:3]):
            assert a is b

    def test_cached_arrays_are_read_only(self):
        k, i, j, _, _ = im2col_indices(2, 6, 6, (2, 2), (2, 2), (0, 0))
        for array in (k, i, j):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_distinct_geometries_distinct_indices(self):
        a = im2col_indices(1, 6, 6, (2, 2), (2, 2), (0, 0))
        b = im2col_indices(1, 6, 6, (3, 3), (1, 1), (0, 0))
        assert a[0].shape != b[0].shape

    def test_cache_is_explicitly_bounded(self):
        from repro.kernels.conv import IM2COL_INDEX_CACHE_SIZE, im2col_cache_info

        info = im2col_cache_info()
        assert info.maxsize == IM2COL_INDEX_CACHE_SIZE
        assert IM2COL_INDEX_CACHE_SIZE >= 64  # enough for every registry model

    def test_cache_reuse_survives_batch_size_changes(self):
        # The cache key is pure layer geometry: serving the same conv at
        # batch 2, 7 and 16 must hit one entry, not mint three.
        from repro.kernels.conv import im2col_cache_clear, im2col_cache_info

        im2col_cache_clear()
        weight = np.random.default_rng(0).normal(size=(4, 3, 3, 3))
        outputs = {}
        for batch in (2, 7, 16):
            x = np.random.default_rng(batch).normal(size=(batch, 3, 9, 9))
            outputs[batch] = kernels.conv2d(x, weight, stride=1, padding=1)
        info = im2col_cache_info()
        assert info.misses == 1
        assert info.hits == 2
        assert info.currsize == 1
        # And the shared indices computed the right thing at every batch.
        for batch, out in outputs.items():
            assert out.shape == (batch, 4, 9, 9)


class TestPoolKernels:
    @pytest.mark.parametrize("kernel,stride", [(2, 2), (2, None), (3, 2), ((2, 3), (2, 3))])
    def test_max_pool_matches_functional(self, rng, kernel, stride):
        x = rng.normal(size=(2, 3, 12, 12))
        expected = F.max_pool2d(Tensor(x), kernel, stride)
        np.testing.assert_allclose(kernels.max_pool2d(x, kernel, stride), expected.data)

    @pytest.mark.parametrize(
        "kernel,stride", [(2, 2), (2, None), (3, 2), (3, None), ((2, 3), (2, 3))]
    )
    def test_avg_pool_matches_functional(self, rng, kernel, stride):
        # Bitwise, tiled windows of 6 and 9 elements included.
        x = rng.normal(size=(2, 3, 12, 12))
        expected = F.avg_pool2d(Tensor(x), kernel, stride)
        np.testing.assert_array_equal(kernels.avg_pool2d(x, kernel, stride), expected.data)

    def test_tiled_fast_path_does_not_mutate_input(self, rng):
        x = rng.normal(size=(2, 2, 8, 8))
        before = x.copy()
        kernels.max_pool2d(x, 2)
        kernels.avg_pool2d(x, 2)
        np.testing.assert_array_equal(x, before)

    def test_integer_input_pools(self):
        # Integer-domain activations must not crash either pooling path.
        x = np.arange(16, dtype=np.int64).reshape(1, 1, 4, 4)
        np.testing.assert_array_equal(kernels.max_pool2d(x, 2), [[[[5, 7], [13, 15]]]])
        np.testing.assert_allclose(kernels.avg_pool2d(x, 2), [[[[2.5, 4.5], [10.5, 12.5]]]])
        np.testing.assert_allclose(
            kernels.avg_pool2d(x, 2, 1)[0, 0, 0, 0], 2.5  # overlapping fallback
        )


class TestOtherKernels:
    def test_linear(self, rng):
        x = rng.normal(size=(5, 7))
        w = rng.normal(size=(4, 7))
        b = rng.normal(size=(4,))
        expected = F.linear(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(kernels.linear(x, w, b), expected.data)

    def test_batch_norm_matches_module_eval(self, rng):
        from repro import nn
        from repro.tensor import no_grad

        bn = nn.BatchNorm2d(3)
        bn.update_buffer("running_mean", rng.normal(size=3))
        bn.update_buffer("running_var", rng.uniform(0.5, 2.0, size=3))
        bn.weight.data = rng.normal(size=3)
        bn.bias.data = rng.normal(size=3)
        bn.eval()
        x = rng.normal(size=(4, 3, 5, 5))
        with no_grad():
            expected = bn(Tensor(x)).data
        got = kernels.batch_norm(
            x, bn.running_mean, bn.running_var, bn.weight.data, bn.bias.data, bn.eps, (1, 3, 1, 1)
        )
        np.testing.assert_allclose(got, expected)

    def test_activations_match_tensor_ops(self, rng):
        x = rng.normal(size=(3, 6))
        np.testing.assert_allclose(kernels.relu(x), Tensor(x).relu().data)
        np.testing.assert_allclose(kernels.relu6(x * 4), Tensor(x * 4).clamp(0.0, 6.0).data)
        np.testing.assert_allclose(kernels.sigmoid(x), Tensor(x).sigmoid().data)
        np.testing.assert_allclose(kernels.tanh(x), Tensor(x).tanh().data)
        np.testing.assert_allclose(kernels.softmax(x), F.softmax(Tensor(x)).data)
        np.testing.assert_allclose(kernels.log_softmax(x), F.log_softmax(Tensor(x)).data)
