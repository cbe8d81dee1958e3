"""Correctness of functional ops (conv, pooling, softmax) against naive references."""

import numpy as np
import pytest

from repro.tensor import Tensor, functional as F

from tests.conftest import assert_grad_close, numeric_gradient


def naive_conv2d(x, w, b=None, stride=1, padding=0):
    """Direct-loop reference convolution."""
    batch, in_c, height, width = x.shape
    out_c, _, kh, kw = w.shape
    x_padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (height + 2 * padding - kh) // stride + 1
    out_w = (width + 2 * padding - kw) // stride + 1
    out = np.zeros((batch, out_c, out_h, out_w))
    for n in range(batch):
        for oc in range(out_c):
            for i in range(out_h):
                for j in range(out_w):
                    patch = x_padded[:, :, i * stride : i * stride + kh, j * stride : j * stride + kw][n]
                    out[n, oc, i, j] = np.sum(patch * w[oc])
            if b is not None:
                out[n, oc] += b[oc]
    return out


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_matches_naive(self, rng, stride, padding):
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        np.testing.assert_allclose(out.data, naive_conv2d(x, w, b, stride, padding), atol=1e-10)

    def test_no_bias(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), padding=1)
        np.testing.assert_allclose(out.data, naive_conv2d(x, w, None, 1, 1), atol=1e-10)

    def test_output_shape(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        w = Tensor(rng.normal(size=(5, 3, 3, 3)))
        assert F.conv2d(x, w, stride=2, padding=1).shape == (2, 5, 4, 4)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 5, 5)))
        w = Tensor(rng.normal(size=(3, 4, 3, 3)))
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    def test_too_small_input_raises(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 2, 2)))
        w = Tensor(rng.normal(size=(1, 1, 5, 5)))
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    def test_gradients_input(self, rng):
        x_values = rng.normal(size=(1, 2, 4, 4))
        w_values = rng.normal(size=(2, 2, 3, 3))
        x = Tensor(x_values.copy(), requires_grad=True)
        w = Tensor(w_values.copy(), requires_grad=True)
        (F.conv2d(x, w, padding=1) ** 2).sum().backward()

        def scalar_x(array):
            return float((F.conv2d(Tensor(array), Tensor(w_values), padding=1) ** 2).sum().item())

        assert_grad_close(x.grad, numeric_gradient(scalar_x, x_values.copy()), atol=1e-3)

    def test_gradients_weight_and_bias(self, rng):
        x_values = rng.normal(size=(2, 1, 4, 4))
        w_values = rng.normal(size=(2, 1, 3, 3))
        b_values = rng.normal(size=2)
        x = Tensor(x_values)
        w = Tensor(w_values.copy(), requires_grad=True)
        b = Tensor(b_values.copy(), requires_grad=True)
        (F.conv2d(x, w, b, stride=1, padding=0) ** 2).sum().backward()

        def scalar_w(array):
            return float((F.conv2d(x, Tensor(array), Tensor(b_values)) ** 2).sum().item())

        def scalar_b(array):
            return float((F.conv2d(x, Tensor(w_values), Tensor(array)) ** 2).sum().item())

        assert_grad_close(w.grad, numeric_gradient(scalar_w, w_values.copy()), atol=1e-3)
        assert_grad_close(b.grad, numeric_gradient(scalar_b, b_values.copy()), atol=1e-3)


class TestBatchNorm:
    """Training-mode ``F.batch_norm``: batch statistics and gradients."""

    SHAPES = [(3, 2, 3, 3), (5, 3)]
    IDS = ["2d", "1d"]

    @pytest.mark.parametrize("shape", SHAPES, ids=IDS)
    def test_normalises_by_batch_statistics(self, rng, shape):
        x = rng.normal(loc=2.0, scale=3.0, size=shape)
        w = rng.normal(size=shape[1])
        b = rng.normal(size=shape[1])
        out, mean, var = F.batch_norm(Tensor(x), Tensor(w), Tensor(b), eps=1e-5)
        axes = (0,) + tuple(range(2, len(shape)))
        np.testing.assert_allclose(mean, x.mean(axis=axes))
        np.testing.assert_allclose(var, x.var(axis=axes))
        view = (1, shape[1]) + (1,) * (len(shape) - 2)
        expected = (x - mean.reshape(view)) / np.sqrt(var.reshape(view) + 1e-5)
        np.testing.assert_allclose(out.data, expected * w.reshape(view) + b.reshape(view))

    @pytest.mark.parametrize("shape", SHAPES, ids=IDS)
    def test_gradients_input_weight_and_bias(self, rng, shape):
        x_values = rng.normal(size=shape)
        w_values = rng.normal(size=shape[1])
        b_values = rng.normal(size=shape[1])
        # A random upstream gradient: sum(out) alone has zero gradient in x.
        upstream = rng.normal(size=shape)
        x = Tensor(x_values.copy(), requires_grad=True)
        w = Tensor(w_values.copy(), requires_grad=True)
        b = Tensor(b_values.copy(), requires_grad=True)
        out, _, _ = F.batch_norm(x, w, b)
        (out * Tensor(upstream)).sum().backward()

        def loss(x_array, w_array, b_array):
            out, _, _ = F.batch_norm(Tensor(x_array), Tensor(w_array), Tensor(b_array))
            return float((out.data * upstream).sum())

        numeric_x = numeric_gradient(lambda a: loss(a, w_values, b_values), x_values.copy())
        numeric_w = numeric_gradient(lambda a: loss(x_values, a, b_values), w_values.copy())
        numeric_b = numeric_gradient(lambda a: loss(x_values, w_values, a), b_values.copy())
        assert_grad_close(x.grad, numeric_x, atol=1e-4)
        assert_grad_close(w.grad, numeric_w, atol=1e-4)
        assert_grad_close(b.grad, numeric_b, atol=1e-4)


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_max_pool_stride(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        out = F.max_pool2d(Tensor(x), 2, stride=2)
        assert out.shape == (2, 3, 3, 3)

    def test_max_pool_gradient_routes_to_argmax(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        t = Tensor(x.copy(), requires_grad=True)
        F.max_pool2d(t, 2).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_allclose(t.grad[0, 0], expected)

    def test_avg_pool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_gradient(self, rng):
        x_values = rng.normal(size=(1, 2, 4, 4))
        t = Tensor(x_values.copy(), requires_grad=True)
        (F.avg_pool2d(t, 2) ** 2).sum().backward()

        def scalar(array):
            return float((F.avg_pool2d(Tensor(array), 2) ** 2).sum().item())

        assert_grad_close(t.grad, numeric_gradient(scalar, x_values.copy()), atol=1e-3)

    def test_global_avg_pool(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        out = F.global_avg_pool2d(Tensor(x))
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.data, x.mean(axis=(2, 3)))


class TestSoftmax:
    def test_softmax_sums_to_one(self, rng):
        logits = rng.normal(size=(5, 7))
        out = F.softmax(Tensor(logits), axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5), atol=1e-12)

    def test_softmax_shift_invariance(self, rng):
        logits = rng.normal(size=(3, 4))
        a = F.softmax(Tensor(logits), axis=1).data
        b = F.softmax(Tensor(logits + 100.0), axis=1).data
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_log_softmax_matches_log_of_softmax(self, rng):
        logits = rng.normal(size=(4, 6))
        log_soft = F.log_softmax(Tensor(logits), axis=1).data
        soft = F.softmax(Tensor(logits), axis=1).data
        np.testing.assert_allclose(log_soft, np.log(soft), atol=1e-10)

    def test_log_softmax_stable_for_large_logits(self):
        logits = np.array([[1000.0, 0.0], [0.0, 1000.0]])
        out = F.log_softmax(Tensor(logits), axis=1).data
        assert np.all(np.isfinite(out))

    def test_softmax_gradient(self, rng):
        logits = rng.normal(size=(3, 4))
        t = Tensor(logits.copy(), requires_grad=True)
        (F.softmax(t, axis=1)[:, 0]).sum().backward()

        def scalar(array):
            return float(F.softmax(Tensor(array), axis=1)[:, 0].sum().item())

        assert_grad_close(t.grad, numeric_gradient(scalar, logits.copy()), atol=1e-4)


class TestHelpers:
    def test_one_hot(self):
        encoded = F.one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_allclose(encoded, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_linear_matches_manual(self, rng):
        x = rng.normal(size=(4, 5))
        w = rng.normal(size=(3, 5))
        b = rng.normal(size=3)
        out = F.linear(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, x @ w.T + b)

    def test_linear_without_bias(self, rng):
        x = rng.normal(size=(4, 5))
        w = rng.normal(size=(3, 5))
        np.testing.assert_allclose(F.linear(Tensor(x), Tensor(w)).data, x @ w.T)
