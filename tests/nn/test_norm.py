"""Batch-normalisation behaviour in train and eval modes."""

import numpy as np
import pytest

from repro import nn
from repro.tensor import Tensor, graph_nodes_created, no_grad


class TestBatchNorm2d:
    def test_training_output_is_normalised(self, rng):
        bn = nn.BatchNorm2d(3)
        x = rng.normal(loc=5.0, scale=3.0, size=(8, 3, 4, 4))
        out = bn(Tensor(x)).data
        assert out.mean(axis=(0, 2, 3)) == pytest.approx(np.zeros(3), abs=1e-6)
        assert out.std(axis=(0, 2, 3)) == pytest.approx(np.ones(3), abs=1e-2)

    def test_running_stats_move_toward_batch_stats(self, rng):
        bn = nn.BatchNorm2d(2, momentum=0.5)
        x = rng.normal(loc=2.0, size=(16, 2, 3, 3))
        bn(Tensor(x))
        assert np.all(bn.running_mean > 0.5)

    def test_eval_uses_running_stats(self, rng):
        bn = nn.BatchNorm2d(2)
        for _ in range(20):
            bn(Tensor(rng.normal(loc=1.0, size=(16, 2, 3, 3))))
        bn.eval()
        x = rng.normal(loc=1.0, size=(4, 2, 3, 3))
        out1 = bn(Tensor(x)).data
        out2 = bn(Tensor(x)).data
        np.testing.assert_array_equal(out1, out2)
        # Running stats must not change in eval mode.
        before = bn.running_mean.copy()
        bn(Tensor(rng.normal(size=(4, 2, 3, 3))))
        np.testing.assert_array_equal(bn.running_mean, before)

    def test_affine_parameters_not_quantisable(self):
        bn = nn.BatchNorm2d(4)
        assert not bn.weight.quantisable
        assert not bn.bias.quantisable

    def test_rejects_wrong_rank(self, rng):
        bn = nn.BatchNorm2d(3)
        with pytest.raises(ValueError):
            bn(Tensor(rng.normal(size=(4, 3))))

    def test_gradients_flow_to_affine_params(self, rng):
        bn = nn.BatchNorm2d(3)
        bn(Tensor(rng.normal(size=(4, 3, 2, 2)))).sum().backward()
        assert bn.weight.grad is not None
        assert bn.bias.grad is not None


class TestBatchNorm1d:
    def test_training_output_is_normalised(self, rng):
        bn = nn.BatchNorm1d(5)
        out = bn(Tensor(rng.normal(loc=-3.0, scale=2.0, size=(64, 5)))).data
        assert out.mean(axis=0) == pytest.approx(np.zeros(5), abs=1e-6)

    def test_rejects_wrong_rank(self, rng):
        bn = nn.BatchNorm1d(5)
        with pytest.raises(ValueError):
            bn(Tensor(rng.normal(size=(4, 5, 2, 2))))

    def test_scale_and_shift_applied(self, rng):
        bn = nn.BatchNorm1d(2)
        bn.weight.data = np.array([2.0, 3.0])
        bn.bias.data = np.array([1.0, -1.0])
        out = bn(Tensor(rng.normal(size=(128, 2)))).data
        assert out[:, 0].mean() == pytest.approx(1.0, abs=1e-6)
        assert out[:, 1].mean() == pytest.approx(-1.0, abs=1e-6)
        assert out[:, 0].std() == pytest.approx(2.0, rel=0.05)


@pytest.mark.parametrize(
    "make_bn,shape", [(nn.BatchNorm2d, (2, 3, 4, 4)), (nn.BatchNorm1d, (4, 5))], ids=["2d", "1d"]
)
class TestBatchNorm1dAnd2d:
    def test_training_forward_is_one_graph_node(self, rng, make_bn, shape):
        bn = make_bn(shape[1])
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        before = graph_nodes_created()
        bn(x)
        assert graph_nodes_created() == before + 1

    @pytest.mark.parametrize("mode", ["train", "eval", "eval_no_grad"])
    def test_rejects_wrong_channel_count(self, rng, make_bn, shape, mode):
        bn = make_bn(1)
        bn.train(mode == "train")
        x = Tensor(rng.normal(size=shape))
        expected = f"{shape[1]} channels but {make_bn.__name__} expects 1"
        with pytest.raises(ValueError, match=expected):
            if mode == "eval_no_grad":
                with no_grad():
                    bn(x)
            else:
                bn(x)
