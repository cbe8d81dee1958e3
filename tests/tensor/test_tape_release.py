"""``Tensor.backward`` releases the tape as it consumes it.

Once an interior node's backward has run, its gradient, its closure and its
parent links are dropped, so a step's activations and saved columns die as
backprop passes them.  Leaves (parameters and ``requires_grad`` inputs) keep
their ``.grad`` as before, and a second backward through a released graph
raises instead of silently dropping gradients.
"""

import tracemalloc

import numpy as np
import pytest

from repro.models import build_model
from repro.nn.loss import CrossEntropyLoss
from repro.tensor import Tensor


def _graph():
    """x (input) -> h = x @ w -> relu -> * v -> sum, with interior nodes kept."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True, name="x")
    w = Tensor(rng.normal(size=(3, 5)), requires_grad=True, name="w")
    v = Tensor(rng.normal(size=(5,)), requires_grad=True, name="v")
    h = x @ w
    r = h.relu()
    s = r * v
    loss = s.sum()
    return (x, w, v), (h, r, s, loss)


def _expected_grads(x, w, v):
    h = x.data @ w.data
    mask = (h > 0).astype(np.float64)
    grad_h = mask * v.data
    return {
        "x": grad_h @ w.data.T,
        "w": x.data.T @ grad_h,
        "v": (np.maximum(h, 0)).sum(axis=0),
    }


class TestRelease:
    def test_interior_nodes_hold_no_grad_closure_or_parents(self):
        leaves, interior = _graph()
        interior[-1].backward()
        for node in interior:
            assert node.grad is None
            assert node._parents == ()
            with pytest.raises(RuntimeError, match="released"):
                node._backward(np.ones_like(node.data))

    def test_interior_data_stays(self):
        leaves, (h, r, s, loss) = _graph()
        before = [node.data.copy() for node in (h, r, s, loss)]
        loss.backward()
        for node, data in zip((h, r, s, loss), before):
            assert node.data.tobytes() == data.tobytes()

    def test_leaves_keep_their_grads(self):
        leaves, interior = _graph()
        interior[-1].backward()
        expected = _expected_grads(*leaves)
        for leaf in leaves:
            assert leaf._backward is None
            np.testing.assert_allclose(leaf.grad, expected[leaf.name], rtol=1e-12)

    def test_leaves_accumulate_across_fresh_graphs(self):
        leaves, interior = _graph()
        interior[-1].backward()
        once = {leaf.name: leaf.grad.copy() for leaf in leaves}
        x, w, v = leaves
        ((x @ w).relu() * v).sum().backward()
        for leaf in leaves:
            assert leaf.grad.tobytes() == (once[leaf.name] + once[leaf.name]).tobytes()

    def test_a_leaf_root_keeps_its_grad(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        x.backward()
        assert x.grad.tolist() == [1.0]

    def test_shared_subgraph_is_released_once(self):
        # Diamond: both branches reach x through h; h's backward runs once
        # with the summed gradient and is then released.
        x = Tensor(np.arange(3.0), requires_grad=True)
        h = x * 2.0
        loss = (h * h + h).sum()
        loss.backward()
        assert x.grad.tolist() == (2.0 * (2.0 * 2.0 * np.arange(3.0) + 1.0)).tolist()
        assert h.grad is None and h._parents == ()


class TestSecondBackward:
    def test_raises_and_changes_no_leaf_grad(self):
        leaves, interior = _graph()
        loss = interior[-1]
        loss.backward()
        first = {leaf.name: (leaf.grad, leaf.grad.tobytes()) for leaf in leaves}
        with pytest.raises(RuntimeError, match="released"):
            loss.backward()
        for leaf in leaves:
            grad, data = first[leaf.name]
            assert leaf.grad is grad
            assert leaf.grad.tobytes() == data

    def test_raises_on_a_model_step(self):
        rng = np.random.default_rng(3)
        model = build_model("tiny_convnet", num_classes=10, in_channels=1, rng=rng)
        loss = CrossEntropyLoss()(model(Tensor(rng.normal(size=(4, 1, 12, 12)))),
                                  rng.integers(0, 10, size=4))
        loss.backward()
        grads = {name: p.grad.tobytes() for name, p in model.named_parameters()}
        with pytest.raises(RuntimeError):
            loss.backward()
        assert {name: p.grad.tobytes() for name, p in model.named_parameters()} == grads


def test_a_bench_cifar_step_holds_only_grads_and_logits_after_backward():
    """small_convnet x0.5 on a 64-sample 3x32x32 batch (bench_cifar's step)."""
    rng = np.random.default_rng(0)
    model = build_model("small_convnet", num_classes=10, width_multiplier=0.5,
                        in_channels=3, rng=rng)
    model.train()
    inputs = Tensor(rng.normal(size=(64, 3, 32, 32)))
    labels = rng.integers(0, 10, size=64)
    loss_fn = CrossEntropyLoss()

    def forward():
        for param in model.parameters():
            param.grad = None
        logits = model(inputs)
        return logits, loss_fn(logits, labels)

    logits, loss = forward()  # fills the kernels' caches before tracing
    loss.backward()
    del logits, loss
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        logits, loss = forward()
        after_forward = tracemalloc.get_traced_memory()[0] - base
        loss.backward()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    grads = sum(param.grad.nbytes for param in model.parameters())
    # The tape (activations, columns, interior grads) is ~52 MiB at the end
    # of forward; before release all of it was still held here (~75 MiB).
    assert after_forward > 32 * 2**20
    assert held <= grads + logits.data.nbytes + 2**20
    assert loss.grad is None and logits.grad is None
