"""Unit and property-based tests for the reverse-mode autograd engine."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, as_tensor, no_grad


def numeric_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x, dtype=float)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        upper = fn(x)
        flat[i] = original - eps
        lower = fn(x)
        flat[i] = original
        grad_flat[i] = (upper - lower) / (2 * eps)
    return grad


class TestBasicOps:
    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_mul_backward(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [5.0, 7.0])
        np.testing.assert_allclose(b.grad, [2.0, 3.0])

    def test_div_and_pow(self):
        a = Tensor([4.0], requires_grad=True)
        y = (a ** 2) / 8.0
        y.backward()
        np.testing.assert_allclose(a.grad, [1.0])

    def test_sub_and_neg(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        ((-a) - a).sum().backward()
        np.testing.assert_allclose(a.grad, [-2.0, -2.0])

    def test_broadcast_add_unbroadcasts_gradient(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, np.full(4, 3.0))

    def test_scalar_coercion(self):
        a = Tensor([2.0], requires_grad=True)
        (3.0 * a + 1.0).sum().backward()
        np.testing.assert_allclose(a.grad, [3.0])

    def test_rsub_rtruediv(self):
        a = Tensor([2.0], requires_grad=True)
        y = (1.0 - a) + (4.0 / a)
        y.sum().backward()
        np.testing.assert_allclose(a.grad, [-1.0 - 1.0], rtol=1e-6)

    def test_backward_requires_scalar(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (a * 2).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        a = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            a.sum().backward()

    def test_grad_accumulates_across_backwards(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        (a * 2).sum().backward()
        np.testing.assert_allclose(a.grad, [4.0])
        a.zero_grad()
        assert a.grad is None

    def test_object_dtype_rejected(self):
        with pytest.raises(TypeError):
            Tensor(np.array([object()]))


class TestMatmul:
    def test_matmul_2d_numeric(self):
        rng = np.random.default_rng(0)
        a_data = rng.normal(size=(3, 4))
        b_data = rng.normal(size=(4, 2))
        a = Tensor(a_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        (a @ b).sum().backward()
        expected_a = numeric_gradient(lambda x: (x @ b_data).sum(), a_data.copy())
        expected_b = numeric_gradient(lambda x: (a_data @ x).sum(), b_data.copy())
        np.testing.assert_allclose(a.grad, expected_a, atol=1e-5)
        np.testing.assert_allclose(b.grad, expected_b, atol=1e-5)

    def test_matmul_batched(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
        out = a @ b
        assert out.shape == (2, 3, 5)
        out.sum().backward()
        assert a.grad.shape == (2, 3, 4)
        assert b.grad.shape == (2, 4, 5)

    def test_matvec(self):
        a = Tensor(np.eye(3), requires_grad=True)
        v = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        (a @ v).sum().backward()
        np.testing.assert_allclose(v.grad, np.ones(3))


class TestElementwiseAndReductions:
    def test_tanh_sigmoid_relu_gelu_numeric(self):
        rng = np.random.default_rng(2)
        x_data = rng.normal(size=(5,))
        for name in ("tanh", "sigmoid", "relu", "gelu", "exp"):
            x = Tensor(x_data.copy(), requires_grad=True)
            getattr(x, name)().sum().backward()

            def ref(arr, name=name):
                t = Tensor(arr)
                return getattr(t, name)().sum().item()

            expected = numeric_gradient(ref, x_data.copy())
            np.testing.assert_allclose(x.grad, expected, atol=1e-4, err_msg=name)

    def test_log_and_sqrt(self):
        x = Tensor([4.0], requires_grad=True)
        (x.log() + x.sqrt()).sum().backward()
        np.testing.assert_allclose(x.grad, [1 / 4.0 + 0.25], rtol=1e-6)

    def test_mean_and_var(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
        assert x.mean().item() == pytest.approx(2.5)
        assert x.var().item() == pytest.approx(1.25)

    def test_sum_axis_keepdims(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        out = x.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_max_backward_splits_ties(self):
        x = Tensor(np.array([1.0, 3.0, 3.0]), requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.0, 0.5, 0.5])

    def test_min(self):
        x = Tensor(np.array([2.0, -1.0, 5.0]), requires_grad=True)
        assert x.min().item() == pytest.approx(-1.0)

    def test_clip_and_abs(self):
        x = Tensor(np.array([-2.0, 0.5, 3.0]), requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])
        y = Tensor(np.array([-2.0, 3.0]), requires_grad=True)
        y.abs().sum().backward()
        np.testing.assert_allclose(y.grad, [-1.0, 1.0])

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(3).normal(size=(4, 7)), requires_grad=True)
        probs = x.softmax(axis=-1)
        np.testing.assert_allclose(probs.data.sum(axis=-1), np.ones(4), rtol=1e-8)

    def test_log_softmax_matches_softmax(self):
        x = Tensor(np.random.default_rng(4).normal(size=(2, 5)))
        np.testing.assert_allclose(
            x.log_softmax(axis=-1).data, np.log(x.softmax(axis=-1).data), rtol=1e-8
        )

    def test_softmax_gradient_numeric(self):
        rng = np.random.default_rng(5)
        x_data = rng.normal(size=(6,))
        x = Tensor(x_data.copy(), requires_grad=True)
        (x.softmax(axis=-1)[2]).backward()
        expected = numeric_gradient(
            lambda arr: Tensor(arr).softmax(axis=-1).data[2], x_data.copy()
        )
        np.testing.assert_allclose(x.grad, expected, atol=1e-5)


class TestShapeOps:
    def test_reshape_transpose_roundtrip(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        y = x.reshape(4, 3).transpose()
        assert y.shape == (3, 4)
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((3, 4)))

    def test_swapaxes(self):
        x = Tensor(np.zeros((2, 3, 5)))
        assert x.swapaxes(1, 2).shape == (2, 5, 3)

    def test_getitem_gradient_scatter(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        x[np.array([0, 0, 3])].sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 0, 0, 1.0, 0, 0])

    def test_slicing(self):
        x = Tensor(np.arange(10.0).reshape(2, 5), requires_grad=True)
        x[:, 1:3].sum().backward()
        expected = np.zeros((2, 5))
        expected[:, 1:3] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_expand_squeeze(self):
        x = Tensor(np.ones((3,)), requires_grad=True)
        y = x.expand_dims(0).squeeze(0)
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(3))

    def test_concatenate_and_stack(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.full((2, 3), 2.0), requires_grad=True)
        cat = Tensor.concatenate([a, b], axis=0)
        assert cat.shape == (4, 3)
        stacked = Tensor.stack([a, b], axis=1)
        assert stacked.shape == (2, 2, 3)
        (cat.sum() + stacked.sum()).backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 2.0))

    def test_masked_fill(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        mask = np.array([[True, False], [False, True]])
        filled = x.masked_fill(mask, -5.0)
        np.testing.assert_allclose(filled.data, [[-5.0, 1.0], [1.0, -5.0]])
        filled.sum().backward()
        np.testing.assert_allclose(x.grad, (~mask).astype(float))

    def test_take_rows(self):
        table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        out = Tensor.take_rows(table, np.array([[0, 1], [1, 1]]))
        assert out.shape == (2, 2, 3)
        out.sum().backward()
        np.testing.assert_allclose(table.grad[:, 0], [1.0, 3.0, 0.0, 0.0])


class TestGraphMechanics:
    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 3.0
        assert not out.requires_grad

    def test_no_grad_is_thread_local(self):
        # Grad mode must be per-thread: concurrent no_grad() windows
        # interleaving save/restores of a single process-global flag can
        # strand the process with grad disabled.
        from repro.nn.autograd import is_grad_enabled

        inside = threading.Barrier(3, timeout=10.0)
        resume = threading.Barrier(3, timeout=10.0)
        seen: list[bool] = []

        def worker() -> None:
            with no_grad():
                inside.wait()   # both workers hold their windows open ...
                seen.append(is_grad_enabled())
                resume.wait()   # ... while the main thread checks its own.

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        inside.wait()
        main_during = is_grad_enabled()
        resume.wait()
        for thread in threads:
            thread.join(timeout=10.0)

        assert seen == [False, False]
        assert main_during, "a worker's no_grad window leaked across threads"
        assert is_grad_enabled(), "grad mode left disabled after the windows"
        a = Tensor([1.0], requires_grad=True)
        assert (a * 2.0).requires_grad

    def test_as_tensor_idempotent(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t
        assert isinstance(as_tensor([1, 2]), Tensor)

    def test_detach_and_copy(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        d = a.detach()
        assert not d.requires_grad
        c = a.copy()
        c.data[0] = 99.0
        assert a.data[0] == 1.0

    def test_diamond_graph_gradient(self):
        # y = (x*2) + (x*3): both branches contribute to x's gradient.
        x = Tensor([1.0], requires_grad=True)
        y = x * 2.0 + x * 3.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_reused_node_deep_graph(self):
        x = Tensor([0.5], requires_grad=True)
        h = x
        for _ in range(10):
            h = h * x
        h.sum().backward()
        # d/dx x^11 = 11 x^10
        np.testing.assert_allclose(x.grad, [11 * 0.5 ** 10], rtol=1e-8)


@given(
    st.lists(st.floats(-5, 5), min_size=2, max_size=6),
    st.lists(st.floats(-5, 5), min_size=2, max_size=6),
)
@settings(max_examples=30, deadline=None)
def test_property_add_mul_gradients(a_values, b_values):
    """For elementwise z = a*b + a, dz/da = b + 1 and dz/db = a."""
    size = min(len(a_values), len(b_values))
    a_data = np.array(a_values[:size])
    b_data = np.array(b_values[:size])
    a = Tensor(a_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    (a * b + a).sum().backward()
    np.testing.assert_allclose(a.grad, b_data + 1.0, atol=1e-8)
    np.testing.assert_allclose(b.grad, a_data, atol=1e-8)


@given(st.integers(1, 4), st.integers(1, 5))
@settings(max_examples=20, deadline=None)
def test_property_softmax_is_distribution(rows, cols):
    rng = np.random.default_rng(rows * 10 + cols)
    x = Tensor(rng.normal(size=(rows, cols)))
    probs = x.softmax(axis=-1).data
    assert np.all(probs >= 0)
    np.testing.assert_allclose(probs.sum(axis=-1), np.ones(rows), rtol=1e-9)
