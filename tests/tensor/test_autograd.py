"""Numerical gradient checks for every primitive operator."""

import numpy as np
import pytest

import repro.tensor as rt
from repro.tensor import Tensor

from tests.conftest import check_gradient, numerical_gradient


@pytest.fixture
def x(rng):
    return rng.standard_normal((3, 4))


class TestElementwiseGrads:
    def test_add(self, x):
        check_gradient(lambda t: t + 2.0, x)

    def test_sub(self, x):
        check_gradient(lambda t: 5.0 - t, x)

    def test_mul(self, x):
        check_gradient(lambda t: t * t, x)

    def test_div(self, x):
        check_gradient(lambda t: t / 3.0, x)
        check_gradient(lambda t: 1.0 / (t * t + 1.0), x)

    def test_neg(self, x):
        check_gradient(lambda t: -t, x)

    def test_pow(self, x):
        check_gradient(lambda t: (t * t + 1.0) ** 1.5, x)

    def test_exp(self, x):
        check_gradient(lambda t: rt.exp(t * 0.5), x)

    def test_log(self, x):
        check_gradient(lambda t: rt.log(t * t + 1.0), x)

    def test_sqrt(self, x):
        check_gradient(lambda t: rt.sqrt(t * t + 1.0), x)

    def test_tanh(self, x):
        check_gradient(lambda t: rt.tanh(t), x)

    def test_sigmoid(self, x):
        check_gradient(lambda t: rt.sigmoid(t), x)

    def test_relu(self, x):
        # Keep away from the kink.
        x = x + np.sign(x) * 0.1
        check_gradient(lambda t: rt.relu(t), x)

    def test_abs(self, x):
        x = x + np.sign(x) * 0.1
        check_gradient(lambda t: rt.abs(t), x)

    def test_clip(self, x):
        check_gradient(lambda t: rt.clip(t, -0.5, 0.5), x * 2 + 0.05)

    def test_maximum_minimum(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4))
        check_gradient(lambda t: rt.maximum(t, Tensor(b.astype(np.float32))), a)
        check_gradient(lambda t: rt.minimum(t, Tensor(b.astype(np.float32))), a)

    def test_where(self, rng):
        cond = Tensor(rng.random((3, 4)) > 0.5)
        a = rng.standard_normal((3, 4))
        check_gradient(lambda t: rt.where(cond, t * 2.0, t * -1.0), a)


class TestReductionGrads:
    def test_sum_all(self, x):
        check_gradient(lambda t: t.sum(), x)

    def test_sum_axis(self, x):
        check_gradient(lambda t: t.sum(axis=0), x)
        check_gradient(lambda t: t.sum(axis=1, keepdims=True), x)

    def test_mean(self, x):
        check_gradient(lambda t: t.mean(), x)
        check_gradient(lambda t: t.mean(axis=(0,)), x)

    def test_max(self, rng):
        # distinct values to avoid tie subgradients
        x = rng.permutation(12).astype(np.float64).reshape(3, 4)
        check_gradient(lambda t: t.max(axis=1), x)
        check_gradient(lambda t: t.max(), x)

    def test_min(self, rng):
        x = rng.permutation(12).astype(np.float64).reshape(3, 4)
        check_gradient(lambda t: t.min(axis=0), x)

    def test_var(self, x):
        check_gradient(lambda t: t.var(axis=1), x)


class TestShapeGrads:
    def test_reshape(self, x):
        check_gradient(lambda t: t.reshape(4, 3) * 2.0, x)

    def test_transpose(self, x):
        check_gradient(lambda t: t.transpose() * Tensor(np.arange(12, dtype=np.float32).reshape(4, 3)), x)

    def test_permute_3d(self, rng):
        x = rng.standard_normal((2, 3, 4))
        check_gradient(lambda t: t.permute(2, 0, 1) * 1.5, x)

    def test_getitem_slice(self, x):
        check_gradient(lambda t: t[1:, :2] * 3.0, x)

    def test_getitem_fancy(self, x):
        idx = np.array([0, 2])
        check_gradient(lambda t: t[idx] * 2.0, x)

    def test_getitem_repeated_index_accumulates(self, x):
        idx = np.array([0, 0, 2])
        check_gradient(lambda t: t[idx] * 2.0, x)

    def test_getitem_basic_mixed(self, x):
        check_gradient(lambda t: t[..., None, 1] * 2.0, x)
        check_gradient(lambda t: t[np.int64(1), True] * 2.0, x)

    def test_broadcast_to(self, rng):
        x = rng.standard_normal((1, 4))
        check_gradient(lambda t: t.broadcast_to((3, 4)) * 2.0, x)

    def test_concat(self, rng):
        a = rng.standard_normal((2, 3))
        b = Tensor(rng.standard_normal((2, 3)).astype(np.float32))
        check_gradient(lambda t: rt.concatenate([t, b], axis=0), a)

    def test_stack(self, rng):
        a = rng.standard_normal((2, 3))
        b = Tensor(rng.standard_normal((2, 3)).astype(np.float32))
        check_gradient(lambda t: rt.stack([t, b], axis=1), a)

    def test_squeeze_unsqueeze(self, rng):
        x = rng.standard_normal((3, 1, 4))
        check_gradient(lambda t: t.squeeze(1).unsqueeze(0) * 2.0, x)


class TestBroadcastingGrads:
    def test_add_broadcast(self, rng):
        a = rng.standard_normal((3, 1))
        b = Tensor(rng.standard_normal((1, 4)).astype(np.float32))
        check_gradient(lambda t: t + b, a)

    def test_mul_broadcast_scalar_tensor(self, rng):
        a = rng.standard_normal((1,))
        b = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
        check_gradient(lambda t: t * b, a)

    def test_div_broadcast(self, rng):
        a = rng.standard_normal((2, 1, 4))
        b = Tensor((rng.random((3, 1)) + 1.0).astype(np.float32))
        check_gradient(lambda t: t / b, a)


class TestBackwardMechanics:
    def test_backward_requires_grad(self):
        t = Tensor([1.0])
        with pytest.raises(RuntimeError):
            t.backward()

    def test_backward_nonscalar_needs_grad_arg(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_grad_accumulates_across_backwards(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        (t * 2).sum().backward()
        (t * 2).sum().backward()
        np.testing.assert_allclose(t.grad, [4.0, 4.0])

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_diamond_graph_accumulation(self):
        # y = a*a + a*a uses `a` twice through shared subexpressions.
        a = Tensor([3.0], requires_grad=True)
        b = a * a
        y = (b + b).sum()
        y.backward()
        np.testing.assert_allclose(a.grad, [12.0])

    def test_long_chain(self):
        a = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        out = a
        for _ in range(50):
            out = out * 1.01
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.full(4, 1.01**50), rtol=1e-4)

    def test_explicit_grad_argument(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a * 3).backward(np.array([1.0, 10.0], dtype=np.float32))
        np.testing.assert_allclose(a.grad, [3.0, 30.0])

    def test_numerical_gradient_helper_sane(self):
        g = numerical_gradient(lambda arr: float((arr**2).sum()), np.array([1.0, -2.0]))
        np.testing.assert_allclose(g, [2.0, -4.0], atol=1e-4)
