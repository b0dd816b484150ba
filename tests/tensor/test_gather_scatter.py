"""gather/scatter semantics (the SG optimisation's operators)."""

import numpy as np
import pytest

import repro.tensor as rt
from repro.errors import ShapeError
from repro.tensor import Tensor

from tests.conftest import check_gradient


class TestGather:
    def test_dim1(self):
        src = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4))
        idx = np.array([[0, 3], [1, 1], [2, 0]])
        out = rt.gather(src, 1, idx)
        np.testing.assert_allclose(out.numpy(), [[0, 3], [5, 5], [10, 8]])

    def test_dim0(self):
        src = Tensor(np.arange(6, dtype=np.float32).reshape(3, 2))
        idx = np.array([[2, 0], [1, 1]])
        out = rt.gather(src, 0, idx)
        np.testing.assert_allclose(out.numpy(), [[4, 1], [2, 3]])

    def test_negative_dim(self):
        src = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        idx = np.array([[2], [0]])
        out = rt.gather(src, -1, idx)
        np.testing.assert_allclose(out.numpy(), [[2], [3]])

    def test_3d(self, rng):
        src = Tensor(rng.standard_normal((2, 3, 4)).astype(np.float32))
        idx = rng.integers(0, 4, size=(2, 3, 2))
        out = rt.gather(src, 2, idx)
        np.testing.assert_allclose(
            out.numpy(), np.take_along_axis(src.numpy(), idx, axis=2)
        )

    def test_requires_integer_index(self):
        with pytest.raises(ShapeError):
            rt.gather(Tensor(np.zeros((2, 2), np.float32)), 1, np.zeros((2, 2)))

    def test_requires_matching_ndim(self):
        with pytest.raises(ShapeError):
            rt.gather(Tensor(np.zeros((2, 2), np.float32)), 1, np.array([0, 1]))

    def test_grad(self, rng):
        idx = np.array([[0, 2, 2], [1, 0, 3]])
        check_gradient(lambda t: rt.gather(t, 1, idx), rng.standard_normal((2, 4)))

    def test_grad_duplicate_indices_accumulate(self):
        src = Tensor(np.ones((1, 3), np.float32), requires_grad=True)
        idx = np.array([[1, 1, 1, 1]])
        rt.gather(src, 1, idx).sum().backward()
        np.testing.assert_allclose(src.grad, [[0, 4, 0]])

    def test_grad_broadcast_index_repeating_along_dim_accumulates(self):
        src = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
        idx = np.broadcast_to(np.array([[1]]), (2, 4))      # stride 0 along dim
        rt.gather(src, 1, idx).sum().backward()
        np.testing.assert_allclose(src.grad, [[0, 4, 0], [0, 4, 0]])

    def test_grad_negative_index_aliasing_accumulates(self):
        src = Tensor(np.ones((1, 3), np.float32), requires_grad=True)
        rt.gather(src, 1, np.array([[2, -1]])).sum().backward()
        np.testing.assert_allclose(src.grad, [[0, 0, 2]])

    def test_grad_unique_indices_assign(self):
        # Assignment keeps a -0.0 gradient that 0 + (-0.0) would turn into +0.0.
        src = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
        idx = np.broadcast_to(np.array([[2, 0]]), (2, 2))
        (rt.gather(src, 1, idx) * -0.0).sum().backward()
        assert np.signbit(src.grad[:, [0, 2]]).all()
        assert not np.signbit(src.grad[:, 1]).any()

    def test_sg_roundtrip_grad_matches_accumulating_backward(self, rng, monkeypatch):
        from repro.core import make_compressor
        from repro.tensor import gather_scatter

        comp = make_compressor(32, method="sg", cf=3)
        x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)

        def grad():
            t = Tensor(x, requires_grad=True)
            (comp.decompress(comp.compress(t)) * 1.5).sum().backward()
            return t.grad

        assigned = grad()
        monkeypatch.setattr(gather_scatter, "_repeats_along", lambda index, dim: True)
        np.testing.assert_array_equal(assigned, grad())

    def test_take_along_axis_alias(self, rng):
        src = Tensor(rng.standard_normal((2, 5)).astype(np.float32))
        idx = np.array([[0, 1], [4, 3]])
        np.testing.assert_allclose(
            rt.take_along_axis(src, idx, 1).numpy(), rt.gather(src, 1, idx).numpy()
        )


class TestScatter:
    def test_roundtrip_with_gather(self, rng):
        src = Tensor(rng.standard_normal((3, 6)).astype(np.float32))
        idx = np.stack([rng.choice(6, size=3, replace=False) for _ in range(3)])
        gathered = rt.gather(src, 1, idx)
        scattered = rt.scatter(gathered, 1, idx, 6)
        # Positions in idx must match src; others are zero.
        np.testing.assert_allclose(
            np.take_along_axis(scattered.numpy(), idx, 1), gathered.numpy()
        )
        mask = np.zeros((3, 6), bool)
        np.put_along_axis(mask, idx, True, 1)
        assert (scattered.numpy()[~mask] == 0).all()

    def test_size_expansion(self):
        src = Tensor(np.array([[1.0, 2.0]], dtype=np.float32))
        out = rt.scatter(src, 1, np.array([[0, 3]]), 5)
        np.testing.assert_allclose(out.numpy(), [[1, 0, 0, 2, 0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            rt.scatter(Tensor(np.zeros((2, 2), np.float32)), 1, np.zeros((2, 3), np.int64), 4)

    def test_grad(self, rng):
        idx = np.array([[0, 2], [3, 1]])
        check_gradient(lambda t: rt.scatter(t, 1, idx, 4), rng.standard_normal((2, 2)))

    def test_accepts_raw_array_src(self):
        out = rt.scatter(np.array([[5.0]], dtype=np.float32), 1, np.array([[2]]), 4)
        np.testing.assert_allclose(out.numpy(), [[0, 0, 5, 0]])
