"""``gather``/``scatter`` operators (the IPU-only ops of Section 3.5.2).

These mirror ``torch.gather`` and ``torch.Tensor.scatter``:

* ``gather(input, dim, index)`` — output has the shape of ``index``;
  ``out[..., j, ...] = input[..., index[..., j, ...], ...]`` along ``dim``.
* ``scatter(dim, index, src, size)`` — inverse placement: a zero tensor of
  ``src``'s shape with ``size`` along ``dim`` receives ``src`` values at
  ``index``.

Both are differentiable with respect to the data operand (``input`` /
``src``); indices are integer tensors and carry no gradient.  The paper's
SG compressor uses ``gather`` after DCT+Chop compression to keep only the
upper-left triangle, and ``scatter`` before decompression to restore the
retained values to their original positions (Fig. 6).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.tensor.tensor import Function, Tensor


def _index_array(index) -> np.ndarray:
    arr = index.data if isinstance(index, Tensor) else np.asarray(index)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ShapeError(f"gather/scatter index must be integer, got {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def _along_axis_indices(index: np.ndarray, dim: int) -> tuple:
    """Build an advanced-indexing tuple selecting ``index`` along ``dim``."""
    idx = []
    for ax in range(index.ndim):
        if ax == dim:
            idx.append(index)
        else:
            shape = [1] * index.ndim
            shape[ax] = index.shape[ax]
            idx.append(np.arange(index.shape[ax]).reshape(shape))
    return tuple(idx)


def _repeats_along(index: np.ndarray, dim: int) -> bool:
    """Whether ``index`` names one position twice along ``dim``.

    Broadcast axes (stride 0, as in SG's flat triangle index) repeat one
    slice, so only that slice is sorted.  A negative index may alias a
    non-negative one, so any counts as a repeat.
    """
    core = index[
        tuple(
            slice(0, 1) if stride == 0 and ax != dim else slice(None)
            for ax, stride in enumerate(index.strides)
        )
    ]
    if (core < 0).any():
        return True
    ordered = np.sort(core, axis=dim)
    return bool((np.diff(ordered, axis=dim) == 0).any())


class Gather(Function):
    def forward(self, a, *, dim, index):
        if index.ndim != a.ndim:
            raise ShapeError(
                f"gather index ndim {index.ndim} must match input ndim {a.ndim}"
            )
        self.save(a.shape, dim, index)
        return np.take_along_axis(a, index, axis=dim)

    def backward(self, grad):
        shape, dim, index = self.saved
        out = np.zeros(shape, dtype=grad.dtype)
        if _repeats_along(index, dim):
            np.add.at(out, _along_axis_indices(index, dim), grad)
        else:
            # Unique indices: assignment, which keeps -0.0 where 0 + -0.0 is +0.0.
            np.put_along_axis(out, index, grad, axis=dim)
        return (out,)


class Scatter(Function):
    def forward(self, src, *, dim, index, size):
        if index.shape != src.shape:
            raise ShapeError(
                f"scatter index shape {index.shape} must match src shape {src.shape}"
            )
        out_shape = list(src.shape)
        out_shape[dim] = size
        self.save(dim, index)
        out = np.zeros(tuple(out_shape), dtype=src.dtype)
        np.put_along_axis(out, index, src, axis=dim)
        return out

    def backward(self, grad):
        dim, index = self.saved
        return (np.take_along_axis(grad, index, axis=dim),)


def gather(input: Tensor, dim: int, index) -> Tensor:
    """Collect values along ``dim`` at ``index`` (mirrors ``torch.gather``)."""
    return Gather.apply(input, dim=dim % input.ndim, index=_index_array(index))


def scatter(src: Tensor, dim: int, index, size: int) -> Tensor:
    """Place ``src`` values into a zero tensor of extent ``size`` along ``dim``.

    Equivalent to ``torch.zeros(...).scatter_(dim, index, src)`` with the
    destination sized ``size`` along ``dim`` and ``src.shape`` elsewhere.
    """
    src_t = src if isinstance(src, Tensor) else Tensor(src)
    return Scatter.apply(src_t, dim=dim % src_t.ndim, index=_index_array(index), size=int(size))


def take_along_axis(input: Tensor, index, dim: int) -> Tensor:
    """NumPy-named alias of :func:`gather`."""
    return gather(input, dim, index)
