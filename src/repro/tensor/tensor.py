"""Core ``Tensor`` type, autograd tape, and primitive operators.

Implementation notes
--------------------
* Reverse-mode autograd over a dynamically-built DAG.  Every differentiable
  op is a :class:`Function`; ``Function.apply`` records the node when grad
  mode is on and any input requires grad.
* Gradients are plain ``numpy.ndarray``s accumulated into ``Tensor.grad``.
* Broadcasting is supported everywhere NumPy supports it; backward passes
  reduce gradients back to the parent shape with :func:`_unbroadcast`.
* Default dtype is ``float32`` — the paper uses FP32 on every platform for
  portability (Section 3.1, "Arithmetic Precision Support").
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Iterable, Sequence

import numpy as np

from repro.errors import ShapeError

DEFAULT_DTYPE = np.float32

_grad_state = threading.local()


def is_grad_enabled() -> bool:
    """Return whether autograd recording is currently enabled."""
    return getattr(_grad_state, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables autograd recording (like ``torch.no_grad``)."""
    prev = is_grad_enabled()
    _grad_state.enabled = False
    try:
        yield
    finally:
        _grad_state.enabled = prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` (shape produced by broadcasting) back to ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: Any, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    arr = np.asarray(value)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype == np.float64:
        arr = arr.astype(DEFAULT_DTYPE)
    return arr


class Function:
    """Base class for differentiable operations.

    Subclasses implement ``forward(*arrays, **kwargs) -> np.ndarray`` and
    ``backward(grad) -> tuple`` returning one gradient (or ``None``) per
    tensor input, in order.
    """

    __slots__ = ("parents", "saved", "kwargs")

    def __init__(self) -> None:
        self.parents: tuple[Tensor, ...] = ()
        self.saved: tuple = ()
        self.kwargs: dict = {}

    def save(self, *items) -> None:
        self.saved = items

    def forward(self, *arrays: np.ndarray, **kwargs) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> tuple:  # pragma: no cover - abstract
        raise NotImplementedError

    @classmethod
    def apply(cls, *inputs, **kwargs) -> "Tensor":
        ctx = cls()
        ctx.kwargs = kwargs
        tensors = [x if isinstance(x, Tensor) else Tensor(x) for x in inputs]
        arrays = [t.data for t in tensors]
        out_data = ctx.forward(*arrays, **kwargs)
        requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
        out = Tensor(out_data, requires_grad=requires)
        if requires:
            ctx.parents = tuple(tensors)
            out._ctx = ctx
        return out


class Tensor:
    """A NumPy-backed tensor participating in reverse-mode autograd."""

    __slots__ = ("data", "requires_grad", "grad", "_ctx")

    def __init__(self, data: Any, requires_grad: bool = False, dtype=None) -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype == np.float64:
            # Keep the library FP32 by default, matching the paper's setup.
            arr = arr.astype(DEFAULT_DTYPE)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._ctx: Function | None = None

    # ------------------------------------------------------------------
    # Basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def numel(self) -> int:
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def numpy(self) -> np.ndarray:
        """Return the underlying array (a view; do not mutate in graphs)."""
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def clone(self) -> "Tensor":
        return Identity.apply(self)

    def astype(self, dtype) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = self.data.astype(dtype)
        out.requires_grad = False
        out.grad = None
        out._ctx = None
        return out

    def __repr__(self) -> str:
        grad_part = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_part})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Autograd
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (scalar outputs get gradient 1.0).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            if node._ctx is not None:
                for parent in node._ctx.parents:
                    if parent.requires_grad and id(parent) not in visited:
                        stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._ctx is None:
                if node.grad is None:
                    node.grad = node_grad.copy()
                else:
                    node.grad = node.grad + node_grad
                continue
            parent_grads = node._ctx.backward(node_grad)
            if not isinstance(parent_grads, tuple):
                parent_grads = (parent_grads,)
            for parent, pgrad in zip(node._ctx.parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                pgrad = np.asarray(pgrad, dtype=parent.data.dtype)
                if parent._ctx is None:
                    # Leaf: accumulate into .grad
                    if parent.grad is None:
                        parent.grad = pgrad.copy()
                    else:
                        parent.grad = parent.grad + pgrad
                else:
                    key = id(parent)
                    if key in grads:
                        grads[key] = grads[key] + pgrad
                    else:
                        grads[key] = pgrad

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Arithmetic operators
    # ------------------------------------------------------------------
    def __add__(self, other):
        return Add.apply(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return Sub.apply(self, other)

    def __rsub__(self, other):
        return Sub.apply(other, self)

    def __mul__(self, other):
        return Mul.apply(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return Div.apply(self, other)

    def __rtruediv__(self, other):
        return Div.apply(other, self)

    def __neg__(self):
        return Neg.apply(self)

    def __pow__(self, exponent):
        return Pow.apply(self, exponent=float(exponent))

    def __matmul__(self, other):
        return MatMul.apply(self, other)

    # Comparison operators return non-differentiable tensors.
    def __gt__(self, other):
        return Tensor(self.data > _as_array(other))

    def __lt__(self, other):
        return Tensor(self.data < _as_array(other))

    def __ge__(self, other):
        return Tensor(self.data >= _as_array(other))

    def __le__(self, other):
        return Tensor(self.data <= _as_array(other))

    def __getitem__(self, index):
        return GetItem.apply(self, index=index)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Reshape.apply(self, shape=shape)

    def view(self, *shape) -> "Tensor":
        return self.reshape(*shape)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        shape = self.shape[:start_dim] + (-1,)
        return self.reshape(*shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        return Transpose.apply(self, axes=axes)

    def permute(self, *axes) -> "Tensor":
        return self.transpose(*axes)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def squeeze(self, axis: int | None = None) -> "Tensor":
        if axis is None:
            shape = tuple(s for s in self.shape if s != 1)
        else:
            if self.shape[axis] != 1:
                raise ShapeError(f"cannot squeeze axis {axis} with size {self.shape[axis]}")
            shape = self.shape[:axis] + self.shape[axis + 1 :]
        return self.reshape(*shape) if shape else self.reshape(1).reshape(())

    def unsqueeze(self, axis: int) -> "Tensor":
        shape = list(self.shape)
        if axis < 0:
            axis += self.ndim + 1
        shape.insert(axis, 1)
        return self.reshape(*shape)

    def broadcast_to(self, shape: Sequence[int]) -> "Tensor":
        return BroadcastTo.apply(self, shape=tuple(shape))

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return Sum.apply(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return Mean.apply(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return Max.apply(self, axis=axis, keepdims=keepdims)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return Neg.apply(Max.apply(Neg.apply(self), axis=axis, keepdims=keepdims))

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def argmax(self, axis=None) -> np.ndarray:
        return self.data.argmax(axis=axis)

    # ------------------------------------------------------------------
    # Elementwise helpers (methods mirroring module-level functions)
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        return Exp.apply(self)

    def log(self) -> "Tensor":
        return Log.apply(self)

    def sqrt(self) -> "Tensor":
        return Sqrt.apply(self)

    def tanh(self) -> "Tensor":
        return Tanh.apply(self)

    def sigmoid(self) -> "Tensor":
        return Sigmoid.apply(self)

    def relu(self) -> "Tensor":
        return ReLU.apply(self)

    def abs(self) -> "Tensor":
        return Abs.apply(self)

    def clip(self, lo: float, hi: float) -> "Tensor":
        return Clip.apply(self, lo=float(lo), hi=float(hi))

    def matmul(self, other) -> "Tensor":
        return MatMul.apply(self, other)


# ----------------------------------------------------------------------
# Primitive Function implementations
# ----------------------------------------------------------------------
class Identity(Function):
    def forward(self, x):
        return x.copy()

    def backward(self, grad):
        return (grad,)


class Add(Function):
    def forward(self, a, b):
        self.save(a.shape, b.shape)
        return a + b

    def backward(self, grad):
        a_shape, b_shape = self.saved
        return _unbroadcast(grad, a_shape), _unbroadcast(grad, b_shape)


class Sub(Function):
    def forward(self, a, b):
        self.save(a.shape, b.shape)
        return a - b

    def backward(self, grad):
        a_shape, b_shape = self.saved
        return _unbroadcast(grad, a_shape), _unbroadcast(-grad, b_shape)


class Mul(Function):
    def forward(self, a, b):
        self.save(a, b)
        return a * b

    def backward(self, grad):
        a, b = self.saved
        return _unbroadcast(grad * b, a.shape), _unbroadcast(grad * a, b.shape)


class Div(Function):
    def forward(self, a, b):
        self.save(a, b)
        return a / b

    def backward(self, grad):
        a, b = self.saved
        ga = _unbroadcast(grad / b, a.shape)
        gb = _unbroadcast(-grad * a / (b * b), b.shape)
        return ga, gb


class Neg(Function):
    def forward(self, a):
        return -a

    def backward(self, grad):
        return (-grad,)


class Pow(Function):
    def forward(self, a, *, exponent):
        self.save(a, exponent)
        return a**exponent

    def backward(self, grad):
        a, exponent = self.saved
        return (grad * exponent * a ** (exponent - 1.0),)


class Exp(Function):
    def forward(self, a):
        out = np.exp(a)
        self.save(out)
        return out

    def backward(self, grad):
        (out,) = self.saved
        return (grad * out,)


class Log(Function):
    def forward(self, a):
        self.save(a)
        return np.log(a)

    def backward(self, grad):
        (a,) = self.saved
        return (grad / a,)


class Sqrt(Function):
    def forward(self, a):
        out = np.sqrt(a)
        self.save(out)
        return out

    def backward(self, grad):
        (out,) = self.saved
        return (grad / (2.0 * out),)


class Tanh(Function):
    def forward(self, a):
        out = np.tanh(a)
        self.save(out)
        return out

    def backward(self, grad):
        (out,) = self.saved
        return (grad * (1.0 - out * out),)


class Sigmoid(Function):
    def forward(self, a):
        out = 1.0 / (1.0 + np.exp(-a))
        self.save(out)
        return out

    def backward(self, grad):
        (out,) = self.saved
        return (grad * out * (1.0 - out),)


class ReLU(Function):
    def forward(self, a):
        mask = a > 0
        self.save(mask)
        return a * mask

    def backward(self, grad):
        (mask,) = self.saved
        return (grad * mask,)


class Abs(Function):
    def forward(self, a):
        self.save(np.sign(a))
        return np.abs(a)

    def backward(self, grad):
        (sign,) = self.saved
        return (grad * sign,)


class Clip(Function):
    def forward(self, a, *, lo, hi):
        mask = (a >= lo) & (a <= hi)
        self.save(mask)
        return np.clip(a, lo, hi)

    def backward(self, grad):
        (mask,) = self.saved
        return (grad * mask,)


class Maximum(Function):
    def forward(self, a, b):
        amask = a >= b
        self.save(amask, a.shape, b.shape)
        return np.maximum(a, b)

    def backward(self, grad):
        amask, a_shape, b_shape = self.saved
        return (
            _unbroadcast(grad * amask, a_shape),
            _unbroadcast(grad * (~amask), b_shape),
        )


class Minimum(Function):
    def forward(self, a, b):
        amask = a <= b
        self.save(amask, a.shape, b.shape)
        return np.minimum(a, b)

    def backward(self, grad):
        amask, a_shape, b_shape = self.saved
        return (
            _unbroadcast(grad * amask, a_shape),
            _unbroadcast(grad * (~amask), b_shape),
        )


class Where(Function):
    def forward(self, cond, a, b):
        self.save(cond.astype(bool), a.shape, b.shape)
        return np.where(cond.astype(bool), a, b)

    def backward(self, grad):
        cond, a_shape, b_shape = self.saved
        return (
            None,
            _unbroadcast(np.where(cond, grad, 0.0), a_shape),
            _unbroadcast(np.where(cond, 0.0, grad), b_shape),
        )


class MatMul(Function):
    """Batched matrix multiply with NumPy broadcasting semantics."""

    def forward(self, a, b):
        if a.ndim == 0 or b.ndim == 0:
            raise ShapeError("matmul requires tensors with ndim >= 1")
        self.save(a, b)
        return np.matmul(a, b)

    def backward(self, grad):
        a, b = self.saved
        if a.ndim == 1 and b.ndim == 1:
            return grad * b, grad * a
        if a.ndim == 1:
            # (k,) @ (..., k, n) -> (..., n)
            ga = (np.expand_dims(grad, -2) @ np.swapaxes(b, -1, -2)).sum(
                axis=tuple(range(b.ndim - 2))
            )
            gb = np.expand_dims(a, -1) @ np.expand_dims(grad, -2)
            return ga.reshape(a.shape), _unbroadcast(gb, b.shape)
        if b.ndim == 1:
            ga = np.expand_dims(grad, -1) @ np.expand_dims(b, -2)
            gb = (np.swapaxes(a, -1, -2) @ np.expand_dims(grad, -1)).squeeze(-1)
            gb = gb.sum(axis=tuple(range(gb.ndim - 1))) if gb.ndim > 1 else gb
            return _unbroadcast(ga, a.shape), gb.reshape(b.shape)
        ga = np.matmul(grad, np.swapaxes(b, -1, -2))
        gb = np.matmul(np.swapaxes(a, -1, -2), grad)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)


class Transpose(Function):
    def forward(self, a, *, axes):
        self.save(axes)
        return np.transpose(a, axes)

    def backward(self, grad):
        (axes,) = self.saved
        inverse = np.argsort(axes)
        return (np.transpose(grad, inverse),)


class Reshape(Function):
    def forward(self, a, *, shape):
        self.save(a.shape)
        return a.reshape(shape)

    def backward(self, grad):
        (shape,) = self.saved
        return (grad.reshape(shape),)


class BroadcastTo(Function):
    def forward(self, a, *, shape):
        self.save(a.shape)
        return np.broadcast_to(a, shape).copy()

    def backward(self, grad):
        (shape,) = self.saved
        return (_unbroadcast(grad, shape),)


def _is_basic_index(index) -> bool:
    """True for slice/int/None/Ellipsis indices, which cannot repeat an
    element (``bool`` is an advanced index in NumPy despite being an int)."""
    items = index if isinstance(index, tuple) else (index,)
    return all(
        item is None
        or item is Ellipsis
        or isinstance(item, slice)
        or (isinstance(item, (int, np.integer)) and not isinstance(item, bool))
        for item in items
    )


class GetItem(Function):
    def forward(self, a, *, index):
        self.save(a.shape, index)
        return a[index]

    def backward(self, grad):
        shape, index = self.saved
        out = np.zeros(shape, dtype=grad.dtype)
        if _is_basic_index(index):
            out[index] = grad
        else:
            # Advanced indices may repeat an element: accumulate.
            np.add.at(out, index, grad)
        return (out,)


class Sum(Function):
    def forward(self, a, *, axis, keepdims):
        self.save(a.shape, axis, keepdims)
        return a.sum(axis=axis, keepdims=keepdims)

    def backward(self, grad):
        shape, axis, keepdims = self.saved
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            axes = tuple(ax % len(shape) for ax in axes)
            for ax in sorted(axes):
                grad = np.expand_dims(grad, ax)
        return (np.broadcast_to(grad, shape).copy(),)


class Mean(Function):
    def forward(self, a, *, axis, keepdims):
        self.save(a.shape, axis, keepdims, a.size)
        return a.mean(axis=axis, keepdims=keepdims)

    def backward(self, grad):
        shape, axis, keepdims, size = self.saved
        if axis is None:
            count = size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = 1
            for ax in axes:
                count *= shape[ax % len(shape)]
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            axes = tuple(ax % len(shape) for ax in axes)
            for ax in sorted(axes):
                grad = np.expand_dims(grad, ax)
        return (np.broadcast_to(grad / count, shape).copy(),)


class Max(Function):
    def forward(self, a, *, axis, keepdims):
        out = a.max(axis=axis, keepdims=True)
        mask = a == out
        # Split gradient across ties, matching a subgradient choice that keeps
        # grad-check stable.
        counts = mask.sum(axis=axis, keepdims=True)
        self.save(mask, counts, axis, keepdims)
        return out if keepdims else np.squeeze(out, axis=axis) if axis is not None else out.reshape(())

    def backward(self, grad):
        mask, counts, axis, keepdims = self.saved
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            axes = tuple(ax % mask.ndim for ax in axes)
            for ax in sorted(axes):
                grad = np.expand_dims(grad, ax)
        elif axis is None:
            grad = np.broadcast_to(grad, mask.shape)
        return (mask * grad / counts,)


class Concat(Function):
    def forward(self, *arrays, axis):
        self.save(axis, [a.shape[axis] for a in arrays])
        return np.concatenate(arrays, axis=axis)

    def backward(self, grad):
        axis, sizes = self.saved
        splits = np.cumsum(sizes)[:-1]
        return tuple(np.split(grad, splits, axis=axis))


class Stack(Function):
    def forward(self, *arrays, axis):
        self.save(axis)
        return np.stack(arrays, axis=axis)

    def backward(self, grad):
        (axis,) = self.saved
        pieces = np.split(grad, grad.shape[axis], axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in pieces)


# ----------------------------------------------------------------------
# Module-level functional API
# ----------------------------------------------------------------------
def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    """Create a tensor (mirrors ``torch.tensor``)."""
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def zeros(*shape, dtype=DEFAULT_DTYPE, requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


def zeros_like(t: Tensor) -> Tensor:
    return Tensor(np.zeros_like(t.data))


def ones(*shape, dtype=DEFAULT_DTYPE, requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)


def ones_like(t: Tensor) -> Tensor:
    return Tensor(np.ones_like(t.data))


def full(shape, value, dtype=DEFAULT_DTYPE) -> Tensor:
    return Tensor(np.full(shape, value, dtype=dtype))


def arange(*args, dtype=DEFAULT_DTYPE) -> Tensor:
    return Tensor(np.arange(*args, dtype=dtype))


def eye(n: int, dtype=DEFAULT_DTYPE) -> Tensor:
    return Tensor(np.eye(n, dtype=dtype))


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    return Stack.apply(*tensors, axis=axis)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    return Concat.apply(*tensors, axis=axis)


def where(cond, a, b) -> Tensor:
    return Where.apply(cond, a, b)


def maximum(a, b) -> Tensor:
    return Maximum.apply(a, b)


def minimum(a, b) -> Tensor:
    return Minimum.apply(a, b)


def matmul(a, b) -> Tensor:
    """Matrix multiply — the sole compute primitive of the paper's compressor."""
    return MatMul.apply(a, b)


def exp(a) -> Tensor:
    return Exp.apply(a)


def log(a) -> Tensor:
    return Log.apply(a)


def sqrt(a) -> Tensor:
    return Sqrt.apply(a)


def tanh(a) -> Tensor:
    return Tanh.apply(a)


def sigmoid(a) -> Tensor:
    return Sigmoid.apply(a)


def relu(a) -> Tensor:
    return ReLU.apply(a)


def abs(a) -> Tensor:  # noqa: A001 - mirrors torch.abs
    return Abs.apply(a)


def clip(a, lo: float, hi: float) -> Tensor:
    return Clip.apply(a, lo=float(lo), hi=float(hi))
