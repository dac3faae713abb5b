"""Dense float64 tensors with a reverse-mode differentiation record.

Everything is stored as 64-bit floats: the engine exists to train small
graph-conditioned encoders whose gradients are verified against central
differences, so numerical fidelity beats speed.

Operations record themselves onto the active :class:`Record` (see
:func:`recording`) whenever at least one input requires gradient.  The
record is an append-only tape; appending at creation time keeps it in
topological order, so :func:`backward` is a single reverse sweep.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Record",
    "recording",
    "active_record",
    "backward",
    "add",
    "mul",
    "neg",
    "scale",
    "matmul",
    "transpose",
    "reshape",
    "concat",
    "gather_rows",
    "slice_cols",
    "tensor_sum",
    "relu",
    "softmax_rows",
    "log_softmax_rows",
    "layer_norm",
]


class Tensor:
    """An n-dimensional float64 array, optionally tracked for gradients."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; scalars are treated as untracked constants.
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return add(self, neg(_as_tensor(other)))

    def __rsub__(self, other):
        return add(_as_tensor(other), neg(self))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class _Node:
    __slots__ = ("out", "backward_fn")

    def __init__(self, out: Tensor, backward_fn: Callable[[np.ndarray], None]):
        self.out = out
        self.backward_fn = backward_fn


class Record:
    """Ordered tape of recorded operations.

    Operations append themselves as they execute, so every entry appears
    after the entries that produced its inputs.
    """

    __slots__ = ("_nodes",)

    def __init__(self):
        self._nodes: list[_Node] = []

    def __len__(self) -> int:
        return len(self._nodes)


_LOCAL = threading.local()


def active_record() -> Record | None:
    return getattr(_LOCAL, "record", None)


@contextmanager
def recording(record: Record):
    """Make ``record`` the active tape for the current thread."""
    previous = active_record()
    _LOCAL.record = record
    try:
        yield record
    finally:
        _LOCAL.record = previous


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _make(out_data: np.ndarray, inputs: Sequence[Tensor],
          backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    record = active_record()
    tracked = record is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=tracked)
    if tracked:
        record._nodes.append(_Node(out, backward_fn))
    return out


def backward(loss: Tensor, record: Record) -> None:
    """Run the reverse sweep from a scalar loss over a record.

    Every tracked tensor reachable from ``loss`` gets its ``grad``
    accumulated; tensors on the record that do not feed the loss are
    skipped (their output gradient is never populated).
    """
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss is not connected to the differentiation record")
    loss.grad = np.ones_like(loss.data)
    for node in reversed(record._nodes):
        g = node.out.grad
        if g is None:
            continue
        node.backward_fn(g)


# ---------------------------------------------------------------------------
# operations


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    def bwd(g: np.ndarray) -> None:
        _accumulate(a, -g)

    return _make(-a.data, (a,), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g * s)

    return _make(a.data * s, (a,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(
            f"matmul needs rank-2 operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(
            f"matmul inner extents differ: {a.data.shape} vs {b.data.shape}")
    out = a.data @ b.data

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _make(out, (a, b), bwd)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ValueError(f"transpose needs a rank-2 tensor, got shape {a.data.shape}")

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g.T)

    return _make(a.data.T.copy(), (a,), bwd)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = a.data.reshape(shape)

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g.reshape(a.data.shape))

    return _make(out.copy(), (a,), bwd)


def concat(parts: Sequence[Tensor], axis: int = 1) -> Tensor:
    parts = list(parts)
    out = np.concatenate([p.data for p in parts], axis=axis)
    extents = [p.data.shape[axis] for p in parts]

    def bwd(g: np.ndarray) -> None:
        offset = 0
        for p, extent in zip(parts, extents):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offset, offset + extent)
            _accumulate(p, g[tuple(index)])
            offset += extent

    return _make(out, parts, bwd)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows ``a[indices]``; backward scatter-adds into the source."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError(f"gather_rows needs a flat index list, got shape {idx.shape}")
    if a.data.ndim < 1:
        raise ValueError("gather_rows needs at least rank-1 input")
    out = a.data[idx]

    def bwd(g: np.ndarray) -> None:
        if not a.requires_grad:
            return
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        np.add.at(a.grad, idx, g)

    return _make(out, (a,), bwd)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    if a.data.ndim != 2:
        raise ValueError(f"slice_cols needs a rank-2 tensor, got shape {a.data.shape}")
    if not (0 <= start <= stop <= a.data.shape[1]):
        raise ValueError(
            f"column slice [{start}:{stop}] out of range for shape {a.data.shape}")
    out = a.data[:, start:stop]

    def bwd(g: np.ndarray) -> None:
        if not a.requires_grad:
            return
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[:, start:stop] += g

    return _make(out.copy(), (a,), bwd)


def tensor_sum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g: np.ndarray) -> None:
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape).copy())

    return _make(out, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g * mask)

    return _make(a.data * mask, (a,), bwd)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of a rank-2 tensor, stabilised by max subtraction."""
    if x.data.ndim != 2:
        raise ValueError(f"softmax_rows needs a rank-2 tensor, got shape {x.data.shape}")
    if x.data.shape[1] == 0:
        raise ValueError("softmax_rows: empty rows")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def bwd(g: np.ndarray) -> None:
        # d softmax: s * (g - sum(g * s))
        inner = (g * out).sum(axis=1, keepdims=True)
        _accumulate(x, out * (g - inner))

    return _make(out, (x,), bwd)


def log_softmax_rows(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ValueError(f"log_softmax_rows needs a rank-2 tensor, got shape {x.data.shape}")
    if x.data.shape[1] == 0:
        raise ValueError("log_softmax_rows: empty rows")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = shifted - log_z
    soft = np.exp(out)

    def bwd(g: np.ndarray) -> None:
        _accumulate(x, g - soft * g.sum(axis=1, keepdims=True))

    return _make(out, (x,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalise each vector along the last axis, then scale and shift."""
    d = x.data.shape[-1] if x.data.ndim else 0
    if d == 0:
        raise ValueError("layer_norm: empty feature axis")
    if eps <= 0.0:
        raise ValueError(f"layer_norm: eps must be positive, got {eps}")
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ValueError(
            f"layer_norm: gain/bias must have shape ({d},), "
            f"got {gain.data.shape} and {bias.data.shape}")
    mean = x.data.mean(axis=-1, keepdims=True)
    centred = x.data - mean
    var = (centred * centred).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centred * inv
    out = xhat * gain.data + bias.data

    def bwd(g: np.ndarray) -> None:
        _accumulate(gain, _unbroadcast(g * xhat, gain.data.shape).reshape(gain.data.shape))
        _accumulate(bias, _unbroadcast(g, bias.data.shape).reshape(bias.data.shape))
        if x.requires_grad:
            gx = g * gain.data
            # standard layer-norm input gradient
            gmean = gx.mean(axis=-1, keepdims=True)
            gdot = (gx * xhat).mean(axis=-1, keepdims=True)
            _accumulate(x, inv * (gx - gmean - xhat * gdot))

    return _make(out, (x, gain, bias), bwd)
