"""Dense float64 tensors with a reverse-mode differentiation record.

Everything is stored as 64-bit floats: the engine exists to train small
graph-conditioned encoders whose gradients are verified against central
differences, so numerical fidelity beats speed.

Operations record themselves onto the active :class:`Record` (see
:func:`recording`) whenever at least one input requires gradient.  The
record is an append-only tape; appending at creation time keeps it in
topological order, so :func:`sweep` runs its backward functions in one
reverse pass, from whatever gradients its outputs hold.  An operation may
read the outputs of an earlier record: its backward function then leaves
their gradients in place, and a later sweep of that record carries them
on.  :func:`backward` seeds a scalar loss and sweeps its record.  A sweep
drops each recorded output's gradient once that output's backward
function has used it, so after the last sweep only the leaves (the
parameters) keep theirs; the nodes themselves stay on the record.

With no active record an operation builds no tape node; recorded or
not, it makes the same numpy calls on the same memory layouts, and
``reshape`` and ``transpose`` return views.

A backward function hands each input its gradient through
:func:`_accumulate`, which copies the first gradient a tensor gets (an
op may hand one array to two inputs, or a view of its output's gradient)
and adds every later one in place, in sweep order.  The encoder and the
edge scorer run fused ops: one op for a chain of the generic ops here,
making the chain's numpy calls in its order.  A fused op keeps the
chain's intermediates as arrays of its own, not tensors, so their
gradients are neither recorded nor copied; only the op's inputs go
through ``_accumulate``.  ``layer_norm``'s arithmetic is shared with the
fused ops that end in one.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Record",
    "recording",
    "active_record",
    "backward",
    "sweep",
    "add",
    "mul",
    "matmul",
    "transpose",
    "reshape",
    "gather_rows",
    "tensor_sum",
    "relu",
    "softmax_rows",
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


class _Local(threading.local):
    # the class-level default makes reading the record a plain attribute
    # read in every thread; ``recording`` sets it per thread
    record: Record | None = None


_LOCAL = _Local()


def active_record() -> Record | None:
    return _LOCAL.record


@contextmanager
def recording(record: Record):
    """Make ``record`` the active tape for the current thread."""
    previous = _LOCAL.record
    _LOCAL.record = record
    try:
        yield record
    finally:
        _LOCAL.record = previous


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad`` when ``t`` requires gradient."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)   # a copy: g may be shared
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    while g.ndim > len(shape):
        g = np.add.reduce(g, axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = np.add.reduce(g, axis=axis, keepdims=True)
    return g


_FLOAT64 = np.dtype(np.float64)


def _make(out_data: np.ndarray, inputs: Sequence[Tensor],
          backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    record = _LOCAL.record
    tracked = record is not None and any(t.requires_grad for t in inputs)
    if type(out_data) is np.ndarray and out_data.dtype is _FLOAT64:
        # already what Tensor.__init__ would make of it: wrap it as it is
        out = object.__new__(Tensor)
        out.data = out_data
        out.grad = None
        out.requires_grad = tracked
    else:
        out = Tensor(out_data, requires_grad=tracked)
    if tracked:
        record._nodes.append(_Node(out, backward_fn))
    return out


def backward(loss: Tensor, record: Record) -> None:
    """Seed the scalar ``loss`` with gradient 1 and :func:`sweep` ``record``,
    the record ``loss`` was computed on.

    Every tracked leaf reachable from ``loss`` through the record gets its
    ``grad`` accumulated, and so does every tracked input the record's
    operations read from an earlier record; tensors on the record that do
    not feed the loss are skipped.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss is not connected to the differentiation record")
    loss.grad = np.ones_like(loss.data)
    sweep(record)


def sweep(record: Record) -> None:
    """Run the reverse sweep over ``record`` from the gradients its outputs
    already hold, latest first; an output that holds none is skipped.  Each
    output's gradient is released once its backward function has run, so
    afterwards no output on the record holds one."""
    for node in reversed(record._nodes):
        g = node.out.grad
        if g is None:
            continue
        node.backward_fn(g)
        node.out.grad = None


# ---------------------------------------------------------------------------
# operations


def add(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g: np.ndarray) -> None:
        for t in (a, b):
            if t.requires_grad:
                _accumulate(t, _unbroadcast(g, t.data.shape))

    return _make(a.data + b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out, (a, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; the leading axes broadcast, so
    one matrix or one stack of matrices applies to every matrix of a batch."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(
            f"matmul needs operands of rank 2 or more, got {a.data.shape} and "
            f"{b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(
            f"matmul inner extents differ: {a.data.shape} vs {b.data.shape}")
    if b.data.ndim == 2:
        # one matrix for every row of a: a single 2-D product over all rows
        rows = a.data.reshape(-1, a.data.shape[-1])
        out = (rows @ b.data).reshape(a.data.shape[:-1] + b.data.shape[1:])

        def bwd_matrix(g: np.ndarray) -> None:
            g_rows = g.reshape(-1, g.shape[-1])
            if a.requires_grad:
                _accumulate(a, (g_rows @ b.data.T).reshape(a.data.shape))
            if b.requires_grad:
                _accumulate(b, rows.T @ g_rows)

        return _make(out, (a, b), bwd_matrix)
    try:
        out = a.data @ b.data
    except ValueError:  # the inner extents agree, so the batch extents do not
        raise ValueError(
            f"matmul batch extents do not broadcast: {a.data.shape} and "
            f"{b.data.shape}") from None

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _make(out, (a, b), bwd)


def _view(a: Tensor, view: np.ndarray) -> np.ndarray:
    """A reshaped or transposed view of ``a`` as an op's output, read-only
    when ``a`` requires gradient, so that nothing writes through it into a
    parameter."""
    if a.requires_grad:
        view.flags.writeable = False
    return view


def transpose(a: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    """Permute the axes of ``a``; by default swap its last two axes."""
    if axes is None:
        axes = tuple(range(a.data.ndim - 2)) + (a.data.ndim - 1, a.data.ndim - 2)
    axes = tuple(axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise ValueError(
            f"transpose axes {axes} are not a permutation of the axes of "
            f"shape {a.data.shape}")

    def bwd(g: np.ndarray) -> None:
        inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))
        _accumulate(a, g.transpose(inverse))

    return _make(_view(a, a.data.transpose(axes)), (a,), bwd)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g.reshape(a.data.shape))

    return _make(_view(a, a.data.reshape(shape)), (a,), bwd)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows ``a[indices]``, of shape ``indices.shape + a.shape[1:]``;
    backward scatter-adds into the source."""
    idx = np.asarray(indices, dtype=np.intp)
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


def tensor_sum(a: Tensor) -> Tensor:
    """The sum of every entry, as a scalar."""
    out = np.add.reduce(a.data, axis=None)

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, np.broadcast_to(g, a.data.shape).copy())

    return _make(out, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g * mask)

    return _make(a.data * mask, (a,), bwd)


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis, stabilised by max subtraction.  An entry
    of -inf gets weight exactly 0, as long as its row has a finite entry."""
    if x.data.ndim < 1:
        raise ValueError("softmax_rows needs at least rank-1 input")
    if x.data.shape[-1] == 0:
        raise ValueError("softmax_rows: empty rows")
    shifted = x.data - np.maximum.reduce(x.data, axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / np.add.reduce(e, axis=-1, keepdims=True)

    def bwd(g: np.ndarray) -> None:
        # d softmax: s * (g - sum(g * s))
        inner = np.add.reduce(g * out, axis=-1, keepdims=True)
        _accumulate(x, out * (g - inner))

    return _make(out, (x,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalise each vector along the last axis (variance plus 1e-5 under
    the square root), then scale and shift."""
    d = x.data.shape[-1] if x.data.ndim else 0
    if d == 0:
        raise ValueError("layer_norm: empty feature axis")
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ValueError(
            f"layer_norm: gain/bias must have shape ({d},), "
            f"got {gain.data.shape} and {bias.data.shape}")
    out, xhat, inv = _layer_norm_forward(x.data, gain, bias)

    def bwd(g: np.ndarray) -> None:
        _accumulate(x, _layer_norm_backward(g, xhat, inv, gain, bias))

    return _make(out, (x, gain, bias), bwd)


def _layer_norm_forward(x: np.ndarray, gain: Tensor,
                        bias: Tensor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`layer_norm`'s arithmetic on the array ``x``: the output, and
    the normalised input and inverse deviation that backward reads."""
    d = x.shape[-1]
    # sum / d is what ndarray.mean computes, without its per-call overhead
    mean = np.add.reduce(x, axis=-1, keepdims=True) / d
    centred = x - mean
    var = np.add.reduce(centred * centred, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = centred * inv
    return xhat * gain.data + bias.data, xhat, inv


def _layer_norm_backward(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray,
                         gain: Tensor, bias: Tensor) -> np.ndarray:
    """Accumulate the gradients of ``gain`` and ``bias`` from the output's
    ``g``, and return the input's."""
    _accumulate(gain, _unbroadcast(g * xhat, gain.data.shape).reshape(gain.data.shape))
    _accumulate(bias, _unbroadcast(g, bias.data.shape).reshape(bias.data.shape))
    d = g.shape[-1]
    gx = g * gain.data
    # standard layer-norm input gradient
    gmean = np.add.reduce(gx, axis=-1, keepdims=True) / d
    gdot = np.add.reduce(gx * xhat, axis=-1, keepdims=True) / d
    return inv * (gx - gmean - xhat * gdot)
