"""Named parameters, the Adam update, and a central-difference gradient checker.

Training runs from one arena per registry: one flat float64 buffer that
holds every parameter in registry order, and one each for the gradients
and for Adam's first and second moments.  Each parameter's
``tensor.data`` and ``tensor.grad`` are views of the first two, so
backward accumulates straight into the gradient buffer, ``zero_grad`` is
one fill, and :func:`adam_step`, the one way to step the optimizer, runs
its elementwise update over the flat buffers in blocks of ADAM_BLOCK
elements rather than once per parameter.  The arena is built by the first
``zero_grad`` or ``adam_step``, so a model that is only loaded and parsed
never allocates gradients or moments; no parameter can be registered
after it exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .autodiff import Record, Tensor, backward, recording

__all__ = [
    "Parameter",
    "ParameterRegistry",
    "adam_step",
    "grad_check",
    "GradCheckReport",
]

# Adam's moment decay rates and denominator guard
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
GRAD_CHECK_EPS = (1e-7, 1e-3)     # the central-difference steps grad_check accepts
# Elements per block of adam_step's update.  For the benchmark's fixture
# model (about 105,000 parameters) on a 2-vCPU VM with one BLAS thread,
# blocks of 16,384 timed best of 4,096 to 131,072 (0.72 ms a step against
# 0.94 and 0.85).  Each step allocates its two blocks of scratch afresh, so
# that the tape reuses their memory between steps: scratch kept across steps
# raised fixture-train's peak RSS by 0.25 MB, and scratch the size of the
# whole arena was slower and raised it by 1.6 MB.
ADAM_BLOCK = 16384


class Parameter:
    """A named trainable tensor."""

    __slots__ = ("name", "tensor")

    def __init__(self, name: str, tensor: Tensor):
        self.name = name
        self.tensor = tensor

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.tensor.shape})"


class _Arena:
    """The flat buffers behind a registry's parameters, gradients and Adam
    moments, each parameter's views of the first two, and Adam's step
    count."""

    def __init__(self, params: list[Parameter]):
        self.shapes = [p.tensor.data.shape for p in params]
        self.data = np.empty(sum(math.prod(shape) for shape in self.shapes))
        self.grad = np.zeros_like(self.data)
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)
        self.data_views = self.views(self.data)
        self.grad_views = self.views(self.grad)
        self.step = 0

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Each parameter's view of a flat buffer, in registry order."""
        out, offset = [], 0
        for shape in self.shapes:
            end = offset + math.prod(shape)
            out.append(flat[offset:end].reshape(shape))
            offset = end
        return out


class ParameterRegistry:
    """Insertion-ordered set of uniquely named parameters.

    ``source``, when given, supplies each parameter's values as
    ``source(name, shape)`` in place of its initial draw.
    """

    def __init__(self, source: Callable[[str, tuple[int, ...]], np.ndarray] | None = None):
        self._params: dict[str, Parameter] = {}
        self._source = source
        self._arena: _Arena | None = None

    def parameter(self, name: str, shape: tuple[int, ...], rng: np.random.Generator,
                  init: str = "normal", std: float = 0.02) -> Tensor:
        """Create, register and return a fresh parameter tensor."""
        if self._arena is not None:
            raise ValueError(f"cannot register {name!r}: training has already "
                             f"packed this registry's parameters")
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name!r}")
        if self._source is not None:
            data = self._source(name, shape)
        elif init == "normal":
            data = rng.normal(0.0, std, size=shape)
        elif init == "zeros":
            data = np.zeros(shape)
        elif init == "ones":
            data = np.ones(shape)
        else:
            raise ValueError(f"unknown init {init!r}")
        t = Tensor(data, requires_grad=True)
        self._params[name] = Parameter(name, t)
        return t

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self._params.values())

    def __len__(self) -> int:
        return len(self._params)

    def get(self, name: str) -> Parameter:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def _attach(self) -> _Arena:
        """The arena, built on first use, with every parameter's data and
        grad its views again: a rebound array is copied in, and a grad of
        None becomes its (unfilled) view."""
        if self._arena is None:
            self._arena = _Arena(list(self._params.values()))
        arena = self._arena
        for p, data, grad in zip(self._params.values(), arena.data_views, arena.grad_views):
            t = p.tensor
            if t.data is not data:
                data[...] = t.data
                t.data = data
            if t.grad is not grad:
                if t.grad is not None:
                    grad[...] = t.grad
                t.grad = grad
        return arena

    def zero_grad(self) -> None:
        self._attach().grad.fill(0.0)


def adam_step(registry: ParameterRegistry, lr: float = 1e-3) -> None:
    """One Adam update with bias correction over every registered parameter.

    Element by element it applies the same IEEE operations in the same
    order as a per-parameter update, so the results are bit-identical to
    one; it runs them over the arena's flat buffers in ADAM_BLOCK blocks.
    """
    for p in registry:
        if p.tensor.grad is None:
            raise ValueError(f"parameter {p.name!r} has no gradient; run backward first")
    arena = registry._attach()
    arena.step += 1
    m_scale = 1.0 - BETA1 ** arena.step
    v_scale = 1.0 - BETA2 ** arena.step
    a_block, b_block = (np.empty(min(ADAM_BLOCK, arena.data.size)) for _ in range(2))
    for lo in range(0, arena.data.size, ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, arena.data.size)
        g, m, v = arena.grad[lo:hi], arena.m[lo:hi], arena.v[lo:hi]
        a, b = a_block[:hi - lo], b_block[:hi - lo]
        m *= BETA1
        np.multiply(g, 1.0 - BETA1, out=a)
        m += a
        v *= BETA2
        np.multiply(g, 1.0 - BETA2, out=a)
        a *= g
        v += a
        np.divide(m, m_scale, out=a)         # m_hat
        np.divide(v, v_scale, out=b)         # v_hat
        np.sqrt(b, out=b)
        b += EPS
        a *= lr
        a /= b
        arena.data[lo:hi] -= a


@dataclass
class GradCheckReport:
    """Per-parameter comparison of reverse-mode and central-difference gradients."""

    threshold: float
    max_errors: dict[str, float] = field(default_factory=dict)

    @property
    def max_error(self) -> float:
        return max(self.max_errors.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_error < self.threshold

    def lines(self) -> list[str]:
        out = []
        for name, err in self.max_errors.items():
            flag = "ok" if err < self.threshold else "FAIL"
            out.append(f"{name:40s} max rel err {err:.3e}  [{flag}]")
        return out


def _relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def grad_check(fn: Callable[[], Tensor], params: Iterable[Parameter],
               eps: float = 1e-5, threshold: float = 1e-4) -> GradCheckReport:
    """Compare reverse-mode gradients of ``fn`` against central differences.

    ``fn`` must be a deterministic closure evaluating the scalar loss from
    the current parameter values.  Determinism is enforced by evaluating
    twice and requiring bit-identical results.
    """
    if not (GRAD_CHECK_EPS[0] <= eps <= GRAD_CHECK_EPS[1]):
        raise ValueError(f"eps must lie in {list(GRAD_CHECK_EPS)}, got {eps}")
    params = list(params)

    first = fn().item()
    second = fn().item()
    if first != second:
        raise ValueError("function is not deterministic: double evaluation mismatch")

    for p in params:
        p.tensor.grad = None
    record = Record()
    with recording(record):
        loss = fn()
    backward(loss, record)

    report = GradCheckReport(threshold=threshold)
    for p in params:
        data = p.tensor.data
        analytic = p.tensor.grad
        if analytic is None:
            analytic = np.zeros_like(data)
        flat = data.reshape(-1)
        analytic_flat = analytic.reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            f_plus = fn().item()
            flat[i] = saved - eps
            f_minus = fn().item()
            flat[i] = saved
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = _relative_error(float(analytic_flat[i]), numeric)
            worst = max(worst, err)
        report.max_errors[p.name] = worst
    return report
