"""Named parameters, the Adam update, and a central-difference gradient checker."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .autodiff import Record, Tensor, backward, recording

__all__ = [
    "Parameter",
    "ParameterRegistry",
    "adam_step",
    "Adam",
    "grad_check",
    "GradCheckReport",
]

# Adam's moment decay rates and denominator guard
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
GRAD_CHECK_EPS = (1e-7, 1e-3)     # the central-difference steps grad_check accepts


class Parameter:
    """A named trainable tensor plus its per-parameter optimizer state."""

    __slots__ = ("name", "tensor", "state")

    def __init__(self, name: str, tensor: Tensor):
        self.name = name
        self.tensor = tensor
        self.state: dict = {}

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.tensor.shape})"


class ParameterRegistry:
    """Insertion-ordered set of uniquely named parameters.

    ``source``, when given, supplies each parameter's values as
    ``source(name, shape)`` in place of its initial draw.
    """

    def __init__(self, source: Callable[[str, tuple[int, ...]], np.ndarray] | None = None):
        self._params: dict[str, Parameter] = {}
        self._source = source

    def parameter(self, name: str, shape: tuple[int, ...], rng: np.random.Generator,
                  init: str = "normal", std: float = 0.02) -> Tensor:
        """Create, register and return a fresh parameter tensor."""
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

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def get(self, name: str) -> Parameter:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.tensor.grad = np.zeros_like(p.tensor.data)


def adam_step(params: Iterable[Parameter], lr: float = 1e-3) -> None:
    """One Adam update with bias correction over all given parameters."""
    for p in params:
        t = p.tensor
        if t.grad is None:
            raise ValueError(f"parameter {p.name!r} has no gradient; run backward first")
        state = p.state
        if "m" not in state:
            state["m"] = np.zeros_like(t.data)
            state["v"] = np.zeros_like(t.data)
            state["step"] = 0
        state["step"] += 1
        m, v, step = state["m"], state["v"], state["step"]
        g = t.grad
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        m_hat = m / (1.0 - BETA1 ** step)
        v_hat = v / (1.0 - BETA2 ** step)
        t.data -= lr * m_hat / (np.sqrt(v_hat) + EPS)


class Adam:
    """Thin stateful wrapper around :func:`adam_step`."""

    def __init__(self, registry: ParameterRegistry, lr: float = 1e-3):
        self.registry = registry
        self.lr = lr

    def step(self) -> None:
        adam_step(self.registry, lr=self.lr)


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
