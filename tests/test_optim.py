"""Parameter registry, Adam update, and the gradient checker itself."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from g2gt.autodiff import Record, Tensor, backward, matmul, mul, recording, tensor_sum
from g2gt.graphs import RelationVocab
from g2gt.model import DependencyParserModel, ModelConfig
from g2gt.optim import ParameterRegistry, adam_step, grad_check
from g2gt.vocab import Vocab


class TestRegistry:
    def test_duplicate_names_rejected(self):
        registry = ParameterRegistry()
        rng = np.random.default_rng(0)
        registry.parameter("w", (2, 2), rng)
        with pytest.raises(ValueError, match="duplicate"):
            registry.parameter("w", (2, 2), rng)

    def test_layer_norm_style_inits(self):
        registry = ParameterRegistry()
        rng = np.random.default_rng(0)
        ones = registry.parameter("gain", (4,), rng, init="ones")
        zeros = registry.parameter("bias", (4,), rng, init="zeros")
        assert_allclose(ones.data, 1.0)
        assert_allclose(zeros.data, 0.0)


class TestAdam:
    def _single(self, value, grad):
        registry = ParameterRegistry()
        rng = np.random.default_rng(0)
        t = registry.parameter("p", (3,), rng)
        t.data[:] = value
        t.grad = np.asarray(grad, dtype=np.float64).copy()
        return registry, t

    def test_zero_gradient_leaves_parameters_unchanged(self):
        registry, t = self._single([1.0, -2.0, 3.0], [0.0, 0.0, 0.0])
        before = t.data.copy()
        adam_step(registry)
        assert_allclose(t.data, before)

    def test_constant_gradient_moves_against_its_sign(self):
        registry, t = self._single([0.0, 0.0, 0.0], [1.0, -2.0, 0.5])
        start = t.data.copy()
        for _ in range(50):
            t.grad = np.array([1.0, -2.0, 0.5])
            adam_step(registry, lr=1e-2)
        moved = t.data - start
        assert np.all(np.sign(moved) == -np.sign([1.0, -2.0, 0.5]))

    def test_first_step_magnitude_is_lr_times_sign(self):
        # closed form: with zero moments, update = lr * g / (|g| + eps)
        registry, t = self._single([0.0, 0.0, 0.0], [3.0, -0.04, 1e-3])
        adam_step(registry, lr=1e-3)
        assert_allclose(t.data, [-1e-3, 1e-3, -1e-3], rtol=1e-4)

    def test_missing_gradient_rejected_with_name(self):
        registry = ParameterRegistry()
        rng = np.random.default_rng(0)
        registry.parameter("encoder.w", (2,), rng)
        with pytest.raises(ValueError, match="encoder.w"):
            adam_step(registry)

    def test_state_shapes_match_parameters(self):
        registry, t = self._single([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        adam_step(registry)
        arena = registry._arena
        for moments in (arena.m, arena.v):
            assert moments.shape == arena.data.shape == (t.data.size,)
            assert [view.shape for view in arena.views(moments)] == [t.data.shape]


def reference_adam(data, grad, m, v, step, lr):
    """Per-parameter Adam in plain numpy, one parameter's arrays at a time."""
    m *= 0.9
    m += (1.0 - 0.9) * grad
    v *= 0.999
    v += (1.0 - 0.999) * grad * grad
    m_hat = m / (1.0 - 0.9 ** step)
    v_hat = v / (1.0 - 0.999 ** step)
    data -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)


def parser_registry(seed=0):
    cfg = ModelConfig(d=16, heads=2, d_ff=32, layers=2, d_edge=8, max_len=16)
    vocab = Vocab.from_forms([f"w{i}" for i in range(9)])
    rel_vocab = RelationVocab.from_deprels(["a", "b", "c"])
    return DependencyParserModel(cfg, vocab, rel_vocab, seed=seed).registry


class TestArena:
    def test_200_steps_match_per_parameter_adam_bit_for_bit(self):
        registry = parser_registry(seed=3)
        names = registry.names()
        data = {p.name: p.tensor.data.copy() for p in registry}
        moments = {p.name: (np.zeros_like(p.tensor.data), np.zeros_like(p.tensor.data))
                   for p in registry}
        rng = np.random.default_rng(11)
        for step in range(1, 201):
            registry.zero_grad()
            for p in registry:
                # gradients from 1e-7 to 10 across parameters and steps
                g = rng.normal(size=p.tensor.shape) * 10.0 ** rng.uniform(-7, 1)
                if step == 50 and p.name == names[3]:
                    p.tensor.grad = g            # a fresh array, not the arena's view
                else:
                    p.tensor.grad += g
                if step == 120 and p.name == names[-1]:
                    p.tensor.data = p.tensor.data * 0.5    # rebound, not written
                    data[p.name] = data[p.name] * 0.5
                reference_adam(data[p.name], g, *moments[p.name], step, lr=2e-3)
            adam_step(registry, lr=2e-3)
        arena = registry._arena
        for p, arena_m, arena_v in zip(registry, arena.views(arena.m), arena.views(arena.v)):
            m, v = moments[p.name]
            assert p.tensor.data.tobytes() == data[p.name].tobytes(), p.name
            assert arena_m.tobytes() == m.tobytes(), p.name
            assert arena_v.tobytes() == v.tobytes(), p.name

    def test_zero_grad_zeroes_views_of_one_buffer_in_place(self):
        registry = parser_registry()
        registry.zero_grad()
        grads = [p.tensor.grad for p in registry]
        for g in grads:
            g += 1.0
        registry.zero_grad()
        buffer = grads[0].base
        assert buffer is not None and buffer.size == sum(g.size for g in grads)
        for p, g in zip(registry, grads):
            assert p.tensor.grad is g and g.base is buffer
            assert g.shape == p.tensor.shape and not g.any()
            assert p.tensor.data.base is not None and p.tensor.data.base is not buffer

    @pytest.mark.parametrize("build", ["zero_grad", "adam_step"])
    def test_registering_after_the_arena_is_built_raises(self, build):
        registry = ParameterRegistry()
        rng = np.random.default_rng(0)
        registry.parameter("w", (2, 3), rng)
        registry.parameter("b", (3,), rng)
        if build == "zero_grad":
            registry.zero_grad()
        else:
            for p in registry:
                p.tensor.grad = np.ones(p.tensor.shape)
            adam_step(registry)
        with pytest.raises(ValueError, match="'late'"):
            registry.parameter("late", (2,), rng)
        assert registry.names() == ["w", "b"]


class TestGradCheck:
    def test_quadratic_is_exact_to_1e8(self):
        registry = ParameterRegistry()
        rng = np.random.default_rng(1)
        p = registry.parameter("p", (3,), rng, std=1.0)
        q = registry.parameter("q", (3,), rng, std=1.0)
        r = registry.parameter("r", (3,), rng, std=1.0)
        c = Tensor(rng.normal(size=(3,)))

        def fn():
            return tensor_sum(mul(mul(p, q), mul(r, c)))

        report = grad_check(fn, registry, eps=1e-5)
        assert report.max_error < 1e-8

    def test_frozen_parameter_reports_zero(self):
        registry = ParameterRegistry()
        rng = np.random.default_rng(2)
        p = registry.parameter("p", (3,), rng, std=1.0)
        frozen = registry.parameter("frozen", (3,), rng, std=1.0)

        def fn():
            # the loss never reads frozen: backward leaves its gradient None,
            # and both gradient routes must agree on exactly zero
            return tensor_sum(mul(p, p))

        report = grad_check(fn, registry, eps=1e-5)
        assert frozen.grad is None
        assert report.passed
        assert report.max_errors["frozen"] == 0.0

    def test_eps_out_of_range_rejected(self):
        registry = ParameterRegistry()
        rng = np.random.default_rng(0)
        p = registry.parameter("p", (2,), rng)
        with pytest.raises(ValueError, match="eps"):
            grad_check(lambda: tensor_sum(mul(p, p)), registry, eps=1e-2)

    def test_nondeterministic_function_rejected(self):
        registry = ParameterRegistry()
        rng = np.random.default_rng(0)
        p = registry.parameter("p", (2,), rng)
        noise = np.random.default_rng(123)

        def fn():
            return tensor_sum(mul(p, Tensor(noise.normal(size=2))))

        with pytest.raises(ValueError, match="deterministic"):
            grad_check(fn, registry)

    def test_two_layer_composition(self):
        registry = ParameterRegistry()
        rng = np.random.default_rng(3)
        w1 = registry.parameter("w1", (4, 5), rng, std=1.0)
        w2 = registry.parameter("w2", (5, 2), rng, std=1.0)
        x = Tensor(rng.normal(size=(3, 4)))
        c = Tensor(rng.normal(size=(3, 2)))

        def fn():
            from g2gt.autodiff import relu
            return tensor_sum(mul(matmul(relu(matmul(x, w1)), w2), c))

        report = grad_check(fn, registry, eps=1e-5)
        assert report.passed
