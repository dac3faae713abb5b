"""Parameter registry, Adam update, and the gradient checker itself."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from g2gt.autodiff import Record, Tensor, backward, matmul, mul, recording, tensor_sum
from g2gt.optim import Adam, ParameterRegistry, adam_step, grad_check


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
        state = registry.get("p").state
        assert state["m"].shape == t.data.shape
        assert state["v"].shape == t.data.shape

    def test_wrapper_class_matches_function(self):
        registry, t = self._single([1.0, 1.0, 1.0], [0.2, -0.1, 0.4])
        opt = Adam(registry, lr=5e-3)
        opt.step()
        registry2 = ParameterRegistry()
        rng = np.random.default_rng(0)
        t2 = registry2.parameter("p", (3,), rng)
        t2.data[:] = 1.0
        t2.grad = np.array([0.2, -0.1, 0.4])
        adam_step(registry2, lr=5e-3)
        assert_allclose(t.data, t2.data)


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
