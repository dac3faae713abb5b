"""Tensor engine: forward oracles, backward correctness, record semantics."""

import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from g2gt.autodiff import (Record, Tensor, active_record, add, backward,
                           gather_rows, layer_norm, matmul, mul, recording, relu,
                           reshape, softmax_rows, tensor_sum, transpose)
from g2gt.optim import ParameterRegistry, grad_check

from oracles import layer_norm_rows, naive_matmul, softmax_row


class TestMatmul:
    def test_identity(self):
        out = matmul(Tensor(np.eye(2)), Tensor([[3.0, 4.0], [5.0, 6.0]]))
        assert_allclose(out.data, [[3.0, 4.0], [5.0, 6.0]])

    def test_scalar(self):
        assert matmul(Tensor([[2.0]]), Tensor([[3.0]])).item() == 6.0

    def test_against_triple_loop(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        assert_allclose(matmul(Tensor(a), Tensor(b)).data, naive_matmul(a, b),
                        rtol=1e-12, atol=0)

    def test_triple_loop_up_to_16(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            m, k, n = rng.integers(1, 17, size=3)
            a = rng.normal(size=(m, k))
            b = rng.normal(size=(k, n))
            assert_allclose(matmul(Tensor(a), Tensor(b)).data, naive_matmul(a, b),
                            rtol=1e-12, atol=1e-300)

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_batched_against_triple_loop(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 2, 4))
        b = rng.normal(size=(3, 4, 5))
        out = matmul(Tensor(a), Tensor(b)).data
        for h in range(3):
            assert_allclose(out[h], naive_matmul(a[h], b[h]), rtol=1e-12, atol=0)

    def test_batch_extent_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"batch extent.*\(2, 3, 4\).*\(3, 4, 2\)"):
            matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 2))))


class TestTranspose:
    def test_permutes_axes(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        assert_allclose(transpose(Tensor(x), (2, 0, 1)).data, x.transpose(2, 0, 1))

    @pytest.mark.parametrize("axes", [(1, 0), (0, 1, 1), (0, 1, 3)])
    def test_axes_not_a_permutation_rejected(self, axes):
        with pytest.raises(ValueError, match="permutation"):
            transpose(Tensor(np.ones((2, 3, 4))), axes)


class TestUntrackedViews:
    def test_reshape_and_transpose_of_a_parameter_are_read_only_views(self):
        p = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        for view in (reshape(p, (3, 2)), transpose(p)):
            assert np.shares_memory(view.data, p.data)
            with pytest.raises(ValueError, match="read-only"):
                view.data += 1.0
        assert np.array_equal(p.data, np.arange(6.0).reshape(2, 3))


class TestRecordedViews:
    def test_recorded_reshape_and_transpose_are_read_only_views(self):
        # the tape holds views, as an unrecorded pass does, not copies
        p = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        record = Record()
        with recording(record):
            views = [reshape(p, (3, 2)), transpose(p)]
        assert len(record) == 2
        for view in views:
            assert view.requires_grad
            assert np.shares_memory(view.data, p.data)
            with pytest.raises(ValueError, match="read-only"):
                view.data += 1.0
        assert np.array_equal(p.data, np.arange(6.0).reshape(2, 3))


class TestUntrackedOps:
    def test_a_record_is_active_in_its_own_thread_only(self):
        p = Tensor(np.ones(3), requires_grad=True)
        seen = []

        def other_thread():
            seen.append(active_record())
            seen.append(mul(p, p).requires_grad)

        with recording(Record()) as record:
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            assert active_record() is record
        assert seen == [None, False]
        assert len(record) == 0
        assert active_record() is None

    def test_outputs_are_float64_arrays_without_gradient(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        b = Tensor(np.ones((2, 3)))
        outs = [add(a, b), mul(a, b), matmul(a, transpose(b)), transpose(a),
                reshape(a, (3, 2)), gather_rows(a, [1, 0]), relu(a), softmax_rows(a),
                layer_norm(a, Tensor(np.ones(3)), Tensor(np.zeros(3))), tensor_sum(a)]
        for out in outs:
            assert type(out.data) is np.ndarray and out.data.dtype == np.float64
            assert out.requires_grad is False and out.grad is None
        assert outs[-1].data.shape == () and outs[-1].item() == 15.0


class TestSoftmaxRows:
    def test_uniform(self):
        out = softmax_rows(Tensor([[0.0, 0.0, 0.0]]))
        assert_allclose(out.data, [[1 / 3] * 3], rtol=0, atol=1e-15)

    def test_no_overflow_on_huge_inputs(self):
        out = softmax_rows(Tensor([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0, 0] == pytest.approx(1.0)
        assert out.data[0, 1] == pytest.approx(0.0, abs=1e-300)

    def test_against_extended_precision_oracle(self):
        out = softmax_rows(Tensor([[1.0, 2.0, 3.0]]))
        assert_allclose(out.data[0], softmax_row([1.0, 2.0, 3.0]), rtol=1e-14)

    def test_rows_sum_to_one_property(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = rng.normal(scale=rng.uniform(0.1, 500.0), size=(4, 6))
            sums = softmax_rows(Tensor(x)).data.sum(axis=1)
            assert_allclose(sums, 1.0, rtol=0, atol=1e-9)
            assert np.all(softmax_rows(Tensor(x)).data >= 0.0)

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            softmax_rows(Tensor(np.ones((3, 0))))

    def test_rank3_normalises_last_axis(self):
        x = np.random.default_rng(1).normal(size=(2, 3, 4))
        out = softmax_rows(Tensor(x)).data
        for h in range(2):
            assert_allclose(out[h], softmax_rows(Tensor(x[h])).data, rtol=0, atol=0)


class TestLayerNorm:
    def test_constant_vector_zeroed_by_eps(self):
        out = layer_norm(Tensor([[5.0, 5.0, 5.0]]), Tensor(np.ones(3)),
                         Tensor(np.zeros(3)))
        assert_allclose(out.data, 0.0, atol=1e-12)

    def test_plus_minus_one(self):
        out = layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)),
                         Tensor(np.zeros(2)))
        expected = 1.0 / np.sqrt(1.0 + 1e-5)
        assert_allclose(out.data, [[expected, -expected]], rtol=1e-12)

    def test_zero_gain_gives_bias(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 4))
        bias = rng.normal(size=4)
        out = layer_norm(Tensor(x), Tensor(np.zeros(4)), Tensor(bias))
        assert_allclose(out.data, np.tile(bias, (3, 1)), rtol=1e-12)

    def test_against_row_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 7))
        gain = rng.normal(size=7)
        bias = rng.normal(size=7)
        out = layer_norm(Tensor(x), Tensor(gain), Tensor(bias))
        assert_allclose(out.data, layer_norm_rows(x, gain, bias), rtol=1e-12)

    def test_empty_feature_axis_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            layer_norm(Tensor(np.ones((2, 0))), Tensor(np.ones(0)), Tensor(np.ones(0)))


class TestBackward:
    def test_sum_gives_ones(self):
        p = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        record = Record()
        with recording(record):
            loss = tensor_sum(p)
        backward(loss, record)
        assert_allclose(p.grad, np.ones((2, 3)))

    def test_elementwise_square_gives_2p(self):
        data = np.array([[1.0, -2.0], [0.5, 3.0]])
        p = Tensor(data, requires_grad=True)
        record = Record()
        with recording(record):
            loss = tensor_sum(mul(p, p))
        backward(loss, record)
        assert_allclose(p.grad, 2.0 * data)

    def test_non_scalar_loss_rejected(self):
        p = Tensor(np.ones(3), requires_grad=True)
        record = Record()
        with recording(record):
            out = mul(p, p)
        with pytest.raises(ValueError, match="scalar"):
            backward(out, record)

    def test_constants_never_accumulate_gradient(self):
        p = Tensor(np.ones(3), requires_grad=True)
        c = Tensor(np.full(3, 2.0))
        record = Record()
        with recording(record):
            loss = tensor_sum(mul(p, c))
        backward(loss, record)
        assert c.grad is None
        assert_allclose(p.grad, 2.0)

    def test_unreachable_parameter_keeps_zero_grad(self):
        registry = ParameterRegistry()
        rng = np.random.default_rng(0)
        a = registry.parameter("a", (2,), rng)
        registry.parameter("b", (2,), rng)
        registry.zero_grad()
        record = Record()
        with recording(record):
            loss = tensor_sum(mul(a, a))
        backward(loss, record)
        assert_allclose(registry.get("b").tensor.grad, 0.0)
        assert np.any(registry.get("a").tensor.grad != 0.0)

    def test_backward_is_linear_in_loss(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(3, 3))
        w = rng.normal(size=(3, 3))

        def grads_of(loss_builder):
            p = Tensor(data.copy(), requires_grad=True)
            record = Record()
            with recording(record):
                loss = loss_builder(p)
            backward(loss, record)
            return p.grad

        g1 = grads_of(lambda p: tensor_sum(matmul(p, Tensor(w))))
        g2 = grads_of(lambda p: tensor_sum(mul(p, p)))
        g12 = grads_of(lambda p: add(tensor_sum(matmul(p, Tensor(w))),
                                     tensor_sum(mul(p, p))))
        assert_allclose(g12, g1 + g2, rtol=1e-12)

    def test_no_recording_outside_context(self):
        p = Tensor(np.ones(3), requires_grad=True)
        out = mul(p, p)
        assert not out.requires_grad


def _check(fn, registry, seed_note=""):
    report = grad_check(fn, registry, eps=1e-5)
    assert report.passed, f"gradient mismatch {seed_note}: {report.max_errors}"


class TestOperationGradients:
    """Central-difference property checks, 100 seeds per operation."""

    @pytest.mark.parametrize("seed", range(100))
    def test_core_ops(self, seed):
        rng = np.random.default_rng(seed)
        registry = ParameterRegistry()
        a = registry.parameter("a", (2, 3), rng, std=1.0)
        b = registry.parameter("b", (2, 3), rng, std=1.0)
        w = registry.parameter("w", (3, 2), rng, std=1.0)
        c1 = Tensor(rng.normal(size=(2, 3)))
        c2 = Tensor(rng.normal(size=(2, 2)))

        def fn():
            s = add(mul(a, b), c1)                  # add + mul
            s = add(s, mul(a, Tensor(-0.7)))        # mul by a constant
            m = matmul(s, w)                        # matmul
            m = add(m, transpose(matmul(transpose(w), transpose(s))))  # transpose
            return tensor_sum(mul(m, c2))

        _check(fn, registry, f"(core ops, seed {seed})")

    @pytest.mark.parametrize("seed", range(100))
    def test_shape_ops(self, seed):
        rng = np.random.default_rng(1000 + seed)
        registry = ParameterRegistry()
        a = registry.parameter("a", (4, 3), rng, std=1.0)
        b = registry.parameter("b", (3, 2, 2), rng, std=1.0)
        c = Tensor(rng.normal(size=(3, 2, 2)))
        idx = rng.integers(0, 4, size=5)
        c_idx = Tensor(rng.normal(size=(5, 3)))

        def fn():
            r = transpose(reshape(a, (2, 2, 3)), (2, 0, 1))  # reshape, rank-3 transpose
            m = matmul(r, b)                            # batched matmul
            picked = gather_rows(a, idx)                # gather with repeats
            return add(tensor_sum(mul(m, c)), tensor_sum(mul(picked, c_idx)))

        _check(fn, registry, f"(shape ops, seed {seed})")

    @pytest.mark.parametrize("seed", range(100))
    def test_nonlinear_ops(self, seed):
        rng = np.random.default_rng(2000 + seed)
        registry = ParameterRegistry()
        a = registry.parameter("a", (3, 4), rng, std=1.0)
        gain = registry.parameter("gain", (4,), rng, std=1.0)
        bias = registry.parameter("bias", (4,), rng, std=1.0)
        c = Tensor(rng.normal(size=(3, 4)))
        # keep relu inputs away from the kink
        shift = Tensor(np.where(rng.normal(size=(3, 4)) > 0, 0.5, -0.5))

        def fn():
            s = softmax_rows(a)
            r = relu(add(a, shift))
            ln = layer_norm(a, gain, bias)
            return add(tensor_sum(mul(s, c)),
                       add(tensor_sum(mul(r, c)), tensor_sum(mul(ln, c))))

        _check(fn, registry, f"(nonlinear ops, seed {seed})")

    @pytest.mark.parametrize("seed", range(100))
    def test_sum_axis_and_broadcast(self, seed):
        rng = np.random.default_rng(3000 + seed)
        registry = ParameterRegistry()
        a = registry.parameter("a", (2, 3, 4), rng, std=1.0)
        row = registry.parameter("row", (4,), rng, std=1.0)
        c = Tensor(rng.normal())
        c2 = Tensor(rng.normal(size=(2, 3, 4)))

        def fn():
            total = tensor_sum(a)                   # a scalar, scaled by c
            broad = add(a, row)                     # broadcast over last axis
            return add(mul(total, c), tensor_sum(mul(broad, c2)))

        _check(fn, registry, f"(sum/broadcast, seed {seed})")
