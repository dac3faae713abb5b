"""Biaffine edge scoring and per-cell decoding."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from g2gt.attention import EncoderState
from g2gt.autodiff import Tensor, mul, tensor_sum
from g2gt.edges import (EdgeScores, greedy_decode, init_edge_scorer, label_edges,
                        pooled_head_scores, score_edges)
from g2gt.errors import DataError
from g2gt.graphs import NONE_LABEL, RelationVocab
from g2gt.optim import ParameterRegistry, grad_check

from oracles import biaffine_score_loop, rescale_parameters

VOCAB = RelationVocab.from_deprels(["det", "root"])


def build_scorer(d, d_e, n_labels, seed):
    registry = ParameterRegistry()
    rng = np.random.default_rng(seed)
    params = init_edge_scorer(registry, d, d_e, n_labels, rng)
    return registry, params


def scores_for(z, params):
    return score_edges(EncoderState(z=Tensor(z)), params)


class TestScoreEdges:
    def test_zero_classifier_gives_zero_scores(self):
        registry, params = build_scorer(6, 3, 4, seed=0)
        for p in registry:
            p.tensor.data[:] = 0.0
        rng = np.random.default_rng(1)
        scores = scores_for(rng.normal(size=(4, 6)), params)
        assert_allclose(scores.array(), 0.0)

    def test_scalar_hand_case(self):
        # d_e = 1, h=2, t=3, bilinear=1, no linear terms, no bias -> 6
        registry, params = build_scorer(1, 1, 1, seed=0)
        registry.get("edge.head_proj").tensor.data[:] = [[2.0]]
        registry.get("edge.tail_proj").tensor.data[:] = [[3.0]]
        registry.get("edge.bilinear").tensor.data[:] = [[1.0]]
        registry.get("edge.head_lin").tensor.data[:] = 0.0
        registry.get("edge.tail_lin").tensor.data[:] = 0.0
        registry.get("edge.bias").tensor.data[:] = 0.0
        scores = scores_for(np.ones((2, 1)), params)
        assert_allclose(scores.array()[:, :, 0], 6.0)

    def test_against_cell_loop_oracle(self):
        for seed in range(20):
            registry, params = build_scorer(5, 3, 4, seed=seed)
            rng = np.random.default_rng(100 + seed)
            z = rng.normal(size=(4, 5))
            scores = scores_for(z, params)
            oracle = biaffine_score_loop(
                z, params.head_proj.data, params.tail_proj.data,
                np.split(params.bilinear.data, params.n_labels),
                params.head_lin.data, params.tail_lin.data, params.bias.data)
            assert_allclose(scores.array(), oracle, rtol=0, atol=1e-12)

    def test_pairwise_independence(self):
        registry, params = build_scorer(5, 3, 3, seed=2)
        rng = np.random.default_rng(3)
        z = rng.normal(size=(4, 5))
        before = scores_for(z, params).array()
        z2 = z.copy()
        z2[3] += rng.normal(size=5)  # perturb an unrelated node
        after = scores_for(z2, params).array()
        assert np.array_equal(before[:3, :3, :], after[:3, :3, :])

    def test_d_edge_wider_than_d_rejected(self):
        registry = ParameterRegistry()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="d_e"):
            init_edge_scorer(registry, 4, 8, 2, rng)

    def test_gradients_end_to_end(self):
        registry, params = build_scorer(8, 4, 4, seed=4)
        rescale_parameters(registry, 0.5)
        rng = np.random.default_rng(5)
        z = Tensor(rng.normal(size=(5, 8)))
        c = Tensor(rng.normal(size=(25, 4)))

        def fn():
            return tensor_sum(mul(score_edges(EncoderState(z=z), params).flat, c))

        report = grad_check(fn, registry, eps=1e-5)
        assert report.passed, report.max_errors


def make_scores(arr):
    n = arr.shape[0]
    return EdgeScores(Tensor(arr.reshape(n * n, arr.shape[2])), n)


class TestGreedyDecode:
    def test_all_zero_scores_tie_break_to_none(self):
        g = greedy_decode(make_scores(np.zeros((3, 3, 4))))
        assert np.all(g.labels == NONE_LABEL)

    def test_cell_max_wins(self):
        arr = np.zeros((3, 3, 4))
        arr[1, 2, 2] = 5.0
        g = greedy_decode(make_scores(arr))
        assert g.label(1, 2) == 2

    def test_matches_exhaustive_argmax(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            arr = rng.normal(size=(4, 4, 3))
            g = greedy_decode(make_scores(arr))
            for i in range(4):
                for j in range(4):
                    if i == j:
                        assert g.label(i, j) == NONE_LABEL
                    else:
                        assert g.label(i, j) == int(np.argmax(arr[i, j]))

    def test_diagonal_forced_none(self):
        arr = np.zeros((2, 2, 3))
        arr[0, 0, 2] = 99.0
        g = greedy_decode(make_scores(arr))
        assert g.label(0, 0) == NONE_LABEL

    def test_invariant_under_cellwise_monotone_transforms(self):
        rng = np.random.default_rng(8)
        arr = rng.normal(size=(4, 4, 5))
        base = greedy_decode(make_scores(arr))
        scale = rng.uniform(0.5, 3.0, size=(4, 4, 1))
        shift = rng.normal(size=(4, 4, 1))
        transformed = greedy_decode(make_scores(arr * scale + shift))
        assert np.array_equal(base.labels, transformed.labels)
        assert np.array_equal(base.labels,
                              greedy_decode(make_scores(np.tanh(arr))).labels)

    def test_label_mask_restricts_decoding(self):
        arr = np.zeros((3, 3, 3))
        arr[:, :, 2] = 10.0
        g = greedy_decode(make_scores(arr), allowed=frozenset({0, 1}))
        assert np.all(g.labels != 2)

    def test_lower_triangular_mode(self):
        arr = np.full((3, 3, 2), 0.0)
        arr[:, :, 1] = 1.0
        g = greedy_decode(make_scores(arr), lower_triangular=True)
        assert np.all(g.labels[np.triu_indices(3, k=1)] == NONE_LABEL)
        assert g.label(2, 0) == 1


class TestLabelEdges:
    def test_single_candidate_label(self):
        vocab = RelationVocab.from_deprels(["only"])
        arr = np.zeros((2, 2, len(vocab)))
        tree = label_edges([-1, 0], make_scores(arr), vocab)
        assert tree.deprels == ["only"]

    def test_clear_max_label_selected(self):
        arr = np.zeros((3, 3, len(VOCAB)))
        arr[1, 0, VOCAB.up_index("root")] = 4.0
        arr[2, 1, VOCAB.up_index("det")] = 4.0
        tree = label_edges([-1, 0, 1], make_scores(arr), VOCAB)
        assert tree.heads == [0, 1]
        assert tree.deprels == ["root", "det"]

    def test_matches_restricted_argmax(self):
        up = VOCAB.up_indices()
        for seed in range(30):
            rng = np.random.default_rng(seed)
            arr = rng.normal(size=(3, 3, len(VOCAB)))
            tree = label_edges([-1, 0, 0], make_scores(arr), VOCAB)
            for k, j in enumerate(tree.heads):
                cell = arr[k + 1, j, up]
                assert tree.deprels[k] == VOCAB.deprel_of(up[int(np.argmax(cell))])

    def test_invalid_skeleton_rejected(self):
        arr = np.zeros((3, 3, len(VOCAB)))
        with pytest.raises(DataError, match="arborescence"):
            label_edges([-1, 2, 1], make_scores(arr), VOCAB)  # 1<->2 cycle


class TestPooledHeadScores:
    def test_pool_is_max_over_up_labels(self):
        rng = np.random.default_rng(1)
        arr = rng.normal(size=(3, 3, len(VOCAB)))
        pooled = pooled_head_scores(make_scores(arr), VOCAB)
        up = VOCAB.up_indices()
        assert_allclose(pooled, arr[:, :, up].max(axis=2))
