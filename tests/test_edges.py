"""Biaffine edge scoring and per-cell decoding."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from g2gt.autodiff import (Record, Tensor, add, backward, matmul, mul, recording,
                           reshape, tensor_sum, transpose)
from g2gt.edges import (greedy_decode, init_edge_scorer, label_edges, pooled_head_scores,
                        score_edges)
from g2gt.errors import UsageError
from g2gt.graphs import NONE_LABEL, DepTree, RelationVocab
from g2gt.model import DependencyParserModel, ModelConfig
from g2gt.mst import mst_decode
from g2gt.optim import ParameterRegistry, grad_check
from g2gt.vocab import Vocab

from oracles import (biaffine_score_loop, label_tree_loop, pool_up_labels_loop,
                     rescale_parameters, up_down_pairs)

VOCAB = RelationVocab.from_deprels(["det", "root"])


def build_scorer(d, d_e, n_labels, seed):
    registry = ParameterRegistry()
    rng = np.random.default_rng(seed)
    params = init_edge_scorer(registry, d, d_e, n_labels, rng)
    return registry, params


def scores_for(z, params):
    return score_edges(Tensor(z), params).data


def masked(slab, labels, allowed):
    """``slab``, whose column k scores label ``labels[k]``, with the columns
    of the labels outside ``allowed`` at -inf, as a stage mask leaves it."""
    return np.where(np.isin(labels, list(allowed)), slab, -np.inf)


class TestScoreEdges:
    def test_zero_classifier_gives_zero_scores(self):
        registry, params = build_scorer(6, 3, 4, seed=0)
        for p in registry:
            p.tensor.data[:] = 0.0
        rng = np.random.default_rng(1)
        scores = scores_for(rng.normal(size=(4, 6)), params)
        assert_allclose(scores, 0.0)

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
        assert_allclose(scores[:, :, 0], 6.0)

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
            assert_allclose(scores, oracle, rtol=0, atol=1e-12)

    def test_pairwise_independence(self):
        registry, params = build_scorer(5, 3, 3, seed=2)
        rng = np.random.default_rng(3)
        z = rng.normal(size=(4, 5))
        before = scores_for(z, params)
        z2 = z.copy()
        z2[3] += rng.normal(size=5)  # perturb an unrelated node
        after = scores_for(z2, params)
        assert np.array_equal(before[:3, :3, :], after[:3, :3, :])

    def test_d_edge_wider_than_d_rejected(self):
        registry = ParameterRegistry()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="d_e"):
            init_edge_scorer(registry, 4, 8, 2, rng)

    def test_tracked_and_untracked_scores_bit_identical(self):
        # recorded or not, the biaffine op reads B' and the transposed block
        # as views and adds the linear terms in place: one arithmetic
        for n, d, d_e, n_labels, lead in [(4, 6, 3, 5, ()), (26, 64, 32, 76, (1,)),
                                          (101, 64, 32, 76, (1,)), (7, 8, 4, 6, (3,))]:
            registry, params = build_scorer(d, d_e, n_labels, seed=n)
            z = Tensor(np.random.default_rng(n).normal(size=(*lead, n, d)))
            untracked = score_edges(z, params).data
            with recording(Record()):
                tracked = score_edges(z, params).data
            assert untracked.tobytes() == tracked.tobytes()

    def test_untracked_peak_memory_and_tracked_tape_budget(self):
        # at the ud-parse size, untracked scoring holds the (n, n, L) product
        # and the (n*L, d_e) right factor, and nothing else of that order
        n, d, d_e, n_labels = 101, 64, 32, 76
        registry, params = build_scorer(d, d_e, n_labels, seed=0)
        z = Tensor(np.random.default_rng(1).normal(size=(n, d)))
        score_edges(z, params)
        tracemalloc.start()
        try:
            scores = score_edges(z, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scores.shape == (n, n, n_labels)
        assert peak <= 1.5 * n * n * n_labels * 8
        record = Record()
        with recording(record):
            score_edges(z, params)
        assert len(record) <= 3      # two projections and the biaffine op

    def test_gradients_end_to_end(self):
        registry, params = build_scorer(8, 4, 4, seed=4)
        rescale_parameters(registry, 0.5)
        rng = np.random.default_rng(5)
        z = Tensor(rng.normal(size=(5, 8)))
        c = Tensor(rng.normal(size=(5, 5, 4)))

        def fn():
            return tensor_sum(mul(score_edges(z, params), c))

        report = grad_check(fn, registry, eps=1e-5)
        assert report.passed, report.max_errors


class TestBiaffineOp:
    """score_edges as one op: the two projections and the biaffine cells."""

    def test_padded_batch_against_cell_loop_oracle(self):
        registry, params = build_scorer(6, 3, 4, seed=30)
        rescale_parameters(registry, 0.5)
        z = np.random.default_rng(31).normal(size=(3, 5, 6))
        cells = score_edges(Tensor(z), params).data
        bilinear = np.split(params.bilinear.data, params.n_labels)
        for b, sentence in enumerate(z.reshape(-1, 5, 6)):
            oracle = biaffine_score_loop(
                sentence, params.head_proj.data, params.tail_proj.data, bilinear,
                params.head_lin.data, params.tail_lin.data, params.bias.data)
            assert_allclose(cells[b], oracle, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_gradients(self, lead):
        # the input is a parameter too, so the head and tail views' gradients
        # (linear term first, then bilinear) reach it
        registry, params = build_scorer(6, 3, 4, seed=32)
        rescale_parameters(registry, 0.5)
        rng = np.random.default_rng(33)
        z = registry.parameter("z", (*lead, 5, 6), rng, std=1.0)
        c = Tensor(rng.normal(size=(*lead, 5, 5, 4)))

        def fn():
            return tensor_sum(mul(score_edges(z, params), c))

        report = grad_check(fn, registry, eps=1e-5, threshold=1e-4)
        assert report.passed, report.max_errors

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_bits_of_the_generic_chain(self, lead):
        # the op replaced a recorded chain of the two projections,
        # transposes, reshapes, products and broadcast adds: same scores,
        # recorded or not, and same gradients
        n, d, d_e, n_labels = 6, 8, 4, 5
        runs = []
        for fused in (True, False):
            registry, params = build_scorer(d, d_e, n_labels, seed=34)
            z = registry.parameter("z", (*lead, n, d), np.random.default_rng(35), std=1.0)
            weights = Tensor(np.random.default_rng(36).normal(size=(*lead, n, n, n_labels)))
            unrecorded = score_edges(z, params).data.tobytes()
            record = Record()
            with recording(record):
                if fused:
                    cells = score_edges(z, params)
                else:
                    h = matmul(z, params.head_proj)
                    t = matmul(z, params.tail_proj)
                    bt = reshape(matmul(t, transpose(params.bilinear)),
                                 (*lead, n * n_labels, d_e))
                    cells = reshape(matmul(h, transpose(bt)), (*lead, n, n, n_labels))
                    cells = add(cells, reshape(matmul(h, params.head_lin),
                                               (*lead, n, 1, n_labels)))
                    cells = add(cells, reshape(matmul(t, params.tail_lin),
                                               (*lead, 1, n, n_labels)))
                    cells = add(cells, params.bias)
                nodes = len(record)
                loss = tensor_sum(mul(cells, weights))
            backward(loss, record)
            assert cells.data.tobytes() == unrecorded
            runs.append((nodes, cells.data.tobytes(),
                         [p.tensor.grad.tobytes() for p in registry]))
        assert runs[0][0] == 1 and runs[1][0] == 15
        assert runs[0][1:] == runs[1][1:]


def label_tree(heads, arr, vocab):
    """The tree that ``label_edges`` labels, read back as deprels."""
    up = vocab.up_indices()
    positions = label_edges(heads, arr[:, :, up])
    return DepTree(list(heads[1:]), [vocab.deprel_of(up[k]) for k in positions])


class TestGreedyDecode:
    """Greedy decoding is lower-triangular: the mention/coreference style."""

    def test_all_zero_scores_tie_break_to_none(self):
        g = greedy_decode(np.zeros((3, 3, 4)))
        assert np.all(g.labels == NONE_LABEL)

    def test_cell_max_wins(self):
        arr = np.zeros((3, 3, 4))
        arr[2, 1, 2] = 5.0
        g = greedy_decode(arr)
        assert g.label(2, 1) == 2

    def test_matches_exhaustive_argmax(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            arr = rng.normal(size=(4, 4, 3))
            g = greedy_decode(arr)
            for i in range(4):
                for j in range(4):
                    if j >= i:
                        assert g.label(i, j) == NONE_LABEL
                    else:
                        assert g.label(i, j) == int(np.argmax(arr[i, j]))

    def test_diagonal_forced_none(self):
        arr = np.zeros((2, 2, 3))
        arr[0, 0, 2] = 99.0
        g = greedy_decode(arr)
        assert g.label(0, 0) == NONE_LABEL

    def test_invariant_under_cellwise_monotone_transforms(self):
        rng = np.random.default_rng(8)
        arr = rng.normal(size=(4, 4, 5))
        base = greedy_decode(arr)
        scale = rng.uniform(0.5, 3.0, size=(4, 4, 1))
        shift = rng.normal(size=(4, 4, 1))
        transformed = greedy_decode(arr * scale + shift)
        assert np.array_equal(base.labels, transformed.labels)
        assert np.array_equal(base.labels, greedy_decode(np.tanh(arr)).labels)

    def test_label_mask_restricts_decoding(self):
        arr = np.zeros((3, 3, 3))
        arr[:, :, 2] = 10.0
        g = greedy_decode(masked(arr, np.arange(3), {0, 1}))
        assert np.all(g.labels != 2)


class TestLabelEdges:
    def test_single_candidate_label(self):
        vocab = RelationVocab.from_deprels(["only"])
        arr = np.zeros((2, 2, len(vocab)))
        tree = label_tree([-1, 0], arr, vocab)
        assert tree.deprels == ["only"]

    def test_clear_max_label_selected(self):
        arr = np.zeros((3, 3, len(VOCAB)))
        arr[1, 0, VOCAB.up_index("root")] = 4.0
        arr[2, 1, VOCAB.up_index("det")] = 4.0
        tree = label_tree([-1, 0, 1], arr, VOCAB)
        assert tree.heads == [0, 1]
        assert tree.deprels == ["root", "det"]

    def test_matches_restricted_argmax(self):
        up = VOCAB.up_indices()
        for seed in range(30):
            rng = np.random.default_rng(seed)
            arr = rng.normal(size=(3, 3, len(VOCAB)))
            tree = label_tree([-1, 0, 0], arr, VOCAB)
            for k, j in enumerate(tree.heads):
                cell = arr[k + 1, j, up]
                assert tree.deprels[k] == VOCAB.deprel_of(up[int(np.argmax(cell))])


class TestPooledHeadScores:
    def test_pool_is_max_over_up_labels(self):
        rng = np.random.default_rng(1)
        arr = rng.normal(size=(3, 3, len(VOCAB)))
        up = VOCAB.up_indices()
        pooled = pooled_head_scores(arr[:, :, up])
        assert_allclose(pooled, arr[:, :, up].max(axis=2))


def small_parser(deprels):
    vocab = Vocab.from_forms(["w"])
    cfg = ModelConfig(d=8, heads=2, d_ff=8, layers=1, d_edge=4, max_len=16)
    return DependencyParserModel(cfg, vocab, RelationVocab.from_deprels(deprels))


# parsers with 1 to 3 deprels, so 4, 6 or 8 relation labels
PARSERS = [small_parser(["root", "det", "obj"][:k]) for k in (1, 2, 3)]


@st.composite
def _decode_cases(draw):
    """Small-integer label scores (many ties) with -inf cells, and a label
    subset that may allow no up label at all."""
    model = draw(st.sampled_from(PARSERS))
    n_labels = len(model.rel_vocab)
    n = draw(st.integers(2, 12))
    scores = draw(arrays(np.float64, (n, n, n_labels),
                         elements=st.sampled_from([-np.inf, 0.0, 1.0, 2.0])))
    allowed = draw(st.none() | st.frozensets(st.integers(0, n_labels - 1)))
    return model, scores, allowed


class TestParserDecode:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_decode_cases())
    def test_matches_per_token_oracle(self, case):
        model, scores, allowed = case
        pairs = up_down_pairs(model.rel_vocab.labels)
        heads = mst_decode(pool_up_labels_loop(scores, pairs, allowed))
        slab = scores[:, :, model.decode_labels]
        if allowed is not None:
            slab = masked(slab, model.decode_labels, allowed)
        graph = model.decode(slab)
        assert np.array_equal(graph.labels,
                              label_tree_loop(scores, heads, pairs, allowed))

    def test_no_up_label_allowed(self):
        # every head score is -inf: each token hangs off the root and takes
        # the first up label, as the per-token loop did
        model = PARSERS[2]
        scores = np.random.default_rng(0).normal(size=(5, 5, len(model.rel_vocab)))
        graph = model.decode(masked(scores[:, :, model.decode_labels],
                                    model.decode_labels, {0, 1}))
        up, down = up_down_pairs(model.rel_vocab.labels)[0]
        assert np.all(graph.labels[1:, 0] == up)
        assert np.all(graph.labels[0, 1:] == down)

    def test_decode_leaves_scores_unchanged(self):
        model = PARSERS[1]
        slab = np.random.default_rng(1).normal(size=(6, 6, len(model.decode_labels)))
        before = slab.tobytes()
        model.decode(slab)
        assert slab.tobytes() == before

    def test_column_count_mismatch_rejected(self):
        model = PARSERS[1]      # two up labels
        with pytest.raises(ValueError, match="3 columns for 2 labels"):
            model.decode(np.zeros((2, 2, 3)))

    def test_parser_without_up_label_rejected(self):
        # a relation vocab of NONE and UNK alone leaves the decoder no column
        vocab = RelationVocab.from_deprels([])
        with pytest.raises(UsageError, match="at least one up relation label"):
            DependencyParserModel(PARSERS[0].cfg, Vocab.from_forms(["w"]), vocab)
