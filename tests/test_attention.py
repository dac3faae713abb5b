"""Graph-conditioned attention against hand-evaluated and loop oracles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from g2gt.attention import (EncoderParams, G2GLayerConfig, LayerParams,
                            RelationEmbeddings, attention_scores,
                            attention_values, encode, init_encoder)
from g2gt.autodiff import Tensor, mul, tensor_sum
from g2gt.graphs import GraphBatch, LabeledGraph, empty_graph, permute_graph
from g2gt.optim import ParameterRegistry, grad_check

from oracles import (graph_attention_scores_loop, graph_attention_values_loop,
                     rescale_parameters, vanilla_encoder_forward)


def random_graph(rng, n, n_labels):
    labels = rng.integers(0, n_labels, size=(n, n))
    np.fill_diagonal(labels, 0)
    return LabeledGraph(labels)


def make_rel(rng, n_labels, d, zero_none=False, zero=False):
    if zero:
        data = [np.zeros((n_labels, d)) for _ in range(3)]
    else:
        data = [rng.normal(size=(n_labels, d)) for _ in range(3)]
    if zero_none:
        for matrix in data:
            matrix[0] = 0.0
    return RelationEmbeddings(Tensor(data[0], requires_grad=True),
                              Tensor(data[1], requires_grad=True),
                              Tensor(data[2], requires_grad=True))


def encoder_as_numpy_layers(params: EncoderParams):
    out = []
    for p in params.layers:
        out.append({
            "wq": p.w_q.data, "wk": p.w_k.data, "wv": p.w_v.data, "wo": p.w_o.data,
            "attn_gain": p.attn_gain.data, "attn_bias": p.attn_bias.data,
            "ffn_w1": p.ffn_w1.data, "ffn_b1": p.ffn_b1.data,
            "ffn_w2": p.ffn_w2.data, "ffn_b2": p.ffn_b2.data,
            "ffn_gain": p.ffn_gain.data, "ffn_bias": p.ffn_bias.data,
        })
    return out


class TestAttentionScores:
    def test_zero_relation_matrices_reduce_to_dot_product(self):
        rng = np.random.default_rng(0)
        cfg = G2GLayerConfig(d=4, heads=1, d_ff=8, n_layers=1)
        x = rng.normal(size=(5, 4))
        w_q = rng.normal(size=(4, 4))
        w_k = rng.normal(size=(4, 4))
        rel = make_rel(rng, 3, 4, zero=True)
        graph = random_graph(rng, 5, 3)
        e = attention_scores(Tensor(x), Tensor(w_q), Tensor(w_k), graph, rel, cfg)
        vanilla = (x @ w_q) @ (x @ w_k).T / 2.0
        assert_allclose(e.data, vanilla, rtol=1e-12)

    def test_hand_evaluated_scalar_case(self):
        # one-dimensional heads: x_i = 2, x_j = 3, both projections identity,
        # relation rows 0.5 (query side) and 0.25 (key side):
        # e = (2*3 + 2*0.5 + 0.25*3) / 1 = 7.75
        cfg = G2GLayerConfig(d=1, heads=1, d_ff=2, n_layers=1)
        x = Tensor([[2.0], [3.0]])
        w = Tensor([[1.0]])
        labels = np.array([[0, 1], [1, 0]])
        rel = RelationEmbeddings(Tensor([[0.0], [0.5]]),
                                 Tensor([[0.0], [0.25]]),
                                 Tensor([[0.0], [0.0]]))
        e = attention_scores(x, w, w, LabeledGraph(labels), rel, cfg)
        assert e.data[0, 1] == pytest.approx(7.75)

    def test_all_none_graph_with_frozen_zero_row_matches_vanilla(self):
        cfg = G2GLayerConfig(d=6, heads=1, d_ff=8, n_layers=1)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(4, 6))
            w_q = rng.normal(size=(6, 6))
            w_k = rng.normal(size=(6, 6))
            rel = make_rel(rng, 4, 6, zero_none=True)
            e = attention_scores(Tensor(x), Tensor(w_q), Tensor(w_k),
                                 empty_graph(4), rel, cfg)
            vanilla = (x @ w_q) @ (x @ w_k).T / np.sqrt(6)
            assert_allclose(e.data, vanilla, rtol=0, atol=1e-12)

    def test_against_double_loop_oracle(self):
        cfg = G2GLayerConfig(d=6, heads=1, d_ff=8, n_layers=1)
        for seed in range(25):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(4, 6))
            w_q = rng.normal(size=(6, 6))
            w_k = rng.normal(size=(6, 6))
            rel = make_rel(rng, 5, 6)
            graph = random_graph(rng, 4, 5)
            e = attention_scores(Tensor(x), Tensor(w_q), Tensor(w_k), graph, rel, cfg)
            oracle = graph_attention_scores_loop(
                x, w_q, w_k, rel.query_rel.data, rel.key_rel.data, graph.labels)
            assert_allclose(e.data, oracle, rtol=0, atol=1e-12)

    def test_key_term_dropped_when_disabled(self):
        rng = np.random.default_rng(1)
        cfg = G2GLayerConfig(d=4, heads=1, d_ff=8, n_layers=1, use_key_term=False)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 4))
        rel = make_rel(rng, 3, 4)
        graph = random_graph(rng, 3, 3)
        e = attention_scores(Tensor(x), Tensor(w), Tensor(w), graph, rel, cfg)
        oracle = graph_attention_scores_loop(
            x, w, w, rel.query_rel.data, rel.key_rel.data, graph.labels,
            use_key_term=False)
        assert_allclose(e.data, oracle, rtol=0, atol=1e-12)

    def test_relation_width_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        cfg = G2GLayerConfig(d=4, heads=1, d_ff=8, n_layers=1)
        rel = make_rel(rng, 3, 2)  # too narrow for d_head=4
        with pytest.raises(ValueError, match="width"):
            attention_scores(Tensor(rng.normal(size=(3, 4))),
                             Tensor(rng.normal(size=(4, 4))),
                             Tensor(rng.normal(size=(4, 4))),
                             random_graph(rng, 3, 3), rel, cfg)

    def test_label_beyond_relation_rows_rejected(self):
        # label 3 of node 0 must not read label 0 of node 1's table row
        rng = np.random.default_rng(2)
        cfg = G2GLayerConfig(d=4, heads=1, d_ff=8, n_layers=1)
        rel = make_rel(rng, 3, 4)
        labels = np.zeros((3, 3), dtype=np.int64)
        labels[0, 1] = 3
        with pytest.raises(ValueError, match="out of range"):
            attention_scores(Tensor(rng.normal(size=(3, 4))),
                             Tensor(rng.normal(size=(4, 4))),
                             Tensor(rng.normal(size=(4, 4))),
                             LabeledGraph(labels), rel, cfg)


class TestAttentionValues:
    def test_zero_value_relation_reduces_to_weighted_values(self):
        rng = np.random.default_rng(3)
        cfg = G2GLayerConfig(d=4, heads=1, d_ff=8, n_layers=1)
        x = rng.normal(size=(4, 4))
        w_v = rng.normal(size=(4, 4))
        alpha = rng.uniform(0.1, 1.0, size=(4, 4))
        alpha /= alpha.sum(axis=1, keepdims=True)
        rel = make_rel(rng, 3, 4, zero=True)
        z = attention_values(Tensor(alpha), Tensor(x), Tensor(w_v),
                             random_graph(rng, 4, 3), rel, cfg)
        assert_allclose(z.data, alpha @ (x @ w_v), rtol=1e-12)

    def test_single_node_sums_value_and_relation(self):
        cfg = G2GLayerConfig(d=2, heads=1, d_ff=4, n_layers=1)
        x = Tensor([[1.0, 2.0]])
        w_v = Tensor(np.eye(2))
        rel = RelationEmbeddings(Tensor(np.zeros((1, 2))),
                                 Tensor(np.zeros((1, 2))),
                                 Tensor([[0.5, -0.5]]))
        z = attention_values(Tensor([[1.0]]), x, w_v, empty_graph(1), rel, cfg)
        assert_allclose(z.data, [[1.5, 1.5]])

    def test_against_double_loop_oracle(self):
        cfg = G2GLayerConfig(d=5, heads=1, d_ff=8, n_layers=1)
        for seed in range(25):
            rng = np.random.default_rng(100 + seed)
            x = rng.normal(size=(4, 5))
            w_v = rng.normal(size=(5, 5))
            alpha = rng.uniform(0.05, 1.0, size=(4, 4))
            alpha /= alpha.sum(axis=1, keepdims=True)
            rel = make_rel(rng, 6, 5)
            graph = random_graph(rng, 4, 6)
            z = attention_values(Tensor(alpha), Tensor(x), Tensor(w_v), graph,
                                 rel, cfg)
            oracle = graph_attention_values_loop(alpha, x, w_v,
                                                 rel.value_rel.data, graph.labels)
            assert_allclose(z.data, oracle, rtol=0, atol=1e-12)

    def test_alpha_rows_must_sum_to_one(self):
        rng = np.random.default_rng(4)
        cfg = G2GLayerConfig(d=2, heads=1, d_ff=4, n_layers=1)
        with pytest.raises(ValueError, match="sum to 1"):
            attention_values(Tensor(np.full((2, 2), 0.9)),
                             Tensor(rng.normal(size=(2, 2))),
                             Tensor(np.eye(2)), empty_graph(2),
                             make_rel(rng, 2, 2), cfg)


def build_encoder(cfg, n_labels, seed):
    registry = ParameterRegistry()
    rng = np.random.default_rng(seed)
    params = init_encoder(registry, cfg, n_labels, rng)
    return registry, params


class TestEncoder:
    def test_zero_relations_match_vanilla_encoder(self):
        cfg = G2GLayerConfig(d=8, heads=2, d_ff=16, n_layers=2)
        registry, params = build_encoder(cfg, 4, seed=0)
        for name in ("encoder.rel.query", "encoder.rel.key", "encoder.rel.value"):
            registry.get(name).tensor.data[:] = 0.0
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 8))
        graph = random_graph(rng, 5, 4)
        z = encode(Tensor(x), graph, params, cfg)
        oracle = vanilla_encoder_forward(x, encoder_as_numpy_layers(params),
                                         heads=2)
        assert_allclose(z.z.data, oracle, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("use_key_term,use_value_term",
                             [(True, True), (False, True), (True, False)])
    def test_multi_head_relations_match_oracle(self, use_key_term, use_value_term):
        # a head-slicing or row-offset slip in the relation terms shows here
        cfg = G2GLayerConfig(d=8, heads=2, d_ff=16, n_layers=2,
                             use_key_term=use_key_term, use_value_term=use_value_term)
        registry, params = build_encoder(cfg, 5, seed=4)
        rng = np.random.default_rng(9)
        rel = [rng.normal(size=(5, 8)) for _ in range(3)]
        for name, data in zip(("query", "key", "value"), rel):
            registry.get(f"encoder.rel.{name}").tensor.data[:] = data
        # an ablated role reads as a zero relation matrix
        rel[1] = rel[1] if use_key_term else np.zeros((5, 8))
        rel[2] = rel[2] if use_value_term else np.zeros((5, 8))
        x = rng.normal(size=(6, 8))
        graph = random_graph(rng, 6, 5)
        z = encode(Tensor(x), graph, params, cfg)
        oracle = vanilla_encoder_forward(x, encoder_as_numpy_layers(params),
                                         heads=2, rel=rel, labels=graph.labels)
        assert_allclose(z.z.data, oracle, rtol=0, atol=1e-10)

    def test_permutation_equivariance(self):
        # sending node i to position perm[i] in both input and graph must
        # send output row i to position perm[i]
        cfg = G2GLayerConfig(d=8, heads=2, d_ff=16, n_layers=2)
        registry, params = build_encoder(cfg, 5, seed=7)
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 7))
            x = rng.normal(size=(n, 8))
            graph = random_graph(rng, n, 5)
            perm = rng.permutation(n)
            inv = np.argsort(perm)
            z = encode(Tensor(x), graph, params, cfg).z.data
            z_perm = encode(Tensor(x[inv]), permute_graph(graph, perm),
                            params, cfg).z.data
            assert_allclose(z_perm, z[inv], rtol=0, atol=1e-9)

    def test_single_token_ignores_off_diagonal_relations(self):
        cfg = G2GLayerConfig(d=4, heads=1, d_ff=8, n_layers=1)
        registry, params = build_encoder(cfg, 3, seed=3)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 4))
        z1 = encode(Tensor(x), empty_graph(1), params, cfg).z.data
        z2 = encode(Tensor(x), empty_graph(1), params, cfg).z.data
        assert_allclose(z1, z2, rtol=0, atol=0)

    def test_ablated_key_term_is_bitwise_independent_of_key_relations(self):
        cfg = G2GLayerConfig(d=8, heads=2, d_ff=16, n_layers=2, use_key_term=False)
        registry, params = build_encoder(cfg, 4, seed=11)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 8))
        graph = random_graph(rng, 5, 4)
        before = encode(Tensor(x), graph, params, cfg).z.data.copy()
        registry.get("encoder.rel.key").tensor.data[:] = rng.normal(size=(4, 8))
        after = encode(Tensor(x), graph, params, cfg).z.data
        assert np.array_equal(before, after)

    def test_ablated_value_term_is_bitwise_independent_of_value_relations(self):
        cfg = G2GLayerConfig(d=8, heads=2, d_ff=16, n_layers=2, use_value_term=False)
        registry, params = build_encoder(cfg, 4, seed=12)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 8))
        graph = random_graph(rng, 5, 4)
        before = encode(Tensor(x), graph, params, cfg).z.data.copy()
        registry.get("encoder.rel.value").tensor.data[:] = rng.normal(size=(4, 8))
        after = encode(Tensor(x), graph, params, cfg).z.data
        assert np.array_equal(before, after)

    def test_graph_size_mismatch_rejected_on_every_view(self):
        cfg = G2GLayerConfig(d=4, heads=1, d_ff=8, n_layers=1)
        _, params = build_encoder(cfg, 3, seed=0)
        x = Tensor(np.ones((3, 4)))
        w = params.layers[0].w_q
        alpha = Tensor(np.full((3, 3), 1.0 / 3.0))
        graph = empty_graph(4)
        for call in (lambda: encode(x, graph, params, cfg),
                     lambda: attention_scores(x, w, w, graph, params.rel, cfg),
                     lambda: attention_values(alpha, x, w, graph, params.rel, cfg)):
            with pytest.raises(ValueError, match="graph has 4 nodes"):
                call()

    def test_width_not_divisible_by_heads_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            G2GLayerConfig(d=6, heads=4, d_ff=8, n_layers=1)

    def test_full_layer_gradients(self):
        # every parameter of one layer, d=8, h=2, n=5, |L|=4
        cfg = G2GLayerConfig(d=8, heads=2, d_ff=16, n_layers=1)
        registry, params = build_encoder(cfg, 4, seed=5)
        rescale_parameters(registry, 0.5)
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(5, 8)))
        graph = random_graph(rng, 5, 4)
        c = Tensor(rng.normal(size=(5, 8)))

        def fn():
            return tensor_sum(mul(encode(x, graph, params, cfg).z, c))

        report = grad_check(fn, registry, eps=1e-5)
        assert report.passed, report.max_errors


class TestPaddedBatch:
    def _batch(self, rng, lengths, d, n_labels):
        graphs = [random_graph(rng, n, n_labels) for n in lengths]
        # padding rows hold arbitrary values; they must not reach real rows
        x = rng.normal(size=(len(lengths), max(lengths), d))
        return graphs, x

    @pytest.mark.parametrize("lengths", [(5, 2, 7), (3, 6), (4, 4)])
    def test_real_rows_equal_encoding_alone(self, lengths):
        cfg = G2GLayerConfig(d=8, heads=2, d_ff=16, n_layers=2)
        registry, params = build_encoder(cfg, 5, seed=21)
        rng = np.random.default_rng(sum(lengths))
        for name in ("query", "key", "value"):
            registry.get(f"encoder.rel.{name}").tensor.data[:] = rng.normal(size=(5, 8))
        graphs, x = self._batch(rng, lengths, 8, 5)
        z = encode(Tensor(x), GraphBatch(graphs), params, cfg).z.data
        assert z.shape == x.shape
        for b, (n, graph) in enumerate(zip(lengths, graphs)):
            alone = encode(Tensor(x[b, :n]), graph, params, cfg).z.data
            assert_allclose(z[b, :n], alone, rtol=0, atol=1e-12)

    def test_padding_keys_get_exactly_zero_attention(self, monkeypatch):
        import g2gt.attention as attention
        weights = []

        def recording_softmax(x):
            out = attention_softmax(x)
            weights.append(out.data)
            return out

        attention_softmax = attention.softmax_rows
        monkeypatch.setattr(attention, "softmax_rows", recording_softmax)
        cfg = G2GLayerConfig(d=8, heads=2, d_ff=16, n_layers=2)
        _, params = build_encoder(cfg, 4, seed=5)
        rng = np.random.default_rng(8)
        lengths = (2, 6, 4)
        graphs, x = self._batch(rng, lengths, 8, 4)
        encode(Tensor(x), GraphBatch(graphs), params, cfg)
        assert len(weights) == cfg.n_layers
        for alpha in weights:
            assert alpha.shape == (3, 2, 6, 6)
            for b, n in enumerate(lengths):
                assert np.all(alpha[b, :, :, n:] == 0.0)
                assert_allclose(alpha[b].sum(axis=-1), 1.0, rtol=0, atol=1e-12)

    def test_batch_size_mismatch_rejected(self):
        cfg = G2GLayerConfig(d=4, heads=1, d_ff=8, n_layers=1)
        _, params = build_encoder(cfg, 3, seed=0)
        graphs = [empty_graph(3), empty_graph(2)]
        with pytest.raises(ValueError, match="do not match"):
            encode(Tensor(np.ones((3, 3, 4))), GraphBatch(graphs), params, cfg)
