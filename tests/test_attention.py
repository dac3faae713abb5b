"""Graph-conditioned attention against hand-evaluated and loop oracles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from g2gt.attention import (EncoderParams, G2GLayerConfig, LayerParams, LayerTerms,
                            RelationEmbeddings, _attention_output, _feed_forward,
                            _node_rows, _project_heads, _qk, _scores, _split_heads,
                            _values, attention_scores, attention_values, encode,
                            first_layer, init_encoder)
from g2gt.autodiff import (Record, Tensor, add, backward, gather_rows, layer_norm,
                           matmul, mul, recording, relu, reshape, softmax_rows,
                           tensor_sum, transpose)
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
        assert_allclose(z.data, oracle, rtol=0, atol=1e-10)

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
        assert_allclose(z.data, oracle, rtol=0, atol=1e-10)

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
            z = encode(Tensor(x), graph, params, cfg).data
            z_perm = encode(Tensor(x[inv]), permute_graph(graph, perm),
                            params, cfg).data
            assert_allclose(z_perm, z[inv], rtol=0, atol=1e-9)

    def test_single_token_ignores_off_diagonal_relations(self):
        cfg = G2GLayerConfig(d=4, heads=1, d_ff=8, n_layers=1)
        registry, params = build_encoder(cfg, 3, seed=3)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 4))
        z1 = encode(Tensor(x), empty_graph(1), params, cfg).data
        z2 = encode(Tensor(x), empty_graph(1), params, cfg).data
        assert_allclose(z1, z2, rtol=0, atol=0)

    def test_ablated_key_term_is_bitwise_independent_of_key_relations(self):
        cfg = G2GLayerConfig(d=8, heads=2, d_ff=16, n_layers=2, use_key_term=False)
        registry, params = build_encoder(cfg, 4, seed=11)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 8))
        graph = random_graph(rng, 5, 4)
        before = encode(Tensor(x), graph, params, cfg).data.copy()
        registry.get("encoder.rel.key").tensor.data[:] = rng.normal(size=(4, 8))
        after = encode(Tensor(x), graph, params, cfg).data
        assert np.array_equal(before, after)

    def test_ablated_value_term_is_bitwise_independent_of_value_relations(self):
        cfg = G2GLayerConfig(d=8, heads=2, d_ff=16, n_layers=2, use_value_term=False)
        registry, params = build_encoder(cfg, 4, seed=12)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 8))
        graph = random_graph(rng, 5, 4)
        before = encode(Tensor(x), graph, params, cfg).data.copy()
        registry.get("encoder.rel.value").tensor.data[:] = rng.normal(size=(4, 8))
        after = encode(Tensor(x), graph, params, cfg).data
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
            return tensor_sum(mul(encode(x, graph, params, cfg), c))

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
        z = encode(Tensor(x), GraphBatch(graphs), params, cfg).data
        assert z.shape == x.shape
        for b, (n, graph) in enumerate(zip(lengths, graphs)):
            alone = encode(Tensor(x[b, :n]), graph, params, cfg).data
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


def fused_op_case(seed, lengths, use_key_term=True, use_value_term=True):
    """A one-layer, two-head encoder and a padded batch of ``lengths``: the
    registry, parameters, config, input and graph batch."""
    cfg = G2GLayerConfig(d=6, heads=2, d_ff=8, n_layers=1, use_key_term=use_key_term,
                         use_value_term=use_value_term)
    registry, params = build_encoder(cfg, 4, seed)
    rescale_parameters(registry, 0.5)
    rng = np.random.default_rng(seed)
    graphs = [random_graph(rng, n, 4) for n in lengths]
    x = Tensor(rng.normal(size=(len(lengths), max(lengths), cfg.d)))
    return registry, params, cfg, x, GraphBatch(graphs)


def layer0_scores(x, batch, params, cfg):
    """Layer 0's scores of ``x`` under ``batch``, as ``encode`` computes them."""
    labels = np.expand_dims(batch.labels, -3)
    terms = first_layer(x, params, cfg).terms
    rows = _node_rows(labels, terms.q_table, terms.q_table.shape[-1])
    return _scores(terms, labels, rows, cfg.d // cfg.heads, batch.key_mask())


def head_columns(h, cfg):
    d_head = cfg.d // cfg.heads
    return slice(h * d_head, (h + 1) * d_head)


class TestScoreOp:
    """The score chain as one op: loop oracles, central differences, and
    the bits of the chain of generic ops it replaces."""

    @pytest.mark.parametrize("use_key_term", [True, False])
    @pytest.mark.parametrize("lengths", [(5,), (4, 2, 5)])
    def test_against_double_loop_oracle(self, lengths, use_key_term):
        _, params, cfg, x, batch = fused_op_case(11, lengths, use_key_term)
        e = layer0_scores(x, batch, params, cfg).data
        layer, rel = params.layers[0], params.rel
        for b, n in enumerate(batch.lengths):
            for h in range(cfg.heads):
                cols = head_columns(h, cfg)
                oracle = graph_attention_scores_loop(
                    x.data[b, :n], layer.w_q.data[:, cols], layer.w_k.data[:, cols],
                    rel.query_rel.data[:, cols], rel.key_rel.data[:, cols],
                    batch.labels[b, :n, :n], use_key_term=use_key_term)
                assert_allclose(e[b, h, :n, :n], oracle, rtol=0, atol=1e-12)
                assert np.all(e[b, h, :, n:] == -np.inf)

    @pytest.mark.parametrize("use_key_term", [True, False])
    @pytest.mark.parametrize("lengths", [(5,), (4, 2, 5)])
    def test_gradients(self, lengths, use_key_term):
        registry, params, cfg, x, batch = fused_op_case(12, lengths, use_key_term)
        c = Tensor(np.random.default_rng(13).normal(
            size=(len(lengths), cfg.heads, batch.n, batch.n)))

        def fn():
            return tensor_sum(mul(softmax_rows(layer0_scores(x, batch, params, cfg)), c))

        report = grad_check(fn, registry, eps=1e-5, threshold=1e-4)
        assert report.passed, report.max_errors

    def test_bits_of_the_generic_chain(self):
        # the op replaced gathers from the flat tables, two adds, a scaling
        # and the key mask's add: same output, same input gradients
        _, params, cfg, x, batch = fused_op_case(14, (4, 2, 5))
        labels = np.expand_dims(batch.labels, -3)
        terms = first_layer(x, params, cfg).terms
        rows = _node_rows(labels, terms.q_table, terms.q_table.shape[-1])
        weights = Tensor(np.random.default_rng(15).normal(size=terms.qk.shape))
        runs = []
        for fused in (True, False):
            leaves = [Tensor(t.data.copy(), requires_grad=True)
                      for t in (terms.qk, terms.q_table, terms.k_table)]
            qk, q_table, k_table = leaves
            record = Record()
            with recording(record):
                if fused:
                    e = _scores(LayerTerms(qk, q_table, k_table, None), labels, rows,
                                cfg.d // cfg.heads, batch.key_mask())
                else:
                    e = qk
                    for table, cells in ((q_table, rows + labels),
                                         (k_table, np.swapaxes(rows, -1, -2) + labels)):
                        flat = reshape(table, (table.data.size,))
                        e = add(e, gather_rows(flat, cells))
                    e = mul(e, Tensor(1.0 / np.sqrt(cfg.d // cfg.heads)))
                    e = add(e, Tensor(batch.key_mask()))
                nodes = len(record)
                loss = tensor_sum(mul(softmax_rows(e), weights))
            backward(loss, record)
            runs.append((nodes, e.data.tobytes(), [t.grad.tobytes() for t in leaves]))
        assert runs[0][0] == 1 and runs[1][0] == 8
        assert runs[0][1:] == runs[1][1:]


class TestValueOp:
    """The value chain as one op: loop oracles and central differences."""

    @staticmethod
    def _alpha(seed, batch, heads):
        # attention weights that give padding keys nothing, as encode's do
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(len(batch), heads, batch.n, batch.n))
        if batch.key_mask() is not None:
            logits = logits + batch.key_mask()
        return softmax_rows(Tensor(logits)).data

    @staticmethod
    def _values_of(alpha, x, batch, params, cfg):
        labels = np.expand_dims(batch.labels, -3)
        rel, terms = first_layer(x, params, cfg)
        rows = _node_rows(labels, terms.q_table, terms.q_table.shape[-1])
        return _values(alpha, terms.v, labels, rows, rel.value)

    @pytest.mark.parametrize("use_value_term", [True, False])
    @pytest.mark.parametrize("lengths", [(5,), (4, 2, 5)])
    def test_against_double_loop_oracle(self, lengths, use_value_term):
        _, params, cfg, x, batch = fused_op_case(21, lengths,
                                                 use_value_term=use_value_term)
        alpha = self._alpha(22, batch, cfg.heads)
        z = self._values_of(Tensor(alpha), x, batch, params, cfg).data
        layer, rel = params.layers[0], params.rel
        for b, n in enumerate(batch.lengths):
            for h in range(cfg.heads):
                cols = head_columns(h, cfg)
                oracle = graph_attention_values_loop(
                    alpha[b, h, :n, :n], x.data[b, :n], layer.w_v.data[:, cols],
                    rel.value_rel.data[:, cols], batch.labels[b, :n, :n],
                    use_value_term=use_value_term)
                assert_allclose(z[b, h, :n], oracle, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("use_value_term", [True, False])
    @pytest.mark.parametrize("lengths", [(5,), (4, 2, 5)])
    def test_gradients(self, lengths, use_value_term):
        # alpha is a leaf here, so its gradient is checked directly: the
        # histogram's gathered gradient plus g v'
        registry, params, cfg, x, batch = fused_op_case(23, lengths,
                                                        use_value_term=use_value_term)
        alpha = registry.parameter("alpha", (len(lengths), cfg.heads, batch.n, batch.n),
                                   np.random.default_rng(24), std=1.0)
        c = Tensor(np.random.default_rng(25).normal(
            size=(len(lengths), cfg.heads, batch.n, cfg.d // cfg.heads)))

        def fn():
            return tensor_sum(mul(self._values_of(alpha, x, batch, params, cfg), c))

        report = grad_check(fn, registry, eps=1e-5, threshold=1e-4)
        assert report.passed, report.max_errors


# the chains of generic ops that each sublayer op replaced


def generic_project_heads(x, w, heads):
    return _split_heads(matmul(x, w), heads)


def generic_qk(q, k):
    return matmul(q, transpose(k))


def generic_attention_output(heads, x, layer):
    r = x.data.ndim - 2
    merged = reshape(transpose(heads, (*range(r), r + 1, r, r + 2)), x.shape)
    return layer_norm(add(x, matmul(merged, layer.w_o)), layer.attn_gain, layer.attn_bias)


def generic_feed_forward(x, layer):
    hidden = relu(add(matmul(x, layer.ffn_w1), layer.ffn_b1))
    return layer_norm(add(x, add(matmul(hidden, layer.ffn_w2), layer.ffn_b2)),
                      layer.ffn_gain, layer.ffn_bias)


def generic_encode(x, graph, params, cfg):
    """``encode`` with every sublayer op as the chain of generic ops it
    replaced."""
    labels = np.expand_dims(graph.labels, -3)
    padding = graph.key_mask() if isinstance(graph, GraphBatch) else None
    rel = params.rel.heads(cfg)
    rows = None
    for layer in params.layers:
        q, k, v = (generic_project_heads(x, w, cfg.heads)
                   for w in (layer.w_q, layer.w_k, layer.w_v))
        terms = LayerTerms(generic_qk(q, k), matmul(q, rel.query),
                           None if rel.key is None else matmul(k, rel.key), v)
        if rows is None:
            rows = _node_rows(labels, terms.q_table, terms.q_table.shape[-1])
        alpha = softmax_rows(_scores(terms, labels, rows, cfg.d // cfg.heads, padding))
        x = generic_attention_output(_values(alpha, terms.v, labels, rows, rel.value),
                                     x, layer)
        x = generic_feed_forward(x, layer)
    return x


SUBLAYER_CFG = G2GLayerConfig(d=8, heads=2, d_ff=12, n_layers=1)
D_HEAD = SUBLAYER_CFG.d // SUBLAYER_CFG.heads

# each op: its inputs' shapes past the leading axes, the op, the chain it
# replaced, and the number of nodes that chain recorded
SUBLAYER_OPS = {
    "project_heads": (
        {"x": (5, 8)},
        lambda t, layer: _project_heads(t["x"], layer.w_q, SUBLAYER_CFG.heads),
        lambda t, layer: generic_project_heads(t["x"], layer.w_q, SUBLAYER_CFG.heads),
        3),
    "qk": (
        {"q": (2, 5, D_HEAD), "k": (2, 5, D_HEAD)},
        lambda t, layer: _qk(t["q"], t["k"]),
        lambda t, layer: generic_qk(t["q"], t["k"]),
        2),
    "attention_output": (
        {"heads": (2, 5, D_HEAD), "x": (5, 8)},
        lambda t, layer: _attention_output(t["heads"], t["x"], layer),
        lambda t, layer: generic_attention_output(t["heads"], t["x"], layer),
        5),
    "feed_forward": (
        {"x": (5, 8)},
        lambda t, layer: _feed_forward(t["x"], layer),
        lambda t, layer: generic_feed_forward(t["x"], layer),
        7),
}


def sublayer_case(op, lead, seed):
    """A layer's parameters and the op's inputs, all in one registry, with
    non-trivial norm gains and biases; the op's inputs by name; and fixed
    weights for a loss that reads the op's output and each of its inputs."""
    shapes = SUBLAYER_OPS[op][0]
    registry, params = build_encoder(SUBLAYER_CFG, 4, seed)
    rescale_parameters(registry, 0.5)
    rng = np.random.default_rng(seed)
    for p in registry:
        if "norm" in p.name:
            p.tensor.data[:] = rng.normal(size=p.tensor.shape)
    inputs = {name: registry.parameter(name, (*lead, *shape), rng, std=1.0)
              for name, shape in shapes.items()}
    weights = {name: Tensor(rng.normal(size=t.shape)) for name, t in inputs.items()}
    return registry, params.layers[0], inputs, weights


def sublayer_loss(out, inputs, weights, rng):
    """A loss that reads the op's output, then every input: the inputs'
    own terms reach their gradients first, as a later reader's would."""
    loss = tensor_sum(mul(out, Tensor(rng.normal(size=out.shape))))
    for name, t in inputs.items():
        loss = add(loss, tensor_sum(mul(t, weights[name])))
    return loss


def grad_bytes(registry):
    return [(p.name, None if p.tensor.grad is None else p.tensor.grad.tobytes())
            for p in registry]


class TestSublayerOps:
    """Each chain of an encoder layer as one op: the bits of the chain of
    generic ops it replaced, recorded and not, and central differences."""

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["sentence", "batch"])
    @pytest.mark.parametrize("op", sorted(SUBLAYER_OPS))
    def test_bits_of_the_generic_chain(self, op, lead):
        _, fused, generic, chain_nodes = SUBLAYER_OPS[op]
        runs = []
        for build in (fused, generic):
            registry, layer, inputs, weights = sublayer_case(op, lead, 40)
            unrecorded = build(inputs, layer).data.tobytes()
            record = Record()
            with recording(record):
                out = build(inputs, layer)
                nodes = len(record)
                loss = sublayer_loss(out, inputs, weights, np.random.default_rng(41))
            backward(loss, record)
            assert out.data.tobytes() == unrecorded
            runs.append((nodes, out.data.tobytes(), grad_bytes(registry)))
        assert runs[0][0] == 1 and runs[1][0] == chain_nodes
        assert runs[0][1:] == runs[1][1:]

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["sentence", "batch"])
    @pytest.mark.parametrize("op", sorted(SUBLAYER_OPS))
    def test_gradients(self, op, lead):
        fused = SUBLAYER_OPS[op][1]
        registry, layer, inputs, weights = sublayer_case(op, lead, 42)

        def fn():
            return sublayer_loss(fused(inputs, layer), inputs, weights,
                                 np.random.default_rng(43))

        report = grad_check(fn, registry, eps=1e-5, threshold=1e-4)
        assert report.passed, report.max_errors

    @pytest.mark.parametrize("use_key_term, use_value_term",
                             [(True, True), (False, True), (True, False)])
    @pytest.mark.parametrize("lengths", [None, (4, 2, 5)], ids=["sentence", "padded"])
    def test_encoder_bits_of_the_generic_chain(self, lengths, use_key_term,
                                               use_value_term):
        # two layers, so a layer's input reaches its residual and its three
        # projections, and their gradients add up in the chain's order
        cfg = G2GLayerConfig(d=8, heads=2, d_ff=12, n_layers=2,
                             use_key_term=use_key_term, use_value_term=use_value_term)
        rng = np.random.default_rng(44)
        if lengths is None:
            graph, shape = random_graph(rng, 5, 4), (5, cfg.d)
        else:
            graph = GraphBatch([random_graph(rng, n, 4) for n in lengths])
            shape = (len(lengths), graph.n, cfg.d)
        weights = Tensor(rng.normal(size=shape))
        runs = []
        for run in (encode, generic_encode):
            registry, params = build_encoder(cfg, 4, 45)
            rescale_parameters(registry, 0.5)
            x = registry.parameter("x", shape, np.random.default_rng(46), std=1.0)
            unrecorded = run(x, graph, params, cfg).data.tobytes()
            record = Record()
            with recording(record):
                z = run(x, graph, params, cfg)
                loss = tensor_sum(mul(z, weights))
            backward(loss, record)
            assert z.data.tobytes() == unrecorded
            runs.append((z.data.tobytes(), grad_bytes(registry)))
        assert runs[0] == runs[1]
