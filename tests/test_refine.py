"""Refinement loop, stage schedule, per-cell loss, training step."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from g2gt import autodiff
from g2gt.autodiff import Record, Tensor, add, backward, recording
from g2gt.errors import DataError, TrainingError, UsageError
from g2gt.graphs import (COREF_VOCAB, DepTree, GraphBatch, LabeledGraph,
                         RelationVocab, dep_tree_to_graph, empty_graph, graph_equals,
                         graph_to_dep_tree)
from g2gt.model import DependencyParserModel, MentionCorefModel, ModelConfig
from g2gt.optim import ParameterRegistry, adam_step, grad_check
from g2gt.refine import (RefinementConfig, graph_nll, refine, refine_batch,
                         refinement_loss, stage_mask, train_refinement_step)
from g2gt.config import RunConfig
from g2gt.conllu import Sentence, load_conllu
from g2gt.training import BUCKET_CELLS, length_buckets, parse_corpus, train
from g2gt.vocab import Vocab, build_vocabs

from oracles import random_tree, rescale_parameters

SMALL = ModelConfig(d=16, heads=2, d_ff=32, layers=1, d_edge=8, max_len=32)


def parser_fixture(seed=0):
    vocab = Vocab.from_forms(["the", "dog", "barks", "cat", "sleeps"])
    rel_vocab = RelationVocab.from_deprels(["det", "nsubj", "root"])
    return DependencyParserModel(SMALL, vocab, rel_vocab, seed=seed)


class ConstantModel:
    """Stub whose decode always returns the same graph."""

    rel_vocab = COREF_VOCAB
    scope = "lower"

    def __init__(self, graph):
        self.graph = graph

    decode_labels = np.arange(3)

    def scorer(self, batch, labels=None):
        n = self.graph.n

        def score(graphs):
            return Tensor(np.zeros((len(graphs), n, n, 3)))

        score.sizes = [n] * len(batch)
        return score

    def decode(self, slab):
        return self.graph


def stage_masked(slab, model, t, cfg):
    """A decode slab with the columns outside iteration t's stage mask at -inf."""
    allowed = stage_mask(t, cfg.schedule, model.rel_vocab)
    if allowed is None:
        return slab
    return np.where(np.isin(model.decode_labels, list(allowed)), slab, -np.inf)


def reference_refine(tokens, model, cfg):
    """The refinement loop without a shared scorer: every iteration builds
    a new one, so embeds the sentence again, scores every label and
    decodes the decoder's columns of those scores."""
    g = empty_graph(len(model.ids(tokens)))
    steps = [(0, g, False)]
    for t in range(1, cfg.t_max + 1):
        slab = model.scorer([tokens])([g]).data[0][..., model.decode_labels]
        new_graph = model.decode(stage_masked(slab, model, t, cfg))
        converged = graph_equals(new_graph, g)
        steps.append((t, new_graph, converged))
        g = new_graph
        if converged and cfg.stop_on_convergence:
            break
    return g, steps


def assert_same_trace(trace, steps):
    assert [(s.t, s.converged) for s in trace.steps] == [(t, c) for t, _, c in steps]
    for step, (_, graph, _) in zip(trace.steps, steps):
        assert np.array_equal(step.graph.labels, graph.labels)


class TestRefineLoop:
    def test_t_max_one_runs_exactly_one_pass(self):
        model = parser_fixture()
        _, trace = refine(["the", "dog"], model, RefinementConfig(t_max=1))
        assert [s.t for s in trace.steps] == [0, 1]

    def test_constant_model_converges_at_t2(self):
        target = np.zeros((3, 3), dtype=int)
        target[1, 0] = 1
        model = ConstantModel(LabeledGraph(target))
        final, trace = refine([1, 2, 3], model, RefinementConfig(t_max=5))
        assert [s.t for s in trace.steps] == [0, 1, 2]
        assert not trace.steps[1].converged
        assert trace.steps[2].converged
        assert graph_equals(final, model.graph)

    def test_trace_matches_manual_unrolling(self):
        model = parser_fixture(seed=3)
        forms = ["the", "dog", "barks"]
        cfg = RefinementConfig(t_max=3)
        final, trace = refine(forms, model, cfg)
        expected_final, steps = reference_refine(forms, model, cfg)
        assert_same_trace(trace, steps)
        assert graph_equals(final, expected_final)

    def test_empty_input_rejected(self):
        with pytest.raises(DataError, match="empty"):
            refine([], parser_fixture(), RefinementConfig())

    def test_trace_determinism(self):
        model = parser_fixture(seed=9)
        forms = ["the", "cat", "sleeps"]
        _, t1 = refine(forms, model, RefinementConfig())
        _, t2 = refine(forms, model, RefinementConfig())
        assert len(t1.steps) == len(t2.steps)
        for a, b in zip(t1.steps, t2.steps):
            assert a.t == b.t and a.converged == b.converged
            assert np.array_equal(a.graph.labels, b.graph.labels)

    def test_convergence_is_a_fixed_point(self):
        # whenever the loop reports convergence, one forced extra
        # iteration must not change the graph
        model = parser_fixture(seed=4)
        forms = ["the", "dog", "barks"]
        final, trace = refine(forms, model, RefinementConfig(t_max=6))
        if trace.converged:
            forced, forced_trace = refine(
                forms, model,
                RefinementConfig(t_max=trace.iterations + 1,
                                 stop_on_convergence=False))
            assert graph_equals(forced_trace.steps[trace.iterations].graph, final)
            assert graph_equals(forced, final)


class TestStageMask:
    def test_first_iteration_excludes_coref(self):
        allowed = stage_mask(1, "mention-first", COREF_VOCAB)
        assert allowed == frozenset({0, 1})
        assert 2 not in allowed

    def test_second_iteration_allows_everything(self):
        assert stage_mask(2, "mention-first", COREF_VOCAB) is None

    def test_full_graph_schedule_never_masks(self):
        for t in (1, 2, 5):
            assert stage_mask(t, "full-graph", COREF_VOCAB) is None

    def test_vocab_mismatch_rejected(self):
        with pytest.raises(UsageError, match="NONE/MENTION/COREF"):
            stage_mask(1, "mention-first", RelationVocab.from_deprels(["det"]))

    def test_first_iteration_never_emits_coref(self):
        cfg = RefinementConfig(t_max=1, schedule="mention-first")
        for seed in range(40):
            model = MentionCorefModel(
                ModelConfig(d=8, heads=2, d_ff=16, layers=1, d_edge=4, max_len=16),
                n_embeddings=12, seed=seed)
            rescale_parameters(model.registry, 0.5)
            tokens = list(np.random.default_rng(seed).integers(0, 12, size=6))
            graph, _ = refine(tokens, model, cfg)
            assert not np.any(graph.labels == 2), f"seed {seed}"


def uniform_scores(n, n_labels):
    return Tensor(np.zeros((1, n, n, n_labels)))


def padded_gold(rng, scope, n_labels):
    """Graphs of 4, 2 and 3 nodes padded to 4, with random labels in scope."""
    graphs = []
    for n in (4, 2, 3):
        labels = rng.integers(0, n_labels, size=(n, n))
        np.fill_diagonal(labels, 0)
        graphs.append(LabeledGraph(np.tril(labels) if scope == "lower" else labels))
    return GraphBatch(graphs)


def chain_nll(x, gold, scope):
    """The loss and its score gradient as the unfused chain made them:
    log-softmax rows, a flat gather of the gold cells, sum and negation,
    then each op's backward in reverse."""
    n_labels = x.shape[1]
    scope_cells = ~np.eye(gold.n, dtype=bool) if scope == "full" else np.tri(gold.n) > 0
    in_scope = gold.real_cells() & scope_cells
    cells = np.flatnonzero(in_scope) * n_labels + gold.labels[in_scope]
    shifted = x - np.maximum.reduce(x, axis=1, keepdims=True)
    log_z = np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))
    log_p = shifted - log_z
    soft = np.exp(log_p)
    loss = -np.add.reduce(log_p.reshape(-1)[cells])
    g_gathered = np.broadcast_to(-np.ones(()), cells.shape).copy()
    g_flat = np.zeros(x.size)
    np.add.at(g_flat, cells, g_gathered)
    g_log_p = g_flat.reshape(x.shape)
    return loss, g_log_p - soft * np.add.reduce(g_log_p, axis=1, keepdims=True)


class TestGraphLogLikelihood:
    def test_in_scope_row_gradients_sum_to_zero_and_others_are_zero(self):
        rng = np.random.default_rng(0)
        gold = padded_gold(rng, "lower", 5)
        scores = Tensor(rng.normal(size=(len(gold), 4, 4, 5)), requires_grad=True)
        record = Record()
        with recording(record):
            loss = graph_nll(scores, gold, "lower")
        backward(loss, record)
        in_scope = np.tri(4, dtype=bool) & gold.real_cells()
        assert_allclose(scores.grad[in_scope].sum(axis=1), 0.0, rtol=0, atol=1e-12)
        assert not np.any(scores.grad[~in_scope])

    @pytest.mark.parametrize("scope", ["full", "lower"])
    def test_bit_identical_to_the_unfused_chain(self, scope):
        rng = np.random.default_rng(3)
        gold = padded_gold(rng, scope, 6)
        x = rng.normal(scale=2.0, size=(len(gold) * 16, 6))
        expected_loss, expected_grad = chain_nll(x, gold, scope)
        scores = Tensor(x.reshape(len(gold), 4, 4, 6), requires_grad=True)
        record = Record()
        with recording(record):
            loss = graph_nll(scores, gold, scope)
        backward(loss, record)
        assert float.hex(loss.item()) == float.hex(float(expected_loss))
        assert scores.grad.tobytes() == expected_grad.tobytes()

    @pytest.mark.parametrize("scope", ["full", "lower"])
    def test_grad_check(self, scope):
        rng = np.random.default_rng(4)
        gold = padded_gold(rng, scope, 3)
        registry = ParameterRegistry()
        scores = registry.parameter("scores", (len(gold), 4, 4, 3), rng, std=1.0)
        report = grad_check(lambda: graph_nll(scores, gold, scope),
                            registry, eps=1e-5)
        assert report.passed, report.max_errors

    def test_one_hot_on_gold_gives_zero(self):
        gold = empty_graph(3)
        raw = np.full((1, 3, 3, 3), -1e9)
        raw[..., 0] = 0.0  # certain NONE everywhere
        nll = graph_nll(Tensor(raw), GraphBatch([gold]), "full")
        assert nll.item() == 0.0

    def test_uniform_closed_form(self):
        # 3 labels, lower scope on n=3 has 6 in-scope cells
        nll = graph_nll(uniform_scores(3, 3), GraphBatch([empty_graph(3)]), "lower").item()
        assert nll == pytest.approx(6 * np.log(3.0))
        # full scope on n=3 has 6 off-diagonal cells
        nll = graph_nll(uniform_scores(3, 3), GraphBatch([empty_graph(3)]), "full").item()
        assert nll == pytest.approx(6 * np.log(3.0))

    def test_matches_per_cell_oracle(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(3, 3, 4))
        scores = Tensor(raw[None])
        labels = np.array([[0, 0, 2], [1, 0, 0], [3, 2, 0]])
        gold = LabeledGraph(labels)
        got = -graph_nll(scores, GraphBatch([gold]), "full").item()

        expected = 0.0
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                cell = raw[i, j]
                log_probs = cell - np.log(np.exp(cell - cell.max()).sum()) - cell.max()
                expected += log_probs[labels[i, j]]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_never_positive(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            raw = rng.normal(scale=3.0, size=(1, 4, 4, 3))
            labels = rng.integers(0, 3, size=(4, 4))
            labels = np.tril(labels)
            np.fill_diagonal(labels, 0)
            ll = -graph_nll(Tensor(raw), GraphBatch([LabeledGraph(labels)]),
                            "lower").item()
            assert ll < 0.0

    def test_labeled_cell_outside_scope_rejected(self):
        labels = np.zeros((3, 3), dtype=int)
        labels[0, 2] = 1  # upper triangle
        gold = LabeledGraph(labels)
        with pytest.raises(DataError, match="no distribution"):
            graph_nll(uniform_scores(3, 3), GraphBatch([gold]), "lower")

    def test_size_mismatch_rejected(self):
        with pytest.raises(DataError, match="nodes"):
            graph_nll(uniform_scores(3, 3), GraphBatch([empty_graph(4)]), "full")


class TestTrainingStep:
    def _batch(self, model):
        rel = model.rel_vocab
        s1 = (["the", "dog", "barks"],
              dep_tree_to_graph(DepTree([2, 3, 0], ["det", "nsubj", "root"]), rel))
        s2 = (["the", "cat", "sleeps"],
              dep_tree_to_graph(DepTree([2, 3, 0], ["det", "nsubj", "root"]), rel))
        return [s1, s2]

    def test_t_train_1_equals_single_pass_loss(self):
        model = parser_fixture(seed=1)
        batch = self._batch(model)
        loss_refined = refinement_loss(batch, model, RefinementConfig(t_train=1))
        manual = 0.0
        for forms, gold in batch:
            scores = model.scorer([forms])([empty_graph(gold.n)])
            manual += graph_nll(scores, GraphBatch([gold]), "full").item()
        assert loss_refined.item() == pytest.approx(manual, rel=1e-12)

    def test_loss_decreases_over_50_steps(self):
        model = parser_fixture(seed=2)
        batch = self._batch(model)
        cfg = RefinementConfig(t_train=2)
        losses = []
        for _ in range(50):
            model.registry.zero_grad()
            losses.append(train_refinement_step(batch, model, cfg))
            adam_step(model.registry, lr=3e-3)
        assert all(np.isfinite(losses))
        assert losses[-1] < 0.5 * losses[0]

    def test_gradcheck_through_two_iterations(self):
        vocab = Vocab.from_forms(["a", "b", "c", "d"])
        rel_vocab = RelationVocab.from_deprels(["x"])  # NONE, UNK, x up, x down
        cfg = ModelConfig(d=8, heads=2, d_ff=16, layers=1, d_edge=4, max_len=16)
        model = DependencyParserModel(cfg, vocab, rel_vocab, seed=0)
        rescale_parameters(model.registry, 0.5)
        forms = ["a", "b", "c", "d"]
        gold = dep_tree_to_graph(DepTree([0, 1, 1, 3], ["x", "x", "x", "x"]),
                                 rel_vocab)
        refinement = RefinementConfig(t_train=2)

        report = grad_check(lambda: refinement_loss([(forms, gold)], model, refinement),
                            model.registry, eps=1e-5)
        assert report.passed, report.max_errors


def coref_fixture(seed=0):
    model = MentionCorefModel(
        ModelConfig(d=8, heads=2, d_ff=16, layers=1, d_edge=4, max_len=16),
        n_embeddings=12, seed=seed)
    rescale_parameters(model.registry, 0.5)
    return model


def coref_gold(rng, n):
    labels = np.tril(rng.integers(0, 3, size=(n, n)))
    np.fill_diagonal(labels, 0)
    return LabeledGraph(labels)


def fresh_scorer_loss(batch, model, cfg):
    """``refinement_loss`` with a new scorer at every iteration, so that no
    embedding or layer-0 term is shared across iterations."""
    tokens = [forms for forms, _ in batch]
    gold = GraphBatch([g for _, g in batch])
    graphs = [empty_graph(g.n) for _, g in batch]
    total = None
    for t in range(1, cfg.t_train + 1):
        scores = model.scorer(tokens)(graphs)
        loss_t = graph_nll(scores, gold, model.scope)
        total = loss_t if total is None else add(total, loss_t)
        cells = scores.data
        graphs = [model.decode(stage_masked(cells[b, :g.n, :g.n][..., model.decode_labels],
                                            model, t, cfg))
                  for b, g in enumerate(graphs)]
    return total


def record_decodes(model):
    """Wrap ``model``'s scorer and decode.  Returns two lists that refining
    then fills: each pass's (B, n, n, labels) scores with a copy of their
    bytes, and each decoded slab with the index of its pass."""
    scorer, decode = model.scorer, model.decode
    passes, slabs = [], []

    def traced_scorer(tokens, labels=None):
        score = scorer(tokens, labels)

        def traced_score(graphs):
            scores = score(graphs)
            passes.append((scores.data, scores.data.tobytes()))
            return scores

        traced_score.sizes = score.sizes
        return traced_score

    def recorded_decode(slab):
        slabs.append((len(passes) - 1, slab))
        return decode(slab)

    model.scorer, model.decode = traced_scorer, recorded_decode
    return passes, slabs


def loss_and_gradients(batch, model, cfg, loss_fn=refinement_loss):
    model.registry.zero_grad()
    record = Record()
    with recording(record):
        loss = loss_fn(batch, model, cfg)
    backward(loss, record)
    grads = {p.name: (np.zeros_like(p.tensor.data) if p.tensor.grad is None
                      else p.tensor.grad.copy()) for p in model.registry}
    return loss.item(), grads


class TestPaddedBatch:
    def _parser_batch(self, model):
        rel = model.rel_vocab
        return [
            (["the", "dog", "barks"],
             dep_tree_to_graph(DepTree([2, 3, 0], ["det", "nsubj", "root"]), rel)),
            (["cat", "sleeps"],
             dep_tree_to_graph(DepTree([2, 0], ["nsubj", "root"]), rel)),
            (["the", "cat", "the", "dog", "sleeps"],
             dep_tree_to_graph(DepTree([2, 5, 4, 2, 0],
                                       ["det", "nsubj", "det", "nsubj", "root"]), rel)),
        ]

    def _model_batch_config(self, kind):
        if kind == "parser":
            model = parser_fixture(seed=6)
            rescale_parameters(model.registry, 0.2)
            return model, self._parser_batch(model), RefinementConfig(t_train=2)
        model = coref_fixture(seed=6)
        rng = np.random.default_rng(4)
        batch = [(list(rng.integers(0, 12, size=n)), coref_gold(rng, n))
                 for n in (4, 7, 2)]
        return model, batch, RefinementConfig(t_train=2, schedule="mention-first")

    @pytest.mark.parametrize("kind", ["parser", "coref"])
    def test_equals_sum_of_single_sentence_losses(self, kind):
        model, batch, cfg = self._model_batch_config(kind)
        loss, grads = loss_and_gradients(batch, model, cfg)
        singles = [loss_and_gradients([item], model, cfg) for item in batch]
        assert loss == pytest.approx(sum(l for l, _ in singles), rel=1e-12)
        for name, grad in grads.items():
            assert_allclose(grad, sum(g[name] for _, g in singles), rtol=0, atol=1e-10,
                            err_msg=name)

    @pytest.mark.parametrize("kind", ["parser", "coref"])
    def test_shared_scorer_equals_a_fresh_scorer_per_iteration(self, kind):
        # sharing layer 0 across iterations only reorders gradient sums
        model, batch, cfg = self._model_batch_config(kind)
        cfg = RefinementConfig(t_train=3, schedule=cfg.schedule)
        loss, grads = loss_and_gradients(batch, model, cfg)
        fresh_loss, fresh_grads = loss_and_gradients(batch, model, cfg, fresh_scorer_loss)
        assert loss == pytest.approx(fresh_loss, rel=1e-12)
        for name, grad in grads.items():
            assert_allclose(grad, fresh_grads[name], rtol=0, atol=1e-10, err_msg=name)

    def test_grad_check_on_unequal_lengths(self):
        vocab = Vocab.from_forms(["a", "b", "c", "d"])
        rel_vocab = RelationVocab.from_deprels(["x"])
        cfg = ModelConfig(d=8, heads=2, d_ff=16, layers=1, d_edge=4, max_len=16)
        model = DependencyParserModel(cfg, vocab, rel_vocab, seed=0)
        rescale_parameters(model.registry, 0.5)
        batch = [(["a", "b", "c", "d"],
                  dep_tree_to_graph(DepTree([0, 1, 1, 3], ["x"] * 4), rel_vocab)),
                 (["d", "a", "c"],
                  dep_tree_to_graph(DepTree([3, 1, 0], ["x"] * 3), rel_vocab))]
        refinement = RefinementConfig(t_train=2)
        report = grad_check(lambda: refinement_loss(batch, model, refinement),
                            model.registry, eps=1e-5)
        assert report.passed, report.max_errors

    def test_gold_size_mismatch_in_second_sentence_rejected(self):
        model = parser_fixture()
        batch = self._parser_batch(model)[:2]
        batch[1] = (batch[1][0], empty_graph(5))
        with pytest.raises(DataError, match="sentence 2 of 2: gold graph has 5 nodes"):
            refinement_loss(batch, model, RefinementConfig())

    def test_out_of_scope_cell_in_second_sentence_rejected(self):
        model = coref_fixture()
        rng = np.random.default_rng(0)
        upper = np.zeros((4, 4), dtype=int)
        upper[1, 3] = 2  # upper triangle: no distribution under scope "lower"
        batch = [([1, 2, 3], coref_gold(rng, 3)), ([4, 5, 6, 7], LabeledGraph(upper))]
        with pytest.raises(DataError, match=r"graph 2 of 2: no distribution .*\(1, 3\)"):
            refinement_loss(batch, model, RefinementConfig())

    def test_empty_batch_rejected(self):
        with pytest.raises(DataError, match="empty batch"):
            refinement_loss([], parser_fixture(), RefinementConfig())

    def test_single_sentence_scores_match_the_batch(self):
        model = parser_fixture(seed=2)
        batch = self._parser_batch(model)
        graphs = [empty_graph(len(forms) + 1) for forms, _ in batch]
        scores = model.scorer([forms for forms, _ in batch])(graphs)
        for b, ((forms, _), graph) in enumerate(zip(batch, graphs)):
            alone = model.scorer([forms])([graph]).data[0]
            assert_allclose(scores.data[b, :graph.n, :graph.n], alone,
                            rtol=0, atol=1e-12)

    def test_decode_reads_read_only_views_of_each_pass(self):
        # each sentence of a padded bucket is decoded from its own block of
        # that pass's scores, in place, whether or not it fills the bucket
        model = parser_fixture(seed=2)
        batch = [forms for forms, _ in self._parser_batch(model)]
        passes, slabs = record_decodes(model)
        refine_batch(batch, model, RefinementConfig(t_max=2, stop_on_convergence=False))
        sizes = [len(forms) + 1 for forms in batch]
        assert len(set(sizes)) == len(sizes) and len(passes) == 2
        assert [p for p, _ in slabs] == [0] * len(batch) + [1] * len(batch)
        up = len(model.rel_vocab.up_indices())
        for k, (p, slab) in enumerate(slabs):
            b = k % len(batch)
            n = sizes[b]
            cells = passes[p][0]
            assert cells.shape == (len(batch), max(sizes), max(sizes), up)
            assert not slab.flags.writeable and np.shares_memory(slab, cells)
            assert slab.shape == (n, n, up) and np.array_equal(slab, cells[b, :n, :n])

    def test_training_decodes_read_only_slabs(self):
        # training decodes a copy of the decode columns; its slabs are
        # read-only all the same, unmasked (parser) or masked (coref, t=1)
        for kind in ("parser", "coref"):
            model, batch, cfg = self._model_batch_config(kind)
            decode, slabs = model.decode, []

            def recorded_decode(slab):
                slabs.append(slab)
                return decode(slab)

            model.decode = recorded_decode
            with recording(Record()):
                refinement_loss(batch, model, cfg)
            assert cfg.t_train == 2 and len(slabs) == len(batch), kind
            assert not any(slab.flags.writeable for slab in slabs), kind

    def test_stage_mask_is_applied_to_a_read_only_copy_of_the_pass(self):
        # mention-first: iteration 1 decodes each sentence from one masked
        # copy of its pass, with COREF at -inf; iteration 2 reads the pass
        model = coref_fixture(seed=6)
        rng = np.random.default_rng(4)
        sizes = [4, 7, 2]
        batch = [list(rng.integers(0, 12, size=n)) for n in sizes]
        passes, slabs = record_decodes(model)
        refine_batch(batch, model, RefinementConfig(t_max=2, schedule="mention-first",
                                                    stop_on_convergence=False))
        assert len(passes) == 2
        assert [p for p, _ in slabs] == [0] * len(batch) + [1] * len(batch)
        for k, (p, slab) in enumerate(slabs):
            scores, before = passes[p]
            n = sizes[k % len(batch)]
            block = scores[k % len(batch), :n, :n]
            assert np.all(np.isfinite(block))
            assert slab.shape == (n, n, 3) and not slab.flags.writeable
            if p == 0:
                assert not np.shares_memory(slab, scores)
                assert np.all(slab[..., 2] == -np.inf)
                assert np.array_equal(slab[..., :2], block[..., :2])
            else:
                assert np.shares_memory(slab, scores) and np.array_equal(slab, block)
            assert scores.tobytes() == before

    def test_tape_budget(self):
        # the figures before batching: 108 nodes for one sentence's scores,
        # 451 for a two-sentence step at t_train=2; 213 for that step before
        # its iterations shared one scorer; 108 and 191 before the score,
        # value and biaffine chains were one op each; 125 before the loss
        # was one op
        corpus = load_conllu(Path(__file__).parent / "fixtures" / "toy_treebank.conllu")
        tokens, relations = build_vocabs(corpus)
        model = DependencyParserModel(
            ModelConfig(d=64, heads=4, d_ff=128, layers=2, d_edge=32, max_len=32),
            tokens, relations, seed=42)
        record = Record()
        with recording(record):
            model.scorer([corpus[0].forms])([empty_graph(corpus[0].n + 1)])
        assert len(record) <= 68
        batch = [(s.forms, dep_tree_to_graph(s.tree, relations)) for s in corpus[4:6]]
        assert batch[0][1].n != batch[1][1].n      # padded, so the masks count
        record = Record()
        with recording(record):
            refinement_loss(batch, model, RefinementConfig(t_train=2))
        assert len(record) <= 117


FIXTURE = Path(__file__).parent / "fixtures" / "toy_treebank.conllu"
GATE = ModelConfig(d=64, heads=4, d_ff=128, layers=2, d_edge=32, max_len=64)


def fixture_parser():
    """The gate configuration over the toy treebank's vocabularies."""
    tokens, relations = build_vocabs(load_conllu(FIXTURE))
    return DependencyParserModel(GATE, tokens, relations, seed=42)


def ud_parser(cfg=GATE):
    """37 deprels, so 76 relation labels, as in a UD treebank."""
    vocab = Vocab.from_forms([f"w{i}" for i in range(40)])
    relations = RelationVocab.from_deprels([f"dep{i}" for i in range(37)])
    return DependencyParserModel(cfg, vocab, relations, seed=7)


def random_forms(model, count, rng):
    forms = list(model.token_vocab.tokens)
    return [forms[i] for i in rng.integers(0, len(forms), size=count)]


def random_graph(model, n, rng):
    labels = rng.integers(0, len(model.rel_vocab), size=(n, n))
    np.fill_diagonal(labels, 0)
    return LabeledGraph(labels)


class TestBatchScorer:
    @pytest.mark.parametrize("n", [2, 11, 51])
    @pytest.mark.parametrize("make", [fixture_parser, ud_parser])
    def test_scores_are_the_decode_columns_of_the_full_scores(self, make, n):
        # The products run over fewer columns than the full scorer's, and BLAS
        # may round a product's last columns differently with its column
        # count: a cell may differ by a few units in the last place of the
        # largest score, never by more.
        model = make()
        rng = np.random.default_rng(n)
        forms = random_forms(model, n - 1, rng)
        score = model.scorer([forms], model.decode_labels)
        assert score.sizes == [n]
        for graph in (empty_graph(n), random_graph(model, n, rng)):
            full = model.scorer([forms])([graph]).data[..., model.decode_labels]
            got = score([graph]).data
            assert got.shape == (1, n, n, len(model.rel_vocab.up_indices()))
            assert_allclose(got, full, rtol=0, atol=1e-15 * np.abs(full).max())

    @pytest.mark.parametrize("lengths", [(4,), (10, 7, 10), (25, 12), (50,)])
    def test_recorded_and_unrecorded_scores_bit_identical(self, lengths):
        # training decodes the scores it records, so a recorded pass must run
        # the arithmetic of an unrecorded one on the same memory layouts
        model = ud_parser()
        rescale_parameters(model.registry, 0.3)
        rng = np.random.default_rng(len(lengths) + sum(lengths))
        batch = [random_forms(model, count, rng) for count in lengths]
        graphs = [random_graph(model, count + 1, rng) for count in lengths]
        unrecorded = model.scorer(batch)(graphs).data
        with recording(Record()):
            recorded = model.scorer(batch)(graphs)
        assert recorded.requires_grad
        assert recorded.data.tobytes() == unrecorded.tobytes()

    def test_coref_model_scores_every_label(self):
        model = coref_fixture(seed=1)
        tokens = [3, 1, 4, 1, 5]
        graph = coref_gold(np.random.default_rng(2), 5)
        full = model.scorer([tokens])([graph]).data
        assert np.array_equal(
            model.scorer([tokens], model.decode_labels)([graph]).data, full)

    def test_graph_size_mismatch_rejected(self):
        model = parser_fixture()
        score = model.scorer([["the", "dog"]], model.decode_labels)
        with pytest.raises(DataError, match="conditioning graph has 4 nodes for 3"):
            score([empty_graph(4)])

    def test_too_long_sentence_rejected(self):
        with pytest.raises(DataError, match="exceeds max_len"):
            parser_fixture().scorer([["the"] * SMALL.max_len])


class TestRefineAgainstReference:
    @pytest.mark.parametrize("stop", [True, False])
    def test_parser(self, stop):
        model = ud_parser()
        rescale_parameters(model.registry, 0.3)   # so the graph moves the scores
        cfg = RefinementConfig(t_max=4, stop_on_convergence=stop)
        rng = np.random.default_rng(11)
        changed = 0
        # equal lengths in a row: one sentence's terms must not serve the next
        for n in (4, 4, 11, 11, 26):
            forms = random_forms(model, n, rng)
            final, trace = refine(forms, model, cfg)
            expected, steps = reference_refine(forms, model, cfg)
            assert_same_trace(trace, steps)
            assert graph_equals(final, expected)
            changed += sum(not graph_equals(a.graph, b.graph)
                           for a, b in zip(trace.steps[1:], trace.steps[2:]))
        assert changed > 0      # some iteration conditioned on a new graph

    def test_coref_mention_first(self):
        model = coref_fixture(seed=3)
        cfg = RefinementConfig(t_max=3, schedule="mention-first",
                               stop_on_convergence=False)
        rng = np.random.default_rng(5)
        for n in (6, 6, 9):
            tokens = list(rng.integers(0, 12, size=n))
            _, trace = refine(tokens, model, cfg)
            _, steps = reference_refine(tokens, model, cfg)
            assert_same_trace(trace, steps)
            assert not np.any(trace.steps[1].graph.labels == 2)

    def test_repeated_calls_give_identical_traces(self):
        model = ud_parser()
        rescale_parameters(model.registry, 0.3)
        rng = np.random.default_rng(2)
        first, other = random_forms(model, 11, rng), random_forms(model, 11, rng)
        cfg = RefinementConfig(t_max=3)
        _, before = refine(first, model, cfg)
        refine(other, model, cfg)
        _, after = refine(first, model, cfg)
        assert_same_trace(after, [(s.t, s.graph, s.converged) for s in before.steps])


def assert_same_results(got, expected):
    """Equal final graphs and traces: iterations, converged flags and the
    graph at every step."""
    assert len(got) == len(expected)
    for (graph, trace), (expected_graph, expected_trace) in zip(got, expected):
        assert graph_equals(graph, expected_graph)
        assert_same_trace(trace, [(s.t, s.graph, s.converged)
                                  for s in expected_trace.steps])


@pytest.fixture(scope="module")
def trained_fixture_parser(tmp_path_factory):
    """The gate configuration trained 20 epochs on the toy treebank."""
    config = RunConfig(train_file=str(FIXTURE), seed=42, epochs=20, batch_size=2,
                       lr=2e-3, d=64, heads=4, d_ff=128, layers=2, d_edge=32,
                       t_train=2, t_max=3, max_len=32,
                       model_out=str(tmp_path_factory.mktemp("model") / "m.g2gt"))
    return train(config).model


class TestRefineBatch:
    """Batched refinement gives every sentence what refining it alone gives."""

    @staticmethod
    def assert_parses_as_alone(model, corpus, cfg):
        trees, iterations = parse_corpus(model, corpus, cfg)
        alone = [refine(s.forms, model, cfg) for s in corpus]
        assert trees == [graph_to_dep_tree(g, model.rel_vocab) for g, _ in alone]
        assert iterations == [trace.iterations for _, trace in alone]
        return iterations, alone

    @pytest.mark.parametrize("trained", [False, True])
    def test_parse_corpus_on_the_fixture(self, trained, request):
        model = (request.getfixturevalue("trained_fixture_parser") if trained
                 else fixture_parser())
        corpus = load_conllu(FIXTURE)
        assert len(length_buckets([s.n + 1 for s in corpus])) == 1
        self.assert_parses_as_alone(model, corpus, RefinementConfig(t_max=3))

    @pytest.mark.parametrize("stop", [True, False])
    def test_parse_corpus_on_shuffled_lengths(self, stop):
        model = ud_parser()
        rng = np.random.default_rng(4)
        lengths = rng.permutation(np.arange(1, 41))
        corpus = [Sentence(random_forms(model, n, rng), DepTree([None] * n, [None] * n))
                  for n in lengths]
        buckets = length_buckets([n + 1 for n in lengths])
        assert any(lengths[b[0]] != lengths[b[-1]] for b in buckets)   # some pad
        cfg = RefinementConfig(t_max=4, stop_on_convergence=stop)
        iterations, alone = self.assert_parses_as_alone(model, corpus, cfg)
        if stop:
            assert len(set(iterations)) > 1      # some sentences stop before others
        else:
            assert set(iterations) == {4}
        for bucket in buckets:      # every step of every trace, too
            got = refine_batch([corpus[k].forms for k in bucket], model, cfg)
            assert_same_results(got, [alone[k] for k in bucket])

    @pytest.mark.parametrize("stop", [True, False])
    def test_coref_mention_first(self, stop):
        model = coref_fixture(seed=3)
        cfg = RefinementConfig(t_max=3, schedule="mention-first",
                               stop_on_convergence=stop)
        rng = np.random.default_rng(5)
        batch = [list(rng.integers(0, 12, size=n)) for n in (6, 2, 9, 6)]
        got = refine_batch(batch, model, cfg)
        assert_same_results(got, [refine(tokens, model, cfg) for tokens in batch])
        assert not any(np.any(trace.steps[1].graph.labels == 2) for _, trace in got)

    @pytest.mark.parametrize("bad, message", [
        ([], "sentence 5 of 8: no tokens to parse"),
        (["the"] * 32, "sentence 5 of 8: sequence of 33 tokens exceeds max_len=32")])
    def test_bad_sentence_named_by_its_place(self, bad, message, monkeypatch):
        model = parser_fixture()
        corpus = [Sentence(["the", "dog", "barks"][:n], DepTree([0] * n, ["root"] * n))
                  for n in (3, 1, 2, 3, 0, 1, 2, 3)]
        corpus[4] = Sentence(bad, DepTree([0] * len(bad), ["root"] * len(bad)))
        monkeypatch.setattr(model, "scorer", None)      # nothing may be scored
        with pytest.raises(DataError, match=f"^{message}$"):
            parse_corpus(model, corpus, RefinementConfig())

    def test_empty_sentence_in_a_batch_rejected(self):
        with pytest.raises(DataError, match="empty"):
            refine_batch([["the"], []], parser_fixture(), RefinementConfig())


class TestLengthBuckets:
    def test_buckets_stay_within_the_cell_budget(self):
        sizes = list(np.random.default_rng(0).integers(2, 102, size=300))
        buckets = length_buckets(sizes)
        assert sorted(k for b in buckets for k in b) == list(range(len(sizes)))
        assert [sizes[k] for b in buckets for k in b] == sorted(sizes)
        for bucket in buckets:
            n_max = max(sizes[k] for k in bucket)
            assert len(bucket) * n_max ** 2 <= BUCKET_CELLS or len(bucket) == 1
        assert max(map(len, buckets)) > 1

    def test_sentence_over_the_budget_is_alone(self):
        big = int(BUCKET_CELLS ** 0.5) + 1
        assert length_buckets([big, 3, big, 2]) == [[3, 1], [0], [2]]
        assert length_buckets([]) == []


def count_makes(monkeypatch):
    """A counter of ``autodiff._make`` calls: read and reset ``count[0]``."""
    make, count = autodiff._make, [0]

    def counting(*args):
        count[0] += 1
        return make(*args)

    monkeypatch.setattr(autodiff, "_make", counting)
    return count


class TestOpCounts:
    @staticmethod
    def ops_per_iteration(batch, model, count):
        totals = {}
        for t_max in (1, 3):
            count[0] = 0
            refine_batch(batch, model,
                         RefinementConfig(t_max=t_max, stop_on_convergence=False))
            totals[t_max] = count[0]
        return (totals[3] - totals[1]) / 2

    def test_ops_per_refine_iteration(self, monkeypatch):
        # 83 while every iteration split the relation matrices again, 77
        # before the score, value and biaffine chains were one op each
        model = ud_parser()
        forms = random_forms(model, 9, np.random.default_rng(0))    # n = 10
        assert self.ops_per_iteration([forms], model, count_makes(monkeypatch)) <= 46

    def test_ops_per_iteration_do_not_grow_with_the_batch(self, monkeypatch):
        model = ud_parser()
        rng = np.random.default_rng(0)
        same = [random_forms(model, 9, rng) for _ in range(8)]               # n = 10
        mixed = [random_forms(model, n, rng) for n in (9, 3, 7, 9, 1, 5, 8, 2)]
        count = count_makes(monkeypatch)
        one = self.ops_per_iteration(same[:1], model, count)
        assert self.ops_per_iteration(same, model, count) == one
        # a padded batch adds its key mask inside each layer's score op
        assert (self.ops_per_iteration(mixed, model, count)
                == self.ops_per_iteration(mixed[:2], model, count)
                == one)


class TestRefineMemory:
    def test_each_pass_frees_its_scores_before_the_next(self):
        # 2.9 while each pass's scores stayed alive until the next pass had
        # allocated its own
        model = ud_parser(ModelConfig(max_len=128))
        forms = random_forms(model, 100, np.random.default_rng(0))     # n = 101
        cfg = RefinementConfig(t_max=3, stop_on_convergence=False)
        refine(forms, model, cfg)
        tracemalloc.start()
        try:
            refine(forms, model, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        up_scores = 101 * 101 * len(model.decode_labels) * 8
        assert peak < 2.25 * up_scores


class TestTrainingMemory:
    def test_releasing_gradients_changes_no_parameter_gradient(self):
        # backward drops each intermediate's gradient once used; a sweep that
        # keeps them must give the same parameter gradients, bit for bit
        corpus = load_conllu(FIXTURE)
        relations = build_vocabs(corpus)[1]
        batch = [(s.forms, dep_tree_to_graph(s.tree, relations)) for s in corpus[4:6]]
        cfg = RefinementConfig(t_train=2)

        def recorded_loss(model):
            record = Record()
            with recording(record):
                loss = refinement_loss(batch, model, cfg)
            return loss, record

        released, kept = fixture_parser(), fixture_parser()
        loss, released_record = recorded_loss(released)
        backward(loss, released_record)
        loss, kept_record = recorded_loss(kept)
        loss.grad = np.ones_like(loss.data)
        for node in reversed(kept_record._nodes):
            if node.out.grad is not None:
                node.backward_fn(node.out.grad)
        assert len(released_record) == len(kept_record)   # the nodes stay on the record
        assert all(node.out.grad is None for node in released_record._nodes)
        assert any(node.out.grad is not None for node in kept_record._nodes)
        for a, b in zip(released.registry, kept.registry, strict=True):
            assert a.tensor.grad.tobytes() == b.tensor.grad.tobytes(), a.name

    def test_a_ud_sized_step_peaks_below_20_score_arrays(self):
        # 68.8 while the score, value and biaffine chains were many ops whose
        # outputs and gradients all lived until the step ended; 25.4 while the
        # loss chain kept its log-probabilities, a flat copy of them and their
        # exponentials; 21.4 while recorded reshapes, transposes and the
        # biaffine op's transposed blocks were copies
        model = ud_parser()
        deprels = [f"dep{i}" for i in range(37)]
        rng = np.random.default_rng(0)
        batch = []
        for _ in range(4):
            tree = DepTree(*random_tree(rng, 20, deprels))
            batch.append((random_forms(model, 20, rng),
                          dep_tree_to_graph(tree, model.rel_vocab)))
        cfg = RefinementConfig(t_train=2)
        train_refinement_step(batch, model, cfg)
        model.registry.zero_grad()
        tracemalloc.start()
        try:
            train_refinement_step(batch, model, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        scores = 4 * 21 * 21 * len(model.rel_vocab) * 8
        assert peak <= 20 * scores
