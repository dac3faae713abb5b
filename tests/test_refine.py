"""Refinement loop, stage schedule, factored likelihood, training step."""

from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from g2gt.autodiff import Record, Tensor, backward, recording
from g2gt.edges import EdgeScores
from g2gt.errors import DataError, TrainingError, UsageError
from g2gt.graphs import (COREF_VOCAB, DepTree, GraphBatch, LabeledGraph,
                         RelationVocab, dep_tree_to_graph, empty_graph, graph_equals)
from g2gt.model import DependencyParserModel, MentionCorefModel, ModelConfig
from g2gt.optim import Adam, grad_check
from g2gt.refine import (FactoredGraphDistribution, RefinementConfig,
                         graph_log_likelihood, refine, refinement_loss, stage_mask,
                         train_refinement_step)
from g2gt.conllu import load_conllu
from g2gt.vocab import Vocab, build_vocabs

from oracles import rescale_parameters

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

    def graph_size(self, tokens):
        return self.graph.n

    def score(self, tokens, graph):
        n = self.graph.n
        return EdgeScores(Tensor(np.zeros((n * n, 3))), n)

    def decode(self, scores, allowed=None):
        return self.graph


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
        _, trace = refine(forms, model, cfg)

        g = empty_graph(4)
        expected = [g]
        for _ in range(cfg.t_max):
            g_new = model.decode(model.score(forms, g))
            expected.append(g_new)
            if graph_equals(g_new, g):
                break
            g = g_new
        assert len(trace.steps) == len(expected)
        for step, graph in zip(trace.steps, expected):
            assert graph_equals(step.graph, graph)

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


def uniform_distribution(n, n_labels, scope):
    log_p = np.full((n * n, n_labels), np.log(1.0 / n_labels))
    return FactoredGraphDistribution(Tensor(log_p), n, scope)


class TestGraphLogLikelihood:
    def test_cell_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        scores = EdgeScores(Tensor(rng.normal(size=(9, 4))), 3)
        dist = FactoredGraphDistribution.from_scores(scores, "full")
        assert_allclose(np.exp(dist.log_probs.data).sum(axis=1), 1.0, rtol=0, atol=1e-9)

    def test_one_hot_on_gold_gives_zero(self):
        gold = empty_graph(3)
        log_p = np.full((9, 3), -1e9)
        log_p[:, 0] = 0.0  # certain NONE everywhere
        dist = FactoredGraphDistribution(Tensor(log_p), 3, "full")
        assert graph_log_likelihood(dist, GraphBatch([gold])).item() == 0.0

    def test_uniform_closed_form(self):
        # 3 labels, lower scope on n=3 has 6 in-scope cells
        dist = uniform_distribution(3, 3, "lower")
        ll = graph_log_likelihood(dist, GraphBatch([empty_graph(3)])).item()
        assert ll == pytest.approx(6 * np.log(1.0 / 3.0))
        # full scope on n=3 has 6 off-diagonal cells
        dist = uniform_distribution(3, 3, "full")
        ll = graph_log_likelihood(dist, GraphBatch([empty_graph(3)])).item()
        assert ll == pytest.approx(6 * np.log(1.0 / 3.0))

    def test_matches_per_cell_oracle(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(9, 4))
        scores = EdgeScores(Tensor(raw), 3)
        labels = np.array([[0, 0, 2], [1, 0, 0], [3, 2, 0]])
        gold = LabeledGraph(labels)
        dist = FactoredGraphDistribution.from_scores(scores, "full")
        got = graph_log_likelihood(dist, GraphBatch([gold])).item()

        expected = 0.0
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                cell = raw[i * 3 + j]
                log_probs = cell - np.log(np.exp(cell - cell.max()).sum()) - cell.max()
                expected += log_probs[labels[i, j]]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_never_positive(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            raw = rng.normal(scale=3.0, size=(16, 3))
            dist = FactoredGraphDistribution.from_scores(
                EdgeScores(Tensor(raw), 4), "lower")
            labels = rng.integers(0, 3, size=(4, 4))
            labels = np.tril(labels)
            np.fill_diagonal(labels, 0)
            ll = graph_log_likelihood(dist, GraphBatch([LabeledGraph(labels)])).item()
            assert ll < 0.0

    def test_labeled_cell_outside_scope_rejected(self):
        labels = np.zeros((3, 3), dtype=int)
        labels[0, 2] = 1  # upper triangle
        gold = LabeledGraph(labels)
        dist = uniform_distribution(3, 3, "lower")
        with pytest.raises(DataError, match="no distribution"):
            graph_log_likelihood(dist, GraphBatch([gold]))

    def test_size_mismatch_rejected(self):
        with pytest.raises(DataError, match="nodes"):
            graph_log_likelihood(uniform_distribution(3, 3, "full"),
                                 GraphBatch([empty_graph(4)]))


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
            scores = model.score(forms, empty_graph(gold.n))
            dist = FactoredGraphDistribution.from_scores(scores, "full")
            manual -= graph_log_likelihood(dist, GraphBatch([gold])).item()
        assert loss_refined.item() == pytest.approx(manual, rel=1e-12)

    def test_loss_decreases_over_50_steps(self):
        model = parser_fixture(seed=2)
        batch = self._batch(model)
        cfg = RefinementConfig(t_train=2)
        optimizer = Adam(model.registry, lr=3e-3)
        losses = []
        for _ in range(50):
            model.registry.zero_grad()
            losses.append(train_refinement_step(batch, model, cfg))
            optimizer.step()
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


def loss_and_gradients(batch, model, cfg):
    model.registry.zero_grad()
    record = Record()
    with recording(record):
        loss = refinement_loss(batch, model, cfg)
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

    @pytest.mark.parametrize("kind", ["parser", "coref"])
    def test_equals_sum_of_single_sentence_losses(self, kind):
        if kind == "parser":
            model = parser_fixture(seed=6)
            rescale_parameters(model.registry, 0.2)
            batch = self._parser_batch(model)
            cfg = RefinementConfig(t_train=2)
        else:
            model = coref_fixture(seed=6)
            rng = np.random.default_rng(4)
            batch = [(list(rng.integers(0, 12, size=n)), coref_gold(rng, n))
                     for n in (4, 7, 2)]
            cfg = RefinementConfig(t_train=2, schedule="mention-first")
        loss, grads = loss_and_gradients(batch, model, cfg)
        singles = [loss_and_gradients([item], model, cfg) for item in batch]
        assert loss == pytest.approx(sum(l for l, _ in singles), rel=1e-12)
        for name, grad in grads.items():
            assert_allclose(grad, sum(g[name] for _, g in singles), rtol=0, atol=1e-10,
                            err_msg=name)

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
        scores = model.score_batch([forms for forms, _ in batch], graphs)
        for b, ((forms, _), graph) in enumerate(zip(batch, graphs)):
            alone = model.score(forms, graph).array()
            assert_allclose(scores.sentence(b, graph.n).array(), alone,
                            rtol=0, atol=1e-12)

    def test_tape_budget(self):
        # the figures before batching: 108 nodes for one sentence's scores,
        # 451 for a two-sentence step at t_train=2
        corpus = load_conllu(Path(__file__).parent / "fixtures" / "toy_treebank.conllu")
        tokens, relations = build_vocabs(corpus)
        model = DependencyParserModel(
            ModelConfig(d=64, heads=4, d_ff=128, layers=2, d_edge=32, max_len=32),
            tokens, relations, seed=42)
        record = Record()
        with recording(record):
            model.score(corpus[0].forms, empty_graph(corpus[0].n + 1))
        assert len(record) <= 108
        batch = [(s.forms, dep_tree_to_graph(s.tree, relations)) for s in corpus[4:6]]
        assert batch[0][1].n != batch[1][1].n      # padded, so the masks count
        record = Record()
        with recording(record):
            refinement_loss(batch, model, RefinementConfig(t_train=2))
        assert len(record) <= 240
