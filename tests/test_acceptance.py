"""Release-gate acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all; ``pytest -v`` lists them as individual tests).  Tolerances and
runtime budgets are pinned here, not configurable.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from g2gt.attention import G2GLayerConfig, encode, init_encoder
from g2gt.autodiff import Tensor, mul, tensor_sum
from g2gt.checkpoint import checkpoint_load, checkpoint_save
from g2gt.config import RunConfig
from g2gt.conllu import load_conllu, write_conllu
from g2gt.edges import init_edge_scorer, score_edges
from g2gt.graphs import (DepTree, LabeledGraph, RelationVocab, dep_tree_to_graph,
                         empty_graph, graph_equals, graph_to_dep_tree,
                         permute_graph)
from g2gt.model import DependencyParserModel, MentionCorefModel, ModelConfig
from g2gt.mst import is_arborescence, mst_decode
from g2gt.optim import ParameterRegistry, grad_check
from g2gt.refine import RefinementConfig, refine, refinement_loss
from g2gt.training import evaluate, parse_corpus, train
from g2gt.vocab import Vocab

from oracles import (brute_force_best_tree, graph_attention_scores_loop,
                     graph_attention_values_loop, random_tree,
                     rescale_parameters, vanilla_encoder_forward)
from test_attention import encoder_as_numpy_layers, make_rel, random_graph

FIXTURE = Path(__file__).parent / "fixtures" / "toy_treebank.conllu"


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name} failed {suffix}"


@pytest.fixture(scope="module")
def overfit(tmp_path_factory):
    """Overfitting run shared by the learnability and fixed-point gates."""
    out = tmp_path_factory.mktemp("acceptance") / "toy.g2gt"
    config = RunConfig(train_file=str(FIXTURE), model_out=str(out), seed=42,
                       epochs=500, batch_size=2, lr=2e-3, stop_at_las=100.0,
                       d=64, heads=4, d_ff=128, layers=2, d_edge=32, max_len=32,
                       t_train=2, t_max=3)
    started = time.monotonic()
    result = train(config)
    elapsed = time.monotonic() - started
    return result, elapsed


def test_01_vanilla_reduction():
    """Zeroed relation embeddings reduce to a plain transformer, 1e-10 abs."""
    started = time.monotonic()
    cfg = G2GLayerConfig(d=16, heads=4, d_ff=32, n_layers=2)
    registry = ParameterRegistry()
    rng = np.random.default_rng(0)
    params = init_encoder(registry, cfg, 5, rng)
    for name in ("encoder.rel.query", "encoder.rel.key", "encoder.rel.value"):
        registry.get(name).tensor.data[:] = 0.0
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        x = rng.normal(size=(n, 16))
        graph = random_graph(rng, n, 5)
        z = encode(Tensor(x), graph, params, cfg).data
        oracle = vanilla_encoder_forward(x, encoder_as_numpy_layers(params), heads=4)
        worst = max(worst, float(np.abs(z - oracle).max()))
    elapsed = time.monotonic() - started
    report("01 vanilla-reduction", worst < 1e-10 and elapsed < 10.0,
           f"max abs diff {worst:.2e}, {elapsed:.1f}s")


def test_02_gradient_fidelity():
    """Reverse-mode gradients vs central differences (eps=1e-5, rel < 1e-4)."""
    started = time.monotonic()

    # (a) one graph-conditioned layer: d=8, h=2, n=5, |L|=4
    cfg = G2GLayerConfig(d=8, heads=2, d_ff=16, n_layers=1)
    registry = ParameterRegistry()
    rng = np.random.default_rng(5)
    params = init_encoder(registry, cfg, 4, rng)
    rescale_parameters(registry, 0.5)
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(5, 8)))
    graph = random_graph(rng, 5, 4)
    probe = Tensor(rng.normal(size=(5, 8)))
    layer_report = grad_check(
        lambda: tensor_sum(mul(encode(x, graph, params, cfg), probe)),
        registry, eps=1e-5, threshold=1e-4)

    # (b) the biaffine edge scorer: d=8, n=5, |L|=4
    registry_b = ParameterRegistry()
    rng = np.random.default_rng(7)
    edge_params = init_edge_scorer(registry_b, 8, 4, 4, rng)
    rescale_parameters(registry_b, 0.5)
    z = Tensor(rng.normal(size=(5, 8)))
    probe_b = Tensor(rng.normal(size=(5, 5, 4)))
    scorer_report = grad_check(
        lambda: tensor_sum(mul(score_edges(z, edge_params), probe_b)),
        registry_b, eps=1e-5, threshold=1e-4)

    # (c) a full refinement training step, T_train = 2
    vocab = Vocab.from_forms(["a", "b", "c", "d"])
    rel_vocab = RelationVocab.from_deprels(["x"])  # NONE, UNK, x up, x down
    model = DependencyParserModel(
        ModelConfig(d=8, heads=2, d_ff=16, layers=1, d_edge=4, max_len=16),
        vocab, rel_vocab, seed=0)
    rescale_parameters(model.registry, 0.5)
    gold = dep_tree_to_graph(DepTree([0, 1, 1, 3], ["x", "x", "x", "x"]), rel_vocab)
    refinement = RefinementConfig(t_train=2)
    step_report = grad_check(
        lambda: refinement_loss([(["a", "b", "c", "d"], gold)], model, refinement),
        model.registry, eps=1e-5, threshold=1e-4)

    elapsed = time.monotonic() - started
    ok = layer_report.passed and scorer_report.passed and step_report.passed
    report("02 gradient-fidelity", ok and elapsed < 120.0,
           f"layer {layer_report.max_error:.2e}, scorer {scorer_report.max_error:.2e}, "
           f"refinement {step_report.max_error:.2e}, {elapsed:.1f}s")


def test_03_mst_optimality_and_validity():
    """Decoder equals exhaustive enumeration; always structurally valid."""
    started = time.monotonic()
    checked = 0
    for seed in range(250):
        for n in (2, 3, 4, 5):
            rng = np.random.default_rng(10_000 * n + seed)
            scores = rng.normal(size=(n, n))
            heads = mst_decode(scores, single_root=False)
            total = sum(scores[i, heads[i]] for i in range(n) if i != 0)
            best, _ = brute_force_best_tree(scores, single_root=False)
            assert abs(total - best) < 1e-9, f"n={n} seed={seed}"
            checked += 1
    assert checked == 1000

    valid = 0
    for seed in range(10_000):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        heads = mst_decode(rng.normal(size=(n, n)), single_root=True)
        assert is_arborescence(heads, single_root=True), f"seed {seed}"
        valid += 1
    elapsed = time.monotonic() - started
    report("03 mst-optimality", valid == 10_000 and elapsed < 60.0,
           f"1000 exhaustive + {valid} structural, {elapsed:.1f}s")


def test_04_attention_formula_oracles():
    """Score and value computations match double-loop evaluations, 1e-12."""
    # scalar hand case: (2*3 + 2*0.5 + 0.25*3) / 1 = 7.75
    from g2gt.attention import attention_scores, attention_values
    cfg1 = G2GLayerConfig(d=1, heads=1, d_ff=2, n_layers=1)
    labels = np.array([[0, 1], [1, 0]])
    from g2gt.attention import RelationEmbeddings
    rel1 = RelationEmbeddings(Tensor([[0.0], [0.5]]), Tensor([[0.0], [0.25]]),
                              Tensor([[0.0], [0.0]]))
    e = attention_scores(Tensor([[2.0], [3.0]]), Tensor([[1.0]]), Tensor([[1.0]]),
                         LabeledGraph(labels), rel1, cfg1)
    scalar_ok = abs(e.data[0, 1] - 7.75) < 1e-12

    cfg4 = G2GLayerConfig(d=6, heads=1, d_ff=8, n_layers=1)
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4, 6))
        w_q = rng.normal(size=(6, 6))
        w_k = rng.normal(size=(6, 6))
        w_v = rng.normal(size=(6, 6))
        rel = make_rel(rng, 5, 6)
        graph = random_graph(rng, 4, 5)
        e = attention_scores(Tensor(x), Tensor(w_q), Tensor(w_k), graph, rel, cfg4)
        oracle_e = graph_attention_scores_loop(
            x, w_q, w_k, rel.query_rel.data, rel.key_rel.data, graph.labels)
        worst = max(worst, float(np.abs(e.data - oracle_e).max()))

        alpha = rng.uniform(0.05, 1.0, size=(4, 4))
        alpha /= alpha.sum(axis=1, keepdims=True)
        z = attention_values(Tensor(alpha), Tensor(x), Tensor(w_v), graph, rel, cfg4)
        oracle_z = graph_attention_values_loop(alpha, x, w_v, rel.value_rel.data,
                                               graph.labels)
        worst = max(worst, float(np.abs(z.data - oracle_z).max()))
    report("04 attention-formula-oracles", scalar_ok and worst < 1e-12,
           f"scalar exact, max abs diff {worst:.2e}")


def test_05_overfit_learnability(overfit):
    """Toy treebank reaches 100/100 within 500 epochs; parse reproduces gold."""
    result, elapsed = overfit
    final = result.dev_reports[-1]
    epochs_used = len(result.losses)
    trained_ok = (final.uas == 100.0 and final.las == 100.0
                  and epochs_used <= 500 and elapsed < 300.0)

    model = checkpoint_load(result.checkpoint_path)
    corpus = load_conllu(FIXTURE)
    trees, _ = parse_corpus(model, corpus, RefinementConfig(t_max=3))
    exact = all(t.heads == s.tree.heads and t.deprels == s.tree.deprels
                for t, s in zip(trees, corpus))
    report("05 overfit-learnability", trained_ok and exact,
           f"UAS {final.uas:.1f} LAS {final.las:.1f} in {epochs_used} epochs, "
           f"{elapsed:.1f}s, gold reproduced: {exact}")


def test_06_refinement_fixed_point(overfit):
    """Refinement converges by t <= 3; a forced extra iteration changes nothing."""
    result, _ = overfit
    model = result.model
    corpus = load_conllu(FIXTURE)
    ok = True
    worst_t = 0
    for sentence in corpus:
        final, trace = refine(sentence.forms, model, RefinementConfig(t_max=3))
        ok &= trace.converged and trace.iterations <= 3
        worst_t = max(worst_t, trace.iterations)
        forced, forced_trace = refine(
            sentence.forms, model,
            RefinementConfig(t_max=trace.iterations + 1, stop_on_convergence=False))
        ok &= graph_equals(forced_trace.steps[trace.iterations].graph, final)
        ok &= graph_equals(forced, final)
    report("06 refinement-fixed-point", ok, f"all converged by t={worst_t}")


def test_07_two_stage_schedule_exactness():
    """Iteration 1 under mention-first never emits a coreference link."""
    cfg = RefinementConfig(t_max=1, schedule="mention-first")
    model_cfg = ModelConfig(d=8, heads=2, d_ff=16, layers=1, d_edge=4, max_len=16)
    offenders = 0
    for seed in range(1000):
        model = MentionCorefModel(model_cfg, n_embeddings=12, seed=seed)
        rescale_parameters(model.registry, 0.5)
        tokens = list(np.random.default_rng(seed).integers(0, 12, size=6))
        graph, _ = refine(tokens, model, cfg)
        if np.any(graph.labels == 2):
            offenders += 1
    report("07 two-stage-exactness", offenders == 0,
           f"{offenders} offending initializations out of 1000")


def test_08_ablation_independence():
    """Disabled terms are bitwise independent of their relation matrices."""
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 8))
    ok = True
    for flag, rel_name in (("use_key_term", "encoder.rel.key"),
                           ("use_value_term", "encoder.rel.value")):
        cfg = G2GLayerConfig(d=8, heads=2, d_ff=16, n_layers=2, **{flag: False})
        registry = ParameterRegistry()
        params = init_encoder(registry, cfg, 4, np.random.default_rng(11))
        graph = random_graph(np.random.default_rng(3), 5, 4)
        before = encode(Tensor(x), graph, params, cfg).data.copy()
        registry.get(rel_name).tensor.data[:] = rng.normal(size=(4, 8))
        after = encode(Tensor(x), graph, params, cfg).data
        ok &= bool(np.array_equal(before, after))
    report("08 ablation-independence", ok, "bitwise identical outputs")


def test_09_round_trips(tmp_path):
    """File, checkpoint, and tree-graph round trips."""
    corpus = load_conllu(FIXTURE)
    out = tmp_path / "round.conllu"
    write_conllu(corpus, out)
    again = load_conllu(out)
    conllu_ok = all(a.forms == b.forms and a.tree.heads == b.tree.heads
                    and a.tree.deprels == b.tree.deprels
                    for a, b in zip(corpus, again)) and len(corpus) == len(again)

    vocab = Vocab.from_forms(["w1", "w2", "w3"])
    rel_vocab = RelationVocab.from_deprels(["a", "b"])
    model = DependencyParserModel(
        ModelConfig(d=16, heads=2, d_ff=32, layers=1, d_edge=8, max_len=16),
        vocab, rel_vocab, seed=3)
    ckpt = tmp_path / "model.g2gt"
    checkpoint_save(model, ckpt)
    loaded = checkpoint_load(ckpt)
    forms = ["w1", "w2", "w3"]
    ckpt_ok = np.array_equal(model.scorer([forms])([empty_graph(4)]).data,
                             loaded.scorer([forms])([empty_graph(4)]).data)

    tree_vocab = RelationVocab.from_deprels(["det", "nsubj", "obj", "root"])
    tree_ok = True
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 11))
        heads, labels = random_tree(rng, n, ["det", "nsubj", "obj", "root"])
        tree = DepTree(heads, labels)
        back = graph_to_dep_tree(dep_tree_to_graph(tree, tree_vocab), tree_vocab)
        tree_ok &= back.heads == tree.heads and back.deprels == tree.deprels
    report("09 round-trips", conllu_ok and ckpt_ok and tree_ok,
           f"conllu {conllu_ok}, checkpoint bitwise {ckpt_ok}, 1000 trees {tree_ok}")


def test_10_permutation_equivariance():
    """encode commutes with node permutations within 1e-9."""
    cfg = G2GLayerConfig(d=8, heads=2, d_ff=16, n_layers=2)
    registry = ParameterRegistry()
    params = init_encoder(registry, cfg, 5, np.random.default_rng(7))
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        x = rng.normal(size=(n, 8))
        graph = random_graph(rng, n, 5)
        perm = rng.permutation(n)
        inv = np.argsort(perm)
        z = encode(Tensor(x), graph, params, cfg).data
        z_perm = encode(Tensor(x[inv]), permute_graph(graph, perm), params, cfg).data
        worst = max(worst, float(np.abs(z_perm - z[inv]).max()))
    report("10 permutation-equivariance", worst < 1e-9,
           f"max abs deviation {worst:.2e} over 100 triples")
