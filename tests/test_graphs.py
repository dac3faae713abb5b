"""Labeled graphs, tree conversions, and the relation vocabulary."""

import numpy as np
import pytest

from g2gt.errors import DataError
from g2gt.graphs import (NONE_LABEL, UNK_LABEL, DepTree, LabeledGraph, RelationVocab,
                         dep_tree_to_graph, empty_graph, graph_equals,
                         graph_to_dep_tree, permute_graph)

from oracles import random_tree

VOCAB = RelationVocab.from_deprels(["det", "nsubj", "root"])


class TestRelationVocab:
    def test_none_is_index_zero_and_unk_is_one(self):
        assert VOCAB.labels[0] == "NONE"
        assert VOCAB.labels[1] == "UNK"

    def test_unique_labels_enforced(self):
        with pytest.raises(ValueError, match="unique"):
            RelationVocab(["NONE", "a", "a"])

    def test_unknown_deprel_maps_to_unk(self):
        assert VOCAB.up_index("xcomp") == UNK_LABEL
        assert VOCAB.down_index("xcomp") == UNK_LABEL

    def test_up_indices_cover_each_deprel_once(self):
        ups = VOCAB.up_indices()
        assert len(ups) == 3
        assert {VOCAB.deprel_of(i) for i in ups} == {"det", "nsubj", "root"}


class TestLabeledGraph:
    def test_diagonal_must_be_none(self):
        labels = np.zeros((3, 3), dtype=int)
        labels[1, 1] = 2
        with pytest.raises(ValueError, match="diagonal"):
            LabeledGraph(labels)

    def test_out_of_range_labels_rejected(self):
        labels = np.zeros((2, 2), dtype=int)
        labels[0, 1] = 9
        with pytest.raises(ValueError, match="out of range"):
            LabeledGraph(labels, n_labels=3)

    def test_empty_graph_is_all_none(self):
        # G^0 of every refinement loop
        g = empty_graph(5)
        assert g.n == 5 and np.all(g.labels == 0)

    def test_immutable_after_construction(self):
        g = empty_graph(3)
        with pytest.raises(ValueError):
            g.labels[0, 1] = 2


class TestTreeGraphConversion:
    def test_single_token_sentence(self):
        g = dep_tree_to_graph(DepTree([0], ["root"]), VOCAB)
        assert g.label(1, 0) == VOCAB.up_index("root")
        assert g.label(0, 1) == VOCAB.down_index("root")
        assert np.sum(g.labels != NONE_LABEL) == 2

    def test_two_token_sentence_places_both_directions(self):
        # token 2 is the head of token 1 with label det
        tree = DepTree([2, 0], ["det", "root"])
        g = dep_tree_to_graph(tree, VOCAB)
        assert g.label(1, 2) == VOCAB.up_index("det")
        assert g.label(2, 1) == VOCAB.down_index("det")

    def test_empty_tree_gives_all_none(self):
        tree = DepTree([None, None], [None, None])
        g = dep_tree_to_graph(tree, VOCAB)
        assert np.all(g.labels == NONE_LABEL)

    def test_unknown_deprel_becomes_unk_cell(self):
        g = dep_tree_to_graph(DepTree([0], ["mystery"]), VOCAB)
        assert g.label(1, 0) == UNK_LABEL

    def test_round_trip_identity(self):
        tree = DepTree([2, 0, 2], ["det", "root", "nsubj"])
        back = graph_to_dep_tree(dep_tree_to_graph(tree, VOCAB), VOCAB)
        assert back.heads == tree.heads
        assert back.deprels == tree.deprels

    def test_all_none_graph_rejected(self):
        with pytest.raises(DataError, match="not a tree"):
            graph_to_dep_tree(empty_graph(4), VOCAB)

    def test_round_trip_property_1000_random_trees(self):
        deprels = ["det", "nsubj", "root"]
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 11))
            heads, labels = random_tree(rng, n, deprels)
            tree = DepTree(heads, labels)
            tree.validate(single_root=False)
            back = graph_to_dep_tree(dep_tree_to_graph(tree, VOCAB), VOCAB)
            assert back.heads == tree.heads, f"seed {seed}"
            assert back.deprels == tree.deprels, f"seed {seed}"


class TestGraphEquals:
    def test_reflexive(self):
        g = dep_tree_to_graph(DepTree([0, 1], ["root", "det"]), VOCAB)
        assert graph_equals(g, g)

    def test_single_flip_detected(self):
        g = dep_tree_to_graph(DepTree([0, 1], ["root", "det"]), VOCAB)
        flipped = g.labels.copy()
        flipped[1, 0] = UNK_LABEL
        assert not graph_equals(g, LabeledGraph(flipped))

    def test_independent_construction_compares_equal(self):
        a = dep_tree_to_graph(DepTree([0], ["root"]), VOCAB)
        b = dep_tree_to_graph(DepTree([0], ["root"]), VOCAB)
        assert graph_equals(a, b)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            graph_equals(empty_graph(2), empty_graph(3))


class TestPermutation:
    def test_permuted_labels_follow_nodes(self):
        rng = np.random.default_rng(4)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 8))
            labels = rng.integers(0, 5, size=(n, n))
            np.fill_diagonal(labels, 0)
            g = LabeledGraph(labels)
            perm = rng.permutation(n)
            pg = permute_graph(g, perm)
            for i in range(n):
                for j in range(n):
                    assert pg.label(perm[i], perm[j]) == g.label(i, j)

