"""Labeled graphs over token sequences and their dependency-tree views.

Node 0 of every graph is a virtual root prepended to the sentence.  A
dependency arc (dependent i, head j, deprel) is stored twice: cell (i, j)
carries the "deprel↑" label pointing at the head and cell (j, i) carries
"deprel↓" pointing back, so attention at either endpoint can see the edge.
:func:`arc_graph` is the one writer of that encoding, for gold trees and
decoded ones alike, and :func:`graph_to_dep_tree` its one reader.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DataError
from .mst import reaches_root

__all__ = [
    "NONE_LABEL",
    "UNK_LABEL",
    "RelationVocab",
    "LabeledGraph",
    "GraphBatch",
    "DepTree",
    "COREF_VOCAB",
    "empty_graph",
    "arc_graph",
    "dep_tree_to_graph",
    "graph_to_dep_tree",
    "graph_equals",
    "permute_graph",
]

NONE_LABEL = 0
UNK_LABEL = 1

UP = "↑"    # dependent -> head
DOWN = "↓"  # head -> dependent


class RelationVocab:
    """Ordered relation labels; index 0 is always NONE ("no relation").

    Two schemes exist: "bidirectional" (dependency parsing: index 1 is a
    reserved UNK, every deprel contributes an up and a down label) and
    "plain" (labels used as given, e.g. the three-way coreference set).
    """

    def __init__(self, labels: Sequence[str], scheme: str = "plain"):
        labels = list(labels)
        if not labels or labels[0] != "NONE":
            raise ValueError("label 0 must be NONE")
        if len(set(labels)) != len(labels):
            raise ValueError("relation labels must be unique")
        if scheme not in ("plain", "bidirectional"):
            raise ValueError(f"unknown directionality scheme {scheme!r}")
        if scheme == "bidirectional" and (len(labels) < 2 or labels[1] != "UNK"):
            raise ValueError("bidirectional scheme reserves index 1 for UNK")
        self.labels = tuple(labels)
        self.scheme = scheme
        self._index = {label: i for i, label in enumerate(self.labels)}
        self._up = _frozen([i for i, label in enumerate(self.labels) if label.endswith(UP)])
        self._down = _frozen([self.down_index(label[:-1]) if label.endswith(UP)
                              else UNK_LABEL for label in self.labels])

    @classmethod
    def from_deprels(cls, deprels: Iterable[str]) -> "RelationVocab":
        """Build the bidirectional vocab for a set of dependency labels."""
        ordered = sorted(set(deprels))
        labels = ["NONE", "UNK"]
        for d in ordered:
            labels.append(d + UP)
            labels.append(d + DOWN)
        return cls(labels, scheme="bidirectional")

    def __len__(self) -> int:
        return len(self.labels)

    def up_index(self, deprel: str) -> int:
        """Index of "deprel↑"; UNK when the deprel is not in the vocab."""
        return self._index.get(deprel + UP, UNK_LABEL)

    def down_index(self, deprel: str) -> int:
        return self._index.get(deprel + DOWN, UNK_LABEL)

    def up_indices(self) -> np.ndarray:
        """Indices of all "↑"-type labels, in vocab order (read-only)."""
        return self._up

    def down_of(self, up_labels) -> np.ndarray:
        """The "↓" label of each "↑" label; UNK for UNK, and for an "↑"
        label whose "↓" label is not in the vocab."""
        return self._down[up_labels]

    def deprel_of(self, label_index: int) -> str:
        label = self.labels[label_index]
        if not label.endswith(UP):
            raise ValueError(f"label {label!r} is not an up-relation")
        return label[:-1]


def _frozen(indices: list[int]) -> np.ndarray:
    out = np.array(indices, dtype=np.intp)
    out.setflags(write=False)
    return out


COREF_VOCAB = RelationVocab(["NONE", "MENTION", "COREF"], scheme="plain")


class LabeledGraph:
    """n x n matrix of relation-label indices; diagonal is always NONE."""

    __slots__ = ("n", "labels")

    def __init__(self, labels: np.ndarray, n_labels: int | None = None):
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 2 or labels.shape[0] != labels.shape[1]:
            raise ValueError(f"labels must be square, got shape {labels.shape}")
        if labels.size and labels.min() < 0:
            raise ValueError("negative label index")
        if n_labels is not None and labels.size and labels.max() >= n_labels:
            raise ValueError(
                f"label index {labels.max()} out of range for vocab size {n_labels}")
        if np.any(np.diag(labels) != NONE_LABEL):
            raise ValueError("diagonal entries must be NONE")
        labels = labels.copy()
        labels.setflags(write=False)
        self.n = labels.shape[0]
        self.labels = labels

    def label(self, i: int, j: int) -> int:
        return int(self.labels[i, j])

    def __repr__(self) -> str:
        return f"LabeledGraph(n={self.n})"


class GraphBatch:
    """B labeled graphs padded with NONE to the size of the largest.

    ``labels`` is (B, n_max, n_max) and ``lengths`` holds each graph's own
    node count; a padding node relates to nothing.
    """

    __slots__ = ("labels", "lengths")

    def __init__(self, graphs: Sequence[LabeledGraph]):
        if not graphs:
            raise DataError("empty batch")
        self.lengths = np.array([g.n for g in graphs], dtype=np.intp)
        n = int(self.lengths.max())
        self.labels = np.zeros((len(graphs), n, n), dtype=np.int64)
        for b, g in enumerate(graphs):
            self.labels[b, :g.n, :g.n] = g.labels

    def __len__(self) -> int:
        return self.labels.shape[0]

    @property
    def n(self) -> int:
        return self.labels.shape[-1]

    def real_cells(self) -> np.ndarray:
        """(B, n_max, n_max) mask of the cells whose two nodes are both real."""
        real = np.arange(self.n) < self.lengths[:, None]
        return real[:, :, None] & real[:, None, :]

    def key_mask(self) -> Optional[np.ndarray]:
        """Additive (B, 1, 1, n_max) attention mask, -inf at padding keys;
        None when every graph has n_max nodes and nothing is padded."""
        if np.all(self.lengths == self.n):
            return None
        padding = np.arange(self.n) >= self.lengths[:, None]
        return np.where(padding, -np.inf, 0.0)[:, None, None, :]


@dataclass
class DepTree:
    """One sentence's dependency arcs: head index (0 = virtual root) per token.

    Token positions are 1-based to line up with graph nodes; ``heads[k]``
    and ``deprels[k]`` describe token k+1.  A ``None`` head marks a token
    that is not attached yet (partial or empty parses).
    """

    heads: list[Optional[int]]
    deprels: list[Optional[str]]

    def __post_init__(self):
        if len(self.heads) != len(self.deprels):
            raise ValueError("heads and deprels must have equal length")

    @property
    def n(self) -> int:
        return len(self.heads)

    def validate(self, single_root: bool = True) -> None:
        """Reject trees that are not arborescences rooted at the virtual root."""
        for k, head in enumerate(self.heads):
            if head is None or not (0 <= head <= self.n) or head == k + 1:
                raise DataError(f"token {k + 1} has invalid head {head!r}")
        roots = self.heads.count(0)
        if single_root and roots != 1:
            raise DataError(f"expected exactly one root attachment, found {roots}")
        stray = np.flatnonzero(~reaches_root([0, *self.heads]))
        if stray.size:
            raise DataError(f"token {stray[0]} does not reach the root: "
                            f"its heads run into a cycle")


def empty_graph(n: int) -> LabeledGraph:
    """The all-NONE graph: the empty-parse initializer for refinement."""
    return LabeledGraph(np.zeros((n, n), dtype=np.int64))


def arc_graph(n: int, dependents, heads, up, vocab: RelationVocab) -> LabeledGraph:
    """The graph over n nodes that holds each arc from ``dependents[k]`` to
    ``heads[k]``: its up label ``up[k]`` at (dependent, head) and that
    label's down label at (head, dependent)."""
    labels = np.zeros((n, n), dtype=np.int64)
    labels[dependents, heads] = up
    labels[heads, dependents] = vocab.down_of(up)
    return LabeledGraph(labels, n_labels=len(vocab))


def dep_tree_to_graph(tree: DepTree, vocab: RelationVocab) -> LabeledGraph:
    """Encode a (possibly partial) tree as a bidirectionally labeled graph;
    rejects an invalid head and two tokens that head each other."""
    if vocab.scheme != "bidirectional":
        raise ValueError("dep_tree_to_graph needs a bidirectional relation vocab")
    arcs = [(i, head, UNK_LABEL if deprel is None else vocab.up_index(deprel))
            for i, (head, deprel) in enumerate(zip(tree.heads, tree.deprels), start=1)
            if head is not None]
    for i, head, _ in arcs:
        if not (0 <= head <= tree.n) or head == i:
            raise DataError(f"token {i} has invalid head {head!r}")
        if head and tree.heads[head - 1] == i:
            # both arcs would write cells (i, head) and (head, i)
            raise DataError(f"tokens {i} and {head} head each other")
    dependents, heads, up = np.array(arcs, dtype=np.intp).reshape(-1, 3).T
    return arc_graph(tree.n + 1, dependents, heads, up, vocab)


def graph_to_dep_tree(graph: LabeledGraph, vocab: RelationVocab) -> DepTree:
    """Invert :func:`arc_graph`: each token's head is the one node that its
    row gives an up label; rejects graphs that are not trees."""
    if vocab.scheme != "bidirectional":
        raise ValueError("graph_to_dep_tree needs a bidirectional relation vocab")
    is_up = np.isin(graph.labels[1:], vocab.up_indices())
    found = is_up.sum(axis=1)
    if np.any(found != 1):
        k = int(np.flatnonzero(found != 1)[0])
        raise DataError(
            f"token {k + 1} has {found[k]} head attachments; graph is not a tree")
    heads = is_up.argmax(axis=1)
    up_labels = graph.labels[np.arange(1, graph.n), heads]
    tree = DepTree(heads.tolist(), [vocab.deprel_of(label) for label in up_labels])
    tree.validate(single_root=False)
    return tree


def graph_equals(a: LabeledGraph, b: LabeledGraph) -> bool:
    if a.n != b.n:
        raise ValueError(f"graph size mismatch: {a.n} vs {b.n}")
    return bool(np.array_equal(a.labels, b.labels))


def permute_graph(graph: LabeledGraph, perm: Sequence[int]) -> LabeledGraph:
    """Relabel nodes so that labels'(perm[i], perm[j]) == labels(i, j)."""
    perm = np.asarray(perm, dtype=np.intp)
    if perm.shape != (graph.n,) or sorted(perm.tolist()) != list(range(graph.n)):
        raise ValueError("perm must be a permutation of the node indices")
    out = np.zeros_like(graph.labels)
    out[np.ix_(perm, perm)] = graph.labels
    return LabeledGraph(out)
