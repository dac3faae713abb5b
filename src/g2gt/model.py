"""Full models: embeddings + graph-conditioned encoder + edge scorer.

Two decode styles share the same trunk: the dependency parser decodes a
spanning arborescence over a virtual root, while the mention/coreference
style model decodes every lower-triangular cell independently.  For
training, the trunk scores a batch of sentences over every label in one
pass, padded to the longest.  For inference, a :class:`SentenceScorer`
scores one sentence under graph after graph: it computes once what no
graph changes (the embedding, layer 0's graph-independent attention
terms, the scorer's rows for the labels the model decodes), and each
call runs the rest and scores only those labels.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache
from typing import Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from .attention import (EncoderParams, G2GLayerConfig, encode, init_encoder,
                        layer_terms)
from .autodiff import Tensor, add, gather_rows
from .edges import (EdgeScorerParams, EdgeScores, greedy_decode, init_edge_scorer,
                    label_edges, label_slab, pooled_head_scores, score_edges)
from .errors import DataError, UsageError
from .graphs import COREF_VOCAB, GraphBatch, LabeledGraph, RelationVocab
from .mst import mst_decode
from .optim import ParameterRegistry
from .vocab import Vocab

__all__ = ["ModelConfig", "SentenceEncoderModel", "SentenceScorer",
           "DependencyParserModel", "MentionCorefModel"]


@dataclass(frozen=True)
class ModelConfig:
    d: int = 64
    heads: int = 4
    d_ff: int = 128
    layers: int = 2
    d_edge: int = 32
    max_len: int = 128
    use_key_term: bool = True
    use_value_term: bool = True
    single_root: bool = True

    def __post_init__(self):
        self.check_types()
        try:
            self.layer_config()
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        if not (0 < self.d_edge <= self.d):
            raise UsageError(f"d_edge must lie in [1, d={self.d}], got {self.d_edge}")
        if self.max_len < 1:
            raise UsageError("max_len must be positive")

    def layer_config(self) -> G2GLayerConfig:
        return G2GLayerConfig(d=self.d, heads=self.heads, d_ff=self.d_ff,
                              n_layers=self.layers,
                              use_key_term=self.use_key_term,
                              use_value_term=self.use_value_term)

    def check_types(self) -> None:
        """Raise UsageError unless every field holds its annotated type:
        ``Optional[X]`` also takes None, ``float`` also takes an int, and a
        bool is never taken as a number."""
        hints = _type_hints(type(self))
        for f in fields(self):
            value = getattr(self, f.name)
            if not _is_instance(value, hints[f.name]):
                raise UsageError(f"{f.name} must be {f.type}, got {value!r}")

    def to_dict(self) -> dict:
        """The architecture settings alone, also of a subclass instance."""
        return {f.name: getattr(self, f.name) for f in fields(ModelConfig)}


_type_hints = cache(get_type_hints)


def _is_instance(value, hint) -> bool:
    if get_origin(hint) is Union:
        return any(_is_instance(value, h) for h in get_args(hint))
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


class SentenceEncoderModel:
    """Shared trunk working on integer token id sequences."""

    def __init__(self, cfg: ModelConfig, n_embeddings: int, rel_vocab: RelationVocab,
                 seed: int = 0, source=None):
        """Parameters are drawn from ``seed``, or taken from ``source`` as a
        :class:`ParameterRegistry` takes them."""
        self.cfg = cfg
        self.layer_cfg = cfg.layer_config()
        self.rel_vocab = rel_vocab
        self.registry = ParameterRegistry(source)
        rng = np.random.default_rng(seed)
        self.token_emb = self.registry.parameter("embed.token", (n_embeddings, cfg.d), rng)
        self.pos_emb = self.registry.parameter("embed.position", (cfg.max_len, cfg.d), rng)
        self.encoder: EncoderParams = init_encoder(
            self.registry, self.layer_cfg, len(rel_vocab), rng)
        self.edge_params: EdgeScorerParams = init_edge_scorer(
            self.registry, cfg.d, cfg.d_edge, len(rel_vocab), rng)

    def embed(self, ids: np.ndarray) -> Tensor:
        """Token plus position embeddings: ids (n,) -> (n, d), or padded ids
        (B, n_max) -> (B, n_max, d)."""
        ids = np.asarray(ids, dtype=np.intp)
        n = ids.shape[-1]
        if n > self.cfg.max_len:
            raise DataError(f"sequence of {n} tokens exceeds max_len={self.cfg.max_len}")
        tok = gather_rows(self.token_emb, ids)
        pos = gather_rows(self.pos_emb, np.arange(n, dtype=np.intp))
        return add(tok, pos)

    def ids(self, tokens: Sequence) -> list[int]:
        """Embedding row of each graph node of a sentence."""
        raise NotImplementedError

    def graph_size(self, tokens: Sequence) -> int:
        return len(self.ids(tokens))

    @property
    def decode_labels(self) -> np.ndarray:
        """The labels that ``decode`` reads, in the order of its score columns."""
        return np.arange(len(self.rel_vocab))

    def sentence_scorer(self, tokens: Sequence) -> "SentenceScorer":
        return SentenceScorer(self, tokens)

    def score_batch(self, batch: Sequence[Sequence],
                    graphs: Sequence[LabeledGraph]) -> EdgeScores:
        """Edge scores of B sentences, each conditioned on its own graph, in
        one pass over the batch padded to its longest sentence."""
        id_lists = [self.ids(tokens) for tokens in batch]
        for ids, graph in zip(id_lists, graphs, strict=True):
            if graph.n != len(ids):
                raise DataError(
                    f"conditioning graph has {graph.n} nodes for {len(ids)} tokens")
        graph_batch = GraphBatch(graphs)
        padded = np.zeros(graph_batch.labels.shape[:2], dtype=np.intp)
        for b, ids in enumerate(id_lists):
            padded[b, :len(ids)] = ids
        state = encode(self.embed(padded), graph_batch, self.encoder, self.layer_cfg)
        return score_edges(state, self.edge_params)


class SentenceScorer:
    """One sentence's edge scores over its model's ``decode_labels``,
    conditioned on any graph, for inference.

    Made once per sentence, it holds the embedding, layer 0's
    graph-independent attention terms and the edge scorer of the decode
    labels; a call runs the graph-dependent rest of the encoder and scores.
    """

    def __init__(self, model: SentenceEncoderModel, tokens: Sequence):
        ids = model.ids(tokens)
        self.n = len(ids)
        self._model = model
        self._x = model.embed(ids)
        encoder, cfg = model.encoder, model.layer_cfg
        self._first = layer_terms(self._x, encoder.layers[0], encoder.rel.heads(cfg),
                                  cfg.heads)
        self._edge_params = model.edge_params.for_labels(model.decode_labels)

    def __call__(self, graph: LabeledGraph) -> EdgeScores:
        if graph.n != self.n:
            raise DataError(f"conditioning graph has {graph.n} nodes for {self.n} tokens")
        model = self._model
        state = encode(self._x, graph, model.encoder, model.layer_cfg, first=self._first)
        return score_edges(state, self._edge_params)


class DependencyParserModel(SentenceEncoderModel):
    """Parser over surface forms with a virtual root and tree decoding."""

    scope = "full"

    def __init__(self, cfg: ModelConfig, token_vocab: Vocab,
                 rel_vocab: RelationVocab, seed: int = 0, source=None):
        if rel_vocab.scheme != "bidirectional":
            raise UsageError("dependency parsing needs a bidirectional relation vocab")
        super().__init__(cfg, len(token_vocab), rel_vocab, seed=seed, source=source)
        self.token_vocab = token_vocab

    def ids(self, forms: Sequence[str]) -> list[int]:
        return self.token_vocab.encode_with_root(forms)

    @property
    def decode_labels(self) -> np.ndarray:
        return self.rel_vocab.up_indices()

    def decode_tree(self, scores: EdgeScores,
                    allowed=None) -> tuple[np.ndarray, np.ndarray]:
        """The best tree's heads (-1 for the root) and, for each token, the
        position of its arc's label in ``decode_labels``, the up labels,
        over which ``scores`` run.

        Both come from one (n, n, |up|) slab of those scores with the labels
        outside ``allowed`` at -inf: its max over labels is the MST's head
        score, and its argmax at each chosen arc is that arc's label.
        """
        slab = label_slab(scores, self.decode_labels, allowed)
        heads = mst_decode(pooled_head_scores(slab), root=0,
                           single_root=self.cfg.single_root)
        return heads, label_edges(heads, slab)

    def decode(self, scores: EdgeScores, allowed=None) -> LabeledGraph:
        """The next graph from scores over ``decode_labels``."""
        heads, up = self.decode_tree(scores, allowed)
        tokens = np.arange(1, scores.n)
        labels = np.zeros((scores.n, scores.n), dtype=np.int64)
        labels[tokens, heads[1:]] = self.rel_vocab.up_indices()[up]
        labels[heads[1:], tokens] = self.rel_vocab.down_of_up()[up]
        return LabeledGraph(labels, n_labels=len(self.rel_vocab))


class MentionCorefModel(SentenceEncoderModel):
    """Two-level span/link model: independent per-cell decoding, j <= i."""

    scope = "lower"

    def __init__(self, cfg: ModelConfig, n_embeddings: int, seed: int = 0):
        super().__init__(cfg, n_embeddings, COREF_VOCAB, seed=seed)

    def ids(self, tokens: Sequence[int]) -> list[int]:
        return list(tokens)

    def decode(self, scores: EdgeScores, allowed=None) -> LabeledGraph:
        return greedy_decode(scores, allowed=allowed, lower_triangular=True)
