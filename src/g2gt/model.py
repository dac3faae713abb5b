"""Full models: embeddings + graph-conditioned encoder + edge scorer.

Two decode styles share the same trunk: the dependency parser decodes a
spanning arborescence over a virtual root with one root child and writes
it through :func:`g2gt.graphs.arc_graph`, while the mention/coreference
style model decodes every lower-triangular cell independently.  Training
and inference score through one :class:`BatchScorer`, which a model
builds for a batch of sentences.  It computes once what no graph changes
(the padded embedding, the relation matrices split per head and layer
0's graph-independent attention terms), and each call encodes the batch
under one graph per sentence and scores it.  Training builds one per
batch, tracked, over every label, and calls it at each refinement
iteration; inference builds one per batch of similar-length sentences
over the labels the model decodes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache
from typing import Optional, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from .attention import (EncoderParams, G2GLayerConfig, encode, first_layer,
                        init_encoder)
from .autodiff import Tensor, add, gather_rows
from .edges import (EdgeScorerParams, greedy_decode, init_edge_scorer, label_edges,
                    pooled_head_scores, score_edges)
from .errors import DataError, UsageError
from .graphs import COREF_VOCAB, GraphBatch, LabeledGraph, RelationVocab, arc_graph
from .mst import mst_decode
from .optim import ParameterRegistry
from .vocab import Vocab

__all__ = ["ModelConfig", "SentenceEncoderModel", "BatchScorer",
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

    @property
    def decode_labels(self) -> np.ndarray:
        """The labels that ``decode`` reads, in the order of its score columns."""
        return np.arange(len(self.rel_vocab))

    def scorer(self, batch: Sequence[Sequence],
               labels: Optional[np.ndarray] = None) -> "BatchScorer":
        return BatchScorer(self, batch, labels)


class BatchScorer:
    """Edge scores of B sentences, each conditioned on its own graph, in
    one pass over the batch padded to its longest sentence: a call maps
    one graph per sentence to one (B, n_max, n_max, labels) tensor.

    Made once per batch, it holds the padded embedding, the relation
    matrices split per head with layer 0's attention terms, and each
    sentence's node count, ``sizes``.  With ``labels`` None it scores every
    label through the model's (tracked) scorer, else only ``labels``,
    untracked, whose column k is then label ``labels[k]``.
    """

    def __init__(self, model: SentenceEncoderModel, batch: Sequence[Sequence],
                 labels: Optional[np.ndarray] = None):
        if not batch:
            raise DataError("empty batch")
        id_lists = [model.ids(tokens) for tokens in batch]
        self.sizes = [len(ids) for ids in id_lists]
        padded = np.zeros((len(batch), max(self.sizes)), dtype=np.intp)
        for b, ids in enumerate(id_lists):
            padded[b, :len(ids)] = ids
        self._model = model
        self._x = model.embed(padded)
        self._first = first_layer(self._x, model.encoder, model.layer_cfg)
        self._edge_params = (model.edge_params if labels is None
                             else model.edge_params.for_labels(labels))

    def __call__(self, graphs: Sequence[LabeledGraph]) -> Tensor:
        for graph, n in zip(graphs, self.sizes, strict=True):
            if graph.n != n:
                raise DataError(f"conditioning graph has {graph.n} nodes for {n} tokens")
        model = self._model
        z = encode(self._x, GraphBatch(graphs), model.encoder, model.layer_cfg,
                   self._first)
        return score_edges(z, self._edge_params)


class DependencyParserModel(SentenceEncoderModel):
    """Parser over surface forms with a virtual root and tree decoding."""

    scope = "full"

    def __init__(self, cfg: ModelConfig, token_vocab: Vocab,
                 rel_vocab: RelationVocab, seed: int = 0, source=None):
        if rel_vocab.scheme != "bidirectional":
            raise UsageError("dependency parsing needs a bidirectional relation vocab")
        if not len(rel_vocab.up_indices()):
            raise UsageError("dependency parsing needs at least one up relation label")
        super().__init__(cfg, len(token_vocab), rel_vocab, seed=seed, source=source)
        self.token_vocab = token_vocab

    def ids(self, forms: Sequence[str]) -> list[int]:
        return self.token_vocab.encode_with_root(forms)

    @property
    def decode_labels(self) -> np.ndarray:
        return self.rel_vocab.up_indices()

    def decode(self, slab: np.ndarray) -> LabeledGraph:
        """The next graph: the best tree under an (n, n, |up|) slab of scores
        over the up labels, ``decode_labels``.  The slab gives the
        single-root MST its head scores (the max over labels) and each
        chosen arc its label (the argmax)."""
        labels = self.decode_labels
        if slab.shape[-1] != len(labels):
            raise ValueError(f"scores have {slab.shape[-1]} columns for {len(labels)} labels")
        heads = mst_decode(pooled_head_scores(slab))
        up = label_edges(heads, slab)
        n = slab.shape[0]
        return arc_graph(n, np.arange(1, n), heads[1:], labels[up], self.rel_vocab)


class MentionCorefModel(SentenceEncoderModel):
    """Two-level span/link model: independent per-cell decoding, j <= i."""

    scope = "lower"

    def __init__(self, cfg: ModelConfig, n_embeddings: int, seed: int = 0):
        super().__init__(cfg, n_embeddings, COREF_VOCAB, seed=seed)

    def ids(self, tokens: Sequence[int]) -> list[int]:
        return list(tokens)

    def decode(self, slab: np.ndarray) -> LabeledGraph:
        return greedy_decode(slab)
