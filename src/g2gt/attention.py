"""Relation-conditioned multi-head self-attention and the stacked encoder.

Attention scores receive two extra terms on top of the scaled dot product:
a query-relation term (the query vector against the relation embedding of
the cell's label) and a key-relation term (a second relation embedding
against the key vector).  Attention outputs receive a relation term added
to each value vector.  Relation embeddings are one |L| x d matrix per
role, shared across layers; head h reads its own d/h-wide column slice.

One kernel runs all heads at once, for the encoder and for the single-head
views.  It builds no n*n copies of vectors: the score terms are read from
the per-node H x n x |L| tables q R1' and k R2', and the value term is the
H x n x |L| histogram of each query's attention weight per label times R3.
The graph reaches a layer only through those reads, so
:func:`layer_terms` computes the rest of what attention reads of the
layer's input in one place: the values v, the dot products q k' and the
two tables.  The input of layer 0 is the embedding, which no graph
changes, so :func:`first_layer` holds its terms together with the
relation matrices split per head; a caller that encodes the same input
under several graphs computes it once and passes it to every ``encode``.
The cells' offsets into the tables and the label-range check are also
computed once per ``encode`` call, not per layer.
Leading axes ride along: ``encode`` takes one sentence (n, d) with a
:class:`LabeledGraph`, or a padded batch (B, n_max, d) with a
:class:`GraphBatch`, and returns the node vectors as one tensor of the
same shape; every relation matrix applies to every sentence.
Padding keys get -inf before the softmax, so a real node attends to real
nodes only and its output equals that of encoding its sentence alone.

Each chain of a layer is one autodiff op: each of the q, k and v
projections with its head split; q k'; each label table (a plain
``matmul``); the scores (q k' plus the two table reads, scaled by
1/sqrt(d_h), plus the key mask); the softmax; the values (alpha v and the
histogram term); the attention output (the head merge, w_o, the residual
and its layer norm); and the feed-forward sublayer (both linear maps, the
relu, the residual and its layer norm).  So a layer records at most 11
nodes, and 5 when its terms come from ``first``.  Each fused op's
forward and backward make the numpy calls that the chain of generic ops
made, in the same order and on the same memory layouts, and add into an
input that the chain reached more than once (a layer's input feeds its
residual and its three projections) in the chain's order, so outputs and
gradients are bit-identical to the chain's, while the tape holds one
output per chain instead of every intermediate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import autodiff
from .autodiff import (Tensor, gather_rows, matmul, reshape, softmax_rows,
                       transpose)
from .graphs import GraphBatch, LabeledGraph
from .optim import ParameterRegistry

__all__ = [
    "G2GLayerConfig",
    "RelationEmbeddings",
    "RelationHeads",
    "LayerTerms",
    "FirstLayer",
    "LayerParams",
    "EncoderParams",
    "init_encoder",
    "attention_scores",
    "attention_values",
    "layer_terms",
    "first_layer",
    "encode",
]


@dataclass(frozen=True)
class G2GLayerConfig:
    """Widths and ablation switches of the graph-conditioned encoder.

    The query-relation score term is always active; ``use_key_term``
    controls the key-relation score term and ``use_value_term`` the
    relation term added to attention values.
    """

    d: int
    heads: int
    d_ff: int
    n_layers: int
    use_key_term: bool = True
    use_value_term: bool = True

    def __post_init__(self):
        if self.d <= 0 or self.heads <= 0 or self.d_ff <= 0 or self.n_layers <= 0:
            raise ValueError("all encoder dimensions must be positive")
        if self.d % self.heads != 0:
            raise ValueError(f"d={self.d} not divisible by heads={self.heads}")


class RelationEmbeddings:
    """Three |L| x d embedding matrices: query-side, key-side, value-side."""

    def __init__(self, query_rel: Tensor, key_rel: Tensor, value_rel: Tensor):
        shapes = {query_rel.shape, key_rel.shape, value_rel.shape}
        if len(shapes) != 1:
            raise ValueError(f"relation matrices disagree on shape: {shapes}")
        self.query_rel = query_rel
        self.key_rel = key_rel
        self.value_rel = value_rel

    @classmethod
    def create(cls, registry: ParameterRegistry, n_labels: int, d: int,
               rng: np.random.Generator) -> "RelationEmbeddings":
        return cls(*(registry.parameter(f"encoder.rel.{role}", (n_labels, d), rng)
                     for role in ("query", "key", "value")))

    def heads(self, cfg: G2GLayerConfig) -> "RelationHeads":
        """The matrices split per head; an ablated role is None."""
        return RelationHeads(
            query=_split_table_heads(self.query_rel, cfg.heads),
            key=_split_table_heads(self.key_rel, cfg.heads) if cfg.use_key_term else None,
            value=_split_heads(self.value_rel, cfg.heads) if cfg.use_value_term else None)


class RelationHeads(NamedTuple):
    """Relation matrices split per head: query and key as (H, d_h, L) tables
    that turn (..., H, n, d_h) projections into per-node label tables, value
    as (H, L, d_h)."""

    query: Tensor
    key: Optional[Tensor]
    value: Optional[Tensor]


@dataclass
class LayerTerms:
    """What one layer's attention reads of its input apart from the graph,
    per head: the dot products q k' (..., H, n, n), the label tables q R1'
    and k R2' (..., H, n, L), the latter None without the key term, and the
    values v (..., H, n, d_h), None where only the scores are read."""

    qk: Tensor
    q_table: Tensor
    k_table: Optional[Tensor]
    v: Optional[Tensor]


def _layer_terms(q: Tensor, k: Tensor, v: Optional[Tensor], rel_q: Tensor,
                 rel_k: Optional[Tensor]) -> LayerTerms:
    return LayerTerms(qk=_qk(q, k), q_table=matmul(q, rel_q),
                      k_table=None if rel_k is None else matmul(k, rel_k), v=v)


def layer_terms(x: Tensor, layer: "LayerParams", rel: RelationHeads,
                heads: int) -> LayerTerms:
    """The graph-independent attention terms of ``layer`` on input ``x``,
    (n, d) or (B, n, d)."""
    q = _project_heads(x, layer.w_q, heads)
    k = _project_heads(x, layer.w_k, heads)
    v = _project_heads(x, layer.w_v, heads)
    return _layer_terms(q, k, v, rel.query, rel.key)


def _head_axes(rank: int) -> tuple[int, ...]:
    """The axes that swap the head and node axes of a (..., n, H, d_h) or
    (..., H, n, d_h) array of ``rank``; the swap is its own inverse."""
    return (*range(rank - 3), rank - 2, rank - 3, rank - 1)


def _project_heads(x: Tensor, w: Tensor, heads: int) -> Tensor:
    """x w split per head, (..., n, d) -> (..., H, n, d_h), a view of the
    product in which head h takes columns h*d_h to (h+1)*d_h: one op."""
    *lead, n, d = x.shape
    width = w.shape[1]
    rows = x.data.reshape(-1, d)
    axes = _head_axes(len(lead) + 3)
    out = (rows @ w.data).reshape(*lead, n, heads, width // heads).transpose(axes)

    def bwd(g: np.ndarray) -> None:
        g_rows = g.transpose(axes).reshape(-1, width)
        if x.requires_grad:
            autodiff._accumulate(x, (g_rows @ w.data.T).reshape(x.data.shape))
        if w.requires_grad:
            autodiff._accumulate(w, rows.T @ g_rows)

    return autodiff._make(out, (x, w), bwd)


def _qk(q: Tensor, k: Tensor) -> Tensor:
    """The dot products q k' of every head, (..., H, n, n), of (..., H, n, d_h)
    projections: one op."""
    out = q.data @ np.swapaxes(k.data, -1, -2)

    def bwd(g: np.ndarray) -> None:
        if q.requires_grad:
            autodiff._accumulate(q, g @ k.data)
        if k.requires_grad:
            autodiff._accumulate(k, np.swapaxes(np.swapaxes(q.data, -1, -2) @ g, -1, -2))

    return autodiff._make(out, (q, k), bwd)


class FirstLayer(NamedTuple):
    """What ``encode`` reads that no graph changes: the relation matrices
    split per head, and layer 0's terms on the embedding."""

    rel: RelationHeads
    terms: LayerTerms


def first_layer(x: Tensor, params: "EncoderParams", cfg: G2GLayerConfig) -> FirstLayer:
    """The relation-head split and layer 0's terms on input ``x``, (n, d)
    or (B, n, d); the relation terms of every layer read this split."""
    rel = params.rel.heads(cfg)
    return FirstLayer(rel, layer_terms(x, params.layers[0], rel, cfg.heads))


def _split_heads(x: Tensor, heads: int) -> Tensor:
    """(..., m, H*d_h) -> (..., H, m, d_h): head h takes columns h*d_h to (h+1)*d_h."""
    *lead, m, width = x.shape
    return transpose(reshape(x, (*lead, m, heads, width // heads)),
                     _head_axes(len(lead) + 3))


def _split_table_heads(rel: Tensor, heads: int) -> Tensor:
    """(L, H*d_h) -> (H, d_h, L): per head, the transposed relation matrix
    that turns (..., H, n, d_h) projections into per-node label tables."""
    n_labels, width = rel.shape
    return transpose(reshape(rel, (n_labels, heads, width // heads)), (1, 2, 0))


def _head_slice(rel_matrix: Tensor, d_head: int, split) -> Tensor:
    """Head 0 of a relation matrix split by ``split``, as a stack of one."""
    width = rel_matrix.shape[1]
    if width % d_head:
        raise ValueError(f"relation matrix width {width} is not a multiple "
                         f"of d_head={d_head}")
    return gather_rows(split(rel_matrix, width // d_head), [0])


def _node_rows(labels: np.ndarray, stack: Tensor, n_labels: int) -> np.ndarray:
    """Offsets of node i's row in a flat (..., H, n, L) table, for a
    (..., H, n, .) stack; shape (..., H, n, 1)."""
    n = stack.shape[-2]
    if labels.shape[-1] != n:
        raise ValueError(f"graph has {labels.shape[-1]} nodes but input has {n} rows")
    if labels.size and labels.max() >= n_labels:
        # an out-of-range label would silently read the next row's table entry
        raise ValueError(
            f"label index {labels.max()} out of range for {n_labels} relations")
    return np.arange(math.prod(stack.shape[:-1])).reshape(stack.shape[:-1] + (1,)) * n_labels


def _scores(terms: LayerTerms, labels: np.ndarray, rows: np.ndarray, d_head: int,
            padding: Optional[np.ndarray] = None) -> Tensor:
    """Scaled scores of every head, (..., H, n, n), from a layer's terms,
    the (..., 1, n, n) labels and their tables' ``_node_rows``, plus the
    additive key mask ``padding`` when given: one op.

    The relation terms are read from the per-node tables q R1' and k R2':
    q_i.r1_ij is entry (h, i, label_ij) of the first, r2_ij.k_j entry
    (h, j, label_ij) of the second.  Backward sums each table's cells
    into a flat table with a weighted bincount, which adds them in cell
    order from zero as a gather's scatter-add (``np.add.at``) does, at a
    fraction of its cost.
    """
    scale = 1.0 / math.sqrt(d_head)
    q_cells = rows + labels
    out = terms.qk.data + terms.q_table.data.reshape(-1)[q_cells]
    tables = [(terms.q_table, q_cells)]
    if terms.k_table is not None:
        k_cells = np.swapaxes(rows, -1, -2) + labels
        out += terms.k_table.data.reshape(-1)[k_cells]
        tables.append((terms.k_table, k_cells))
    out *= scale
    if padding is not None:
        out += padding

    def bwd(g: np.ndarray) -> None:
        g = g * scale
        autodiff._accumulate(terms.qk, g)
        for table, cells in tables:
            if table.requires_grad:
                flat = np.bincount(cells.reshape(-1), weights=g.reshape(-1),
                                   minlength=table.data.size)
                autodiff._accumulate(table, flat.reshape(table.data.shape))

    return autodiff._make(out, (terms.qk, *(table for table, _ in tables)), bwd)


def _values(alpha: Tensor, v: Tensor, labels: np.ndarray, rows: np.ndarray,
            rel_v: Tensor | None) -> Tensor:
    """alpha v plus, per cell, alpha_ij r3_ij, for every head: (..., H, n, d_h),
    as one op.

    The relation term is the (..., H, n, L) histogram of each query's
    weights over the labels of its cells, times the (H, L, d_h) R3;
    ``rows`` are that histogram's ``_node_rows``.  Backward gives alpha
    the histogram's gradient, gathered per cell, before g v'.
    """
    out = alpha.data @ v.data
    if rel_v is not None:
        n_labels = rel_v.shape[-2]
        cells = rows + labels
        histogram = np.bincount(cells.reshape(-1), weights=alpha.data.reshape(-1),
                                minlength=rows.size * n_labels
                                ).reshape(rows.shape[:-1] + (n_labels,))
        out += histogram @ rel_v.data

    def bwd(g: np.ndarray) -> None:
        if rel_v is not None:
            if rel_v.requires_grad:
                autodiff._accumulate(rel_v, autodiff._unbroadcast(
                    np.swapaxes(histogram, -1, -2) @ g, rel_v.data.shape))
            if alpha.requires_grad:
                g_histogram = g @ np.swapaxes(rel_v.data, -1, -2)
                autodiff._accumulate(alpha, g_histogram.reshape(-1)[cells])
        if alpha.requires_grad:
            autodiff._accumulate(alpha, g @ np.swapaxes(v.data, -1, -2))
        if v.requires_grad:
            autodiff._accumulate(v, np.swapaxes(alpha.data, -1, -2) @ g)

    inputs = (alpha, v) if rel_v is None else (alpha, v, rel_v)
    return autodiff._make(out, inputs, bwd)


def attention_scores(x: Tensor, w_q: Tensor, w_k: Tensor, graph: LabeledGraph,
                     rel: RelationEmbeddings, cfg: G2GLayerConfig) -> Tensor:
    """Graph-conditioned attention scores of one head, scaled by 1/sqrt(d_head):
    the head of width ``w_q.shape[1]`` that reads the relation matrices'
    first columns."""
    n = x.shape[0]
    q = matmul(x, w_q)
    k = matmul(x, w_k)
    d_head = q.shape[1]
    rel_q_h = _head_slice(rel.query_rel, d_head, _split_table_heads)
    rel_k_h = (_head_slice(rel.key_rel, d_head, _split_table_heads)
               if cfg.use_key_term else None)
    terms = _layer_terms(reshape(q, (1, n, d_head)), reshape(k, (1, n, d_head)),
                         None, rel_q_h, rel_k_h)
    rows = _node_rows(graph.labels, terms.q_table, terms.q_table.shape[-1])
    return reshape(_scores(terms, graph.labels, rows, d_head), (n, n))


def attention_values(alpha: Tensor, x: Tensor, w_v: Tensor, graph: LabeledGraph,
                     rel: RelationEmbeddings, cfg: G2GLayerConfig) -> Tensor:
    """Attention-weighted values of one head, as :func:`attention_scores`
    reads it, with the relation term added per cell."""
    n = x.shape[0]
    if graph.n != n:
        raise ValueError(f"graph has {graph.n} nodes but input has {n} rows")
    if alpha.shape != (n, n):
        raise ValueError(f"alpha must be ({n}, {n}), got {alpha.shape}")
    row_sums = alpha.data.sum(axis=1)
    if not np.allclose(row_sums, 1.0, atol=1e-6):
        raise ValueError("alpha rows must sum to 1")
    v = matmul(x, w_v)
    d_head = v.shape[1]
    rel_v_h = (_head_slice(rel.value_rel, d_head, _split_heads)
               if cfg.use_value_term else None)
    v = reshape(v, (1, n, d_head))
    rows = None if rel_v_h is None else _node_rows(graph.labels, v, rel_v_h.shape[-2])
    z = _values(reshape(alpha, (1, n, n)), v, graph.labels, rows, rel_v_h)
    return reshape(z, (n, d_head))


@dataclass
class LayerParams:
    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    attn_gain: Tensor
    attn_bias: Tensor
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor
    ffn_gain: Tensor
    ffn_bias: Tensor


@dataclass
class EncoderParams:
    rel: RelationEmbeddings
    layers: list[LayerParams]


def init_encoder(registry: ParameterRegistry, cfg: G2GLayerConfig, n_labels: int,
                 rng: np.random.Generator) -> EncoderParams:
    rel = RelationEmbeddings.create(registry, n_labels, cfg.d, rng)
    layers = []
    for layer in range(cfg.n_layers):
        p = f"encoder.layer{layer}"
        layers.append(LayerParams(
            w_q=registry.parameter(f"{p}.attn.wq", (cfg.d, cfg.d), rng),
            w_k=registry.parameter(f"{p}.attn.wk", (cfg.d, cfg.d), rng),
            w_v=registry.parameter(f"{p}.attn.wv", (cfg.d, cfg.d), rng),
            w_o=registry.parameter(f"{p}.attn.wo", (cfg.d, cfg.d), rng),
            attn_gain=registry.parameter(f"{p}.attn.norm.gain", (cfg.d,), rng, init="ones"),
            attn_bias=registry.parameter(f"{p}.attn.norm.bias", (cfg.d,), rng, init="zeros"),
            ffn_w1=registry.parameter(f"{p}.ffn.w1", (cfg.d, cfg.d_ff), rng),
            ffn_b1=registry.parameter(f"{p}.ffn.b1", (cfg.d_ff,), rng),
            ffn_w2=registry.parameter(f"{p}.ffn.w2", (cfg.d_ff, cfg.d), rng),
            ffn_b2=registry.parameter(f"{p}.ffn.b2", (cfg.d,), rng),
            ffn_gain=registry.parameter(f"{p}.ffn.norm.gain", (cfg.d,), rng, init="ones"),
            ffn_bias=registry.parameter(f"{p}.ffn.norm.bias", (cfg.d,), rng, init="zeros"),
        ))
    return EncoderParams(rel=rel, layers=layers)


def encode(x: Tensor, graph: LabeledGraph | GraphBatch, params: EncoderParams,
           cfg: G2GLayerConfig, first: Optional[FirstLayer] = None) -> Tensor:
    """Run the stacked graph-conditioned encoder over an embedded sequence;
    returns the node vectors, shaped as ``x``.

    ``x`` is one sentence (n, d) conditioned on a :class:`LabeledGraph`, or
    a padded batch (B, n_max, d) conditioned on a :class:`GraphBatch`.
    Each layer applies multi-head graph-conditioned attention, then a
    residual + layer norm, then a feed-forward block with its own
    residual + layer norm (post-norm arrangement).  The rows of padding
    nodes come out finite and meaningless.  ``first``, when given, must be
    ``first_layer`` of this ``x``; it is used instead of computing it
    again.
    """
    *lead, n, _ = x.shape
    if graph.labels.shape[:-2] != tuple(lead):
        raise ValueError(f"graph labels {graph.labels.shape} do not match input "
                         f"{x.shape}")
    labels = np.expand_dims(graph.labels, -3)       # broadcast over heads
    padding = graph.key_mask() if isinstance(graph, GraphBatch) else None
    if first is None:
        first = first_layer(x, params, cfg)
    rel, terms = first
    rows = _node_rows(labels, terms.q_table, terms.q_table.shape[-1])
    d_head = cfg.d // cfg.heads

    for index, layer in enumerate(params.layers):
        if index > 0:
            terms = layer_terms(x, layer, rel, cfg.heads)
        alpha = softmax_rows(_scores(terms, labels, rows, d_head, padding))
        x = _attention_output(_values(alpha, terms.v, labels, rows, rel.value), x, layer)
        x = _feed_forward(x, layer)
    return x


def _attention_output(heads: Tensor, x: Tensor, layer: LayerParams) -> Tensor:
    """The attention sublayer's output layer_norm(x + merge(heads) w_o) of
    the (..., H, n, d_h) head outputs and the (..., n, d) input: one op."""
    d = x.shape[-1]
    axes = _head_axes(heads.data.ndim)
    merged = heads.data.transpose(axes)                  # (..., n, H, d_h)
    rows = merged.reshape(-1, d)                         # a copy
    out, xhat, inv = autodiff._layer_norm_forward(
        x.data + (rows @ layer.w_o.data).reshape(x.data.shape),
        layer.attn_gain, layer.attn_bias)

    def bwd(g: np.ndarray) -> None:
        g_sum = autodiff._layer_norm_backward(g, xhat, inv, layer.attn_gain,
                                              layer.attn_bias)
        autodiff._accumulate(x, g_sum)
        g_rows = g_sum.reshape(-1, d)
        if heads.requires_grad:
            g_merged = (g_rows @ layer.w_o.data.T).reshape(merged.shape)
            autodiff._accumulate(heads, g_merged.transpose(axes))
        autodiff._accumulate(layer.w_o, rows.T @ g_rows)

    return autodiff._make(out, (heads, x, layer.w_o, layer.attn_gain, layer.attn_bias),
                          bwd)


def _feed_forward(x: Tensor, layer: LayerParams) -> Tensor:
    """The feed-forward sublayer layer_norm(x + relu(x w1 + b1) w2 + b2) of
    the (..., n, d) input: one op."""
    d = x.shape[-1]
    rows = x.data.reshape(-1, d)
    hidden = rows @ layer.ffn_w1.data + layer.ffn_b1.data
    mask = hidden > 0.0
    hidden = hidden * mask
    out, xhat, inv = autodiff._layer_norm_forward(
        x.data + (hidden @ layer.ffn_w2.data + layer.ffn_b2.data).reshape(x.data.shape),
        layer.ffn_gain, layer.ffn_bias)

    def bwd(g: np.ndarray) -> None:
        # the biases' gradients are summed over the input's leading axes in
        # turn, as a broadcast add's backward sums them
        g_sum = autodiff._layer_norm_backward(g, xhat, inv, layer.ffn_gain,
                                              layer.ffn_bias)
        autodiff._accumulate(x, g_sum)
        autodiff._accumulate(layer.ffn_b2, autodiff._unbroadcast(
            g_sum, layer.ffn_b2.data.shape))
        g_rows = g_sum.reshape(-1, d)
        g_hidden = (g_rows @ layer.ffn_w2.data.T) * mask
        autodiff._accumulate(layer.ffn_w2, hidden.T @ g_rows)
        autodiff._accumulate(layer.ffn_b1, autodiff._unbroadcast(
            g_hidden.reshape(*x.shape[:-1], -1), layer.ffn_b1.data.shape))
        if x.requires_grad:
            autodiff._accumulate(x, (g_hidden @ layer.ffn_w1.data.T).reshape(x.data.shape))
        autodiff._accumulate(layer.ffn_w1, rows.T @ g_hidden)

    return autodiff._make(out, (x, layer.ffn_w1, layer.ffn_b1, layer.ffn_w2,
                                layer.ffn_b2, layer.ffn_gain, layer.ffn_bias), bwd)
