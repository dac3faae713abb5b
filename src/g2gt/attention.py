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
Leading axes ride along: ``encode`` takes one sentence (n, d) with a
:class:`LabeledGraph`, or a padded batch (B, n_max, d) with a
:class:`GraphBatch`, and every relation matrix applies to every sentence.
Padding keys get -inf before the softmax, so a real node attends to real
nodes only and its output equals that of encoding its sentence alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (Tensor, add, gather_rows, layer_norm, matmul, relu,
                       reshape, scale, scatter_sum, softmax_rows, transpose)
from .graphs import GraphBatch, LabeledGraph
from .optim import ParameterRegistry

__all__ = [
    "G2GLayerConfig",
    "RelationEmbeddings",
    "EncoderState",
    "LayerParams",
    "EncoderParams",
    "init_encoder",
    "attention_scores",
    "attention_values",
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


@dataclass
class EncoderState:
    """Set-of-vectors embedding produced by the encoder."""

    z: Tensor


def _split_heads(x: Tensor, heads: int) -> Tensor:
    """(..., m, H*d_h) -> (..., H, m, d_h): head h takes columns h*d_h to (h+1)*d_h."""
    *lead, m, width = x.shape
    r = len(lead)
    return transpose(reshape(x, (*lead, m, heads, width // heads)),
                     (*range(r), r + 1, r, r + 2))


def _split_table_heads(rel: Tensor, heads: int) -> Tensor:
    """(L, H*d_h) -> (H, d_h, L): per head, the transposed relation matrix
    that turns (..., H, n, d_h) projections into per-node label tables."""
    n_labels, width = rel.shape
    return transpose(reshape(rel, (n_labels, heads, width // heads)), (1, 2, 0))


def _head_slice(rel_matrix: Tensor, head: int, d_head: int, split) -> Tensor:
    """Head ``head`` of a relation matrix split by ``split``, as a stack of one."""
    width = rel_matrix.shape[1]
    if width % d_head or not 0 <= head < width // d_head:
        raise ValueError(f"relation matrix width {width} holds no head {head} "
                         f"at d_head={d_head}")
    return gather_rows(split(rel_matrix, width // d_head), [head])


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


def _table_cells(x: Tensor, rel_t: Tensor, cells: np.ndarray) -> Tensor:
    table = matmul(x, rel_t)
    return gather_rows(reshape(table, (table.data.size,)), cells)


def _scores(q: Tensor, k: Tensor, labels: np.ndarray,
            rel_q: Tensor, rel_k: Tensor | None) -> Tensor:
    """Scaled scores of every head, (..., H, n, n), from (..., H, n, d_h)
    projections, the (..., 1, n, n) labels and (H, d_h, L) relation matrices.

    The relation terms are read from the per-node tables q R1' and k R2':
    q_i.r1_ij is entry (h, i, label_ij) of the first, r2_ij.k_j entry
    (h, j, label_ij) of the second.
    """
    rows = _node_rows(labels, q, rel_q.shape[-1])
    e = matmul(q, transpose(k))
    e = add(e, _table_cells(q, rel_q, rows + labels))
    if rel_k is not None:
        e = add(e, _table_cells(k, rel_k, np.swapaxes(rows, -1, -2) + labels))
    return scale(e, 1.0 / math.sqrt(q.shape[-1]))


def _values(alpha: Tensor, v: Tensor, labels: np.ndarray,
            rel_v: Tensor | None) -> Tensor:
    """alpha v plus, per cell, alpha_ij r3_ij, for every head: (..., H, n, d_h).

    The relation term is the (..., H, n, L) histogram of each query's
    weights over the labels of its cells, times the (H, L, d_h) R3.
    """
    out = matmul(alpha, v)
    if rel_v is not None:
        n_labels = rel_v.shape[-2]
        rows = _node_rows(labels, v, n_labels)
        histogram = scatter_sum(alpha, rows + labels, rows.size * n_labels)
        out = add(out, matmul(reshape(histogram, rows.shape[:-1] + (n_labels,)), rel_v))
    return out


def attention_scores(x: Tensor, w_q: Tensor, w_k: Tensor, graph: LabeledGraph,
                     rel: RelationEmbeddings, cfg: G2GLayerConfig,
                     head: int = 0) -> Tensor:
    """Graph-conditioned attention scores for one head, scaled by 1/sqrt(d_head)."""
    n = x.shape[0]
    q = matmul(x, w_q)
    k = matmul(x, w_k)
    d_head = q.shape[1]
    rel_q_h = _head_slice(rel.query_rel, head, d_head, _split_table_heads)
    rel_k_h = (_head_slice(rel.key_rel, head, d_head, _split_table_heads)
               if cfg.use_key_term else None)
    e = _scores(reshape(q, (1, n, d_head)), reshape(k, (1, n, d_head)),
                graph.labels, rel_q_h, rel_k_h)
    return reshape(e, (n, n))


def attention_values(alpha: Tensor, x: Tensor, w_v: Tensor, graph: LabeledGraph,
                     rel: RelationEmbeddings, cfg: G2GLayerConfig,
                     head: int = 0) -> Tensor:
    """Attention-weighted values with the relation term added per cell."""
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
    rel_v_h = (_head_slice(rel.value_rel, head, d_head, _split_heads)
               if cfg.use_value_term else None)
    z = _values(reshape(alpha, (1, n, n)), reshape(v, (1, n, d_head)),
                graph.labels, rel_v_h)
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
           cfg: G2GLayerConfig) -> EncoderState:
    """Run the stacked graph-conditioned encoder over an embedded sequence.

    ``x`` is one sentence (n, d) conditioned on a :class:`LabeledGraph`, or
    a padded batch (B, n_max, d) conditioned on a :class:`GraphBatch`.
    Each layer applies multi-head graph-conditioned attention, then a
    residual + layer norm, then a feed-forward block with its own
    residual + layer norm (post-norm arrangement).  The rows of padding
    nodes come out finite and meaningless.
    """
    *lead, n, _ = x.shape
    if graph.labels.shape[:-2] != tuple(lead):
        raise ValueError(f"graph labels {graph.labels.shape} do not match input "
                         f"{x.shape}")
    labels = np.expand_dims(graph.labels, -3)       # broadcast over heads
    padding = graph.key_mask() if isinstance(graph, GraphBatch) else None
    rel = params.rel
    rel_q = _split_table_heads(rel.query_rel, cfg.heads)
    rel_k = _split_table_heads(rel.key_rel, cfg.heads) if cfg.use_key_term else None
    rel_v = _split_heads(rel.value_rel, cfg.heads) if cfg.use_value_term else None
    r = len(lead)
    merge = (*range(r), r + 1, r, r + 2)

    for layer in params.layers:
        q = _split_heads(matmul(x, layer.w_q), cfg.heads)
        k = _split_heads(matmul(x, layer.w_k), cfg.heads)
        v = _split_heads(matmul(x, layer.w_v), cfg.heads)
        e = _scores(q, k, labels, rel_q, rel_k)
        if padding is not None:
            e = add(e, Tensor(padding))
        alpha = softmax_rows(e)
        heads = _values(alpha, v, labels, rel_v)
        attn = matmul(reshape(transpose(heads, merge), (*lead, n, cfg.d)), layer.w_o)
        x = layer_norm(add(x, attn), layer.attn_gain, layer.attn_bias)
        hidden = relu(add(matmul(x, layer.ffn_w1), layer.ffn_b1))
        ffn = add(matmul(hidden, layer.ffn_w2), layer.ffn_b2)
        x = layer_norm(add(x, ffn), layer.ffn_gain, layer.ffn_bias)
    return EncoderState(z=x)
