"""Recursive non-autoregressive graph refinement.

Each iteration re-encodes the sequence conditioned on the previously
predicted graph and re-predicts every edge in parallel; the loop stops
early once the graph stops changing, or at the iteration cap.  Both
inference and training ask the model once per batch for a scorer (see
:class:`g2gt.model.BatchScorer`), which computes once what the graph
cannot change, so an iteration runs only the graph-dependent part of the
encoder.  Both take a batch in one pass per iteration: its sentences are
padded to the longest, encoded and scored together into one
(B, n, n, labels) tensor, and one step, :func:`_decode`, decodes each
sentence from its own (n, n, labels) slab of those scores, on the
columns of the labels its model decodes.  Every slab a decoder gets is
read-only, and ``_decode`` is where it becomes so.

Inference (:func:`refine_batch`, of which :func:`refine` is the
one-sentence case) scores only those labels, decodes them in place and
stops each sentence once its graph stops changing.  Training scores
every label and decodes a copy of those columns; it runs a fixed number
of iterations, conditioning each one on the previous (detached,
discrete) prediction, and sums the per-iteration losses.
Each iteration's loss is one op, :func:`graph_nll`: the negative
log-probability of the gold label under a softmax over labels, summed
over every real, in-scope cell of every sentence.  Padding cells carry
NONE and add nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import autodiff
from .autodiff import Record, Tensor, add, backward, recording
from .errors import DataError, TrainingError, UsageError
from .graphs import (COREF_VOCAB, GraphBatch, LabeledGraph, RelationVocab,
                     empty_graph, graph_equals)

__all__ = [
    "RefinementConfig",
    "TraceStep",
    "RefinementTrace",
    "stage_mask",
    "refine",
    "refine_batch",
    "graph_nll",
    "refinement_loss",
    "train_refinement_step",
]

MENTION_FIRST_LABELS = frozenset({0, 1})  # NONE and MENTION only


@dataclass(frozen=True)
class RefinementConfig:
    """Iteration budget and schedule for the refinement loop.

    ``t_max`` bounds inference iterations (the loop also stops as soon as
    two consecutive graphs are equal, unless ``stop_on_convergence`` is
    off); ``t_train`` is the fixed number of training iterations.
    """

    t_max: int = 3
    t_train: int = 2
    schedule: str = "full-graph"          # or "mention-first"
    stop_on_convergence: bool = True

    def __post_init__(self):
        if self.t_max < 1:
            raise UsageError(f"t_max must be >= 1, got {self.t_max}")
        if self.t_train < 1:
            raise UsageError(f"t_train must be >= 1, got {self.t_train}")
        if self.schedule not in ("full-graph", "mention-first"):
            raise UsageError(f"unknown stage schedule {self.schedule!r}")


@dataclass(frozen=True)
class TraceStep:
    t: int
    graph: LabeledGraph
    converged: bool


@dataclass
class RefinementTrace:
    """Sequence of predicted graphs G^0 ... G^T with convergence flags."""

    steps: list[TraceStep] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.steps[-1].converged

    @property
    def iterations(self) -> int:
        return self.steps[-1].t


def stage_mask(t: int, schedule: str, vocab: RelationVocab) -> Optional[frozenset]:
    """Label subset permitted at iteration t, or None when unrestricted.

    Under the mention-first schedule the first iteration may only place
    mention links; from the second iteration on, the full label set
    (mention and coreference links alike) is refined.
    """
    if schedule == "full-graph":
        return None
    if schedule == "mention-first":
        if vocab.labels != COREF_VOCAB.labels:
            raise UsageError(
                "mention-first schedule needs the NONE/MENTION/COREF label set, "
                f"got {vocab.labels}")
        return MENTION_FIRST_LABELS if t == 1 else None
    raise UsageError(f"unknown stage schedule {schedule!r}")


def refine(tokens: Sequence, model,
           cfg: RefinementConfig) -> tuple[LabeledGraph, RefinementTrace]:
    """Iteratively re-encode and re-predict a graph over ``tokens``,
    starting from the empty parse: :func:`refine_batch` of one sentence.
    Returns the last graph and the full trace."""
    return refine_batch([tokens], model, cfg)[0]


def refine_batch(batch: Sequence[Sequence], model,
                 cfg: RefinementConfig) -> list[tuple[LabeledGraph, RefinementTrace]]:
    """Refine every sentence of ``batch`` from the empty parse, scoring
    all of them in one padded pass per iteration.

    Sentences never interact, so each one's graphs and trace are those it
    would get alone.  A sentence that has converged keeps its graph and
    its trace ends there; it stays in the padded pass, whose scores for
    it are not decoded.  The loop stops once every sentence has
    converged, or at ``t_max``.

    The model must expose ``scorer(batch, labels)``, whose result has the
    node count of each sentence in ``sizes`` and maps one graph per
    sentence to a (B, n_max, n_max, labels) score tensor over ``labels``;
    ``decode_labels``; ``decode(slab)`` of a read-only (n, n, labels)
    slab; and a ``rel_vocab``.  Returns one (last graph, trace) pair per
    sentence.
    """
    if any(len(tokens) == 0 for tokens in batch):
        raise DataError("cannot refine an empty token sequence")
    score = model.scorer(batch, model.decode_labels)
    graphs = [empty_graph(n) for n in score.sizes]
    traces = [RefinementTrace([TraceStep(0, g, False)]) for g in graphs]
    active = range(len(graphs))
    for t in range(1, cfg.t_max + 1):
        # this pass's (B, n, n, labels) scores live only while they are
        # decoded, so they are freed before the next pass allocates its own
        decoded = _decode(model, score(graphs).data, score.sizes, active, t, cfg)
        for b, new_graph in zip(active, decoded):
            traces[b].steps.append(
                TraceStep(t, new_graph, graph_equals(new_graph, graphs[b])))
            graphs[b] = new_graph
        if cfg.stop_on_convergence:
            active = [b for b in active if not traces[b].converged]
            if not active:
                break
    return list(zip(graphs, traces))


def _decode(model, cells, sizes, which, t, cfg) -> list[LabeledGraph]:
    """The next graph of each sentence b in ``which``: ``model.decode`` of
    its (n, n, labels) slab ``cells[b, :n, :n]``, read-only.  The slabs are
    those of a read-only view of ``cells``, or, when iteration t's stage
    mask restricts the labels, of a read-only copy whose columns outside
    the mask read -inf; ``cells`` itself is never written."""
    allowed = stage_mask(t, cfg.schedule, model.rel_vocab)
    if allowed is None:
        cells = cells.view()
    else:
        cells = np.where(np.isin(model.decode_labels, list(allowed)), cells, -np.inf)
    cells.flags.writeable = False
    return [model.decode(cells[b, :sizes[b], :sizes[b]]) for b in which]


# ---------------------------------------------------------------------------
# the per-cell refinement training loss


def scope_mask(n: int, scope: str) -> np.ndarray:
    """In-scope cells: all off-diagonal pairs, or the lower triangle j <= i."""
    if scope == "full":
        return ~np.eye(n, dtype=bool)
    if scope == "lower":
        return np.tril(np.ones((n, n), dtype=bool))
    raise UsageError(f"unknown scope {scope!r}")


def graph_nll(scores: Tensor, gold: GraphBatch, scope: str) -> Tensor:
    """Negative log-likelihood of the gold labels under a softmax over
    labels at every cell of the (B, n, n, L) ``scores``, summed over the
    real, in-scope cells of each graph (a scalar >= 0): one op.

    The op works on the cells as (B*n*n, L) rows and keeps only the
    probabilities for backward.  Each in-scope row's gradient is its
    probabilities less 1 at the gold label; every other row's (padding,
    or out of scope) is 0.
    """
    n, n_labels = scores.shape[-2:]
    x = scores.data.reshape(-1, n_labels)
    if gold.n != n or len(gold) * n * n != x.shape[0]:
        raise DataError(f"{len(gold)} graphs of {gold.n} nodes, but the distribution "
                        f"covers {x.shape[0] // (n * n)} of {n} nodes")
    in_scope = scope_mask(gold.n, scope) & gold.real_cells()
    out_of_scope = ~in_scope & (gold.labels != 0)
    if np.any(out_of_scope):
        b, i, j = np.argwhere(out_of_scope)[0]
        raise DataError(f"graph {b + 1} of {len(gold)}: no distribution for "
                        f"labeled cell ({i}, {j})")
    rows = np.flatnonzero(in_scope)
    cells = rows * n_labels + gold.labels[in_scope]
    shifted = x - np.maximum.reduce(x, axis=1, keepdims=True)
    log_z = np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))
    log_p = shifted - log_z
    loss = -np.add.reduce(log_p.reshape(-1)[cells])
    soft = np.exp(log_p)

    def bwd(g: np.ndarray) -> None:
        grad = np.zeros_like(soft)
        grad[rows] = soft[rows]
        grad.reshape(-1)[cells] -= 1.0
        grad *= g
        autodiff._accumulate(scores, grad.reshape(scores.shape))

    return autodiff._make(loss, (scores,), bwd)


def refinement_loss(batch: Sequence[tuple], model, cfg: RefinementConfig) -> Tensor:
    """Summed negative log-likelihood over ``t_train`` refinement iterations.

    ``batch`` holds (tokens, gold graph) pairs.  Iteration t scores the
    whole batch in one pass, padded to its longest sentence, each sentence
    conditioned on its own iteration t-1 prediction (G^0 is the empty
    parse); padding nodes and cells add nothing to the loss.  One scorer
    serves every iteration, so the embedding and layer 0's
    graph-independent terms are computed once and their gradients sum over
    the iterations.  The discrete decode step carries no gradient, so
    iterations do not backpropagate into each other.  Raises
    :class:`TrainingError` when an iteration's loss is not finite, before
    its prediction is decoded.
    """
    score = model.scorer([t for t, _ in batch])
    sizes = score.sizes
    for k, ((_, gold), n) in enumerate(zip(batch, sizes), start=1):
        if gold.n != n:
            raise DataError(f"sentence {k} of {len(batch)}: gold graph has {gold.n} "
                            f"nodes, input needs {n}")
    gold = GraphBatch([g for _, g in batch])
    graphs = [empty_graph(n) for n in sizes]
    total: Optional[Tensor] = None
    for t in range(1, cfg.t_train + 1):
        scores = score(graphs)
        loss_t = graph_nll(scores, gold, model.scope)
        if not np.isfinite(loss_t.data):
            raise TrainingError(f"iteration {t}: loss is {loss_t.item()}")
        total = loss_t if total is None else add(total, loss_t)
        if t < cfg.t_train:
            graphs = _decode(model, scores.data[..., model.decode_labels], sizes,
                             range(len(sizes)), t, cfg)
    return total


def train_refinement_step(batch: Sequence[tuple], model,
                          cfg: RefinementConfig) -> float:
    """One training step: accumulate gradients of the refinement loss.

    Gradients are added into the model's parameters; the caller zeroes
    them beforehand and applies the optimizer afterwards.  Returns the
    loss value.
    """
    record = Record()
    with recording(record):
        loss = refinement_loss(batch, model, cfg)
    backward(loss, record)
    return loss.item()
