"""Recursive non-autoregressive graph refinement.

Each iteration re-encodes the sequence conditioned on the previously
predicted graph and re-predicts every edge in parallel; the loop stops
early once the graph stops changing, or at the iteration cap.  Training
runs a fixed number of iterations, conditioning each one on the previous
(detached, discrete) prediction and summing the per-iteration losses.

Training takes a batch in one pass per iteration: its sentences are
padded to the longest, encoded and scored together, and the loss gathers
the gold label's log-probability at every real, in-scope cell of every
sentence.  Padding cells carry NONE and fall outside that gather; only
the discrete decode between iterations runs sentence by sentence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .autodiff import (Record, Tensor, backward, gather_rows, log_softmax_rows, neg,
                       recording, reshape, tensor_sum)
from .edges import EdgeScores
from .errors import DataError, TrainingError, UsageError
from .graphs import (COREF_VOCAB, GraphBatch, LabeledGraph, RelationVocab,
                     empty_graph, graph_equals)

__all__ = [
    "RefinementConfig",
    "TraceStep",
    "RefinementTrace",
    "stage_mask",
    "refine",
    "FactoredGraphDistribution",
    "graph_log_likelihood",
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
    def final(self) -> LabeledGraph:
        return self.steps[-1].graph

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
    starting from the empty parse.

    The model must expose ``graph_size(tokens)``, ``score(tokens, graph)``
    returning :class:`EdgeScores`, ``decode(scores, allowed)`` and a
    ``rel_vocab``.  Returns the last graph and the full trace.
    """
    if len(tokens) == 0:
        raise DataError("cannot refine an empty token sequence")
    g = empty_graph(model.graph_size(tokens))
    trace = RefinementTrace([TraceStep(0, g, False)])
    for t in range(1, cfg.t_max + 1):
        allowed = stage_mask(t, cfg.schedule, model.rel_vocab)
        scores = model.score(tokens, g)
        new_graph = model.decode(scores, allowed=allowed)
        converged = graph_equals(new_graph, g)
        trace.steps.append(TraceStep(t, new_graph, converged))
        g = new_graph
        if converged and cfg.stop_on_convergence:
            break
    return g, trace


# ---------------------------------------------------------------------------
# factored per-cell distributions and the refinement training loss


def scope_mask(n: int, scope: str) -> np.ndarray:
    """In-scope cells: all off-diagonal pairs, or the lower triangle j <= i."""
    if scope == "full":
        return ~np.eye(n, dtype=bool)
    if scope == "lower":
        return np.tril(np.ones((n, n), dtype=bool))
    raise UsageError(f"unknown scope {scope!r}")


class FactoredGraphDistribution:
    """Per-cell categorical distributions over labels, conditioned jointly,
    for B graphs padded to n nodes: ``log_probs`` is (B*n*n, L), one row per
    cell, graph by graph."""

    __slots__ = ("log_probs", "n", "scope")

    def __init__(self, log_probs: Tensor, n: int, scope: str):
        if log_probs.data.ndim != 2 or log_probs.shape[0] % (n * n):
            raise ValueError(f"log_probs must be (B*n*n, L), got {log_probs.shape}")
        scope_mask(n, scope)  # validates the scope name
        self.log_probs = log_probs
        self.n = n
        self.scope = scope

    @classmethod
    def from_scores(cls, scores: EdgeScores, scope: str) -> "FactoredGraphDistribution":
        return cls(log_softmax_rows(scores.flat), scores.n, scope)


def graph_log_likelihood(dist: FactoredGraphDistribution, gold: GraphBatch) -> Tensor:
    """Sum over the batch of log p(cell = gold label) over the real,
    in-scope cells of each graph (a scalar <= 0).

    One flat gather reads every such cell's gold entry.  The training
    loss is this value negated.
    """
    n_labels = dist.log_probs.shape[1]
    if gold.n != dist.n or len(gold) * gold.n * gold.n != dist.log_probs.shape[0]:
        raise DataError(f"{len(gold)} graphs of {gold.n} nodes, but the distribution "
                        f"covers {dist.log_probs.shape[0] // (dist.n * dist.n)} of "
                        f"{dist.n} nodes")
    in_scope = scope_mask(gold.n, dist.scope) & gold.real_cells()
    out_of_scope = ~in_scope & (gold.labels != 0)
    if np.any(out_of_scope):
        b, i, j = np.argwhere(out_of_scope)[0]
        raise DataError(f"graph {b + 1} of {len(gold)}: no distribution for "
                        f"labeled cell ({i}, {j})")
    cells = np.flatnonzero(in_scope) * n_labels + gold.labels[in_scope]
    flat = reshape(dist.log_probs, (dist.log_probs.data.size,))
    return tensor_sum(gather_rows(flat, cells))


def refinement_loss(batch: Sequence[tuple], model, cfg: RefinementConfig) -> Tensor:
    """Summed negative log-likelihood over ``t_train`` refinement iterations.

    ``batch`` holds (tokens, gold graph) pairs.  Iteration t scores the
    whole batch in one pass, padded to its longest sentence, each sentence
    conditioned on its own iteration t-1 prediction (G^0 is the empty
    parse); padding nodes and cells add nothing to the loss.  The discrete
    decode step carries no gradient, so iterations do not backpropagate
    into each other.  Raises :class:`TrainingError` when an iteration's
    loss is not finite, before its prediction is decoded.
    """
    tokens = [t for t, _ in batch]
    sizes = [model.graph_size(t) for t in tokens]
    for k, ((_, gold), n) in enumerate(zip(batch, sizes), start=1):
        if gold.n != n:
            raise DataError(f"sentence {k} of {len(batch)}: gold graph has {gold.n} "
                            f"nodes, input needs {n}")
    gold = GraphBatch([g for _, g in batch])
    graphs = [empty_graph(n) for n in sizes]
    total: Optional[Tensor] = None
    for t in range(1, cfg.t_train + 1):
        scores = model.score_batch(tokens, graphs)
        dist = FactoredGraphDistribution.from_scores(scores, model.scope)
        loss_t = neg(graph_log_likelihood(dist, gold))
        if not np.isfinite(loss_t.data):
            raise TrainingError(f"iteration {t}: loss is {loss_t.item()}")
        total = loss_t if total is None else total + loss_t
        if t < cfg.t_train:
            allowed = stage_mask(t, cfg.schedule, model.rel_vocab)
            graphs = [model.decode(scores.sentence(b, n), allowed=allowed)
                      for b, n in enumerate(sizes)]
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
