"""Recursive non-autoregressive graph refinement.

Each iteration re-encodes the sequence conditioned on the previously
predicted graph and re-predicts every edge in parallel; the loop stops
early once the graph stops changing, or at the iteration cap.  Training
runs a fixed number of iterations, conditioning each one on the previous
(detached, discrete) prediction and summing the per-iteration losses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .autodiff import (Record, Tensor, backward, log_softmax_rows, mul, neg,
                       recording, tensor_sum)
from .edges import EdgeScores
from .errors import DataError, UsageError
from .graphs import (COREF_VOCAB, LabeledGraph, RelationVocab, empty_graph,
                     graph_equals)

__all__ = [
    "RefinementConfig",
    "TraceStep",
    "RefinementTrace",
    "initial_graph",
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
    initializer: str = "empty"            # or "external"
    stop_on_convergence: bool = True

    def __post_init__(self):
        if self.t_max < 1:
            raise UsageError(f"t_max must be >= 1, got {self.t_max}")
        if self.t_train < 1:
            raise UsageError(f"t_train must be >= 1, got {self.t_train}")
        if self.schedule not in ("full-graph", "mention-first"):
            raise UsageError(f"unknown stage schedule {self.schedule!r}")
        if self.initializer not in ("empty", "external"):
            raise UsageError(f"unknown initializer {self.initializer!r}")


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


def initial_graph(n: int, mode: str,
                  external: Optional[LabeledGraph] = None) -> LabeledGraph:
    """G^0 for the refinement loop: the empty parse, or a supplied graph."""
    if mode == "empty":
        return empty_graph(n)
    if mode == "external":
        if external is None:
            raise DataError("external initializer needs a graph")
        if external.n != n:
            raise DataError(
                f"external graph has {external.n} nodes but the input has {n}")
        return external
    raise UsageError(f"unknown initializer {mode!r}")


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


def refine(tokens: Sequence, model, cfg: RefinementConfig,
           external_graph: Optional[LabeledGraph] = None
           ) -> tuple[LabeledGraph, RefinementTrace]:
    """Iteratively re-encode and re-predict a graph over ``tokens``.

    The model must expose ``graph_size(tokens)``, ``score(tokens, graph)``
    returning :class:`EdgeScores`, ``decode(scores, allowed)`` and a
    ``rel_vocab``.  Returns the last graph and the full trace.
    """
    if len(tokens) == 0:
        raise DataError("cannot refine an empty token sequence")
    n = model.graph_size(tokens)
    g = initial_graph(n, cfg.initializer, external_graph)
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
    """Per-cell categorical distributions over labels, conditioned jointly."""

    __slots__ = ("log_probs", "n", "scope")

    def __init__(self, log_probs: Tensor, n: int, scope: str):
        if log_probs.shape != (n * n, log_probs.shape[1]):
            raise ValueError(f"log_probs must be (n*n, L), got {log_probs.shape}")
        scope_mask(n, scope)  # validates the scope name
        self.log_probs = log_probs
        self.n = n
        self.scope = scope

    @classmethod
    def from_scores(cls, scores: EdgeScores, scope: str) -> "FactoredGraphDistribution":
        return cls(log_softmax_rows(scores.flat), scores.n, scope)

    @property
    def n_labels(self) -> int:
        return self.log_probs.shape[1]

    def probs(self) -> np.ndarray:
        """Cell probabilities as an (n, n, L) array."""
        return np.exp(self.log_probs.data).reshape(self.n, self.n, self.n_labels)


def graph_log_likelihood(dist: FactoredGraphDistribution,
                         gold: LabeledGraph) -> Tensor:
    """Sum of log p(cell = gold label) over in-scope cells (a scalar <= 0).

    The training loss is this value negated.
    """
    if gold.n != dist.n:
        raise DataError(f"graph has {gold.n} nodes but distribution covers {dist.n}")
    mask = scope_mask(dist.n, dist.scope)
    out_of_scope = (~mask) & (gold.labels != 0)
    if np.any(out_of_scope):
        i, j = np.argwhere(out_of_scope)[0]
        raise DataError(f"no distribution for labeled cell ({i}, {j})")
    pick = np.zeros((dist.n * dist.n, dist.n_labels))
    flat_labels = gold.labels.reshape(-1)
    flat_mask = mask.reshape(-1)
    pick[np.arange(dist.n * dist.n)[flat_mask], flat_labels[flat_mask]] = 1.0
    return tensor_sum(mul(dist.log_probs, Tensor(pick)))


def refinement_loss(batch: Sequence[tuple], model, cfg: RefinementConfig) -> Tensor:
    """Summed negative log-likelihood over ``t_train`` refinement iterations.

    Iteration t is conditioned on iteration t-1's decoded prediction
    (G^0 comes from the initializer).  The discrete decode step carries
    no gradient, so iterations do not backpropagate into each other.
    """
    total: Optional[Tensor] = None
    for tokens, gold in batch:
        n = model.graph_size(tokens)
        if gold.n != n:
            raise DataError(f"gold graph has {gold.n} nodes, input needs {n}")
        g = initial_graph(n, "empty")  # training always starts from the empty parse
        for t in range(1, cfg.t_train + 1):
            scores = model.score(tokens, g)
            dist = FactoredGraphDistribution.from_scores(scores, model.scope)
            loss_t = neg(graph_log_likelihood(dist, gold))
            total = loss_t if total is None else total + loss_t
            if t < cfg.t_train:
                allowed = stage_mask(t, cfg.schedule, model.rel_vocab)
                g = model.decode(scores, allowed=allowed)
    if total is None:
        raise DataError("empty batch")
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
