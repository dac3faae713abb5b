"""Pairwise edge scoring and non-autoregressive graph extraction.

Every node vector is projected into distinct head and tail views; a
biaffine classifier then scores all n*n node pairs for every label
independently, so the whole graph can be decoded in one parallel pass.
The L bilinear maps are stacked into one (L*d_e, d_e) parameter whose
row block l is label l's map, so all labels are scored by two matrix
products; the linear terms and the bias are then added by broadcasting,
in place into the product when nothing is recorded.  A padded batch of B
sentences is scored in the same products, as (B, n_max, n_max, L) cells.

A tree is decoded from one (n, n, |up|) slab: the scores of the up
("deprel↑") labels, copied once, with labels outside ``allowed`` set to
-inf.  Its max over labels gives the head scores for the MST, and its
argmax at each chosen arc gives that arc's label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, add_into, matmul, reshape, transpose
from .attention import EncoderState
from .errors import DataError
from .graphs import NONE_LABEL, LabeledGraph
from .mst import is_arborescence
from .optim import ParameterRegistry

__all__ = [
    "EdgeScorerParams",
    "EdgeScores",
    "init_edge_scorer",
    "score_edges",
    "greedy_decode",
    "up_label_slab",
    "pooled_head_scores",
    "label_edges",
]


@dataclass
class EdgeScorerParams:
    """Biaffine classifier weights: scores[i,j,l] = h_i B_l t_j' + u_l.h_i + v_l.t_j + b_l.

    ``bilinear`` stacks the per-label maps: rows l*d_e .. (l+1)*d_e-1 hold B_l.
    """

    head_proj: Tensor            # (d, d_e)
    tail_proj: Tensor            # (d, d_e)
    bilinear: Tensor             # (L*d_e, d_e), row block l is B_l
    head_lin: Tensor             # (d_e, L)
    tail_lin: Tensor             # (d_e, L)
    bias: Tensor                 # (1, L)

    @property
    def n_labels(self) -> int:
        return self.bias.shape[1]


def init_edge_scorer(registry: ParameterRegistry, d: int, d_e: int, n_labels: int,
                     rng: np.random.Generator) -> EdgeScorerParams:
    if d_e > d:
        raise ValueError(f"edge width d_e={d_e} must not exceed d={d}")
    # drawn first, as one block: the same draws as L consecutive (d_e, d_e) maps
    bilinear = registry.parameter("edge.bilinear", (n_labels * d_e, d_e), rng)
    return EdgeScorerParams(
        head_proj=registry.parameter("edge.head_proj", (d, d_e), rng),
        tail_proj=registry.parameter("edge.tail_proj", (d, d_e), rng),
        bilinear=bilinear,
        head_lin=registry.parameter("edge.head_lin", (d_e, n_labels), rng),
        tail_lin=registry.parameter("edge.tail_lin", (d_e, n_labels), rng),
        bias=registry.parameter("edge.bias", (1, n_labels), rng),
    )


class EdgeScores:
    """n x n x |L| label scores of each of B sentences padded to n nodes;
    cell (i, j) scores "i relates to j".  ``flat`` holds one row per cell,
    (B*n*n, L), sentence by sentence."""

    __slots__ = ("flat", "n")

    def __init__(self, flat: Tensor, n: int):
        if flat.shape[0] % (n * n):
            raise ValueError(
                f"flat scores have {flat.shape[0]} rows, not a multiple of {n * n}")
        self.flat = flat
        self.n = n

    @property
    def n_labels(self) -> int:
        return self.flat.shape[1]

    def array(self) -> np.ndarray:
        """One sentence's scores as an (n, n, L) array (a copy; safe to mutate)."""
        return self.flat.data.reshape(self.n, self.n, self.n_labels).copy()

    def sentence(self, b: int, n: int) -> "EdgeScores":
        """Sentence b's scores over its first n nodes, untracked, for decoding."""
        cells = self.flat.data.reshape(-1, self.n, self.n, self.n_labels)[b, :n, :n]
        return EdgeScores(Tensor(cells.reshape(n * n, self.n_labels)), n)


def score_edges(state: EncoderState, params: EdgeScorerParams) -> EdgeScores:
    """Score every ordered node pair for every label in parallel.

    ``state.z`` is one sentence (n, d) or a padded batch (B, n, d).
    """
    z = state.z
    *lead, n, _ = z.shape
    n_labels = params.n_labels
    h = matmul(z, params.head_proj)
    t = matmul(z, params.tail_proj)
    d_e = h.shape[-1]
    # row j*L + l of bt is t_j B_l', so (h bt')[i, j*L + l] = h_i B_l t_j'
    bt = reshape(matmul(t, transpose(params.bilinear)), (*lead, n * n_labels, d_e))
    cells = add_into(reshape(matmul(h, transpose(bt)), (*lead, n, n, n_labels)),
                     reshape(matmul(h, params.head_lin), (*lead, n, 1, n_labels)),
                     reshape(matmul(t, params.tail_lin), (*lead, 1, n, n_labels)),
                     params.bias)
    return EdgeScores(reshape(cells, (cells.data.size // n_labels, n_labels)), n)


def greedy_decode(scores: EdgeScores, allowed=None,
                  lower_triangular: bool = False) -> LabeledGraph:
    """Per-cell argmax decoding; ties go to the lowest label index.

    The diagonal is forced to NONE.  With ``lower_triangular`` the upper
    triangle is forced to NONE as well (span/link style graphs).
    ``allowed`` optionally restricts decoding to a subset of labels.
    """
    arr = scores.flat.data.reshape(scores.n, scores.n, scores.n_labels)
    if allowed is not None:
        arr = np.where(_allowed(np.arange(scores.n_labels), allowed), arr, -np.inf)
    labels = arr.argmax(axis=2)
    np.fill_diagonal(labels, NONE_LABEL)
    if lower_triangular:
        labels[np.triu_indices(scores.n, k=1)] = NONE_LABEL
    return LabeledGraph(labels, n_labels=scores.n_labels)


def _allowed(labels: np.ndarray, allowed) -> np.ndarray:
    """Which of ``labels`` lie in the ``allowed`` set of label indices."""
    return np.isin(labels, np.fromiter(allowed, dtype=np.intp, count=len(allowed)))


def up_label_slab(scores: EdgeScores, up: np.ndarray, allowed=None) -> np.ndarray:
    """(n, n, |up|) scores of the labels ``up``, a fresh array: label k of
    cell (i, j) is the score of "j heads i with label up[k]", and reads -inf
    when ``up[k]`` is not in ``allowed``."""
    slab = scores.flat.data[:, up].reshape(scores.n, scores.n, len(up))
    if allowed is not None:
        slab[:, :, ~_allowed(up, allowed)] = -np.inf
    return slab


def pooled_head_scores(slab: np.ndarray) -> np.ndarray:
    """n x n head-selection scores: best up-label score per (dependent, head)."""
    if slab.shape[-1] == 0:
        raise ValueError("relation vocab has no up-relations to pool over")
    return slab.max(axis=-1)


def label_edges(heads, slab: np.ndarray) -> np.ndarray:
    """Best up label of each arc of a decoded skeleton, as its position on
    the slab's label axis: entry i-1 labels the arc from token i to
    heads[i].  Ties go to the first position."""
    heads = np.asarray(heads, dtype=np.int64)
    n = slab.shape[0]
    if heads.shape != (n,) or not is_arborescence(heads, root=0):
        raise DataError("skeleton is not a valid arborescence")
    return slab[np.arange(1, n), heads[1:]].argmax(axis=1)
