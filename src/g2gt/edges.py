"""Pairwise edge scoring and non-autoregressive graph extraction.

Every node vector is projected into distinct head and tail views; a
biaffine classifier then scores all n*n node pairs for every label
independently, so the whole graph can be decoded in one parallel pass.
The L bilinear maps are stacked into one (L*d_e, d_e) parameter whose
row block l is label l's map, so all labels are scored by two matrix
products; the linear terms and the bias are then added by broadcasting,
in place into the product.  A padded batch of B sentences is scored in
the same products, as (B, n_max, n_max, L) cells.

The whole scorer is one autodiff op: the two projections, the bilinear
products, the linear terms and the bias, so the tape holds one output and
no intermediate views or score arrays.  Its forward and backward make the
numpy calls that a chain of generic ops (matmul, transpose, reshape, add)
makes, in the same order and on the same memory layouts, B' and the
transposed (n*L, d_e) block as views, and add the two views' gradients
into the node vectors in the chain's order, so its scores and gradients
are bit-identical to the chain's, recorded or not.

Decoding reads only some labels (a tree only the up, "deprel↑", ones),
so inference scores only those: :meth:`EdgeScorerParams.for_labels`
takes their rows of the scorer once per scorer the model builds, and the
scores' column k is then label k of that subset.  Training scores every
label for the loss.  The scores stay one (..., n, n, L) tensor on their
way to the loss and the decoders.  A decoder reads one sentence's
read-only (n, n, labels) slab of them.  Its max over labels gives the
head scores for the MST, and its argmax at each chosen arc gives that
arc's label; the MST's heads form a tree by construction, so labelling
does not check them again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff
from .autodiff import Tensor
from .graphs import NONE_LABEL, LabeledGraph
from .optim import ParameterRegistry

__all__ = [
    "EdgeScorerParams",
    "init_edge_scorer",
    "score_edges",
    "greedy_decode",
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

    def for_labels(self, labels: np.ndarray) -> "EdgeScorerParams":
        """The scorer of ``labels`` alone, untracked, for decoding: its label
        k is ``labels[k]``.  Its arrays are row-major, as the full ones are."""
        d_e = self.bilinear.shape[1]
        maps = self.bilinear.data.reshape(self.n_labels, d_e, d_e)[labels]

        def columns(param: Tensor) -> Tensor:
            return Tensor(np.ascontiguousarray(param.data[:, labels]))

        return EdgeScorerParams(
            head_proj=self.head_proj, tail_proj=self.tail_proj,
            bilinear=Tensor(maps.reshape(len(labels) * d_e, d_e)),
            head_lin=columns(self.head_lin), tail_lin=columns(self.tail_lin),
            bias=columns(self.bias))


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


def score_edges(z: Tensor, params: EdgeScorerParams) -> Tensor:
    """Score every ordered node pair for every label in parallel.

    ``z`` is one sentence's node vectors (n, d) or a padded batch's
    (B, n, d); the scores are (n, n, L) or (B, n, n, L), and cell (i, j)
    scores "i relates to j": h_i B_l t_j' + u_l.h_i + v_l.t_j + b_l of the
    head and tail views h and t of ``z``, as one op.

    Backward gives each view its linear-term gradient, then its bilinear
    one, and ``z`` the tail view's gradient before the head view's.
    """
    *lead, n, d = z.shape
    d_e = params.bilinear.shape[1]
    n_labels = params.n_labels
    z_rows = z.data.reshape(-1, d)
    h_rows = z_rows @ params.head_proj.data
    t_rows = z_rows @ params.tail_proj.data
    h = h_rows.reshape(*lead, n, d_e)
    # row j*L + l of bt is t_j B_l', so (h bt')[i, j*L + l] = h_i B_l t_j'
    bt = (t_rows @ params.bilinear.data.T).reshape(*lead, n * n_labels, d_e)
    cells = (h @ np.swapaxes(bt, -1, -2)).reshape(*lead, n, n, n_labels)
    cells += (h_rows @ params.head_lin.data).reshape(*lead, n, 1, n_labels)
    cells += (t_rows @ params.tail_lin.data).reshape(*lead, 1, n, n_labels)
    cells += params.bias.data

    def bwd(g_cells: np.ndarray) -> None:
        bias = params.bias
        autodiff._accumulate(bias, autodiff._unbroadcast(g_cells, bias.shape))

        def linear(rows: np.ndarray, lin: Tensor, cell_shape: tuple) -> np.ndarray:
            g_lin = autodiff._unbroadcast(g_cells, cell_shape).reshape(-1, n_labels)
            autodiff._accumulate(lin, rows.T @ g_lin)
            return (g_lin @ lin.data.T).reshape(*lead, n, d_e)

        g_t = linear(t_rows, params.tail_lin, (*lead, 1, n, n_labels))
        g_h = linear(h_rows, params.head_lin, (*lead, n, 1, n_labels))
        g_bilinear = g_cells.reshape(*lead, n, n * n_labels)
        g_h += g_bilinear @ bt
        g_bt = np.swapaxes(np.swapaxes(h, -1, -2) @ g_bilinear, -1, -2)
        g_rows = g_bt.reshape(-1, n_labels * d_e)
        g_t += (g_rows @ params.bilinear.data).reshape(g_t.shape)
        autodiff._accumulate(params.bilinear, (t_rows.T @ g_rows).T)
        for g_view, proj in ((g_t, params.tail_proj), (g_h, params.head_proj)):
            g_view = g_view.reshape(-1, d_e)
            if z.requires_grad:
                autodiff._accumulate(z, (g_view @ proj.data.T).reshape(z.data.shape))
            autodiff._accumulate(proj, z_rows.T @ g_view)

    return autodiff._make(cells, (z, params.head_proj, params.tail_proj, params.bilinear,
                                  params.head_lin, params.tail_lin, params.bias), bwd)


def greedy_decode(slab: np.ndarray) -> LabeledGraph:
    """Per-cell argmax decoding of an (n, n, L) slab's lower triangle
    (span/link style graphs); ties go to the lowest label index.

    The diagonal and the upper triangle are NONE.
    """
    n, _, n_labels = slab.shape
    labels = slab.argmax(axis=2)
    labels[np.triu_indices(n)] = NONE_LABEL
    return LabeledGraph(labels, n_labels=n_labels)


def pooled_head_scores(slab: np.ndarray) -> np.ndarray:
    """n x n head-selection scores: best up-label score per (dependent, head)."""
    return slab.max(axis=-1)


def label_edges(heads, slab: np.ndarray) -> np.ndarray:
    """Best up label of each arc of a decoded tree, as its position on the
    slab's label axis: entry i-1 labels the arc from token i to heads[i].
    Ties go to the first position.  ``heads`` is taken as given: it is
    :func:`g2gt.mst.mst_decode`'s tree over the slab's n nodes."""
    return slab[np.arange(1, slab.shape[0]), heads[1:]].argmax(axis=1)
