"""Maximum spanning arborescence decoding (Chu-Liu/Edmonds).

Score matrices are dependent-major: ``scores[i][j]`` is the score of
"node j is the head of node i".  Node 0 is the root and never receives a
head.
Decoding is deterministic: a (super)node's source is the lowest-index
original node among its best incoming arcs, and a contracted cycle hands
its source to the first best member in cycle order.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError

__all__ = ["mst_decode", "is_arborescence", "reaches_root"]

NEG_INF = float("-inf")


def _chu_liu_edmonds(rows: np.ndarray, charged: bool) -> np.ndarray:
    """Best arborescence over the n arc-score rows at the top of ``rows``.

    ``rows`` is (2n-1) x n, with -inf on the diagonal and in the root row.
    Tarjan's contraction: every (super)node keeps one row of incoming
    scores by original source node, and ``label`` maps an original node to
    the live node holding it.  A walk follows each node's chosen source; a
    cycle on its path becomes a new node numbered after every existing one,
    whose row is the max of its members' rows, each lowered by the
    member's chosen arc, and the walk goes on from it.  With
    ``charged``, when no cycle is left and the root heads more than one
    live node, the root arcs are lowered, the nodes that chose the root
    choose again, and the walk resumes from them.  Expansion runs newest
    node first: the member whose lowered row gave the node's best score
    takes the node's source, and the other members keep their own.
    """
    n = rows.shape[1]
    src = rows[:n].argmax(axis=1)
    weight = rows[np.arange(n), src]
    src[weight == NEG_INF] = 0  # a node no arc can reach hangs off the root
    src, weight = src.tolist() + [0] * (n - 1), weight.tolist() + [0.0] * (n - 1)
    label, members, cycles = np.arange(n), [], []  # members of nodes n, n+1, ...
    state = [0] * (2 * n - 1)  # 0 unseen, 1 on the path or merged, 2 reaches root
    state[0] = 2

    def choose(v):  # the lowest-index best source, or the root if none is finite
        u = int(rows[v].argmax())
        src[v] = u if rows[v, u] > NEG_INF else 0
        weight[v] = float(rows[v, src[v]])

    def walk(starts):
        for v in starts:
            path = []
            while state[v] == 0:
                state[v] = 1
                path.append(v)
                v = label.item(src[v])
                if state[v] == 1:  # contract the cycle into a new node v
                    cycle = path[path.index(v):]
                    del path[-len(cycle):]
                    v = n + len(cycles)
                    cycles.append(cycle)
                    row = rows[v]
                    row.fill(NEG_INF)
                    for c in cycle:
                        np.maximum(row, rows[c] - weight[c], out=row)
                    inside = np.concatenate(
                        [members[c - n] if c >= n else [c] for c in cycle])
                    members.append(inside)
                    label[inside] = v
                    row[inside] = NEG_INF
                    choose(v)
            for u in path:
                state[u] = 2

    walk(range(n))
    live = [v for v in range(1, n + len(cycles)) if state[v] == 2]
    kids = [v for v in live if src[v] == 0]
    if charged and len(kids) > 1:
        finite = rows[:n][rows[:n] > NEG_INF]
        rows[:n + len(cycles), 0] -= 1.0 + n * (finite.max() - finite.min())
        for v in live:
            state[v] = 0
            if src[v] == 0:
                choose(v)
        walk(kids)
    for v in range(n + len(cycles) - 1, n - 1, -1):
        src[max(cycles[v - n], key=lambda c: rows[c, src[v]] - weight[c])] = src[v]
    src[0] = -1
    return np.array(src[:n])


def reaches_root(heads) -> np.ndarray:
    """Whether each node's chain of heads leads to the root, node 0, by
    pointer jumping: after k squarings each node points 2**k heads up.
    Every head is a node index, and ``heads[0]`` is 0."""
    reach = np.asarray(heads, dtype=np.int64)
    for _ in range(reach.shape[0].bit_length()):
        reach = reach[reach]
    return reach == 0


def is_arborescence(heads: np.ndarray | list, single_root: bool = False) -> bool:
    """Structural check: every node reaches the root, node 0, with no cycles.

    With ``single_root`` the root must also have exactly one child.
    """
    heads = np.array(heads, dtype=np.int64)
    n = heads.shape[0]
    if n == 0:
        return False
    heads[0] = 0  # a self-head elsewhere is a cycle, never reaching the root
    if ((heads < 0) | (heads >= n)).any():
        return False
    if single_root and np.count_nonzero(heads == 0) != 2:  # root and one child
        return False
    return bool(reaches_root(heads).all())


def mst_decode(head_scores: np.ndarray, single_root: bool = True) -> np.ndarray:
    """Highest-scoring spanning arborescence rooted at node 0.

    Returns the head index per node (-1 for the root itself).  With
    ``single_root`` the root gets exactly one child whenever some tree of
    finite score has one.  This costs no second decode (Zmigrod, Vieira &
    Cotterell, 2020).  The decode first runs uncharged; only if the root
    then heads more than one live (super)node is every arc from the root
    charged ``1 + n * (max - min)`` over the finite arc scores, and the
    decode resumes where it stopped.  The resumed decode is exact: the
    charge lowers only root arcs, which no cycle holds, so every cycle
    contracted uncharged is a cycle of the charged greedy graph too.  Two
    trees' totals differ by at most ``(n - 1) * (max - min)``, so the
    charged optimum has as few root children as a finite tree can have,
    and among those trees the charge is the same.  Without ``single_root``
    no charge applies.  Scores of arcs a tree can use must not be NaN or
    +inf.
    """
    scores = np.asarray(head_scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] != scores.shape[1]:
        raise DataError(f"head scores must be square, got shape {scores.shape}")
    n = scores.shape[0]
    if n == 0:
        raise DataError("cannot decode a tree over zero nodes")
    rows = np.empty((2 * n - 1, n))  # rows past n are written as cycles form
    rows[:n] = scores
    np.fill_diagonal(rows, NEG_INF)  # only the top n x n block has a diagonal
    rows[0] = NEG_INF
    hi = rows[:n].max()
    if not hi < np.inf:
        raise DataError("head scores contain NaN or +inf")
    return _chu_liu_edmonds(rows, single_root and hi > NEG_INF)
