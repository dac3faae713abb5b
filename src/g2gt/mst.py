"""Maximum spanning arborescence decoding (Chu-Liu/Edmonds).

Score matrices are dependent-major: ``scores[i][j]`` is the score of
"node j is the head of node i".  Node ``root`` never receives a head.
Decoding is deterministic: a greedy head is the lowest-index best score,
and the best arc into or out of a contracted cycle is the first best in
cycle order.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError

__all__ = ["mst_decode", "is_arborescence"]

NEG_INF = float("-inf")


def _find_cycle(heads: list[int], root: int) -> list[int] | None:
    """Return one cycle in the head graph, or None if every node reaches root.

    Every node but ``root`` must have a head in [0, n).
    """
    state = [0] * len(heads)  # 0 unseen, 1 on the current path, 2 reaches root
    state[root] = 2
    for start in range(len(heads)):
        path = []
        node = start
        while state[node] == 0:
            state[node] = 1
            path.append(node)
            node = heads[node]
        if state[node] == 1:
            return path[path.index(node):]
        for v in path:
            state[v] = 2
    return None


def _greedy_heads(s: np.ndarray, root: int) -> np.ndarray:
    """Best head of every row, lowest index first; -1 for the root."""
    heads = s.argmax(axis=1)
    if root:  # argmax of an all -inf row is node 0; hang such nodes off the root
        heads[s.max(axis=1) == NEG_INF] = root
    heads[root] = -1
    return heads


def _chu_liu_edmonds(s: np.ndarray, n: int, root: int) -> np.ndarray:
    """Best arborescence over the first ``n`` nodes of the working matrix.

    ``s`` is (2n-1) x (2n-1) and -inf outside the n x n arc scores, on the
    diagonal and in the root row.  Each cycle of greedy heads is contracted
    into a new node numbered after every existing one; the cycle's rows and
    columns become -inf.
    """
    contractions = []
    while True:
        m = n + len(contractions)
        heads = _greedy_heads(s[:m], root)
        cycle = _find_cycle(heads.tolist(), root)
        if cycle is None:
            break
        cycle = np.array(cycle)
        cycle_heads = heads[cycle]
        cycle_arcs = s[cycle, cycle_heads]
        cycle_score = sum(cycle_arcs.tolist())
        # leave[i, c]: node i headed by cycle node c; enter[c, j]: cycle
        # node c re-headed by node j, which breaks the cycle at c
        leave = s[:m, cycle]
        enter = s[cycle, :m] + cycle_score - cycle_arcs[:, None]
        leave_from = leave.argmax(axis=1)
        enter_at = enter.argmax(axis=0)
        s[:m, m] = leave.max(axis=1)
        s[m, :m] = enter.max(axis=0)
        s[cycle] = NEG_INF
        s[:, cycle] = NEG_INF
        contractions.append((m, cycle, cycle_heads, leave_from, enter_at))

    # Expand the newest node first: its children take their best head in the
    # cycle, and the cycle keeps its greedy heads but for the node re-headed.
    for m, cycle, cycle_heads, leave_from, enter_at in reversed(contractions):
        children = np.flatnonzero(heads[:m] == m)
        heads[children] = cycle[leave_from[children]]
        heads[cycle] = cycle_heads
        heads[cycle[enter_at[heads[m]]]] = heads[m]
    return heads[:n]


def is_arborescence(heads: np.ndarray | list, root: int = 0,
                    single_root: bool = False) -> bool:
    """Structural check: every non-root node reaches root, no cycles.

    With ``single_root`` the root must also have exactly one child.
    """
    heads = np.asarray(heads, dtype=np.int64)
    n = heads.shape[0]
    if not 0 <= root < n:
        return False
    h = heads[np.arange(n) != root]  # a self-head is a cycle, found by the walk
    if ((h < 0) | (h >= n)).any():
        return False
    if single_root and np.count_nonzero(h == root) != 1:
        return False
    return _find_cycle(heads.tolist(), root) is None


def mst_decode(head_scores: np.ndarray, root: int = 0,
               single_root: bool = True) -> np.ndarray:
    """Highest-scoring spanning arborescence rooted at ``root``.

    Returns the head index per node (-1 for the root itself).  With
    ``single_root`` the root gets exactly one child whenever some tree of
    finite score has one.  This costs no second decode (Zmigrod, Vieira &
    Cotterell, 2020): every arc from the root is charged
    ``1 + n * (max - min)`` over the finite arc scores.  Two trees' totals
    differ by at most ``(n - 1) * (max - min)``, so the charged optimum has
    as few root children as a finite tree can have, and among those trees
    the charge is the same.  The charge is skipped when the greedy heads
    already form a tree with one root child: that tree is the best one
    either way, and a charged decode would contract about n cycles to find
    it again.  Without ``single_root`` the same decode runs uncharged.
    Scores of arcs a tree can use must not be NaN or +inf.
    """
    scores = np.asarray(head_scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] != scores.shape[1]:
        raise DataError(f"head scores must be square, got shape {scores.shape}")
    n = scores.shape[0]
    if n == 0:
        raise DataError("cannot decode a tree over zero nodes")
    if not (0 <= root < n):
        raise DataError(f"root index {root} out of range for n={n}")
    s = np.full((2 * n - 1, 2 * n - 1), NEG_INF)
    s[:n, :n] = scores
    np.fill_diagonal(s, NEG_INF)
    s[root] = NEG_INF
    hi = s.max()
    if not hi < np.inf:
        raise DataError("head scores contain NaN or +inf")
    if single_root and hi > NEG_INF and not is_arborescence(
            _greedy_heads(s[:n], root), root, single_root=True):
        s[:n, root] -= 1.0 + n * (hi - s[s > NEG_INF].min())
    return _chu_liu_edmonds(s, n, root)
