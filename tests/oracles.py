"""Independent reference implementations used as test oracles.

Everything here is written directly against numpy (or plain Python
loops) without touching the package's tensor engine, so agreement
between the two is meaningful.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop matrix product."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def softmax_row(row) -> list[float]:
    """Direct exp/sum softmax evaluated in extended precision."""
    from mpmath import mp, exp

    mp.dps = 50
    exps = [exp(v) for v in row]
    total = sum(exps)
    return [float(e / total) for e in exps]


def layer_norm_rows(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                    eps: float = 1e-5) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    for r in range(x.shape[0]):
        row = x[r]
        mean = row.mean()
        var = ((row - mean) ** 2).mean()
        out[r] = (row - mean) / math.sqrt(var + eps) * gain + bias
    return out


# ---------------------------------------------------------------------------
# attention formulas, evaluated cell by cell


def graph_attention_scores_loop(x, w_q, w_k, rel_q, rel_k, labels,
                                use_key_term=True) -> np.ndarray:
    """Double-loop evaluation of the graph-conditioned score formula.

    e_ij = ( q_i.k_j + q_i.r1_ij + r2_ij.k_j ) / sqrt(d_head) with
    q = x w_q, k = x w_k and r1/r2 the relation-embedding rows selected
    by the label of cell (i, j).
    """
    q = x @ w_q
    k = x @ w_k
    n = x.shape[0]
    d_head = q.shape[1]
    e = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            label = labels[i, j]
            score = float(q[i] @ k[j])
            score += float(q[i] @ rel_q[label])
            if use_key_term:
                score += float(rel_k[label] @ k[j])
            e[i, j] = score / math.sqrt(d_head)
    return e


def graph_attention_values_loop(alpha, x, w_v, rel_v, labels,
                                use_value_term=True) -> np.ndarray:
    """Double-loop evaluation of the relation-augmented value sum."""
    v = x @ w_v
    n = x.shape[0]
    out = np.zeros((n, v.shape[1]))
    for i in range(n):
        acc = np.zeros(v.shape[1])
        for j in range(n):
            term = v[j].copy()
            if use_value_term:
                term = term + rel_v[labels[i, j]]
            acc += alpha[i, j] * term
        out[i] = acc
    return out


def vanilla_encoder_forward(x, layers, heads, eps=1e-5, rel=None,
                            labels=None) -> np.ndarray:
    """Plain post-norm transformer encoder, numpy only.

    ``layers`` is a list of dicts with keys wq, wk, wv, wo, attn_gain,
    attn_bias, ffn_w1, ffn_b1, ffn_w2, ffn_b2, ffn_gain, ffn_bias.
    With ``rel`` = (query, key, value) |L| x d relation matrices and an
    n x n ``labels`` matrix, every head adds q_i.r1_ij + r2_ij.k_j to its
    scores and r3_ij to the values it sums, reading its own column slice
    of the relation rows selected by the label of cell (i, j).
    """
    def ln(v, gain, bias):
        mean = v.mean(axis=-1, keepdims=True)
        var = ((v - mean) ** 2).mean(axis=-1, keepdims=True)
        return (v - mean) / np.sqrt(var + eps) * gain + bias

    n, d = x.shape
    d_head = d // heads
    for p in layers:
        q = x @ p["wq"]
        k = x @ p["wk"]
        v = x @ p["wv"]
        head_outs = []
        for h in range(heads):
            sl = slice(h * d_head, (h + 1) * d_head)
            e = q[:, sl] @ k[:, sl].T
            if rel is not None:
                r1, r2, _ = (r[labels][:, :, sl] for r in rel)
                e = e + np.einsum("id,ijd->ij", q[:, sl], r1)
                e = e + np.einsum("ijd,jd->ij", r2, k[:, sl])
            e = e / math.sqrt(d_head)
            e = e - e.max(axis=1, keepdims=True)
            a = np.exp(e)
            a /= a.sum(axis=1, keepdims=True)
            out = a @ v[:, sl]
            if rel is not None:
                out = out + np.einsum("ij,ijd->id", a, rel[2][labels][:, :, sl])
            head_outs.append(out)
        attn = np.concatenate(head_outs, axis=1) @ p["wo"]
        x = ln(x + attn, p["attn_gain"], p["attn_bias"])
        hidden = np.maximum(x @ p["ffn_w1"] + p["ffn_b1"], 0.0)
        ffn = hidden @ p["ffn_w2"] + p["ffn_b2"]
        x = ln(x + ffn, p["ffn_gain"], p["ffn_bias"])
    return x


def biaffine_score_loop(z, head_proj, tail_proj, bilinear, head_lin, tail_lin,
                        bias) -> np.ndarray:
    """Cell-by-cell biaffine scores: h_i B_l t_j + u_l.h_i + v_l.t_j + b_l."""
    h = z @ head_proj
    t = z @ tail_proj
    n = z.shape[0]
    n_labels = len(bilinear)
    out = np.zeros((n, n, n_labels))
    for i in range(n):
        for j in range(n):
            for l in range(n_labels):
                out[i, j, l] = (h[i] @ bilinear[l] @ t[j]
                                + head_lin[:, l] @ h[i]
                                + tail_lin[:, l] @ t[j]
                                + bias[0, l])
    return out


# ---------------------------------------------------------------------------
# tree decoding from label scores


def up_down_pairs(labels) -> list[tuple[int, int]]:
    """(up index, down index) for every "deprel↑" label, in label order; the
    down index is that of "deprel↓", or 1 (UNK) when there is none."""
    index = {label: i for i, label in enumerate(labels)}
    return [(i, index.get(label[:-1] + "↓", 1))
            for i, label in enumerate(labels) if label.endswith("↑")]


def _up_label_score(scores, i, j, label, allowed) -> float:
    if allowed is not None and label not in allowed:
        return -math.inf
    return float(scores[i, j, label])


def pool_up_labels_loop(scores: np.ndarray, pairs, allowed=None) -> np.ndarray:
    """Cell by cell: the best up-label score of each (dependent, head) pair,
    labels outside ``allowed`` counting as -inf."""
    n = scores.shape[0]
    pooled = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            pooled[i, j] = max(_up_label_score(scores, i, j, up, allowed)
                               for up, _ in pairs)
    return pooled


def label_tree_loop(scores: np.ndarray, heads, pairs, allowed=None) -> np.ndarray:
    """The labeled graph of a decoded tree, token by token: the arc from
    token i to heads[i] gets the first up label of best score (labels
    outside ``allowed`` counting as -inf), its reverse cell that label's
    down label, and every other cell NONE (0)."""
    n = scores.shape[0]
    labels = np.zeros((n, n), dtype=np.int64)
    for i in range(1, n):
        j = int(heads[i])
        best = 0
        for k in range(1, len(pairs)):
            if (_up_label_score(scores, i, j, pairs[k][0], allowed)
                    > _up_label_score(scores, i, j, pairs[best][0], allowed)):
                best = k
        labels[i, j], labels[j, i] = pairs[best]
    return labels


# ---------------------------------------------------------------------------
# trees and arborescences


def random_tree(rng: np.random.Generator, n_tokens: int,
                deprels: list[str]) -> tuple[list[int], list[str]]:
    """Uniformly attach each token to an earlier node; always a valid tree."""
    order = rng.permutation(n_tokens) + 1
    heads = [0] * n_tokens
    labels = [deprels[int(rng.integers(len(deprels)))] for _ in range(n_tokens)]
    attached = [0]
    for pos, node in enumerate(order):
        if pos == 0:
            heads[node - 1] = 0
        else:
            heads[node - 1] = int(attached[int(rng.integers(len(attached)))])
        attached.append(int(node))
    return heads, labels


def _is_arborescence_heads(heads: dict[int, int], n: int, root: int) -> bool:
    for i in range(n):
        if i == root:
            continue
        node = i
        seen = set()
        while node != root:
            if node in seen or node not in heads:
                return False
            seen.add(node)
            node = heads[node]
    return True


def all_arborescences(n: int, root: int = 0, single_root: bool = False):
    """Yield every head assignment forming an arborescence rooted at ``root``."""
    others = [i for i in range(n) if i != root]
    choices = [[h for h in range(n) if h != i] for i in others]
    for combo in itertools.product(*choices):
        heads = dict(zip(others, combo))
        if single_root and sum(1 for h in combo if h == root) != 1:
            continue
        if _is_arborescence_heads(heads, n, root):
            yield heads


def brute_force_best_tree(scores: np.ndarray, root: int = 0,
                          single_root: bool = False):
    """Exhaustive maximum over all arborescences; returns (score, heads)."""
    best = -math.inf
    best_heads = None
    for heads in all_arborescences(scores.shape[0], root, single_root):
        total = sum(scores[i, h] for i, h in heads.items())
        if total > best:
            best = total
            best_heads = heads
    return best, best_heads


def _reference_find_cycle(heads: list[int], root: int) -> list[int] | None:
    """Return one cycle in the head graph, or None if every node reaches root."""
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


def _reference_greedy_heads(s: np.ndarray, root: int) -> np.ndarray:
    """Best head of every row, lowest index first; -1 for the root."""
    heads = s.argmax(axis=1)
    if root:  # argmax of an all -inf row is node 0; hang such nodes off the root
        heads[s.max(axis=1) == -np.inf] = root
    heads[root] = -1
    return heads


def _reference_chu_liu_edmonds(s: np.ndarray, n: int, root: int) -> np.ndarray:
    """Chu-Liu/Edmonds over a (2n-1)² working matrix, one cycle per pass.

    Each pass re-picks every greedy head and rescans for a cycle; a cycle
    becomes a new node numbered after every existing one, and its rows and
    columns become -inf.
    """
    contractions = []
    while True:
        m = n + len(contractions)
        heads = _reference_greedy_heads(s[:m], root)
        cycle = _reference_find_cycle(heads.tolist(), root)
        if cycle is None:
            break
        cycle = np.array(cycle)
        cycle_heads = heads[cycle]
        cycle_arcs = s[cycle, cycle_heads]
        cycle_score = sum(cycle_arcs.tolist())
        leave = s[:m, cycle]
        enter = s[cycle, :m] + cycle_score - cycle_arcs[:, None]
        leave_from = leave.argmax(axis=1)
        enter_at = enter.argmax(axis=0)
        s[:m, m] = leave.max(axis=1)
        s[m, :m] = enter.max(axis=0)
        s[cycle] = -np.inf
        s[:, cycle] = -np.inf
        contractions.append((m, cycle, cycle_heads, leave_from, enter_at))
    for m, cycle, cycle_heads, leave_from, enter_at in reversed(contractions):
        children = np.flatnonzero(heads[:m] == m)
        heads[children] = cycle[leave_from[children]]
        heads[cycle] = cycle_heads
        heads[cycle[enter_at[heads[m]]]] = heads[m]
    return heads[:n]


def reference_mst_decode(head_scores: np.ndarray, root: int = 0,
                         single_root: bool = True) -> np.ndarray:
    """The decoder ``g2gt.mst.mst_decode`` replaced, kept as a differential oracle.

    Every root arc is charged ``1 + n * (max - min)`` up front, unless the
    greedy heads already form a tree with one root child, and the charged
    matrix is decoded by ``_reference_chu_liu_edmonds``.  Inputs must be
    valid: square, n >= 1, root in range, no NaN or +inf.
    """
    scores = np.asarray(head_scores, dtype=np.float64)
    n = scores.shape[0]
    s = np.full((2 * n - 1, 2 * n - 1), -np.inf)
    s[:n, :n] = scores
    np.fill_diagonal(s, -np.inf)
    s[root] = -np.inf
    hi = s.max()
    if single_root and hi > -np.inf:
        greedy = _reference_greedy_heads(s[:n], root)
        if (np.count_nonzero(greedy == root) != 1
                or _reference_find_cycle(greedy.tolist(), root) is not None):
            s[:n, root] -= 1.0 + n * (hi - s[s > -np.inf].min())
    return _reference_chu_liu_edmonds(s, n, root)


def rescale_parameters(registry, std: float) -> None:
    """Rescale normally initialised parameters for finite-difference tests.

    At the training-time init scale some gradient elements sit near the
    float64 noise floor of central differences, which makes *relative*
    comparisons meaningless; norm gains/biases keep their identity init.
    """
    for p in registry:
        if "norm" not in p.name:
            p.tensor.data *= std / 0.02
