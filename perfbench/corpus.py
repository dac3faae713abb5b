"""Seeded synthetic treebanks with a UD-sized label set, written as CoNLL-U.

Every sentence is a single-root tree: one token attaches to the virtual
root with ``root`` and every other token attaches to a token already in
the tree.  Forms come from a fixed Zipfian inventory; every tenth form is
held out of training files, so dev and parse inputs contain unknown words.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# The 37 universal dependency relations of UD v2.
DEPRELS = (
    "acl", "advcl", "advmod", "amod", "appos", "aux", "case", "cc", "ccomp",
    "clf", "compound", "conj", "cop", "csubj", "dep", "det", "discourse",
    "dislocated", "expl", "fixed", "flat", "goeswith", "iobj", "list", "mark",
    "nmod", "nsubj", "nummod", "obj", "obl", "orphan", "parataxis", "punct",
    "reparandum", "root", "vocative", "xcomp",
)
DEPREL_SET = frozenset(DEPRELS)
# NONE and UNK plus an up and a down label per deprel.
N_RELATION_LABELS = 2 + 2 * len(DEPRELS)

N_FORMS = 2000
ZIPF_EXPONENT = 1.1
HELD_OUT_EVERY = 10

_NON_ROOT = tuple(d for d in DEPRELS if d != "root")
_FORMS = tuple(f"w{k:04d}" for k in range(N_FORMS))


def _zipf(indices: np.ndarray) -> np.ndarray:
    weights = 1.0 / (indices + 1.0) ** ZIPF_EXPONENT
    return weights / weights.sum()


_ALL = np.arange(N_FORMS)
_SEEN = _ALL[_ALL % HELD_OUT_EVERY != 0]
_P_ALL = _zipf(_ALL)
_P_SEEN = _zipf(_SEEN)


def random_tree(rng: np.random.Generator, n: int) -> list[int]:
    """Heads (1-based, 0 = virtual root) of a uniform random recursive tree.

    Tokens join the tree in random order; the first one attaches to the
    virtual root and each later one to a token already placed, so exactly
    one token is a root attachment.
    """
    order = rng.permutation(n) + 1
    heads = [0] * n
    for pos in range(1, n):
        heads[order[pos] - 1] = int(order[rng.integers(pos)])
    return heads


def make_sentences(rng: np.random.Generator, lengths, training: bool
                   ) -> list[tuple[list[str], list[int], list[str]]]:
    """(forms, heads, deprels) per length.

    Non-root deprels cycle through shuffled copies of the 36 non-root
    relations, so any 36 consecutive non-root tokens use all of them.
    """
    ids, p = (_SEEN, _P_SEEN) if training else (_ALL, _P_ALL)
    labels: list[str] = []
    sentences = []
    for n in lengths:
        forms = [_FORMS[k] for k in rng.choice(ids, size=n, p=p)]
        heads = random_tree(rng, n)
        deprels = []
        for h in heads:
            if h == 0:
                deprels.append("root")
                continue
            if not labels:
                labels = [_NON_ROOT[k] for k in rng.permutation(len(_NON_ROOT))]
            deprels.append(labels.pop())
        sentences.append((forms, heads, deprels))
    return sentences


def write_treebank(path: Path, sentences) -> int:
    """Write sentences as CoNLL-U; returns the token count."""
    lines = []
    tokens = 0
    for forms, heads, deprels in sentences:
        for k, (form, head, deprel) in enumerate(zip(forms, heads, deprels), start=1):
            lines.append(f"{k}\t{form}\t_\t_\t_\t_\t{head}\t{deprel}\t_\t_")
        lines.append("")
        tokens += len(forms)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return tokens


