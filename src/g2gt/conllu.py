"""CoNLL-U reading and writing.

Ten tab-separated columns (ID FORM LEMMA UPOS XPOS FEATS HEAD DEPREL DEPS
MISC), one token per line, blank line between sentences, '#' comment
lines ignored.  Multiword-token ranges ("1-2") and empty nodes ("8.1")
are skipped; the k-th remaining token of a sentence must have ID k.
Only FORM, HEAD and DEPREL are modelled; the remaining columns are
written back as '_'.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import DataError
from .graphs import DepTree

__all__ = ["Sentence", "load_conllu", "write_conllu"]

N_COLUMNS = 10


@dataclass
class Sentence:
    forms: list[str]
    tree: DepTree

    @property
    def n(self) -> int:
        return len(self.forms)


def _finish(forms, heads, deprels, path, line_no) -> Sentence:
    n = len(forms)
    for k, head in enumerate(heads):
        if head is not None and not (0 <= head <= n):
            raise DataError(
                f"{path}:{line_no}: token {k + 1} has head {head} "
                f"outside the sentence (n={n})")
    return Sentence(forms, DepTree(heads, deprels))


def load_conllu(path) -> list[Sentence]:
    path = Path(path)
    sentences: list[Sentence] = []
    forms: list[str] = []
    heads: list = []
    deprels: list = []
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    for line_no, line in enumerate(text.split("\n"), start=1):
        line = line.rstrip("\r")
        if not line.strip():
            if forms:
                sentences.append(_finish(forms, heads, deprels, path, line_no))
                forms, heads, deprels = [], [], []
            continue
        if line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != N_COLUMNS:
            raise DataError(
                f"{path}:{line_no}: expected {N_COLUMNS} tab-separated columns, "
                f"got {len(cols)}")
        token_id = cols[0]
        if "-" in token_id or "." in token_id:
            continue  # multiword range or empty node
        try:
            token_no = int(token_id)
        except ValueError:
            raise DataError(f"{path}:{line_no}: bad token id {token_id!r}") from None
        if token_no != len(forms) + 1:
            raise DataError(f"{path}:{line_no}: token id {token_no}, expected "
                            f"{len(forms) + 1}")
        head_col = cols[6]
        if head_col == "_":
            head = None
        else:
            try:
                head = int(head_col)
            except ValueError:
                raise DataError(
                    f"{path}:{line_no}: HEAD must be an integer, got {head_col!r}"
                ) from None
        forms.append(cols[1])
        heads.append(head)
        deprels.append(None if cols[7] == "_" else cols[7])
    if forms:
        sentences.append(_finish(forms, heads, deprels, path, line_no))
    return sentences


def write_conllu(sentences: list[Sentence], path) -> None:
    path = Path(path)
    lines: list[str] = []
    for sentence in sentences:
        tree = sentence.tree
        if len(sentence.forms) != tree.n:
            raise DataError("sentence forms and tree length disagree")
        for k, form in enumerate(sentence.forms):
            head = tree.heads[k]
            deprel = tree.deprels[k]
            lines.append("\t".join([
                str(k + 1), form, "_", "_", "_", "_",
                "_" if head is None else str(head),
                "_" if deprel is None else deprel,
                "_", "_",
            ]))
        lines.append("")
    try:
        path.write_text("\n".join(lines), encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
