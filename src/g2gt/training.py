"""Training orchestration, attachment-score evaluation, and parsing.

:func:`parse_problems` is the one rule for which sentences a model can
parse; :func:`train` and :func:`parse_corpus` apply it before any scoring.
:func:`check_gold` is the one check of a gold file's trees.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .conllu import Sentence, load_conllu
from .checkpoint import checkpoint_save
from .config import RunConfig
from .errors import DataError, TrainingError
from .graphs import DepTree, dep_tree_to_graph, graph_to_dep_tree
from .model import DependencyParserModel, ModelConfig
# adam_step is read through the module; perfbench's tracer wraps it there
from . import optim
# refine is not called here; perfbench's tracer wraps it at this binding
from .refine import (RefinementConfig, refine, refine_batch,  # noqa: F401
                     train_refinement_step)
from .vocab import build_vocabs

__all__ = ["EvalReport", "check_gold", "evaluate", "length_buckets", "parse_problems",
           "parse_corpus", "train", "TrainResult"]

log = logging.getLogger("g2gt")


@dataclass
class EvalReport:
    """Attachment scores in percent; all tokens count, punctuation included."""

    uas: float
    las: float
    n_tokens: int

    def __str__(self) -> str:
        return f"UAS {self.uas:.2f}  LAS {self.las:.2f}  ({self.n_tokens} tokens)"


def evaluate(pred: Sequence[DepTree], gold: Sequence[DepTree]) -> EvalReport:
    """UAS = % tokens with the gold head; LAS additionally needs the gold label."""
    if len(pred) != len(gold):
        raise DataError(f"corpora are misaligned: {len(pred)} vs {len(gold)} sentences")
    total = head_hits = label_hits = 0
    for k, (p, g) in enumerate(zip(pred, gold)):
        if p.n != g.n:
            raise DataError(
                f"sentence {k + 1} is misaligned: {p.n} vs {g.n} tokens")
        s_head = s_label = 0
        for ph, pd, gh, gd in zip(p.heads, p.deprels, g.heads, g.deprels):
            if ph == gh:
                s_head += 1
                if pd == gd:
                    s_label += 1
        total += g.n
        head_hits += s_head
        label_hits += s_label
    if total == 0:
        raise DataError("cannot evaluate an empty corpus")
    return EvalReport(uas=100.0 * head_hits / total,
                      las=100.0 * label_hits / total,
                      n_tokens=total)


# Padded cells, B * n_max**2 with n counting the root, that one bucket of
# parse_corpus may hold.  On a shuffled mix of 132 sentences of 10 to 100
# tokens (80, 40, 10 and 2 of each), budgets from 2048 to 8192 cells all
# parsed in 0.58-0.60 of the time of one sentence at a time (median of 6
# paired repeats, 2-vCPU VM, one BLAS thread), while sorted buckets of 32
# sentences with no budget took 0.92 of it: a bucket that straddles two
# lengths pads all its short sentences to the long one.
BUCKET_CELLS = 4096


def length_buckets(sizes: Sequence[int]) -> list[list[int]]:
    """The indices of ``sizes``, sorted by size and packed into consecutive
    buckets of at most BUCKET_CELLS padded cells (count times largest size
    squared); a size whose square alone exceeds that is a bucket of its own."""
    buckets: list[list[int]] = []
    for k in sorted(range(len(sizes)), key=sizes.__getitem__):
        if buckets and (len(buckets[-1]) + 1) * sizes[k] ** 2 <= BUCKET_CELLS:
            buckets[-1].append(k)
        else:
            buckets.append([k])
    return buckets


def parse_problems(sentences: Sequence[Sentence], max_len: int) -> dict[int, str]:
    """Why a model of ``max_len`` nodes cannot parse some of ``sentences``,
    by each one's place, counted from 1.  A sentence must not be empty, and
    its tokens and the root must fit in ``max_len``."""
    problems = {}
    for k, s in enumerate(sentences, start=1):
        if s.n == 0:
            problems[k] = "no tokens to parse"
        elif s.n + 1 > max_len:
            problems[k] = f"sequence of {s.n + 1} tokens exceeds max_len={max_len}"
    return problems


def check_gold(path, sentences: Sequence[Sentence]) -> None:
    """Raise :class:`DataError` "<path>: sentence k of N: ..." for the first
    of ``sentences`` whose gold tree does not validate, or "<path>: no
    sentences" when there are none."""
    if not sentences:
        raise DataError(f"{path}: no sentences")
    for k, s in enumerate(sentences, start=1):
        try:
            s.tree.validate()
        except DataError as exc:
            raise DataError(f"{path}: sentence {k} of {len(sentences)}: {exc}") from None


def parse_corpus(model: DependencyParserModel, sentences: Sequence[Sentence],
                 refinement: RefinementConfig) -> tuple[list[DepTree], list[int]]:
    """Refine every sentence; return the final graphs as trees, and the
    number of iterations each one ran, both in input order.

    Sentences of similar length are refined together, one padded pass per
    iteration for a whole bucket (:func:`refine_batch`); the buckets come
    from :func:`length_buckets` over the node counts, so padding stays
    within BUCKET_CELLS cells, and only one bucket's traces are held.
    The first sentence that :func:`parse_problems` rejects raises
    :class:`DataError` naming its place, before anything is scored.
    """
    for k, problem in parse_problems(sentences, model.cfg.max_len).items():
        raise DataError(f"sentence {k} of {len(sentences)}: {problem}")
    trees, iterations = [None] * len(sentences), [0] * len(sentences)
    for bucket in length_buckets([s.n + 1 for s in sentences]):   # the root included
        refined = refine_batch([sentences[k].forms for k in bucket], model, refinement)
        for k, (graph, trace) in zip(bucket, refined):
            trees[k] = graph_to_dep_tree(graph, model.rel_vocab)
            iterations[k] = trace.iterations
    return trees, iterations


def _batches(items: list, size: int) -> list[list]:
    return [items[i:i + size] for i in range(0, len(items), size)]


@dataclass
class TrainResult:
    model: DependencyParserModel
    checkpoint_path: Path
    losses: list[float]
    dev_reports: list[EvalReport]
    best_epoch: int


def train(config: RunConfig) -> TrainResult:
    """Train a parser from a run configuration; saves the best-dev checkpoint.

    The checkpoint's directory is made before the first epoch; a
    checkpoint that cannot be written raises :class:`DataError` naming it.

    Deterministic for a fixed seed: data order, initialization and the
    update schedule contain no other randomness.
    """
    config.validate_for_training()
    train_sents = load_conllu(config.train_file)
    dev_sents = load_conllu(config.dev_file) if config.dev_file else train_sents
    model_cfg = config.model_config()
    for path, sents in ((config.train_file, train_sents), (config.dev_file, dev_sents)):
        check_gold(path, sents)
        for k, problem in parse_problems(sents, model_cfg.max_len).items():
            raise DataError(f"{path}: sentence {k} of {len(sents)}: {problem}")

    token_vocab, rel_vocab = build_vocabs(train_sents)
    if not len(rel_vocab.up_indices()):
        raise DataError(f"{config.train_file}: no token has a deprel to learn")
    refinement = config.refinement_config()
    model = DependencyParserModel(model_cfg, token_vocab, rel_vocab, seed=config.seed)

    checkpoint_path = Path(config.model_out)
    try:
        checkpoint_path.parent.mkdir(parents=True, exist_ok=True)
        if checkpoint_path.is_dir():
            raise IsADirectoryError("is a directory")
    except OSError as exc:
        raise DataError(f"cannot write checkpoint {checkpoint_path}: {exc}") from exc

    batch_items = [(s.forms, dep_tree_to_graph(s.tree, rel_vocab)) for s in train_sents]
    batches = _batches(batch_items, config.batch_size)
    gold_dev = [s.tree for s in dev_sents]

    losses: list[float] = []
    dev_reports: list[EvalReport] = []
    best_las = -1.0
    best_epoch = 0
    best_state: list[np.ndarray] = []     # the parameters after best_epoch

    started = time.time()
    for epoch in range(1, config.epochs + 1):
        epoch_loss = 0.0
        for k, batch in enumerate(batches, start=1):
            model.registry.zero_grad()
            try:
                epoch_loss += train_refinement_step(batch, model, refinement)
            except TrainingError as exc:
                raise TrainingError(f"epoch {epoch}, batch {k} of {len(batches)}: "
                                    f"{exc}") from exc
            optim.adam_step(model.registry, config.lr)
        losses.append(epoch_loss)
        report = evaluate(parse_corpus(model, dev_sents, refinement)[0], gold_dev)
        dev_reports.append(report)
        log.info("epoch %d  loss %.4f  dev %s", epoch, epoch_loss, report)
        if report.las > best_las:
            best_las = report.las
            best_epoch = epoch
            best_state = [p.tensor.data.copy() for p in model.registry]
        if config.stop_at_las is not None and report.las >= config.stop_at_las:
            log.info("dev LAS reached %.2f at epoch %d; stopping", report.las, epoch)
            break
    log.info("training finished in %.1fs", time.time() - started)

    if best_epoch != len(losses):         # a later epoch moved the parameters on
        for p, data in zip(model.registry, best_state):
            p.tensor.data[...] = data
    try:
        checkpoint_save(model, checkpoint_path)
    except OSError as exc:
        raise DataError(f"cannot write checkpoint {checkpoint_path}: {exc}") from exc
    log.info("saved checkpoint %s (best epoch %d)", checkpoint_path, best_epoch)
    return TrainResult(model=model, checkpoint_path=checkpoint_path, losses=losses,
                       dev_reports=dev_reports, best_epoch=best_epoch)
