"""Spans around calls into g2gt, recorded from outside the package.

The tracer replaces functions at the bindings their callers look up at
call time (module globals and one class attribute), records one span per
call, and puts every original back when the run ends.  Spans stay in
memory as ``(name, start, end, parent)`` tuples, where ``parent`` is the
index of the enclosing span or -1, and are written out once at the end.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute, span name).  Each binding is the one the caller
# uses: train() reaches parse_corpus, evaluate, train_refinement_step,
# load_conllu and checkpoint_save through g2gt.training, parse_corpus
# reaches refine the same way, train_refinement_step reaches
# refinement_loss and backward through g2gt.refine, Adam.step reaches
# adam_step through g2gt.optim, and the parser model reaches the encoder,
# scorer and decoders through g2gt.model.  The benchmark itself calls
# train, parse_corpus, load_conllu, write_conllu and checkpoint_load
# through these modules, so its own calls are traced too.
TARGETS = (
    ("g2gt.training", "train", "training.train"),
    ("g2gt.training", "parse_corpus", "training.parse_corpus"),
    ("g2gt.training", "evaluate", "training.evaluate"),
    ("g2gt.training", "refine", "refine.refine"),
    ("g2gt.training", "train_refinement_step", "refine.train_refinement_step"),
    ("g2gt.training", "load_conllu", "conllu.load_conllu"),
    ("g2gt.training", "checkpoint_save", "checkpoint.checkpoint_save"),
    ("g2gt.conllu", "load_conllu", "conllu.load_conllu"),
    ("g2gt.conllu", "write_conllu", "conllu.write_conllu"),
    ("g2gt.checkpoint", "checkpoint_load", "checkpoint.checkpoint_load"),
    ("g2gt.refine", "refinement_loss", "refine.refinement_loss"),
    ("g2gt.refine", "backward", "autodiff.backward"),
    ("g2gt.optim", "adam_step", "optim.adam_step"),
    ("g2gt.model", "encode", "attention.encode"),
    ("g2gt.model", "score_edges", "edges.score_edges"),
    ("g2gt.model", "pooled_head_scores", "edges.pooled_head_scores"),
    ("g2gt.model", "mst_decode", "mst.mst_decode"),
    ("g2gt.model", "label_edges", "edges.label_edges"),
    ("g2gt.model.SentenceEncoderModel", "embed", "model.embed"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))
# Layers whose cost per call is also reported per parse sentence length.
PER_BUCKET = ("edges.score_edges", "mst.mst_decode")
# Functions that also run during set-up, reported per set-up.
SETUP_NAMES = ("checkpoint.checkpoint_load", "checkpoint.checkpoint_save",
               "conllu.load_conllu")
SETUP_PHASE = "bench.setup"
JOB_PHASE = "bench.job"
# Parse jobs open one span per sentence length, named BUCKET_PREFIX + n.
BUCKET_PREFIX = "bench.parse.n"


def _resolve(path: str):
    """A module, or a class inside one (``g2gt.model.SentenceEncoderModel``)."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Span recorder plus the counts the wrappers observe."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.tape_nodes: list[int] = []   # len(record) per backward call
        self.refine_traces: list = []     # RefinementTrace per refine call
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append((name, perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, perf_counter(), parent)

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        observe = {"autodiff.backward": self._observe_backward,
                   "refine.refine": self._observe_refine}.get(name)

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = original
        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def _observe_backward(self, args, result) -> None:
        self.tape_nodes.append(len(args[1]))

    def _observe_refine(self, args, result) -> None:
        self.refine_traces.append(result[1])

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        try:
            for owner, attr, name in TARGETS:
                self._wrap(_resolve(owner), attr, name)
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, once, after the run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def phases(spans) -> list[str]:
    """Name of the outermost span enclosing each span (itself if top-level)."""
    out: list[str] = []
    for name, _, _, parent in spans:
        out.append(out[parent] if parent >= 0 else name)
    return out


def buckets(spans) -> list:
    """Sentence length of the parse bucket enclosing each span, or None."""
    out: list = []
    for name, _, _, parent in spans:
        if name.startswith(BUCKET_PREFIX):
            out.append(int(name[len(BUCKET_PREFIX):]))
        else:
            out.append(out[parent] if parent >= 0 else None)
    return out


def layer_metrics(tracer: Tracer, n_jobs: int, n_setups: int,
                  lengths) -> dict[str, tuple]:
    """Per-layer metrics as ``{name: (value, unit)}``.

    Span statistics are per job (``s``, ``self_s``, ``calls``) or per
    set-up (``setup_s``); refinement and tape counts cover every call.
    ``lengths`` are the parse sentence lengths reported per length.
    """
    spans = tracer.spans
    own = self_times(spans)
    phase = phases(spans)
    bucket = buckets(spans)
    per_bucket = {(name, n): [0.0, 0] for name in PER_BUCKET for n in lengths}
    total = {k: 0.0 for k in SPAN_NAMES}
    self_total = dict(total)
    calls = dict(total)
    setup = {k: 0.0 for k in SETUP_NAMES}
    dev_eval = train_time = 0.0
    for (name, start, end, parent), self_s, ph, n in zip(spans, own, phase, bucket):
        if ph == SETUP_PHASE and name in setup:
            setup[name] += end - start
        if ph != JOB_PHASE or name not in total:
            continue
        total[name] += end - start
        self_total[name] += self_s
        calls[name] += 1
        if (name, n) in per_bucket:
            per_bucket[name, n][0] += end - start
            per_bucket[name, n][1] += 1
        if name == "training.train":
            train_time += end - start
        elif (name in ("training.parse_corpus", "training.evaluate")
              and parent >= 0 and spans[parent][0] == "training.train"):
            dev_eval += end - start

    metrics: dict[str, tuple] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.s"] = (total[name] / n_jobs, "s")
        metrics[f"{name}.self_s"] = (self_total[name] / n_jobs, "s")
        metrics[f"{name}.calls"] = (calls[name] / n_jobs, "count")
    for name in SETUP_NAMES:
        metrics[f"{name}.setup_s"] = (setup[name] / n_setups, "s")
    for name in PER_BUCKET:
        per_call = total[name] / calls[name] * 1e3 if calls[name] else 0.0
        metrics[f"{name}.ms_per_call"] = (per_call, "ms")
        for n in lengths:
            seconds, count = per_bucket[name, n]
            metrics[f"{name}.ms_per_call_n{n}"] = (
                seconds / count * 1e3 if count else 0.0, "ms")
    tape = tracer.tape_nodes
    metrics["autodiff.tape_nodes"] = (float(np.mean(tape)) if tape else 0.0, "count")
    metrics["training.dev_eval_share"] = (dev_eval / train_time if train_time else 0.0,
                                          "share")
    metrics.update(_refinement_metrics(tracer.refine_traces, n_jobs))
    return metrics


def _refinement_metrics(traces, n_jobs: int) -> dict[str, tuple]:
    iterations = [t.iterations for t in traces]
    useful = run = 0
    changed: list[int] = []
    for trace in traces:
        for before, after in zip(trace.steps, trace.steps[1:]):
            run += 1
            useful += not after.converged
            changed.append(int(np.sum(after.graph.labels != before.graph.labels)))
    metrics = {
        "refine.iterations_mean": (float(np.mean(iterations)) if traces else 0.0,
                                   "count"),
        "refine.converged_share": (float(np.mean([t.converged for t in traces]))
                                   if traces else 0.0, "share"),
        "refine.useful_iter_share": (useful / run if run else 0.0, "share"),
        "refine.cells_changed_mean": (float(np.mean(changed)) if changed else 0.0,
                                      "count"),
    }
    for t in (1, 2, 3):
        metrics[f"refine.iterations_hist.{t}"] = (iterations.count(t) / n_jobs, "count")
    return metrics
