"""Self-tests for the benchmark's own code.

    python3 -m pytest perfbench
"""

import importlib
import json
import logging
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import g2gt.model  # noqa: E402
import workloads  # noqa: E402
from g2gt import build_vocabs, load_conllu  # noqa: E402
from tracer import Tracer, phases, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_generator_is_seeded_single_rooted_and_ud_sized(tmp_path):
    lengths = [25, 50] * 4
    first = corpus.make_sentences(np.random.default_rng(3), lengths, training=True)
    again = corpus.make_sentences(np.random.default_rng(3), lengths, training=True)
    other = corpus.make_sentences(np.random.default_rng(4), lengths, training=True)
    assert first == again
    assert first != other
    for forms, heads, deprels in first:
        assert workloads.is_single_root_tree(heads, len(forms))
        assert [d for d in deprels if d == "root"] == ["root"]
        assert deprels[heads.index(0)] == "root"

    path = tmp_path / "train.conllu"
    corpus.write_treebank(path, first)
    sentences = load_conllu(path)
    for s in sentences:
        s.tree.validate()
    _, rel_vocab = build_vocabs(sentences)
    assert len(rel_vocab) == corpus.N_RELATION_LABELS == 76


def test_held_out_forms_appear_only_outside_training():
    rng = np.random.default_rng(0)
    train = corpus.make_sentences(rng, [50] * 40, training=True)
    parse = corpus.make_sentences(rng, [50] * 40, training=False)
    train_forms = {f for forms, _, _ in train for f in forms}
    parse_forms = {f for forms, _, _ in parse for f in forms}
    held_out = {f for f in parse_forms
                if int(f[1:]) % corpus.HELD_OUT_EVERY == 0}
    assert held_out and not held_out & train_forms


@pytest.mark.parametrize("heads, ok", [
    ([0, 1, 1], True),
    ([2, 0, 2], True),
    ([0, 0, 1], False),     # two root attachments
    ([2, 3, 1], False),     # no root attachment
    ([0, 3, 2], False),     # cycle 2 <-> 3
    ([0, 2, 1], False),     # self-loop
    ([0, 4, 1], False),     # head out of range
    ([0, 1], False),        # wrong length
])
def test_is_single_root_tree(heads, ok):
    assert workloads.is_single_root_tree(heads, 3) is ok


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 3.0, 6.0, 0),    # overlaps b: [1, 6] is covered once
        ("d", 2.0, 3.0, 1),
        ("e", 12.0, 13.0, -1),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0, 1.0])
    assert phases(spans) == ["a", "a", "a", "a", "e"]


def test_tracer_wraps_callers_bindings_and_restores_them():
    # The package attribute g2gt.refine is the re-exported function.
    refine_module = importlib.import_module("g2gt.refine")

    def bindings():
        return (g2gt.model.encode, refine_module.backward,
                g2gt.model.SentenceEncoderModel.embed)

    original = bindings()
    with Tracer().installed():
        assert all(now.__wrapped__ is was for now, was in zip(bindings(), original))
    assert bindings() == original


# Small versions of each workload.  Model seed 1 reaches LAS 100 on the
# fixture in 26 epochs.
TINY = {
    "fixture-train": lambda: workloads.FixtureTrain(model_seed=1),
    "ud-parse": lambda: workloads.Parse((2, 1, 1, 1)),
}


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_emits_every_metric(name, tmp_path):
    assert set(TINY) == set(workloads.WORKLOADS)
    untraced = workloads.run(TINY[name](), tmp_path, seed=5, seconds=0, trace=False)
    traced = workloads.run(TINY[name](), tmp_path, seed=5, seconds=0, trace=True)
    for outcome in (untraced, traced):
        assert outcome.failed == 0 and outcome.attempted > 0
    assert traced.digest == untraced.digest
    for outcome, spec in ((untraced.end_to_end, "end_to_end"),
                          (traced.per_layer, "per_layer")):
        units = {m["name"]: m["unit"] for m in BENCHMARK[spec]}
        assert {k: unit for k, (_, unit) in outcome.items()} == units
    assert all(value > 0 for value, _ in untraced.end_to_end.values())
    per_length = [traced.per_layer[f"{metric}{n}"][0] > 0
                  for n in workloads.PARSE_LENGTHS
                  for metric in ("parse.tok_s_n", "edges.score_edges.ms_per_call_n",
                                 "mst.mst_decode.ms_per_call_n")]
    assert all(per_length) if name == "ud-parse" else not any(per_length)


def test_training_job_is_timed_per_epoch(tmp_path):
    workload = TINY["fixture-train"]()
    workload.prepare(tmp_path, seed=5)
    job = workload.job(Tracer())
    # Load and first epoch, one part per further epoch, then the save.
    assert job.epochs == 26 and len(job.parts) == job.epochs + 1
    assert not logging.getLogger("g2gt").isEnabledFor(logging.INFO)


def test_typical_parts_takes_each_parts_median_over_jobs():
    jobs = [workloads.Job(parts=[(10, 1.0), (10, 5.0), (25, 2.0)]),
            workloads.Job(parts=[(10, 3.0), (10, 4.0), (25, 9.0)]),
            workloads.Job(parts=[(10, 2.0), (10, 6.0), (25, 3.0)])]
    assert workloads.typical_parts(jobs) == [(10, 2.0), (10, 5.0), (25, 3.0)]


def test_run_fails_without_the_parser_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ud-parse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 2
    assert "no parser sources" in proc.stderr
    assert '"correct"' not in proc.stdout
