"""Command-line surface: subcommands, exit codes, file outputs."""

import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from g2gt import cli
from g2gt.checkpoint import checkpoint_load
from g2gt.cli import main
from g2gt.conllu import Sentence, load_conllu, write_conllu
from g2gt.graphs import DepTree, graph_to_dep_tree
from g2gt.refine import RefinementConfig, refine
from g2gt.training import length_buckets, parse_corpus

FIXTURE = Path(__file__).parent / "fixtures" / "toy_treebank.conllu"

SMALL_FLAGS = ["--epochs", "2", "--batch-size", "2", "--seed", "7"]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A tiny checkpoint shared by the read-only CLI tests."""
    out = tmp_path_factory.mktemp("ckpt") / "model.g2gt"
    config = tmp_path_factory.mktemp("cfg") / "run.yaml"
    config.write_text(
        f"train_file: {FIXTURE}\n"
        f"model_out: {out}\n"
        "epochs: 2\nbatch_size: 2\nseed: 7\n"
        "d: 16\nheads: 2\nd_ff: 32\nlayers: 1\nd_edge: 8\nmax_len: 32\n")
    assert main(["train", "--config", str(config)]) == 0
    return out


def test_train_and_parse_and_eval(trained, tmp_path, capsys):
    parsed = tmp_path / "pred.conllu"
    assert main(["parse", "--checkpoint", str(trained), "--input", str(FIXTURE),
                 "--output", str(parsed), "--t-max", "3"]) == 0
    assert parsed.is_file()
    assert len(load_conllu(parsed)) == len(load_conllu(FIXTURE))

    assert main(["eval", "--gold", str(FIXTURE), "--pred", str(parsed)]) == 0
    out = capsys.readouterr().out
    assert "UAS" in out and "LAS" in out


def test_parse_writes_every_sentence_when_one_fails(trained, tmp_path, capsys,
                                                    monkeypatch):
    # a shuffled file of mixed lengths, whose 40-token sentence has more
    # nodes than the checkpoint's max_len=32
    rng = np.random.default_rng(0)
    sentences = load_conllu(FIXTURE)
    forms = sorted({f for s in sentences for f in s.forms})
    sentences += [Sentence([str(f) for f in rng.choice(forms, size=n)],
                           DepTree([None] * n, [None] * n))
                  for n in (1, 3, 12, 17, 24, 31, 40)]
    sentences = [sentences[k] for k in rng.permutation(len(sentences))]
    place = [s.n for s in sentences].index(40) + 1
    mixed = tmp_path / "mixed.conllu"
    write_conllu(sentences, mixed)
    calls = []

    def counted(model, corpus, refinement):
        calls.append(corpus)
        return parse_corpus(model, corpus, refinement)

    monkeypatch.setattr(cli, "parse_corpus", counted)
    out = tmp_path / "mixed-pred.conllu"
    assert main(["parse", "--checkpoint", str(trained), "--input", str(mixed),
                 "--output", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"warning: sentence {place} not parsed: sequence of 41 tokens exceeds max_len=32"]
    assert len(calls) == 1 and len(calls[0]) == len(sentences) - 1
    assert len(length_buckets([s.n + 1 for s in calls[0]])) > 1

    parsed = load_conllu(out)
    assert [s.forms for s in parsed] == [s.forms for s in sentences]
    model, refinement = checkpoint_load(trained), RefinementConfig()
    assert [s.tree for s in parsed] == [
        s.tree if s.n == 40 else parse_corpus(model, [s], refinement)[0][0]
        for s in sentences]


def test_refine_demo_prints_trace(trained, capsys):
    assert main(["refine-demo", "--checkpoint", str(trained),
                 "--input", str(FIXTURE), "--index", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    model, sentence = checkpoint_load(trained), load_conllu(FIXTURE)[0]
    _, trace = refine(sentence.forms, model, RefinementConfig())
    assert lines[0] == f"sentence: {' '.join(sentence.forms)}"
    assert lines[1] == "t=0 converged=False changed_cells=- arcs=[]"
    assert len(lines) == 1 + len(trace.steps) > 2
    for line, step in zip(lines[2:], trace.steps[1:]):
        arcs = re.fullmatch(rf"t={step.t} converged={step.converged} "
                            r"changed_cells=\d+ arcs=\[(.*)\]", line)[1]
        got = [re.fullmatch(r"(\d+)<-(\d+):(\S+)", arc).groups()
               for arc in arcs.split(", ")]
        tree = graph_to_dep_tree(step.graph, model.rel_vocab)
        assert [int(i) for i, _, _ in got] == list(range(1, sentence.n + 1))
        assert [int(head) for _, head, _ in got] == tree.heads
        assert [deprel for _, _, deprel in got] == tree.deprels


@pytest.mark.parametrize("index", [8, 99])
def test_refine_demo_index_past_the_file_exits_2(trained, capsys, index):
    assert len(load_conllu(FIXTURE)) == 8
    assert main(["refine-demo", "--checkpoint", str(trained),
                 "--input", str(FIXTURE), "--index", str(index)]) == 2
    assert capsys.readouterr().err == (
        f"data error: sentence index {index} out of range (file has 8 sentences)\n")


@pytest.mark.parametrize("command", ["parse", "refine-demo"])
def test_checkpoint_without_up_relations_exits_2(trained, tmp_path, capsys, command):
    # a checkpoint with no up relation label used to exit 3 with "cannot
    # reshape array of size 0 into shape (0)"; its labels past NONE and UNK
    # are renamed, so the parameter table still fits them
    from test_pipeline import read_header, rewrite_header
    bare = tmp_path / "bare.g2gt"
    bare.write_bytes(trained.read_bytes())
    header = read_header(bare)
    labels = header["relation_labels"]
    header["relation_labels"] = labels[:2] + [f"r{k}" for k in range(len(labels) - 2)]
    rewrite_header(bare, header)
    out = tmp_path / "out.conllu"
    argv = [command, "--checkpoint", str(bare), "--input", str(FIXTURE)]
    assert main(argv + (["--output", str(out)] if command == "parse" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {bare}: invalid header contents: ")
    assert "at least one up relation label" in err and not out.exists()


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--d", "8", "--heads", "2", "--tokens", "3"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    assert "PASS" in out


@pytest.mark.parametrize("flag, value, message", [
    ("--tokens", "0", "--tokens must lie in [1, 30], got 0"),
    # 31 tokens make a 33-node sentence, past the model's max_len of 32
    ("--tokens", "31", "--tokens must lie in [1, 30], got 31"),
    ("--eps", "1e-2", "--eps must lie in [1e-07, 0.001], got 0.01"),
    # a scale of 0 zeroed the parameters, and the check passed on nothing
    ("--scale", "0", "--scale must be a positive finite number, got 0.0"),
    ("--scale", "-1", "--scale must be a positive finite number, got -1.0"),
    ("--scale", "nan", "--scale must be a positive finite number, got nan"),
    ("--seed", "-1", "--seed must be >= 0, got -1"),
    # d_edge is d // 2, and used to be named in place of --d
    ("--d", "1", "--d must be at least 2, got 1")])
def test_gradcheck_flag_out_of_range_exits_1(capsys, flag, value, message):
    heads = ["--heads", "1"] if flag == "--d" else []
    assert main(["gradcheck", flag, value] + heads) == 1
    err = capsys.readouterr().err
    assert f"usage error: {message}\n" in err
    assert "internal error" not in err


def _unattached(sentences):
    return [Sentence(s.forms, DepTree([None] * s.n, [None] * s.n)) for s in sentences]


def test_eval_rejects_gold_trees_that_do_not_validate(tmp_path, capsys):
    # an all-'_' gold file scored against itself read UAS 100.00 LAS 100.00
    corpus = load_conllu(FIXTURE)
    unattached = tmp_path / "unattached.conllu"
    write_conllu(_unattached(corpus), unattached)
    assert main(["eval", "--gold", str(unattached), "--pred", str(unattached)]) == 2
    assert capsys.readouterr().err == (
        f"data error: {unattached}: sentence 1 of {len(corpus)}: "
        "token 1 has invalid head None\n")

    corpus[4].tree.heads[2] = 3
    looped = tmp_path / "looped.conllu"
    write_conllu(corpus, looped)
    assert main(["eval", "--gold", str(looped), "--pred", str(FIXTURE)]) == 2
    assert capsys.readouterr().err == (
        f"data error: {looped}: sentence 5 of {len(corpus)}: "
        "token 3 has invalid head 3\n")


def test_eval_rejects_predictions_of_other_sentences(tmp_path, capsys):
    # sentences 1 and 2 swapped (both 6 tokens) scored UAS 100.00 LAS 100.00
    corpus = load_conllu(FIXTURE)
    assert corpus[0].n == corpus[1].n and corpus[0].forms != corpus[1].forms
    swapped = tmp_path / "swapped.conllu"
    write_conllu([corpus[1], corpus[0]] + corpus[2:], swapped)
    assert main(["eval", "--gold", str(FIXTURE), "--pred", str(swapped)]) == 2
    assert capsys.readouterr().err == (
        f"data error: {swapped}: sentence 1 of {len(corpus)}: "
        f"forms differ from {FIXTURE}\n")

    shorter = tmp_path / "shorter.conllu"
    write_conllu(corpus[:-1], shorter)
    assert main(["eval", "--gold", str(FIXTURE), "--pred", str(shorter)]) == 2
    assert capsys.readouterr().err == (
        f"data error: {shorter} has {len(corpus) - 1} sentences, "
        f"{FIXTURE} has {len(corpus)}\n")


def test_eval_counts_unattached_predictions_as_wrong(tmp_path, capsys):
    # g2gt parse writes '_' heads for a sentence it could not parse
    corpus = load_conllu(FIXTURE)
    pred = tmp_path / "pred.conllu"
    write_conllu(_unattached(corpus[:1]) + corpus[1:], pred)
    assert main(["eval", "--gold", str(FIXTURE), "--pred", str(pred)]) == 0
    total = sum(s.n for s in corpus)
    uas = 100.0 * (total - corpus[0].n) / total
    assert capsys.readouterr().out.startswith(f"UAS {uas:.2f}  LAS {uas:.2f}")


def test_non_finite_loss_exits_3(tmp_path, monkeypatch, capsys):
    from g2gt import training
    from test_pipeline import NanParserModel
    monkeypatch.setattr(training, "DependencyParserModel", NanParserModel)
    argv = ["train", "--train-file", str(FIXTURE), "--model-out",
            str(tmp_path / "m.g2gt")] + SMALL_FLAGS
    assert main(argv) == 3
    assert "epoch 1, batch 1 of 4: iteration 1: loss is nan" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "seed must be >= 0, got -1"),
    (["--stop-at-las", "150"], "stop_at_las must lie in [0, 100], got 150.0"),
    (["--stop-at-las", "nan"], "stop_at_las must lie in [0, 100], got nan"),
    (["--lr", "0"], "lr must be a positive finite number, got 0.0"),
    (["--lr", "inf"], "lr must be a positive finite number, got inf"),
    (["--lr", "nan"], "lr must be a positive finite number, got nan"),
    (["--epochs", "-1"], "epochs must be >= 0, got -1"),
    (["--batch-size", "0"], "batch_size must be >= 1, got 0")])
def test_train_flag_out_of_range_exits_1(tmp_path, capsys, flags, message):
    out = tmp_path / "m.g2gt"
    argv = ["train", "--train-file", str(FIXTURE), "--model-out", str(out),
            "--epochs", "1"] + flags
    assert main(argv) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("files, code, message", [
    ([], 1, "usage error: training needs train_file"),
    (["--train-file", "missing.conllu"], 2, "data error: train_file not found: "
                                            "missing.conllu"),
    (["--train-file", str(FIXTURE), "--dev-file", "missing.conllu"], 2,
     "data error: dev_file not found: missing.conllu")])
def test_train_without_readable_data_exits_before_training(tmp_path, monkeypatch,
                                                           capsys, files, code, message):
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--model-out", "m.g2gt"] + files) == code
    assert capsys.readouterr().err == f"{message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text, code, message", [
    (None, 2, "data error: config file not found: run.yaml"),
    ("epochs: [1\n", 1, "usage error: cannot parse config run.yaml: "),
    ("- epochs\n- 1\n", 1, "usage error: config run.yaml must be a flat "
                            "key-value mapping"),
    ("", 0, "")])
def test_config_file_that_is_missing_unparsable_or_not_a_mapping(
        tmp_path, monkeypatch, capsys, text, code, message):
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / "run.yaml").write_text(text)
    argv = ["train", "--config", "run.yaml", "--train-file", str(FIXTURE),
            "--model-out", "m.g2gt", "--epochs", "0"]
    assert main(argv) == code
    assert capsys.readouterr().err.startswith(message)
    assert (tmp_path / "m.g2gt").is_file() == (code == 0)


def test_negative_seed_from_environment_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("G2GT_SEED", "-1")
    assert main(["train", "--train-file", str(FIXTURE),
                 "--model-out", str(tmp_path / "m.g2gt"), "--epochs", "1"]) == 1
    assert capsys.readouterr().err == "usage error: seed must be >= 0, got -1\n"


def test_usage_error_exits_1(capsys):
    assert main(["parse", "--checkpoint", "x"]) == 1  # missing required flags
    assert main(["no-such-command"]) == 1


@pytest.mark.parametrize("argv", [
    ["train", "--d", "16"],                  # a prefix of --dev-file
    ["train", "--train", "x.conllu"],        # a prefix of --train-file
    ["gradcheck", "--sca", "0.5"],           # a prefix of --scale
    ["parse", "--checkpoint", "m.g2gt", "--input", "a", "--output", "b",
     "--t-m", "2"]])                         # a prefix of --t-max
def test_flag_prefixes_are_rejected(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unknown_config_key_exits_1(tmp_path):
    config = tmp_path / "bad.yaml"
    config.write_text("definitely_not_a_key: 1\n")
    assert main(["train", "--config", str(config)]) == 1


@pytest.mark.parametrize("key, value", [
    ("stop_at_las", "high"), ("model_out", 7), ("dev_file", 3), ("train_file", 5)])
def test_wrong_type_config_value_exits_1_before_training(tmp_path, monkeypatch,
                                                          capsys, key, value):
    monkeypatch.chdir(tmp_path)    # a model_out of 7 would be written here
    values = {"train_file": str(FIXTURE), "model_out": str(tmp_path / "m.g2gt"),
              "epochs": 2, "batch_size": 4, "seed": 7,
              "d": 16, "heads": 2, "d_ff": 32, "layers": 1, "d_edge": 8}
    values[key] = value
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump(values))
    assert main(["train", "--config", str(config)]) == 1
    assert key in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("lr, code", [("1e-3", 0), ("'1e-3'", 1)])
def test_exponent_lr_in_config(tmp_path, capsys, lr, code):
    out = tmp_path / "m.g2gt"
    config = tmp_path / "run.yaml"
    config.write_text(f"train_file: {FIXTURE}\nmodel_out: {out}\nepochs: 0\nlr: {lr}\n"
                      "d: 16\nheads: 2\nd_ff: 32\nlayers: 1\nd_edge: 8\nmax_len: 32\n")
    assert main(["train", "--config", str(config)]) == code
    assert out.is_file() == (code == 0)
    if code:
        assert "lr" in capsys.readouterr().err


def test_data_error_exits_2(tmp_path):
    missing = tmp_path / "missing.conllu"
    assert main(["train", "--train-file", str(missing),
                 "--model-out", str(tmp_path / "m.g2gt")]) == 2

    bad = tmp_path / "bad.conllu"
    bad.write_text("1\tonly\tfour\tcols\n")
    assert main(["eval", "--gold", str(bad), "--pred", str(bad)]) == 2


def test_corrupt_checkpoint_exits_2(tmp_path):
    fake = tmp_path / "fake.g2gt"
    fake.write_bytes(b"not a checkpoint")
    assert main(["parse", "--checkpoint", str(fake), "--input", str(FIXTURE),
                 "--output", str(tmp_path / "out.conllu")]) == 2


def test_ablation_flags_are_accepted(tmp_path):
    out = tmp_path / "ablated.g2gt"
    code = main(["train", "--train-file", str(FIXTURE), "--model-out", str(out),
                 "--epochs", "1", "--batch-size", "4", "--seed", "1",
                 "--ablate-key-term", "--ablate-value-term"])
    assert code == 0
    from g2gt.checkpoint import checkpoint_load
    model = checkpoint_load(out)
    assert model.cfg.use_key_term is False
    assert model.cfg.use_value_term is False
