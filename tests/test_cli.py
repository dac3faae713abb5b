"""Command-line surface: subcommands, exit codes, file outputs."""

from pathlib import Path

import pytest
import yaml

from g2gt.cli import main
from g2gt.conllu import Sentence, load_conllu, write_conllu
from g2gt.graphs import DepTree

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


def test_parse_writes_every_sentence_when_one_fails(trained, tmp_path, capsys):
    # the middle sentence has more nodes than the checkpoint's max_len=32
    short = load_conllu(FIXTURE)[:2]
    long = Sentence([f"w{k}" for k in range(40)], DepTree([None] * 40, [None] * 40))
    mixed = tmp_path / "mixed.conllu"
    write_conllu([short[0], long, short[1]], mixed)
    alone = tmp_path / "short.conllu"
    write_conllu(short, alone)

    out = tmp_path / "mixed-pred.conllu"
    assert main(["parse", "--checkpoint", str(trained), "--input", str(mixed),
                 "--output", str(out)]) == 2
    assert "sentence 2" in capsys.readouterr().err
    parsed = load_conllu(out)
    assert [s.forms for s in parsed] == [short[0].forms, long.forms, short[1].forms]
    assert parsed[1].tree == long.tree

    reference = tmp_path / "short-pred.conllu"
    assert main(["parse", "--checkpoint", str(trained), "--input", str(alone),
                 "--output", str(reference)]) == 0
    expected = load_conllu(reference)
    assert [parsed[0].tree, parsed[2].tree] == [s.tree for s in expected]


def test_refine_demo_prints_trace(trained, capsys):
    assert main(["refine-demo", "--checkpoint", str(trained),
                 "--input", str(FIXTURE), "--index", "0"]) == 0
    out = capsys.readouterr().out
    assert "t=0" in out and "t=1" in out
    assert "converged" in out


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--d", "8", "--heads", "2", "--tokens", "3"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    assert "PASS" in out


def test_non_finite_loss_exits_3(tmp_path, monkeypatch, capsys):
    from g2gt import training
    from test_pipeline import NanParserModel
    monkeypatch.setattr(training, "DependencyParserModel", NanParserModel)
    argv = ["train", "--train-file", str(FIXTURE), "--model-out",
            str(tmp_path / "m.g2gt")] + SMALL_FLAGS
    assert main(argv) == 3
    assert "epoch 1, batch 1 of 4: iteration 1: loss is nan" in capsys.readouterr().err


def test_usage_error_exits_1(capsys):
    assert main(["parse", "--checkpoint", "x"]) == 1  # missing required flags
    assert main(["no-such-command"]) == 1


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
