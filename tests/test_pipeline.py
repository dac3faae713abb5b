"""Vocabulary, evaluation, checkpointing, config, and the training pipeline."""

import json
import os
import re
import tracemalloc
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from g2gt.checkpoint import checkpoint_load, checkpoint_save
from g2gt.config import RunConfig, load_config_file
from g2gt.conllu import Sentence, load_conllu, write_conllu
from g2gt import optim, training
from g2gt.errors import CheckpointError, DataError, TrainingError, UsageError
from g2gt.graphs import DepTree, RelationVocab, empty_graph
from g2gt.model import DependencyParserModel, ModelConfig
from g2gt.refine import RefinementConfig
from g2gt.training import evaluate, parse_corpus, train
from g2gt.vocab import PAD, ROOT, UNK, Vocab, build_vocabs

FIXTURE = Path(__file__).parent / "fixtures" / "toy_treebank.conllu"
SMALL = ModelConfig(d=16, heads=2, d_ff=32, layers=1, d_edge=8, max_len=32)


class TestVocab:
    def test_fixed_special_indices(self):
        v = Vocab.from_forms(["dog", "cat"])
        assert v.index("<unk>") == UNK == 0
        assert v.index("<pad>") == PAD == 1
        assert v.index("<root>") == ROOT == 2

    def test_unknown_falls_back_to_unk(self):
        v = Vocab.from_forms(["dog"])
        assert v.index("zebra") == UNK

    def test_encode_prepends_root(self):
        v = Vocab.from_forms(["dog"])
        assert v.encode_with_root(["dog"])[0] == ROOT

    def test_build_vocabs_from_corpus(self):
        corpus = load_conllu(FIXTURE)
        tok, rel = build_vocabs(corpus)
        assert tok.index("dog") != UNK
        assert rel.scheme == "bidirectional"
        assert rel.up_index("nsubj") != 1


class TestEvaluate:
    def _trees(self):
        return [DepTree([2, 0], ["det", "root"]),
                DepTree([0, 1, 1], ["root", "obj", "punct"])]

    def test_perfect_match_is_100(self):
        gold = self._trees()
        report = evaluate(gold, gold)
        assert report.uas == 100.0 and report.las == 100.0

    def test_one_wrong_head_out_of_ten(self):
        gold = [DepTree([0] + [1] * 9, ["root"] + ["dep"] * 9)]
        pred = [DepTree([0] + [1] * 8 + [2], ["root"] + ["dep"] * 9)]
        report = evaluate(pred, gold)
        assert report.uas == pytest.approx(90.0)
        assert report.las == pytest.approx(90.0)

    def test_two_wrong_labels_out_of_ten(self):
        gold = [DepTree([0] + [1] * 9, ["root"] + ["dep"] * 9)]
        pred = [DepTree([0] + [1] * 9, ["root"] + ["dep"] * 7 + ["obj", "obj"])]
        report = evaluate(pred, gold)
        assert report.uas == 100.0
        assert report.las == pytest.approx(80.0)

    def test_las_never_exceeds_uas(self):
        rng = np.random.default_rng(0)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 8))
            gold = DepTree([int(h) for h in rng.integers(0, n + 1, size=n)],
                           [str(rng.choice(["a", "b"])) for _ in range(n)])
            pred = DepTree([int(h) for h in rng.integers(0, n + 1, size=n)],
                           [str(rng.choice(["a", "b"])) for _ in range(n)])
            report = evaluate([pred], [gold])
            assert 0.0 <= report.las <= report.uas <= 100.0

    def test_misaligned_corpora_rejected(self):
        with pytest.raises(DataError, match="misaligned"):
            evaluate([DepTree([0], ["root"])], self._trees())


def small_model(seed=0):
    vocab = Vocab.from_forms(["the", "dog", "barks"])
    rel = RelationVocab.from_deprels(["det", "nsubj", "root"])
    return DependencyParserModel(SMALL, vocab, rel, seed=seed)


def read_header(path) -> dict:
    blob = Path(path).read_bytes()
    return json.loads(blob[20:20 + int.from_bytes(blob[12:20], "little")])


def rewrite_header(path, header: dict) -> None:
    """Replace a checkpoint's header, keeping its version and payload."""
    blob = Path(path).read_bytes()
    payload = blob[20 + int.from_bytes(blob[12:20], "little"):]
    raw = json.dumps(header).encode("utf-8")
    Path(path).write_bytes(blob[:12] + len(raw).to_bytes(8, "little") + raw + payload)


# values a header edit may put in place of a field: wrong types, and small
# numbers, so that no edit asks for a large model
_EDIT_VALUES = st.sampled_from([None, "x", True, False, -1, 0, 1, 2, 3, 8, 16, 1.5,
                                16.0, [], [2], [16, 16], [16.0], {}])


@st.composite
def _header_edits(draw):
    """A list of structural edits of a header's params and model_config."""
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["config_set", "config_drop", "config_add",
                                     "param_set", "param_drop_key", "param_drop",
                                     "param_duplicate", "param_swap"]))
        edits.append((kind, draw(st.integers(0, 40)), draw(st.integers(0, 40)),
                      draw(st.sampled_from(["name", "shape", "offset", "nbytes"])),
                      draw(_EDIT_VALUES)))
    return edits


def _apply(header: dict, edits) -> None:
    config, params = header["model_config"], header["params"]
    for kind, i, j, key, value in edits:
        names = sorted(config)
        if kind == "config_set":
            config[names[i % len(names)]] = value
        elif kind == "config_drop" and names:
            del config[names[i % len(names)]]
        elif kind == "config_add":
            config["extra"] = value
        elif not params:
            continue
        elif kind == "param_set":
            params[i % len(params)][key] = value
        elif kind == "param_drop_key":
            params[i % len(params)].pop(key, None)
        elif kind == "param_drop":
            del params[i % len(params)]
        elif kind == "param_duplicate":
            params.insert(j % len(params), dict(params[i % len(params)]))
        elif kind == "param_swap":
            a, b = i % len(params), j % len(params)
            params[a], params[b] = params[b], params[a]


class TestCheckpoint:
    def test_save_load_bit_identical_forward(self, tmp_path):
        model = small_model(seed=5)
        path = tmp_path / "model.g2gt"
        checkpoint_save(model, path)
        loaded = checkpoint_load(path)
        forms = ["the", "dog", "barks"]
        g = empty_graph(4)
        before = model.scorer([forms])([g]).data
        after = loaded.scorer([forms])([g]).data
        assert np.array_equal(before, after)  # bitwise

    def test_load_and_parse_build_no_optimizer_state(self, tmp_path):
        # parsing must never pay for gradients, Adam moments or the arena
        path = tmp_path / "model.g2gt"
        checkpoint_save(small_model(seed=5), path)
        model = checkpoint_load(path)
        parse_corpus(model, load_conllu(FIXTURE), RefinementConfig())
        assert all(p.tensor.grad is None for p in model.registry)
        assert model.registry._arena is None

    @pytest.mark.parametrize("damage, message", [
        ("directory", "cannot read checkpoint"),
        ("header-past-end", "truncated header"),
        ("non-utf8-header", "corrupt header"),
        ("extra-param-entry", "the parameter table disagrees"),
    ])
    def test_damaged_file_rejected(self, tmp_path, damage, message):
        path = tmp_path / "model.g2gt"
        checkpoint_save(small_model(), path)
        if damage == "extra-param-entry":     # with the bytes it asks for
            header = read_header(path)
            extra = dict(header["params"][-1], name="extra")
            extra["offset"] += extra["nbytes"]
            header["params"].append(extra)
            rewrite_header(path, header)
            path.write_bytes(path.read_bytes() + bytes(extra["nbytes"]))
        blob = bytearray(path.read_bytes())
        if damage == "header-past-end":
            blob[12:20] = len(blob).to_bytes(8, "little")
        elif damage == "non-utf8-header":
            blob[20] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=message):
            checkpoint_load(tmp_path if damage == "directory" else path)

    def test_truncated_file_rejected(self, tmp_path):
        model = small_model()
        path = tmp_path / "model.g2gt"
        checkpoint_save(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            checkpoint_load(path)

    @pytest.mark.parametrize("version", [99, 1, 2, 3])
    def test_version_bump_rejected(self, tmp_path, version):
        # version 1 stored one edge.bilinear.<l> parameter per label, and
        # versions 2 and 3 each a ModelConfig key that the next one dropped
        model = small_model()
        path = tmp_path / "model.g2gt"
        checkpoint_save(model, path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = version.to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=f"version {version} "):
            checkpoint_load(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(CheckpointError, match="magic"):
            checkpoint_load(path)

    @pytest.mark.parametrize("edit", [
        lambda entry: entry.pop("offset"),
        lambda entry: entry.pop("name"),
        lambda entry: entry.update(shape="x"),
        lambda entry: entry.update(nbytes=entry["nbytes"] - 8),
    ], ids=["missing-offset", "missing-name", "string-shape", "small-nbytes"])
    def test_bad_param_entry_rejected(self, tmp_path, edit):
        path = tmp_path / "model.g2gt"
        checkpoint_save(small_model(), path)
        header = read_header(path)
        edit(header["params"][3])
        rewrite_header(path, header)
        with pytest.raises(CheckpointError):
            checkpoint_load(path)

    def test_param_entry_of_equal_float_values_loads_identically(self, tmp_path):
        model = small_model(seed=4)
        path = tmp_path / "model.g2gt"
        checkpoint_save(model, path)
        header = read_header(path)
        entry = header["params"][3]
        entry.update(shape=[float(s) for s in entry["shape"]],
                     nbytes=float(entry["nbytes"]))
        rewrite_header(path, header)
        loaded = checkpoint_load(path)
        for p, q in zip(model.registry, loaded.registry):
            assert np.array_equal(p.tensor.data, q.tensor.data)

    @pytest.mark.parametrize("max_len, table_too", [
        (10**12, False), (10**12, True), (10**5, False), (10**5, True)])
    def test_config_larger_than_payload_rejected_before_allocating(
            self, tmp_path, max_len, table_too):
        # 10**12 positions would be 128 TB of embedding, 10**5 about 13 MB
        path = tmp_path / "model.g2gt"
        checkpoint_save(small_model(), path)
        header = read_header(path)
        header["model_config"]["max_len"] = max_len
        if table_too:   # the table agrees with the config, offsets and all
            offset = 0
            for entry in header["params"]:
                if entry["name"] == "embed.position":
                    entry["shape"][0] = max_len
                    entry["nbytes"] = 8 * max_len * entry["shape"][1]
                entry["offset"] = offset
                offset += entry["nbytes"]
        rewrite_header(path, header)
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError,
                               match="truncated payload" if table_too else "disagrees"):
                checkpoint_load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.g2gt"
        checkpoint_save(small_model(), path)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(CheckpointError, match="oversized payload of"):
            checkpoint_load(path)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(edits=_header_edits())
    def test_header_edits_rejected_or_harmless(self, tmp_path_factory, edits):
        path = tmp_path_factory.mktemp("edit") / "model.g2gt"
        model = small_model(seed=3)
        checkpoint_save(model, path)
        header = read_header(path)
        _apply(header, edits)
        rewrite_header(path, header)
        try:
            loaded = checkpoint_load(path)
        except CheckpointError:
            return
        assert loaded.registry.names() == model.registry.names()
        for p, q in zip(model.registry, loaded.registry):
            assert np.array_equal(p.tensor.data, q.tensor.data)


class TestRunConfig:
    def test_file_plus_overrides(self, tmp_path):
        cfg_file = tmp_path / "run.yaml"
        cfg_file.write_text("epochs: 7\nlr: 0.01\nseed: 3\n")
        values = load_config_file(cfg_file)
        config = RunConfig.from_sources(values, {"epochs": 9})
        assert config.epochs == 9      # flag wins
        assert config.lr == 0.01       # file value kept
        assert config.seed == 3

    @pytest.mark.parametrize("text, lr", [("1e-3", 1e-3), ("2E5", 2e5), ("1.0e3", 1e3)])
    def test_exponent_without_dot_or_sign_is_a_float(self, tmp_path, text, lr):
        cfg_file = tmp_path / "run.yaml"
        cfg_file.write_text(f"lr: {text}\nepochs: 10\n")
        values = load_config_file(cfg_file)
        assert values == {"lr": lr, "epochs": 10}
        assert type(values["epochs"]) is int
        assert RunConfig.from_sources(values, {}).lr == lr

    def test_quoted_exponent_stays_a_string(self, tmp_path):
        cfg_file = tmp_path / "run.yaml"
        cfg_file.write_text("lr: '1e-3'\n")
        assert load_config_file(cfg_file) == {"lr": "1e-3"}
        with pytest.raises(UsageError, match="lr"):
            RunConfig.from_sources(load_config_file(cfg_file), {})

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.yaml"
        cfg_file.write_text("learning_rate: 0.1\n")
        with pytest.raises(UsageError, match="learning_rate"):
            RunConfig.from_sources(load_config_file(cfg_file), {})

    def test_env_seed_fallback(self, monkeypatch):
        monkeypatch.setenv("G2GT_SEED", "1234")
        assert RunConfig.from_sources({}, {}).seed == 1234
        # explicit settings beat the environment
        assert RunConfig.from_sources({"seed": 1}, {}).seed == 1
        monkeypatch.setenv("G2GT_SEED", "not-a-number")
        with pytest.raises(UsageError, match="G2GT_SEED"):
            RunConfig.from_sources({}, {})

    def test_invalid_hyperparameters_rejected_before_training(self, tmp_path):
        config = RunConfig(train_file=str(FIXTURE), d=10, heads=4)
        with pytest.raises(UsageError, match="divisible"):
            config.validate_for_training()

    def test_missing_train_file_rejected(self):
        config = RunConfig(train_file="/nope/missing.conllu")
        with pytest.raises(DataError, match="not found"):
            config.validate_for_training()

    def test_keys_are_the_model_fields_plus_run_settings(self):
        assert RunConfig.field_names() == {
            "train_file", "dev_file", "model_out", "seed", "epochs", "batch_size",
            "lr", "stop_at_las", "d", "heads", "d_ff", "layers", "d_edge",
            "max_len", "use_key_term", "use_value_term", "t_train", "t_max"}
        assert {f.name for f in fields(ModelConfig)} <= RunConfig.field_names()

    def test_model_config_carries_every_architecture_setting(self):
        values = dict(d=16, heads=2, d_ff=32, layers=1, d_edge=8, max_len=32,
                      use_key_term=False, use_value_term=False)
        assert set(values) == {f.name for f in fields(ModelConfig)}
        assert all(values[k] != v for k, v in ModelConfig().to_dict().items())
        config = RunConfig.from_sources(values, {"epochs": 3, "seed": 5})
        model_cfg = config.model_config()
        assert type(model_cfg) is ModelConfig
        assert model_cfg == ModelConfig(**values)

    @pytest.mark.parametrize("key, value", [
        ("seed", True), ("epochs", 2.0), ("d", "16"), ("use_key_term", 1),
        ("lr", "0.1"), ("lr", False), ("stop_at_las", "high"), ("model_out", None),
        ("model_out", 7), ("dev_file", 3), ("train_file", 5)])
    def test_wrong_type_rejected(self, key, value):
        with pytest.raises(UsageError, match=key):
            RunConfig(**{key: value})

    @pytest.mark.parametrize("key, value", [
        ("lr", 1), ("stop_at_las", 90), ("stop_at_las", None), ("dev_file", None),
        ("use_value_term", False)])
    def test_right_type_accepted(self, key, value):
        assert getattr(RunConfig(**{key: value}), key) == value

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            RunConfig().epochs = 3


class NanParserModel(DependencyParserModel):
    """A parser with one NaN parameter from the start."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.registry.get("encoder.layer0.ffn.b1").tensor.data[3] = np.nan


class TestTrainPipeline:
    def _config(self, tmp_path, **kw):
        defaults = dict(train_file=str(FIXTURE), model_out=str(tmp_path / "m.g2gt"),
                        seed=42, epochs=2, batch_size=2, lr=2e-3,
                        d=16, heads=2, d_ff=32, layers=1, d_edge=8, max_len=32)
        defaults.update(kw)
        return RunConfig(**defaults)

    def test_checkpoint_header_holds_architecture_settings_only(self, tmp_path):
        config = self._config(tmp_path, epochs=0)
        header = read_header(train(config).checkpoint_path)
        assert header["model_config"] == config.model_config().to_dict()
        assert set(header["model_config"]) == {f.name for f in fields(ModelConfig)}

    def test_zero_epochs_saves_initialized_model_and_evaluates(self, tmp_path):
        result = train(self._config(tmp_path, epochs=0))
        assert result.checkpoint_path.is_file()
        loaded = checkpoint_load(result.checkpoint_path)
        corpus = load_conllu(FIXTURE)
        trees, _ = parse_corpus(loaded, corpus, RefinementConfig())
        report = evaluate(trees, [s.tree for s in corpus])
        assert 0.0 <= report.las <= report.uas <= 100.0

    def test_model_and_checkpoint_hold_the_best_dev_epoch(self, tmp_path, monkeypatch):
        # dev LAS 50, 80, 60: epoch 3 moves the parameters past the best, epoch 2
        las = iter([50.0, 80.0, 60.0])
        after_epoch = []
        parse = training.parse_corpus

        def snapshot_and_parse(model, sentences, refinement):
            after_epoch.append([p.tensor.data.copy() for p in model.registry])
            return parse(model, sentences, refinement)

        monkeypatch.setattr(training, "parse_corpus", snapshot_and_parse)
        monkeypatch.setattr(training, "evaluate",
                            lambda pred, gold: training.EvalReport(*[next(las)] * 2, 1))
        result = train(self._config(tmp_path, epochs=3))
        assert result.best_epoch == 2
        assert any(not np.array_equal(a, b) for a, b in zip(*after_epoch[1:]))
        saved = checkpoint_load(result.checkpoint_path)
        for p, q, best in zip(result.model.registry, saved.registry, after_epoch[1]):
            assert p.tensor.data.tobytes() == q.tensor.data.tobytes() == best.tobytes()

    def test_same_seed_gives_identical_losses_and_parameters(self, tmp_path):
        r1 = train(self._config(tmp_path, model_out=str(tmp_path / "a.g2gt")))
        r2 = train(self._config(tmp_path, model_out=str(tmp_path / "b.g2gt")))
        assert r1.losses == r2.losses
        for p1, p2 in zip(r1.model.registry, r2.model.registry):
            assert np.array_equal(p1.tensor.data, p2.tensor.data)
        assert (tmp_path / "a.g2gt").read_bytes() == (tmp_path / "b.g2gt").read_bytes()

    def test_every_batch_steps_through_the_optim_module_binding(self, tmp_path,
                                                                 monkeypatch):
        # perfbench's tracer times Adam by wrapping g2gt.optim.adam_step;
        # a step that bypassed this binding would read 0 calls there
        steps = []
        adam_step = optim.adam_step

        def counting(registry, lr):
            steps.append(lr)
            adam_step(registry, lr)

        monkeypatch.setattr(optim, "adam_step", counting)
        result = train(self._config(tmp_path, epochs=2, batch_size=2))
        batches = -(-len(load_conllu(FIXTURE)) // 2)
        assert len(result.losses) == 2
        assert steps == [2e-3] * (2 * batches)

    @pytest.mark.parametrize("t_train", [1, 2])
    def test_non_finite_loss_stops_training(self, tmp_path, monkeypatch, t_train):
        # without the check, t_train=1 fails in the dev parse and t_train=2 in
        # the t=1 decode, both as a DataError that blames the input
        monkeypatch.setattr(training, "DependencyParserModel", NanParserModel)
        with pytest.raises(TrainingError,
                           match="epoch 1, batch 1 of 4: iteration 1: loss is nan"):
            train(self._config(tmp_path, t_train=t_train))
        assert not (tmp_path / "m.g2gt").exists()

    @pytest.mark.parametrize("max_len, dev, message", [
        (8, False, "train.conllu: sentence 3 of 8: "
                   "sequence of 9 tokens exceeds max_len=8"),
        (12, True, "dev.conllu: sentence 4 of 4: "
                   "sequence of 21 tokens exceeds max_len=12")])
    def test_unparsable_sentence_rejected_before_training(self, tmp_path, monkeypatch,
                                                          max_len, dev, message):
        corpus = load_conllu(FIXTURE)
        write_conllu(corpus, tmp_path / "train.conllu")
        long = Sentence([f"w{k}" for k in range(20)], DepTree([0] + [1] * 19, ["x"] * 20))
        write_conllu(corpus[:3] + [long], tmp_path / "dev.conllu")

        def step(*args):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(training, "train_refinement_step", step)
        config = self._config(tmp_path, train_file=str(tmp_path / "train.conllu"),
                              dev_file=str(tmp_path / "dev.conllu") if dev else None,
                              max_len=max_len)
        with pytest.raises(DataError, match=f"^{re.escape(str(tmp_path / message))}$"):
            train(config)
        assert not (tmp_path / "m.g2gt").exists()

    @pytest.mark.parametrize("bad", ["train_file", "dev_file"])
    def test_gold_tree_that_is_not_a_tree_rejected_before_the_model_is_built(
            self, tmp_path, monkeypatch, bad):
        # a dev tree whose token 1 heads itself used to train and score dev
        # LAS 0.00; a bad train tree failed without its file or sentence
        corpus = load_conllu(FIXTURE)
        corpus[2].tree.heads[0] = 1
        write_conllu(corpus, tmp_path / "bad.conllu")
        files = {"train_file": str(FIXTURE), "dev_file": str(FIXTURE),
                 bad: str(tmp_path / "bad.conllu")}

        def build(*args, **kwargs):
            raise AssertionError("a model was built")

        monkeypatch.setattr(training, "DependencyParserModel", build)
        message = f"{files[bad]}: sentence 3 of {len(corpus)}: token 1 has invalid head 1"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            train(self._config(tmp_path, **files))
        assert not (tmp_path / "m.g2gt").exists()

    @pytest.mark.parametrize("empty", ["train_file", "dev_file"])
    def test_empty_file_rejected_before_the_model_is_built(self, tmp_path, monkeypatch,
                                                           empty):
        # an empty dev file used to fail only after a full epoch, as "cannot
        # evaluate an empty corpus", without its name
        (tmp_path / "empty.conllu").write_text("")
        files = {"train_file": str(FIXTURE), "dev_file": str(FIXTURE),
                 empty: str(tmp_path / "empty.conllu")}

        def build(*args, **kwargs):
            raise AssertionError("a model was built")

        monkeypatch.setattr(training, "DependencyParserModel", build)
        with pytest.raises(DataError, match=f"^{re.escape(files[empty])}: no sentences$"):
            train(self._config(tmp_path, **files))
        assert not (tmp_path / "m.g2gt").exists()

    def test_treebank_without_deprels_rejected_before_the_model_is_built(
            self, tmp_path, monkeypatch):
        # a DEPREL column of '_' alone used to train a whole epoch, then fail
        # with "relation vocab has no up-relations to pool over"
        bare = tmp_path / "bare.conllu"
        write_conllu([Sentence(s.forms, DepTree(s.tree.heads, [None] * s.n))
                      for s in load_conllu(FIXTURE)], bare)

        def build(*args, **kwargs):
            raise AssertionError("a model was built")

        monkeypatch.setattr(training, "DependencyParserModel", build)
        with pytest.raises(DataError, match=f"^{re.escape(str(bare))}: no token has a "
                                            "deprel to learn$"):
            train(self._config(tmp_path, train_file=str(bare)))
        assert not (tmp_path / "m.g2gt").exists()

    def test_parse_leaves_parameters_and_scores_untouched(self, tmp_path):
        # untracked scoring returns views and sums in place; none of that may
        # reach a parameter or the scores a decode reads
        model = checkpoint_load(train(self._config(tmp_path, epochs=1)).checkpoint_path)
        before = [p.tensor.data.tobytes() for p in model.registry]
        decode = model.decode
        unchanged = []

        def checked_decode(slab):
            before = slab.tobytes()
            graph = decode(slab)
            unchanged.append(slab.tobytes() == before)
            return graph

        model.decode = checked_decode
        parse_corpus(model, load_conllu(FIXTURE), RefinementConfig())
        assert unchanged and all(unchanged)
        assert [p.tensor.data.tobytes() for p in model.registry] == before

    def test_parse_always_produces_valid_trees(self, tmp_path):
        # even an untrained model must emit well-formed single-root trees
        result = train(self._config(tmp_path, epochs=0))
        corpus = load_conllu(FIXTURE)
        trees, _ = parse_corpus(result.model, corpus, RefinementConfig())
        for tree in trees:
            tree.validate(single_root=True)

    def test_unknown_words_still_get_a_tree(self, tmp_path):
        result = train(self._config(tmp_path, epochs=1))
        unseen = Sentence(["zebra", "unseen", "words"],
                          DepTree([0, 1, 1], ["root", "x", "y"]))
        trees, _ = parse_corpus(result.model, [unseen], RefinementConfig())
        trees[0].validate(single_root=True)

    def test_single_token_sentence_forced_to_root(self, tmp_path):
        result = train(self._config(tmp_path, epochs=0))
        corpus = [Sentence(["word"], DepTree([0], ["root"]))]
        trees, _ = parse_corpus(result.model, corpus, RefinementConfig())
        assert trees[0].heads == [0]
        assert trees[0].deprels[0] is not None
