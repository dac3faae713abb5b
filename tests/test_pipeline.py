"""Vocabulary, evaluation, checkpointing, config, and the training pipeline."""

import os
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from g2gt.checkpoint import checkpoint_load, checkpoint_save
from g2gt.config import RunConfig, load_config_file
from g2gt.conllu import Sentence, load_conllu
from g2gt import training
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


class TestCheckpoint:
    def test_save_load_bit_identical_forward(self, tmp_path):
        model = small_model(seed=5)
        path = tmp_path / "model.g2gt"
        checkpoint_save(model, path)
        loaded = checkpoint_load(path)
        forms = ["the", "dog", "barks"]
        g = empty_graph(4)
        before = model.score(forms, g).flat.data
        after = loaded.score(forms, g).flat.data
        assert np.array_equal(before, after)  # bitwise

    def test_truncated_file_rejected(self, tmp_path):
        model = small_model()
        path = tmp_path / "model.g2gt"
        checkpoint_save(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            checkpoint_load(path)

    @pytest.mark.parametrize("version", [99, 1])
    def test_version_bump_rejected(self, tmp_path, version):
        # version 1 stored one edge.bilinear.<l> parameter per label
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


class TestRunConfig:
    def test_file_plus_overrides(self, tmp_path):
        cfg_file = tmp_path / "run.yaml"
        cfg_file.write_text("epochs: 7\nlr: 0.01\nseed: 3\n")
        values = load_config_file(cfg_file)
        config = RunConfig.from_sources(values, {"epochs": 9})
        assert config.epochs == 9      # flag wins
        assert config.lr == 0.01       # file value kept
        assert config.seed == 3

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

    def test_zero_epochs_saves_initialized_model_and_evaluates(self, tmp_path):
        result = train(self._config(tmp_path, epochs=0))
        assert result.checkpoint_path.is_file()
        loaded = checkpoint_load(result.checkpoint_path)
        corpus = load_conllu(FIXTURE)
        trees, _ = parse_corpus(loaded, corpus, RefinementConfig())
        report = evaluate(trees, [s.tree for s in corpus])
        assert 0.0 <= report.las <= report.uas <= 100.0

    def test_same_seed_gives_identical_losses_and_parameters(self, tmp_path):
        r1 = train(self._config(tmp_path, model_out=str(tmp_path / "a.g2gt")))
        r2 = train(self._config(tmp_path, model_out=str(tmp_path / "b.g2gt")))
        assert r1.losses == r2.losses
        for p1, p2 in zip(r1.model.registry, r2.model.registry):
            assert np.array_equal(p1.tensor.data, p2.tensor.data)
        assert (tmp_path / "a.g2gt").read_bytes() == (tmp_path / "b.g2gt").read_bytes()

    @pytest.mark.parametrize("t_train", [1, 2])
    def test_non_finite_loss_stops_training(self, tmp_path, monkeypatch, t_train):
        # without the check, t_train=1 fails in the dev parse and t_train=2 in
        # the t=1 decode, both as a DataError that blames the input
        monkeypatch.setattr(training, "DependencyParserModel", NanParserModel)
        with pytest.raises(TrainingError,
                           match="epoch 1, batch 1 of 4: iteration 1: loss is nan"):
            train(self._config(tmp_path, t_train=t_train))
        assert not (tmp_path / "m.g2gt").exists()

    def test_parse_leaves_parameters_and_scores_untouched(self, tmp_path):
        # untracked scoring returns views and sums in place; none of that may
        # reach a parameter or the scores a decode reads
        model = checkpoint_load(train(self._config(tmp_path, epochs=1)).checkpoint_path)
        before = [p.tensor.data.tobytes() for p in model.registry]
        decode = model.decode
        unchanged = []

        def checked_decode(scores, allowed=None):
            flat = scores.flat.data.tobytes()
            graph = decode(scores, allowed)
            unchanged.append(scores.flat.data.tobytes() == flat)
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
