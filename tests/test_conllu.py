"""CoNLL-U reading, writing, and round trips."""

from pathlib import Path

import pytest

from g2gt.conllu import Sentence, load_conllu, write_conllu
from g2gt.errors import DataError
from g2gt.graphs import DepTree

FIXTURE = Path(__file__).parent / "fixtures" / "toy_treebank.conllu"


def test_two_token_fixture(tmp_path):
    f = tmp_path / "two.conllu"
    f.write_text(
        "1\tHi\t_\t_\t_\t_\t2\tdiscourse\t_\t_\n"
        "2\tthere\t_\t_\t_\t_\t0\troot\t_\t_\n")
    corpus = load_conllu(f)
    assert len(corpus) == 1
    assert corpus[0].forms == ["Hi", "there"]
    assert corpus[0].tree.heads == [2, 0]
    assert corpus[0].tree.deprels == ["discourse", "root"]


def test_last_sentence_without_trailing_newline_is_read(tmp_path):
    f = tmp_path / "open.conllu"
    f.write_text("1\tHi\t_\t_\t_\t_\t0\troot\t_\t_\n\n"
                 "1\tthere\t_\t_\t_\t_\t0\troot\t_\t_")
    assert [s.forms for s in load_conllu(f)] == [["Hi"], ["there"]]


def test_comments_and_multiword_ranges_skipped(tmp_path):
    f = tmp_path / "mwt.conllu"
    f.write_text(
        "# a comment line\n"
        "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tde\t_\t_\t_\t_\t2\tcase\t_\t_\n"
        "2\tel\t_\t_\t_\t_\t0\troot\t_\t_\n"
        "2.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n")
    corpus = load_conllu(f)
    assert len(corpus) == 1
    assert corpus[0].forms == ["de", "el"]


@pytest.mark.parametrize("ids, line", [((1, 1), 2), ((2, 3), 1), ((1, 3), 2)])
def test_token_ids_must_count_from_one(tmp_path, ids, line):
    # with IDs 1, 1 the second token's HEAD was read against its position
    f = tmp_path / "ids.conllu"
    f.write_text(f"{ids[0]}\tHi\t_\t_\t_\t_\t0\troot\t_\t_\n"
                 f"{ids[1]}\tthere\t_\t_\t_\t_\t1\tdep\t_\t_\n")
    with pytest.raises(DataError, match=f"ids.conllu:{line}: token id {ids[line - 1]}, "
                                        f"expected {line}$"):
        load_conllu(f)


def test_empty_file_gives_empty_corpus(tmp_path):
    f = tmp_path / "empty.conllu"
    f.write_text("")
    assert load_conllu(f) == []


def test_wrong_column_count_reports_line_number(tmp_path):
    f = tmp_path / "bad.conllu"
    f.write_text("1\tword\t_\t_\n")
    with pytest.raises(DataError, match="bad.conllu:1"):
        load_conllu(f)


def test_non_integer_token_id_rejected(tmp_path):
    f = tmp_path / "badid.conllu"
    f.write_text("1x\tword\t_\t_\t_\t_\t0\troot\t_\t_\n")
    with pytest.raises(DataError, match="badid.conllu:1: bad token id '1x'$"):
        load_conllu(f)


def test_non_integer_head_rejected(tmp_path):
    f = tmp_path / "badhead.conllu"
    f.write_text("1\tword\t_\t_\t_\t_\tX\tdep\t_\t_\n")
    with pytest.raises(DataError, match="HEAD"):
        load_conllu(f)


def test_head_out_of_range_rejected(tmp_path):
    f = tmp_path / "range.conllu"
    f.write_text("1\tword\t_\t_\t_\t_\t7\tdep\t_\t_\n")
    with pytest.raises(DataError, match="outside"):
        load_conllu(f)


def test_round_trip_identity_on_fixture(tmp_path):
    corpus = load_conllu(FIXTURE)
    out = tmp_path / "round.conllu"
    write_conllu(corpus, out)
    again = load_conllu(out)
    assert len(again) == len(corpus)
    for a, b in zip(corpus, again):
        assert a.forms == b.forms
        assert a.tree.heads == b.tree.heads
        assert a.tree.deprels == b.tree.deprels


def test_round_trip_twice_is_stable(tmp_path):
    corpus = load_conllu(FIXTURE)
    p1 = tmp_path / "r1.conllu"
    p2 = tmp_path / "r2.conllu"
    write_conllu(corpus, p1)
    write_conllu(load_conllu(p1), p2)
    assert p1.read_text() == p2.read_text()


def test_predictions_serialized(tmp_path):
    pred = Sentence(["word", "another"], DepTree([0, 1], ["root", "dep"]))
    out = tmp_path / "pred.conllu"
    write_conllu([pred], out)
    text = out.read_text()
    assert "1\tword\t_\t_\t_\t_\t0\troot\t_\t_" in text
    assert "2\tanother\t_\t_\t_\t_\t1\tdep\t_\t_" in text


def test_empty_corpus_writes_empty_file(tmp_path):
    out = tmp_path / "none.conllu"
    write_conllu([], out)
    assert out.read_text() == ""
    assert load_conllu(out) == []


def test_missing_file_is_a_data_error():
    with pytest.raises(DataError, match="cannot read"):
        load_conllu("/nonexistent/nowhere.conllu")


def test_unwritable_path_is_a_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot write"):
        write_conllu(load_conllu(FIXTURE), tmp_path)
