import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sentbound.corpus import (
    NO,
    YES,
    EmptyCorpusError,
    corpus_from_sentences,
    induce_abbreviations,
    label_candidates,
    load_annotated,
    load_raw,
    save_abbreviations,
)

sentence_strategy = st.lists(
    st.text(alphabet=string.ascii_letters + ".?!", min_size=1, max_size=6),
    min_size=1,
    max_size=6,
).map(" ".join)


def test_load_annotated_minimal(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("Hello world .\n")
    corp = load_annotated(p)
    assert len(corp) == 1
    assert corp.token_count == 3


def test_load_annotated_two_sentences(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("ANLP Corp. chairman Dr. Smith resigned.\nHe lives in Washington, D.C.\n")
    assert len(load_annotated(p)) == 2


def test_load_annotated_blank_lines_skipped(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("\n\nHello world .\n\n\nBye .\n")
    assert len(load_annotated(p)) == 2


def test_load_annotated_only_blank_lines(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("\n  \n\t\n")
    with pytest.raises(EmptyCorpusError):
        load_annotated(p)


def test_load_annotated_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_annotated(tmp_path / "nope.txt")


def test_load_raw(tmp_path):
    p = tmp_path / "r.txt"
    p.write_text("A. B.")
    assert load_raw(p) == "A. B."


def test_load_raw_empty(tmp_path):
    p = tmp_path / "r.txt"
    p.write_text("")
    assert load_raw(p) == ""


def test_load_raw_bad_encoding(tmp_path):
    p = tmp_path / "r.txt"
    p.write_bytes(b"\xff\xfe invalid")
    with pytest.raises(UnicodeDecodeError):
        load_raw(p, encoding="utf-8")


def test_label_single_boundary():
    lab = label_candidates(corpus_from_sentences(["Hello world ."]))
    assert len(lab) == 1
    assert lab.candidates[0][1] == YES


def test_label_example1(example1_labeled):
    got = [(c.token, lab) for c, lab in example1_labeled.candidates]
    assert got == [("Corp.", NO), ("Dr.", NO), ("resigned.", YES)]


def test_label_dc(dc_corpus):
    lab = label_candidates(dc_corpus)
    got = [(c.offset_in_token, label) for c, label in lab.candidates]
    assert got == [(1, NO), (3, YES)]


def test_label_warns_on_unpunctuated_final_token():
    lab = label_candidates(corpus_from_sentences(["A headline without period"]))
    assert len(lab.warnings) == 1
    assert lab.n_yes == 0


def test_induce_example1(example1_labeled):
    assert induce_abbreviations(example1_labeled) == {"Corp.", "Dr."}


def test_induce_trivial_boundary_only():
    lab = label_candidates(corpus_from_sentences(["Hello world ."]))
    assert len(induce_abbreviations(lab)) == 0


def test_induce_dc(dc_corpus):
    lab = label_candidates(dc_corpus)
    assert induce_abbreviations(lab) == {"D.C."}


def test_save_abbreviations_sorted(tmp_path, example1_labeled):
    out = tmp_path / "abbrevs.txt"
    save_abbreviations(induce_abbreviations(example1_labeled), out)
    assert out.read_text() == "Corp.\nDr.\n"


@given(st.lists(sentence_strategy, min_size=1, max_size=8))
def test_label_deterministic_and_bounded(sentences):
    corp = corpus_from_sentences(sentences)
    lab1 = label_candidates(corp)
    lab2 = label_candidates(corp)
    assert lab1.candidates == lab2.candidates
    assert lab1.n_yes + lab1.n_no == len(lab1)
    assert lab1.n_yes <= len(corp)


@given(st.lists(sentence_strategy, min_size=1, max_size=8))
def test_token_stream_preserves_characters(sentences):
    corp = corpus_from_sentences(sentences)
    lab = label_candidates(corp)
    stream = "".join(lab.tokens)
    original = "".join("".join(s.split()) for s in corp.sentences)
    assert stream == original


@given(st.lists(sentence_strategy, min_size=1, max_size=8))
def test_induced_abbrevs_subset_of_dotted_tokens(sentences):
    corp = corpus_from_sentences(sentences)
    lab = label_candidates(corp)
    abbrevs = induce_abbreviations(lab)
    dotted = {tok for tok in lab.tokens if "." in tok}
    assert abbrevs <= dotted
