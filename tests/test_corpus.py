import string

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sentbound.candidates import BOUNDARY_MARKS, scan
from sentbound.cli import EXIT_OK, main
from sentbound.corpus import (
    NO,
    YES,
    EmptyCorpusError,
    corpus_from_sentences,
    induce_abbreviations,
    label_candidates,
    load_annotated,
    load_raw,
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


def test_load_annotated_splits_lines_at_line_feeds_only(tmp_path):
    # cp1252's ellipsis byte read as latin-1 is U+0085, which str.splitlines
    # would treat as a line break.
    p = tmp_path / "c.txt"
    p.write_bytes(b"Wait.\x85Then go.\r\nNext one.\rLast.\n")
    corp = load_annotated(p, encoding="latin-1")
    assert corp.sentences == ("Wait.\x85Then go.", "Next one.", "Last.")
    labels = [(c.token, label) for c, label in label_candidates(corp).candidates]
    assert labels[:2] == [("Wait.", NO), ("go.", YES)]


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


def test_save_abbreviations_sorted(tmp_path):
    corp = tmp_path / "c.txt"
    corp.write_text("Acme Inc. hired Dr. Lee of Zeta Corp. today.\n")
    out = tmp_path / "abbrevs.txt"
    assert main(["induce-abbrevs", "--corpus", str(corp), "--output", str(out)]) == EXIT_OK
    assert out.read_text() == "Corp.\nDr.\nInc.\n"


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
    marks = "".join(cand.mark for cand, _ in lab.candidates)
    original = "".join(ch for s in corp.sentences for ch in s if ch in BOUNDARY_MARKS)
    assert marks == original
    for cand, _ in lab.candidates:
        assert cand.token[cand.offset_in_token] == cand.mark


@given(st.lists(sentence_strategy, min_size=1, max_size=8))
def test_induced_abbrevs_subset_of_dotted_tokens(sentences):
    corp = corpus_from_sentences(sentences)
    lab = label_candidates(corp)
    abbrevs = induce_abbreviations(lab)
    dotted = {tok for s in corp.sentences for tok in s.split() if "." in tok}
    assert abbrevs <= dotted


closer_sentence_strategy = st.lists(
    st.text(alphabet=string.ascii_letters + ".?!\")", min_size=1, max_size=6),
    min_size=1,
    max_size=6,
).map(" ".join)


@example(['He said "stop."', "We met in the U.S", "Fine."])
@given(st.lists(closer_sentence_strategy, min_size=1, max_size=8))
def test_labels_come_from_the_inference_scan(sentences):
    corp = corpus_from_sentences(sentences)
    lab = label_candidates(corp)
    text = " ".join(corp.sentences)
    assert [cand for cand, _ in lab.candidates] == list(scan(text))
    start, unmarked = 0, 0
    for sent in corp.sentences:
        end = start + len(sent) - 1
        yes = [
            cand.stream_position
            for cand, label in lab.candidates
            if label == YES and start <= cand.stream_position <= end
        ]
        if sent[-1] in BOUNDARY_MARKS:
            assert yes == [end]
        else:
            assert yes == []
            unmarked += 1
        start = end + 2
    assert lab.n_yes == len(corp) - unmarked
    assert len(lab.warnings) == unmarked
