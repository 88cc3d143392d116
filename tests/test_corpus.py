import string
from contextlib import suppress

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sentbound.candidates import BOUNDARY_MARKS, scan
from sentbound.cli import EXIT_OK, main
from sentbound.corpus import (
    AnnotatedCorpus,
    CorpusError,
    EmptyCorpusError,
    corpus_from_sentences,
    induce_abbreviations,
    label_candidates,
    load_annotated,
    load_raw,
)


def rows(lab):
    """(candidate, label) pairs of a labeled set."""
    return list(zip(lab.columns, lab.labels))


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
    labels = [(c.token, label) for c, label in rows(label_candidates(corp))]
    assert labels[:2] == [("Wait.", False), ("go.", True)]


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
    assert lab.labels[0] is True


def test_label_example1(example1_labeled):
    got = [(c.token, lab) for c, lab in rows(example1_labeled)]
    assert got == [("Corp.", False), ("Dr.", False), ("resigned.", True)]


def test_label_dc(dc_corpus):
    lab = label_candidates(dc_corpus)
    got = [(c.offset_in_token, label) for c, label in rows(lab)]
    assert got == [(1, False), (3, True)]


def test_label_warns_on_unpunctuated_final_token():
    lab = label_candidates(corpus_from_sentences(["A headline without period"]))
    assert len(lab.warnings) == 1
    assert True not in lab.labels


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
    assert rows(lab1) == rows(lab2)
    assert all(type(label) is bool for label in lab1.labels)
    assert lab1.labels.count(True) <= len(corp)


@given(st.lists(sentence_strategy, min_size=1, max_size=8))
def test_token_stream_preserves_characters(sentences):
    corp = corpus_from_sentences(sentences)
    lab = label_candidates(corp)
    marks = "".join(map(str.__getitem__, lab.columns.tokens, lab.columns.offsets))
    original = "".join(ch for s in corp.sentences for ch in s if ch in BOUNDARY_MARKS)
    assert marks == original


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
    assert lab.columns == scan(text)
    start, unmarked = 0, 0
    for sent in corp.sentences:
        end = start + len(sent) - 1
        yes = [
            cand.stream_position
            for cand, label in rows(lab)
            if label and start <= cand.stream_position <= end
        ]
        if sent[-1] in BOUNDARY_MARKS:
            assert yes == [end]
        else:
            assert yes == []
            unmarked += 1
        start = end + 2
    assert lab.labels.count(True) == len(corp) - unmarked
    assert len(lab.warnings) == unmarked


# Short strings of letters, marks and whitespace: empty, blank and padded
# sentences among them.
any_sentence_strategy = st.text(alphabet="ab.?! \t\n\x85\u3000", max_size=8)


@given(st.lists(any_sentence_strategy, max_size=6).map(tuple))
@example(())
@example(("Dr. Smith left.", ""))
@example(("Dr. Smith left.", " \t"))
@example((" He left. ",))
def test_a_corpus_either_labels_or_is_refused(sentences):
    # A corpus holds exactly what the readers produce, and then labels each
    # sentence: one True label if it ends in a mark, else one warning.
    try:
        corp = AnnotatedCorpus(sentences)
    except CorpusError:
        with suppress(EmptyCorpusError):
            assert corpus_from_sentences(sentences).sentences != sentences
        return
    assert corpus_from_sentences(sentences) == corp
    lab = label_candidates(corp)
    assert lab.sentences == len(sentences) == lab.labels.count(True) + len(lab.warnings)
