import re
import string

import scan_reference
from hypothesis import example, given
from hypothesis import strategies as st

from sentbound.candidates import BOUNDARY_MARKS, NO_WORD, Candidate, scan, tokenize_with_positions


def scan_text(text):
    return list(scan(text))


def row(c):
    """A candidate's fields as the reference scan's rows hold them: mark,
    token, offset in token, the token's parts before and after the mark,
    previous and next word, position."""
    tok, j = c.token, c.offset_in_token
    return (tok[j], tok, j, tok[:j], tok[j + 1 :], c.prev_word, c.next_word, c.stream_position)


tokens_strategy = st.lists(
    st.text(alphabet=string.ascii_letters + ".?!,0123456789", min_size=1, max_size=8),
    min_size=1,
    max_size=12,
)


def test_scan_corp_token():
    (cand,) = scan_text("Corp.")
    assert row(cand) == (".", "Corp.", 4, "Corp", "", NO_WORD, NO_WORD, 4)


def test_scan_dc_token():
    cands = scan_text("D.C.")
    assert [row(c)[3:5] for c in cands] == [("D", "C."), ("D.C", "")]


def test_scan_no_marks():
    assert scan_text("hello") == []


def test_ellipsis_and_emphasis_yield_one_candidate_per_mark():
    assert len(scan_text("...")) == 3
    assert len(scan_text("wow!!!")) == 3


def test_lone_punctuation_token_is_emitted():
    (cand,) = scan_text(".")
    assert row(cand)[3:5] == ("", "")


def neighbors(tokens):
    return [(c.prev_word, c.next_word) for c in scan_text(" ".join(tokens))]


def test_neighbors_middle():
    assert neighbors(["ANLP", "Corp.", "chairman"]) == [("ANLP", "chairman")]


def test_neighbors_edges():
    assert neighbors(["only."]) == [(NO_WORD, NO_WORD)]
    assert neighbors(["a.", "b."]) == [(NO_WORD, "b."), ("a.", NO_WORD)]


@given(tokens_strategy)
def test_scan_count_matches_mark_count(tokens):
    marks = sum(tok.count(".") + tok.count("?") + tok.count("!") for tok in tokens)
    assert len(scan_text(" ".join(tokens))) == marks


@given(tokens_strategy)
def test_scan_reconstruction_and_order(tokens):
    cands = scan_text(" ".join(tokens))
    for c in cands:
        assert c.token[c.offset_in_token] in BOUNDARY_MARKS
    positions = [c.stream_position for c in cands]
    assert positions == sorted(positions)


@given(st.text(alphabet=string.printable, max_size=60))
def test_tokenize_with_positions_roundtrip(text):
    tokens, positions = tokenize_with_positions(text)
    assert tokens == text.split()
    for tok, pos in zip(tokens, positions):
        assert text[pos : pos + len(tok)] == tok


# Marks, closers and digits between ASCII and Unicode whitespace (U+0085,
# U+2028, U+3000, U+001C all count as whitespace).
UNICODE_TEXT = st.text(alphabet="ab.?!\"')3 \t\n\x85\u2028\u3000\x1c", max_size=40)


@given(UNICODE_TEXT)
def test_tokenize_agrees_with_the_token_regex(text):
    tokens, positions = tokenize_with_positions(text)
    assert list(zip(tokens, positions)) == [
        (m.group(), m.start()) for m in re.finditer(r"\S+", text)
    ]


def reference_scan(text):
    """One candidate per mark character, found token by token."""
    tokens, positions = tokenize_with_positions(text)
    out = []
    for i, tok in enumerate(tokens):
        for j, ch in enumerate(tok):
            if ch in ".?!":
                out.append((
                    ch, tok, j, tok[:j], tok[j + 1 :],
                    tokens[i - 1] if i > 0 else NO_WORD,
                    tokens[i + 1] if i < len(tokens) - 1 else NO_WORD,
                    positions[i] + j,
                ))
    return out


@given(UNICODE_TEXT)
def test_scan_matches_a_per_token_enumeration(text):
    cands = scan_text(text)
    assert all(type(c) is Candidate for c in cands)
    assert [row(c) for c in cands] == reference_scan(text)


WHITESPACE = [" ", "\t", "\n", "\r", "\x85", "\u3000", "\u2028"]
ORACLE_TOKEN = st.text(alphabet=string.ascii_letters[:6] + ".?!\"')]", min_size=1, max_size=6)
ORACLE_GAP = st.text(alphabet=WHITESPACE, min_size=1, max_size=3)


@st.composite
def oracle_texts(draw):
    """Tokens between whitespace gaps of one to three characters, with
    optional leading and trailing whitespace, or free text."""
    tokens = draw(st.lists(ORACLE_TOKEN, max_size=10))
    gaps = [draw(ORACLE_GAP) for _ in tokens[1:]]
    edges = [draw(st.just("") | ORACLE_GAP) for _ in "ab"]
    joined = "".join(tok + gap for tok, gap in zip(tokens, gaps + [""]))
    free = st.text(alphabet=string.ascii_letters[:6] + ".?!\"')]" + "".join(WHITESPACE), max_size=40)
    return draw(st.just(edges[0] + joined + edges[1]) | free)


@given(oracle_texts())
# One-character gaps, so the normalised text is as long as the text ...
@example("Dr. Smith\tleft.\u3000He\x85said \"stop.\"")
# ... and not: multi-character gaps, edge whitespace, mark-only tokens.
@example("  ... a.\r\n\n! (b.) ?\u2028\u2028")
@example("\x85")
@example("!")
# Whitespace after the last token only: the normalised text begins the text,
# so every mark keeps its normalised position.
@example("Dr. Smith left. ")
@example("Mr. Smith. He left.\t\t\t")
@example("Why? Now!\u3000")
def test_scan_rows_equal_the_reference_scan(text):
    want = scan_reference.scan(text, *scan_reference.tokenize_with_positions(text))
    assert [row(c) for c in scan(text)] == [tuple(c) for c in want]


@given(oracle_texts(), ORACLE_GAP, oracle_texts())
# A candidate ends ``a`` and one starts ``b``.
@example("Mr.", " ", "Smith. He")
# One side of the cut has no word.
@example("a.", "\n", "\u3000")
@example("\t", " ", "x. y")
def test_edge_words_stitch_a_text_cut_at_whitespace(a, gap, b):
    whole = list(scan(a + gap + b))
    words_a, words_b = a.split(), b.split()
    lead = list(scan(a, NO_WORD, words_b[0] if words_b else NO_WORD))
    trail = scan(b, words_a[-1] if words_a else NO_WORD, NO_WORD)
    shift = len(a + gap)
    trail = [c._replace(stream_position=c.stream_position + shift) for c in trail]
    assert lead == whole[: len(lead)]
    assert trail == whole[len(lead) :]
