"""Candidate extraction: one record per occurrence of '.', '?' or '!' in a text.

``scan`` is the one candidate enumeration, for labeling and segmentation
alike. It returns the candidates of a whole text as ``Candidates``: parallel
columns of tokens, offsets in token, previous and next words and text
positions, which callers consume with ``map`` and ``zip``. It builds them
without a Python loop over tokens or marks: ``str.split`` and ``" ".join``
normalise the whitespace, ``str.find`` finds each kind of mark, and
``str.count``/``str.rfind`` between consecutive marks place each in its
token. While it runs it holds one string per token of its text; raw text
reaches it from ``pipeline.boundary_offsets`` one slice at a time, with the
words on either side of the slice as its edge words, so segmentation holds
the tokens of one slice only and its columns come out whole. A ``Candidate``
is one row of the columns, read as a named tuple, for code that decides one
candidate at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from operator import sub
from typing import Iterable, Iterator, NamedTuple, Optional

BOUNDARY_MARKS = frozenset(".?!")

# Sentinel for "no word here" (stream edges). None cannot collide with a real
# token, which is always a non-empty string.
NO_WORD: Optional[str] = None

# Characters that ``pipeline.boundary_offsets`` scans and decides at a time
# (one slice of raw text), and that ``corpus.label_groups`` labels at a time
# (one group of sentences, at least this long): about 11,000 tokens of
# news-like text. One slice's columns then peak under 2 MB (tracemalloc), a
# small share of a process that has loaded a model, and the few calls that
# stitch slices together cost nothing measurable once per slice. Slices of
# 1 Ki characters ran about 6% slower; 16 Ki saved under 1 MB more.
SLICE_CHARS = 1 << 16


def _marks(text: str) -> list[int]:
    """The offset of every mark in ``text``, ascending: one ``str.find`` per
    mark, which outruns a regular expression's one pass over the text."""
    at = []
    for mark in BOUNDARY_MARKS:
        i = text.find(mark)
        while i >= 0:
            at.append(i)
            i = text.find(mark, i + 1)
    at.sort()
    return at


class Candidate(NamedTuple):
    """One occurrence of a potential sentence-boundary mark inside a token.

    prev_word/next_word are the adjacent tokens (None at stream edges);
    stream_position is the global character offset of the mark.
    """

    token: str
    offset_in_token: int
    prev_word: Optional[str]
    next_word: Optional[str]
    stream_position: int


@dataclass(slots=True)
class Candidates:
    """The candidates of a text as columns, one entry per mark in text order;
    entry i of each column is field i of the i-th ``Candidate``."""

    tokens: list[str]
    offsets: list[int]
    prev_words: list[Optional[str]]
    next_words: list[Optional[str]]
    positions: list[int]

    @classmethod
    def from_rows(cls, rows: Iterable[Candidate]) -> Candidates:
        columns = list(zip(*rows)) or [()] * len(Candidate._fields)
        return cls(*map(list, columns))

    def __len__(self) -> int:
        return len(self.positions)

    def __iter__(self) -> Iterator[Candidate]:
        return map(
            Candidate, self.tokens, self.offsets, self.prev_words, self.next_words, self.positions
        )


def scan(
    text: str, prev_word: Optional[str] = NO_WORD, next_word: Optional[str] = NO_WORD
) -> Candidates:
    """The candidates of every occurrence of '.', '?' or '!' in ``text``, left
    to right. The context window is exactly one token on each side; tokens
    are what ``str.split`` gives. Beyond the text's first and last tokens lie
    ``prev_word`` and ``next_word``: NO_WORD at the edges of a stream, the
    neighbouring words when ``text`` is a slice of a longer one."""
    tokens = text.split()
    # The tokens with one space between them: a mark's token index is the
    # number of spaces before it, and its token starts after the last one.
    norm = " ".join(tokens)
    at = _marks(norm)
    index = list(accumulate(map(norm.count, repeat(" "), chain((0,), at), at)))
    # The last space between the previous mark and this one, or else the
    # previous mark's: a running max, so no search runs back past a mark.
    space = accumulate(map(norm.rfind, repeat(" "), chain((0,), at), at), max)
    padded = [prev_word, *tokens, next_word]
    return Candidates(
        tokens=list(map(tokens.__getitem__, index)),
        offsets=list(map(sub, at, map((1).__add__, space))),
        prev_words=list(map(padded.__getitem__, index)),
        next_words=list(map(padded.__getitem__, map((2).__add__, index))),
        # Marks are never whitespace, so ``text`` holds the same marks in the
        # same order; at equal lengths every gap is one character, and the
        # positions agree.
        positions=at if len(norm) == len(text) else _marks(text),
    )


def tokenize_with_positions(text: str) -> tuple[list[str], list[int]]:
    """Split raw text into whitespace-delimited tokens with character offsets.

    ``str.split`` and the regular expression ``\\S+`` agree on what is
    whitespace. Only whitespace lies between one token's end and the next
    token's start, so the next token's first occurrence from there is where
    it starts.

    ``scan`` does not call it. perfbench's tracer patches the name
    ``pipeline.tokenize_with_positions``, so the function stays."""
    tokens = text.split()
    positions = []
    append = positions.append
    find = text.find
    pos = 0
    for tok in tokens:
        pos = find(tok, pos)
        append(pos)
        pos += len(tok)
    return tokens, positions
