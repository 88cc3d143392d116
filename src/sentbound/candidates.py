"""Candidate extraction: one record per occurrence of '.', '?' or '!' in a text.

``scan`` is the one candidate enumeration, for labeling and segmentation
alike. It finds the marks with one regular-expression pass over the text and
places each in its token by bisecting the token start positions.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import NamedTuple, Optional, Sequence

BOUNDARY_MARKS = frozenset(".?!")

# Sentinel for "no word here" (stream edges). None cannot collide with a real
# token, which is always a non-empty string.
NO_WORD: Optional[str] = None

_MARK_RE = re.compile(r"[.?!]")


class Candidate(NamedTuple):
    """One occurrence of a potential sentence-boundary mark inside a token.

    prefix/suffix are the parts of the token before/after this occurrence;
    prev_word/next_word are the adjacent tokens (None at stream edges);
    stream_position is the global character offset of the mark.
    """

    mark: str
    token: str
    offset_in_token: int
    prefix: str
    suffix: str
    prev_word: Optional[str]
    next_word: Optional[str]
    stream_position: int

    @property
    def token_final(self) -> bool:
        return self.offset_in_token == len(self.token) - 1


def scan(text: str, tokens: Sequence[str], positions: Sequence[int]) -> list[Candidate]:
    """Emit one Candidate per occurrence of '.', '?' or '!' in ``text``, left
    to right.

    ``tokens`` and ``positions`` are the text's tokens and their character
    offsets, as ``tokenize_with_positions(text)`` returns them. The context
    window is exactly one token on each side, NO_WORD beyond the stream edges.
    """
    out = []
    append = out.append
    # What Candidate(...) does, without its Python-level __new__.
    new = tuple.__new__
    last = len(tokens) - 1
    for m in _MARK_RE.finditer(text):
        pos = m.start()
        # A mark is never whitespace, so it lies inside the last token
        # starting at or before it.
        i = bisect_right(positions, pos) - 1
        tok = tokens[i]
        j = pos - positions[i]
        append(new(Candidate, (
            tok[j],
            tok,
            j,
            tok[:j],
            tok[j + 1 :],
            tokens[i - 1] if i else NO_WORD,
            tokens[i + 1] if i < last else NO_WORD,
            pos,
        )))
    return out


def tokenize_with_positions(text: str) -> tuple[list[str], list[int]]:
    """Split raw text into whitespace-delimited tokens with character offsets.

    ``str.split`` and the regular expression ``\\S+`` agree on what is
    whitespace. Only whitespace lies between one token's end and the next
    token's start, so the next token's first occurrence from there is where
    it starts."""
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
