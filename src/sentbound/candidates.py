"""Candidate extraction: one record per occurrence of '.', '?' or '!' in a token stream."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

BOUNDARY_MARKS = frozenset(".?!")

# Sentinel for "no word here" (stream edges). None cannot collide with a real
# token, which is always a non-empty string.
NO_WORD: Optional[str] = None

_TOKEN_RE = re.compile(r"\S+")


@dataclass(frozen=True)
class Candidate:
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


def scan(tokens: Sequence[str], positions: Sequence[int]) -> list[Candidate]:
    """Emit one Candidate per occurrence of '.', '?' or '!', left to right.

    The context window is exactly one token on each side, NO_WORD beyond the
    stream edges. ``positions`` gives the character offset of each token in
    the text, as ``tokenize_with_positions`` returns it.
    """
    out: list[Candidate] = []
    last = len(tokens) - 1
    for i, tok in enumerate(tokens):
        if not tok:
            raise ValueError("empty token in stream")
        prev_word = tokens[i - 1] if i > 0 else NO_WORD
        next_word = tokens[i + 1] if i < last else NO_WORD
        for j, ch in enumerate(tok):
            if ch in BOUNDARY_MARKS:
                out.append(
                    Candidate(
                        mark=ch,
                        token=tok,
                        offset_in_token=j,
                        prefix=tok[:j],
                        suffix=tok[j + 1 :],
                        prev_word=prev_word,
                        next_word=next_word,
                        stream_position=positions[i] + j,
                    )
                )
    return out


def tokenize_with_positions(text: str) -> tuple[list[str], list[int]]:
    """Split raw text into whitespace-delimited tokens with character offsets."""
    tokens, positions = [], []
    for m in _TOKEN_RE.finditer(text):
        tokens.append(m.group())
        positions.append(m.start())
    return tokens, positions
