"""Corpus IO, candidate labeling and abbreviation induction.

Training format: one sentence per line, tokens whitespace-separated. The line
break is the boundary annotation. Labeling scans the sentences joined with
single spaces and labels each candidate True iff its mark ends a sentence;
a sentence that ends in anything else gets no True label and a warning
(``label_warnings``), a fact about the corpus that labeling does not carry.

``label_groups`` is the one labeling path. It scans and labels the joined
corpus one slice at a time, cut as ``candidates.slices`` cuts raw text for
segmentation, and yields each slice's columns and labels, so a slice's
candidates are those of the whole corpus, field for field. ``evaluate`` and
the ``induce-abbrevs`` command consume the slices one by one, so their
memory follows one slice and the corpus's text, not the corpus's tokens;
training and ``evaluation.score`` read the slices concatenated, as the one
(columns, labels) pair that ``label_candidates`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import accumulate, chain, count
from operator import add
from pathlib import Path
from typing import Iterable, Iterator

from .candidates import BOUNDARY_MARKS, Candidates, scan, slices


class CorpusError(Exception):
    """Malformed or unusable corpus input."""


class EmptyCorpusError(CorpusError):
    """A corpus, or the file it is read from, holds no sentences."""


@dataclass(frozen=True)
class AnnotatedCorpus:
    """Sentences as ``load_annotated`` reads them: at least one, each
    non-empty and without outer whitespace (as ``str.strip`` defines it)."""

    sentences: tuple[str, ...]

    def __post_init__(self):
        if not self.sentences:
            raise EmptyCorpusError("corpus has no sentences")
        for s_i, sent in enumerate(self.sentences, 1):
            if not sent or sent.strip() != sent:
                raise CorpusError(f"sentence {s_i} is empty or has outer whitespace: {sent!r}")

    def __len__(self) -> int:
        return len(self.sentences)


def load_annotated(path: str | Path, encoding: str = "utf-8") -> AnnotatedCorpus:
    """Read a one-sentence-per-line corpus. Blank lines are skipped.

    Only a line feed ends a line; reading turns CR LF and CR into LF. Other
    breaks ``str.splitlines`` knows, such as U+0085, stay inside the sentence
    and count as whitespace there, as they do at inference."""
    text = Path(path).read_text(encoding=encoding)
    sentences = tuple(line.strip() for line in text.split("\n") if line.strip())
    if not sentences:
        raise EmptyCorpusError(f"no non-blank lines in {path}")
    return AnnotatedCorpus(sentences)


def load_raw(path: str | Path, encoding: str = "utf-8") -> str:
    """Read raw inference text verbatim, line endings included, so that
    offsets into it count the file's characters. Decoding errors propagate."""
    with open(path, encoding=encoding, newline="") as f:
        return f.read()


def corpus_from_sentences(sentences: Iterable[str]) -> AnnotatedCorpus:
    """The corpus of ``sentences`` stripped, blank ones dropped."""
    return AnnotatedCorpus(tuple(s.strip() for s in sentences if s.strip()))


def label_groups(corpus: AnnotatedCorpus) -> Iterator[tuple[Candidates, list[bool]]]:
    """The corpus's labeled candidates as (columns, labels), one slice
    (``candidates.slices``) of the sentences joined with single spaces at a
    time, with positions in the joined corpus: together, what one scan of
    the joined corpus gives. A candidate is labeled True iff its mark is the
    last character of a sentence."""
    sentences = corpus.sentences
    joined = " ".join(sentences)
    # Each sentence's last character in the joined corpus (its length and
    # those before it, plus the spaces that join them, minus one), read as the
    # slices reach them; then the corpus's length, which no slice reaches.
    ends = chain(map(add, accumulate(map(len, sentences)), count(-1)), (len(joined),))
    ahead = next(ends)
    for start, piece, prev_word, next_word in slices(joined):
        cands = scan(piece, prev_word, next_word)
        if start:
            cands.positions = list(map(start.__add__, cands.positions))
        stop, last = start + len(piece), set()
        while ahead < stop:
            last.add(ahead)
            ahead = next(ends)
        yield cands, list(map(last.__contains__, cands.positions))
        del cands  # this slice's columns go before the next slice's are built


def label_warnings(corpus: AnnotatedCorpus) -> Iterator[str]:
    """One warning per sentence, numbered from 1, that ends in anything but a
    boundary mark (no mark, or a closer after one): it gets no True label."""
    for s_i, sent in enumerate(corpus.sentences, 1):
        if sent[-1] not in BOUNDARY_MARKS:
            yield (
                f"sentence {s_i} ends in token {sent.rsplit(maxsplit=1)[-1]!r}, whose "
                "last character is not a boundary mark, so it gets no boundary label"
            )


def label_candidates(corpus: AnnotatedCorpus) -> tuple[Candidates, list[bool]]:
    """The whole corpus's labeled candidates as (columns, labels):
    ``label_groups`` concatenated, so they are those of one scan of the
    joined sentences."""
    groups = label_groups(corpus)
    columns, labels = next(groups)
    for more, more_labels in groups:
        for column in fields(Candidates):
            getattr(columns, column.name).extend(getattr(more, column.name))
        labels += more_labels
    return columns, labels


def induce_abbreviations(labeled: tuple[Candidates, list[bool]]) -> frozenset[str]:
    """Training tokens, of a (columns, labels) pair as ``label_groups``
    yields and ``label_candidates`` returns, containing at least one '.'
    that ends no sentence."""
    c, labels = labeled
    return frozenset(
        token
        for token, offset, ends in zip(c.tokens, c.offsets, labels)
        if not ends and token[offset] == "."
    )
