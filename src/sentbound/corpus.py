"""Corpus IO, candidate labeling and abbreviation induction.

Training format: one sentence per line, tokens whitespace-separated. The line
break is the boundary annotation. A labeled candidate set is the ``scan``
columns of the sentences joined with single spaces, plus a column of boolean
labels (True where the mark ends a sentence) and the count of its sentences,
which training, abbreviation induction and scoring read as columns.

``label_groups`` is the one labeling path. It scans and labels the corpus
one group of consecutive sentences (at least ``SLICE_CHARS`` characters) at
a time, with the words beyond the group as ``scan``'s edge words and
positions in the whole joined corpus, so a group's candidates are those of
the whole corpus, field for field. ``evaluate`` consumes the groups one by
one, so its memory follows one group and the corpus's sentences, not the
corpus's tokens; training and abbreviation induction read the groups
concatenated, which ``label_candidates`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import accumulate, count
from operator import add
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .candidates import BOUNDARY_MARKS, NO_WORD, SLICE_CHARS, Candidates, scan


class CorpusError(Exception):
    """Malformed or unusable corpus input."""


class EmptyCorpusError(CorpusError):
    """File contained no non-blank lines."""


@dataclass(frozen=True)
class AnnotatedCorpus:
    sentences: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.sentences)


@dataclass
class LabeledCandidateSet:
    """Candidates from an annotated corpus of ``sentences`` sentences:
    ``labels[i]`` is True iff the i-th candidate of ``columns`` ends a sentence."""

    columns: Candidates
    labels: list[bool]
    sentences: int
    warnings: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.labels)


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
    sentences = tuple(s.strip() for s in sentences if s.strip())
    if not sentences:
        raise EmptyCorpusError("no sentences given")
    return AnnotatedCorpus(sentences)


def label_groups(corpus: AnnotatedCorpus) -> Iterator[LabeledCandidateSet]:
    """The corpus's labeled candidates, one group of consecutive sentences at
    a time: what one scan of the sentences joined with single spaces gives,
    cut between sentences.

    A group holds at least ``SLICE_CHARS`` characters, or the rest of the
    corpus. Its sentences are joined and scanned with the words beyond it as
    edge words, and its positions are shifted to the joined corpus, as
    ``pipeline.boundary_offsets`` does for a slice of raw text. A candidate is
    labeled True iff its mark is the last character of a sentence. Sentences
    that end in anything else get no True label and are recorded as
    warnings, numbered across the corpus, not errors. Each group counts its
    own sentences.
    """
    sentences = corpus.sentences
    if not sentences:
        raise EmptyCorpusError("corpus has no sentences")
    n = len(sentences)
    first, start, prev_word = 0, 0, NO_WORD
    while first < n:
        # The group is sentences[first:end], ``chars`` long when joined.
        end, chars = first + 1, len(sentences[first])
        while chars < SLICE_CHARS and end < n:
            chars += 1 + len(sentences[end])
            end += 1
        next_word = sentences[end].split(maxsplit=1)[0] if end < n else NO_WORD
        # Built in a call, so this frame keeps none of the group's columns
        # while the next group's are built.
        yield _label_group(sentences[first:end], first, start, prev_word, next_word)
        first, start, prev_word = end, start + chars + 1, sentences[end - 1].rsplit(maxsplit=1)[-1]


def _label_group(
    group: tuple[str, ...],
    first: int,
    start: int,
    prev_word: Optional[str],
    next_word: Optional[str],
) -> LabeledCandidateSet:
    """The labeled candidates of ``group``, whose first sentence is the
    corpus's ``first`` (from 0) and starts at ``start`` in the joined corpus."""
    cands = scan(" ".join(group), prev_word, next_word)
    # Sentence k's last character in the group's text: its length and those
    # before it, plus the k joining spaces, minus one.
    ends = set(map(add, accumulate(map(len, group)), count(-1)))
    labels = list(map(ends.__contains__, cands.positions))
    if start:
        cands.positions = list(map(start.__add__, cands.positions))
    warnings = [
        f"sentence {s_i} ends in token {sent.split()[-1]!r}, whose last "
        "character is not a boundary mark, so it gets no boundary label"
        for s_i, sent in enumerate(group, first + 1)
        if sent[-1] not in BOUNDARY_MARKS
    ]
    return LabeledCandidateSet(cands, labels, len(group), warnings)


def label_candidates(corpus: AnnotatedCorpus) -> LabeledCandidateSet:
    """The whole corpus's labeled candidates: ``label_groups`` concatenated,
    so the columns, labels and warnings are those of one scan of the joined
    sentences."""
    groups = label_groups(corpus)
    whole = next(groups)
    for group in groups:
        for column in fields(Candidates):
            getattr(whole.columns, column.name).extend(getattr(group.columns, column.name))
        whole.labels += group.labels
        whole.sentences += group.sentences
        whole.warnings += group.warnings
    return whole


def induce_abbreviations(labeled: LabeledCandidateSet) -> frozenset[str]:
    """Training tokens containing at least one '.' that ends no sentence."""
    c = labeled.columns
    return frozenset(
        token
        for token, offset, ends in zip(c.tokens, c.offsets, labeled.labels)
        if not ends and token[offset] == "."
    )
