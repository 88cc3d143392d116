"""Corpus IO, candidate labeling and abbreviation induction.

Training format: one sentence per line, tokens whitespace-separated. The line
break is the boundary annotation. A labeled candidate set is the ``scan``
columns of the joined corpus plus a column of labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, count
from operator import add
from pathlib import Path
from typing import Iterable

from .candidates import BOUNDARY_MARKS, Candidate, Candidates, scan

YES = "yes"
NO = "no"


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
    """Candidates from an annotated corpus, labeled yes iff the mark ends a
    sentence: ``labels[i]`` is the label of the i-th candidate of ``columns``."""

    columns: Candidates
    labels: list[str]
    warnings: list[str] = field(default_factory=list)

    @property
    def candidates(self) -> list[tuple[Candidate, str]]:
        """(candidate, label) rows."""
        return list(zip(self.columns, self.labels))

    @property
    def n_yes(self) -> int:
        return self.labels.count(YES)

    @property
    def n_no(self) -> int:
        return self.labels.count(NO)

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


def label_candidates(corpus: AnnotatedCorpus) -> LabeledCandidateSet:
    """Join the sentences with single spaces, scan the text as segmentation
    does, and label each candidate.

    A candidate is labeled yes iff its mark is the last character of a
    sentence. Sentences that end in anything else get no yes label and are
    recorded as warnings, not errors.
    """
    sentences = corpus.sentences
    if not sentences:
        raise EmptyCorpusError("corpus has no sentences")
    cands = scan(" ".join(sentences))
    # Sentence k's last character in the joined text: its length and those
    # before it, plus the k joining spaces, minus one.
    ends = set(map(add, accumulate(map(len, sentences)), count(-1)))
    # A bool indexes the pair: False -> NO, True -> YES.
    labels = list(map((NO, YES).__getitem__, map(ends.__contains__, cands.positions)))
    warnings = [
        f"sentence {s_i} ends in token {sent.split()[-1]!r}, whose last "
        "character is not a boundary mark, so it gets no boundary label"
        for s_i, sent in enumerate(sentences, 1)
        if sent[-1] not in BOUNDARY_MARKS
    ]
    return LabeledCandidateSet(cands, labels, warnings)


def induce_abbreviations(labeled: LabeledCandidateSet) -> frozenset[str]:
    """Training tokens containing at least one '.' occurrence labeled no."""
    c = labeled.columns
    return frozenset(
        token
        for token, offset, label in zip(c.tokens, c.offsets, labeled.labels)
        if label == NO and token[offset] == "."
    )
