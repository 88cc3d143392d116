"""Corpus IO, candidate labeling and abbreviation induction.

Training format: one sentence per line, tokens whitespace-separated. The line
break is the boundary annotation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .candidates import BOUNDARY_MARKS, Candidate, scan, tokenize_with_positions

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
    """Candidates from an annotated corpus, labeled yes iff the mark ends a sentence."""

    candidates: list[tuple[Candidate, str]]
    warnings: list[str] = field(default_factory=list)

    @property
    def n_yes(self) -> int:
        return sum(1 for _, lab in self.candidates if lab == YES)

    @property
    def n_no(self) -> int:
        return sum(1 for _, lab in self.candidates if lab == NO)

    def __len__(self) -> int:
        return len(self.candidates)


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
    if not corpus.sentences:
        raise EmptyCorpusError("corpus has no sentences")
    text = " ".join(corpus.sentences)
    ends: set[int] = set()
    warnings: list[str] = []
    end = -1
    for s_i, sent in enumerate(corpus.sentences):
        end += len(sent)  # the sentence's last character in ``text``
        if sent[-1] in BOUNDARY_MARKS:
            ends.add(end)
        else:
            warnings.append(
                f"sentence {s_i + 1} ends in token {sent.split()[-1]!r}, whose last "
                "character is not a boundary mark, so it gets no boundary label"
            )
        end += 1  # the joining space
    labeled = [
        (cand, YES if cand.stream_position in ends else NO)
        for cand in scan(text, *tokenize_with_positions(text))
    ]
    return LabeledCandidateSet(candidates=labeled, warnings=warnings)


def induce_abbreviations(labeled: LabeledCandidateSet) -> frozenset[str]:
    """Training tokens containing at least one '.' occurrence labeled no."""
    return frozenset(
        cand.token
        for cand, label in labeled.candidates
        if cand.mark == "." and label == NO
    )
