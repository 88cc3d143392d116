"""Corpus IO, candidate labeling and abbreviation induction.

Training format: one sentence per line, tokens whitespace-separated. The line
break is the boundary annotation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .candidates import Candidate, scan

YES = "yes"
NO = "no"


class CorpusError(Exception):
    """Malformed or unusable corpus input."""


class EmptyCorpusError(CorpusError):
    """File contained no non-blank lines."""


@dataclass(frozen=True)
class AnnotatedCorpus:
    sentences: tuple[str, ...]

    @property
    def token_count(self) -> int:
        return sum(len(s.split()) for s in self.sentences)

    def __len__(self) -> int:
        return len(self.sentences)


@dataclass
class LabeledCandidateSet:
    """Candidates from an annotated corpus, labeled yes iff the mark ends a sentence."""

    candidates: list[tuple[Candidate, str]]
    tokens: list[str]
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
    """Read a one-sentence-per-line corpus. Blank lines are skipped."""
    text = Path(path).read_text(encoding=encoding)
    sentences = tuple(line.strip() for line in text.splitlines() if line.strip())
    if not sentences:
        raise EmptyCorpusError(f"no non-blank lines in {path}")
    return AnnotatedCorpus(sentences)


def load_raw(path: str | Path, encoding: str = "utf-8") -> str:
    """Read raw inference text verbatim. Decoding errors propagate."""
    return Path(path).read_text(encoding=encoding)


def corpus_from_sentences(sentences: Iterable[str]) -> AnnotatedCorpus:
    sentences = tuple(s.strip() for s in sentences if s.strip())
    if not sentences:
        raise EmptyCorpusError("no sentences given")
    return AnnotatedCorpus(sentences)


def label_candidates(corpus: AnnotatedCorpus) -> LabeledCandidateSet:
    """Concatenate sentences into one token stream and label each candidate.

    A candidate is labeled yes iff its mark is the last character of a
    sentence-final token. Sentences whose final token carries no candidate
    mark are recorded as warnings, not errors.
    """
    if not corpus.sentences:
        raise EmptyCorpusError("corpus has no sentences")
    tokens: list[str] = []
    final_indices: set[int] = set()
    warnings: list[str] = []
    for s_i, sent in enumerate(corpus.sentences):
        sent_tokens = sent.split()
        tokens.extend(sent_tokens)
        final_indices.add(len(tokens) - 1)
        if not any(ch in ".?!" for ch in sent_tokens[-1]):
            warnings.append(
                f"sentence {s_i + 1} ends in token {sent_tokens[-1]!r} "
                "with no candidate punctuation"
            )
    starts = []
    offset = 0
    for tok in tokens:
        starts.append(offset)
        offset += len(tok) + 1
    labeled = []
    for cand in scan(tokens, positions=starts):
        token_index = bisect_right(starts, cand.stream_position) - 1
        is_boundary = token_index in final_indices and cand.token_final
        labeled.append((cand, YES if is_boundary else NO))
    return LabeledCandidateSet(candidates=labeled, tokens=tokens, warnings=warnings)


def induce_abbreviations(labeled: LabeledCandidateSet) -> frozenset[str]:
    """Training tokens containing at least one '.' occurrence labeled no."""
    return frozenset(
        cand.token
        for cand, label in labeled.candidates
        if cand.mark == "." and label == NO
    )


def save_abbreviations(abbrevs: frozenset[str], path: str | Path) -> None:
    Path(path).write_text("".join(tok + "\n" for tok in sorted(abbrevs)), encoding="utf-8")
