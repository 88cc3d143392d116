"""Corpus IO, candidate labeling and abbreviation induction.

Training format: one sentence per line, tokens whitespace-separated. The line
break is the boundary annotation. A labeled candidate set is the ``scan``
columns of the sentences joined with single spaces, plus a column of boolean
labels (True where the mark ends a sentence) and the count of its sentences,
which training, abbreviation induction and scoring read as columns.

``label_groups`` is the one labeling path. It scans and labels the joined
corpus one slice at a time, cut as ``candidates.slices`` cuts raw text for
segmentation, so a slice's candidates are those of the whole corpus, field
for field, and each set counts the sentences that end in its slice.
``evaluate`` consumes the sets one by one, so its memory follows one slice
and the corpus's text, not the corpus's tokens; training and abbreviation
induction read the sets concatenated, which ``label_candidates`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
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
    """The corpus of ``sentences`` stripped, blank ones dropped."""
    return AnnotatedCorpus(tuple(s.strip() for s in sentences if s.strip()))


def label_groups(corpus: AnnotatedCorpus) -> Iterator[LabeledCandidateSet]:
    """The corpus's labeled candidates, one slice (``candidates.slices``) of
    the sentences joined with single spaces at a time, with positions in the
    joined corpus: together, what one scan of the joined corpus gives.

    A candidate is labeled True iff its mark is the last character of a
    sentence. Sentences that end in anything else get no True label and are
    recorded as warnings, numbered across the corpus, not errors. Each set
    counts, and warns of, the sentences whose last character is in its slice.
    """
    sentences = corpus.sentences
    joined = " ".join(sentences)
    # Each sentence's last character in the joined corpus (its length and
    # those before it, plus the spaces that join them, minus one), read as the
    # slices reach them; then the corpus's length, which no slice reaches.
    ends = chain(map(add, accumulate(map(len, sentences)), count(-1)), (len(joined),))
    first, ahead = 0, next(ends)  # sentences[first] ends at ``ahead``
    for start, piece, prev_word, next_word in slices(joined):
        cands = scan(piece, prev_word, next_word)
        if start:
            cands.positions = list(map(start.__add__, cands.positions))
        stop, last = start + len(piece), set()
        while ahead < stop:
            last.add(ahead)
            ahead = next(ends)
        warnings = [
            f"sentence {s_i} ends in token {sent.split()[-1]!r}, whose last "
            "character is not a boundary mark, so it gets no boundary label"
            for s_i, sent in enumerate(sentences[first : first + len(last)], first + 1)
            if sent[-1] not in BOUNDARY_MARKS
        ]
        labels = list(map(last.__contains__, cands.positions))
        yield LabeledCandidateSet(cands, labels, len(last), warnings)
        first += len(last)
        del cands  # this slice's columns go before the next slice's are built


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
