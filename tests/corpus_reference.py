"""Reference labeling: the whole-corpus ``label_candidates`` that
``sentbound.corpus`` ran before it labeled one group of sentences at a time,
kept unchanged but for its warnings, which ``label_warnings`` gives apart,
and for its sentence count, which the corpus gives. It returns the
(columns, labels) pair. ``sentbound.corpus.label_groups`` must give the same
candidates and labels, ``label_candidates`` the same pair, and
``sentbound.corpus.label_warnings`` the same warnings.
"""

from __future__ import annotations

from itertools import accumulate, count
from operator import add

from sentbound.candidates import BOUNDARY_MARKS, Candidates, scan
from sentbound.corpus import AnnotatedCorpus, EmptyCorpusError


def label_candidates(corpus: AnnotatedCorpus) -> tuple[Candidates, list[bool]]:
    """Join the sentences with single spaces, scan the text as segmentation
    does, and label each candidate.

    A candidate is labeled True iff its mark is the last character of a
    sentence. Sentences that end in anything else get no True label.
    """
    sentences = corpus.sentences
    if not sentences:
        raise EmptyCorpusError("corpus has no sentences")
    cands = scan(" ".join(sentences))
    # Sentence k's last character in the joined text: its length and those
    # before it, plus the k joining spaces, minus one.
    ends = set(map(add, accumulate(map(len, sentences)), count(-1)))
    labels = list(map(ends.__contains__, cands.positions))
    return cands, labels


def label_warnings(corpus: AnnotatedCorpus) -> list[str]:
    """The warnings, not errors, of the sentences that get no True label."""
    return [
        f"sentence {s_i} ends in token {sent.split()[-1]!r}, whose last "
        "character is not a boundary mark, so it gets no boundary label"
        for s_i, sent in enumerate(corpus.sentences, 1)
        if sent[-1] not in BOUNDARY_MARKS
    ]
