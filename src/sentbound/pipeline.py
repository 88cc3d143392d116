"""End-to-end glue: corpus -> trained model, and model -> segmented text.

``train_model`` picks the template set's resources once; from there the
model's registry carries them to every encoding. Training events and
``evaluate`` take the ``scan`` columns of a whole text; ``boundary_offsets``
(which ``segment_text`` calls before it joins sentences) takes them one
slice of ``SLICE_CHARS`` characters at a time, so its memory grows with the
text and one slice, not with the text's token count; ``scan`` gets the
words on either side of each slice as its edge words. Training encodes
its columns with ``features.active_predicates``, through slot lookups of
predicate indices; ``decide`` adds each candidate's slot scores
(``maxent.Scores``), read through slot lookups of the same kind, in one
chain of ``map`` calls, and encodes (``features.encode``) and scores with
``maxent.classify`` only the few candidates whose sum is too close to its
threshold to be sure, or that have more fitted features than C.
``make_classifier`` decides one candidate the same way. The ``features``
module says what the slot lookups are and how far they grow.
"""

from __future__ import annotations

import codecs
import re
from dataclasses import dataclass, fields, replace
from itertools import compress, count
from operator import attrgetter, ne, not_, or_
from typing import Callable, Optional

from . import features, maxent
# perfbench's tracer patches ``pipeline.tokenize_with_positions``; nothing
# here calls it.
from .candidates import NO_WORD, Candidate, Candidates, scan, tokenize_with_positions  # noqa: F401
from .corpus import (
    AnnotatedCorpus,
    LabeledCandidateSet,
    induce_abbreviations,
    label_candidates,
)
from .features import Templates
from .maxent import Model

# Characters of raw text that ``boundary_offsets`` scans and decides at a
# time: about 11,000 tokens of news-like text. One slice's columns then peak
# under 2 MB (tracemalloc), a small share of a process that has loaded a
# model, and the few calls that stitch slices together cost nothing
# measurable once per slice. Slices of 1 Ki characters ran about 6% slower;
# 16 Ki saved under 1 MB more.
SLICE_CHARS = 1 << 16

# Where a slice may end, and the next word after it. ``\s`` matches exactly
# the characters for which ``str.isspace()`` holds, which ``str.split``, and
# so ``scan``, splits on.
_SPACE_RE = re.compile(r"\s")
_WORD_RE = re.compile(r"\S+")

_REAL, _IMAG = attrgetter("real"), attrgetter("imag")


def events_from_labeled(
    labeled: LabeledCandidateSet,
    registry: features.PredicateRegistry,
) -> list[maxent.TrainingEvent]:
    actives = features.active_predicates(registry, labeled.columns)
    return maxent.merge_events(zip(actives, labeled.labels))


def train_model(
    corpus: AnnotatedCorpus,
    template_set: str = "portable",
    *,
    cutoff: int = 1,
    max_iters: int = maxent.DEFAULT_MAX_ITERS,
    tolerance: float = maxent.DEFAULT_TOLERANCE,
    lexicons: Optional[dict[str, frozenset[str]]] = None,
) -> tuple[Model, LabeledCandidateSet]:
    """Label the corpus, build resources and registry, and run GIS.

    The portable system induces its abbreviation list from the corpus, and
    refuses ``lexicons``; the best system needs them, as
    ``features.load_lexicons`` returns them. The model's registry keeps
    whichever it used.
    """
    if template_set == "best" and lexicons is None:
        raise features.FeatureError("best template set requires resource lexicons")
    # Refuses an unknown set, or lexicons to portable, before any labeling.
    templates = Templates(template_set, **(lexicons or {}))
    labeled = label_candidates(corpus)
    if template_set == "portable":
        templates = replace(templates, abbreviations=induce_abbreviations(labeled))
    registry = features.build_registry(labeled, templates, cutoff=cutoff)
    events = events_from_labeled(labeled, registry)
    model = maxent.train_gis(events, registry, max_iters=max_iters, tolerance=tolerance)
    return model, labeled


def decide(model: Model, c: Candidates) -> list[bool]:
    """The model's decision on each candidate, the one ``maxent.classify``
    gives: from the sum of its slot scores where that sum is sure
    (``maxent.Scores``), and from ``classify`` on its active predicates
    where it is not."""
    scores = model.scores
    sums = list(scores.slots.sums(c, 0j))
    odds = list(map(_REAL, sums))
    decisions = list(map(scores.low.__gt__, odds))
    maybe = list(map(scores.high.__gt__, odds))
    if decisions != maybe or not all(map(scores.fits, set(map(_IMAG, sums)))):
        # The candidates between low and high, or with more fitted features than C.
        unsure = map(or_, map(ne, decisions, maybe), map(not_, map(scores.fits, map(_IMAG, sums))))
        for row in list(compress(count(), unsure)):
            cand = Candidate(*(getattr(c, f.name)[row] for f in fields(c)))
            decisions[row] = maxent.classify(model, features.encode(cand, model.registry))
    return decisions


def make_classifier(model: Model) -> Callable[[Candidate], bool]:
    """Candidate -> is-boundary decision function for a trained model:
    ``decide`` on the one candidate."""
    return lambda cand: decide(model, Candidates.from_rows([cand]))[0]


@dataclass
class Segmentation:
    sentences: list[str]
    boundary_offsets: list[int]  # character offsets of boundary marks


def boundary_offsets(model: Model, text: str) -> list[int]:
    """Character offsets of the marks in raw text that the model calls
    boundaries, in text order.

    The text is scanned and decided one slice at a time, so only one slice's
    candidates are held at once. A slice holds at least ``SLICE_CHARS``
    characters and ends just after a whitespace character, or at the end of
    the text, so no token is cut. A text of at most ``SLICE_CHARS``
    characters is one slice, passed to ``scan`` as it is."""
    offsets: list[int] = []
    start, prev_word = 0, NO_WORD
    while True:
        end = len(text)
        if end - start > SLICE_CHARS:
            cut = _SPACE_RE.search(text, start + SLICE_CHARS - 1)
            end = cut.end() if cut else end
        piece = text[start:end]
        word = _WORD_RE.search(text, end)
        cands = scan(piece, prev_word, word[0] if word else NO_WORD)
        if start:
            cands.positions = list(map(start.__add__, cands.positions))
        offsets += compress(cands.positions, decide(model, cands))
        if end == len(text):
            return offsets
        del cands  # this slice's columns go before the next slice's are built
        words = piece.rsplit(maxsplit=1)
        prev_word = words[-1] if words else prev_word
        start = end


def segment_text(model: Model, text: str) -> Segmentation:
    """Classify every candidate in raw text; a yes splits after the mark."""
    offsets = boundary_offsets(model, text)
    sentences = []
    start = 0
    for off in offsets:
        # Never empty: the chunk ends in its boundary mark.
        sentences.append(" ".join(text[start : off + 1].split()))
        start = off + 1
    tail = " ".join(text[start:].split())
    if tail:
        sentences.append(tail)
    return Segmentation(sentences=sentences, boundary_offsets=offsets)


def byte_offsets(text: str, char_offsets: list[int], encoding: str = "utf-8") -> list[int]:
    """Convert character offsets to byte offsets in ``text`` encoded whole, so
    a byte-order mark (UTF-16, UTF-8-sig) is counted once, at the start."""
    encoder = codecs.getincrementalencoder(encoding)()
    out = []
    prev_char, prev_byte = 0, 0
    for off in char_offsets:
        prev_byte += len(encoder.encode(text[prev_char:off]))
        prev_char = off
        out.append(prev_byte)
    return out
