"""End-to-end glue: corpus -> trained model, and model -> segmented text.

``train_model`` picks the template set's resources once; from there the
model's registry carries them to every ``encode`` call. Training events,
``evaluate`` and ``boundary_offsets`` (which ``segment_text`` calls before it
joins sentences) all encode through the registry's per-slot memos, and
``evaluate`` and ``boundary_offsets`` decide through the model's decision
memo, filled by ``make_classifier``. The memos live as long as the loaded
model, so repeated calls with it reuse them; each is a ``features.Memo``,
emptied when it reaches ``features.CACHE_ENTRIES`` entries.
"""

from __future__ import annotations

import codecs
from dataclasses import dataclass
from typing import Callable, Optional

from . import features, maxent
from .candidates import Candidate, scan, tokenize_with_positions
from .corpus import (
    AnnotatedCorpus,
    LabeledCandidateSet,
    induce_abbreviations,
    label_candidates,
)
from .features import ResourceLexicons, Templates
from .maxent import Model


def events_from_labeled(
    labeled: LabeledCandidateSet,
    registry: features.PredicateRegistry,
) -> list[maxent.TrainingEvent]:
    raw = [
        (features.encode(cand, registry), label)
        for cand, label in labeled.candidates
    ]
    return maxent.merge_events(raw)


def train_model(
    corpus: AnnotatedCorpus,
    template_set: str = "portable",
    *,
    cutoff: int = 1,
    max_iters: int = maxent.DEFAULT_MAX_ITERS,
    tolerance: float = maxent.DEFAULT_TOLERANCE,
    lexicons: Optional[ResourceLexicons] = None,
) -> tuple[Model, LabeledCandidateSet]:
    """Label the corpus, build resources and registry, and run GIS.

    The portable system induces its abbreviation list from the corpus; the
    best system needs ``lexicons``. The model's registry keeps whichever it used.
    """
    labeled = label_candidates(corpus)
    if template_set == "portable":
        templates = Templates(template_set, induce_abbreviations(labeled))
    else:
        templates = Templates(template_set, lexicons=lexicons)
    registry = features.build_registry(labeled, templates, cutoff=cutoff)
    events = events_from_labeled(labeled, registry)
    model = maxent.train_gis(events, registry, max_iters=max_iters, tolerance=tolerance)
    return model, labeled


def make_classifier(model: Model) -> Callable[[Candidate], bool]:
    """Candidate -> is-boundary decision function for a trained model.

    ``classify`` is deterministic, so each active-predicate tuple is scored
    once, on a miss of the model's decision memo."""
    registry, decisions, encode = model.registry, model.decisions, features.encode
    return lambda cand: decisions[encode(cand, registry)]


@dataclass
class Segmentation:
    sentences: list[str]
    boundary_offsets: list[int]  # character offsets of boundary marks


def boundary_offsets(model: Model, text: str) -> list[int]:
    """Character offsets of the marks in raw text that the model calls
    boundaries, in text order."""
    classify_candidate = make_classifier(model)
    return [
        c.stream_position
        for c in scan(text, *tokenize_with_positions(text))
        if classify_candidate(c)
    ]


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
