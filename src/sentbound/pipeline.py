"""End-to-end glue: corpus -> trained model, and model -> segmented text."""

from __future__ import annotations

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
from .features import Extractor, ResourceLexicons, make_extractor
from .maxent import Model


def events_from_labeled(
    labeled: LabeledCandidateSet,
    registry: features.PredicateRegistry,
    extractor: Extractor,
) -> list[maxent.TrainingEvent]:
    raw = [
        (features.encode(cand, registry, extractor), label)
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
    best system needs ``lexicons``. The model keeps whichever it used.
    """
    labeled = label_candidates(corpus)
    abbreviations: frozenset[str] = frozenset()
    if template_set == "portable":
        abbreviations, lexicons = induce_abbreviations(labeled), None
    extractor = make_extractor(template_set, lexicons, abbreviations)
    registry = features.build_registry(labeled, extractor, cutoff=cutoff)
    events = events_from_labeled(labeled, registry, extractor)
    model = maxent.train_gis(
        events,
        registry,
        template_set=template_set,
        abbreviations=abbreviations,
        lexicons=lexicons,
        max_iters=max_iters,
        tolerance=tolerance,
    )
    return model, labeled


def make_classifier(model: Model) -> Callable[[Candidate], bool]:
    """Candidate -> is-boundary decision function for a trained model."""
    extractor = make_extractor(model.template_set, model.lexicons, model.abbreviations)

    def classify_candidate(cand: Candidate) -> bool:
        active = features.encode(cand, model.registry, extractor)
        return maxent.classify(model, active)

    return classify_candidate


@dataclass
class Segmentation:
    sentences: list[str]
    boundary_offsets: list[int]  # character offsets of boundary marks


def segment_text(model: Model, text: str) -> Segmentation:
    """Classify every candidate in raw text; a yes splits after the mark."""
    classify_candidate = make_classifier(model)
    offsets = [
        c.stream_position
        for c in scan(*tokenize_with_positions(text))
        if classify_candidate(c)
    ]
    sentences = []
    start = 0
    for off in offsets:
        chunk = " ".join(text[start : off + 1].split())
        if chunk:
            sentences.append(chunk)
        start = off + 1
    tail = " ".join(text[start:].split())
    if tail:
        sentences.append(tail)
    return Segmentation(sentences=sentences, boundary_offsets=offsets)


def byte_offsets(text: str, char_offsets: list[int], encoding: str = "utf-8") -> list[int]:
    """Convert character offsets to byte offsets under the given encoding."""
    out = []
    prev_char, prev_byte = 0, 0
    for off in char_offsets:
        prev_byte += len(text[prev_char:off].encode(encoding))
        prev_char = off
        out.append(prev_byte)
    return out
