"""End-to-end glue: corpus -> trained model, and model -> segmented text.

``train_model`` picks the template set's resources once; from there the
model's registry carries them to every encoding. Training events, ``evaluate``
and ``boundary_offsets`` (which ``segment_text`` calls before it joins
sentences) take the ``scan`` columns of a whole text and encode them with
``features.active_predicates``, through the registry's per-slot memos;
``decide`` then reads each decision from the model's decision memo, all in
one chain of ``map`` calls. ``make_classifier`` decides one candidate by the
same memos. The memos live as long as the loaded model, so repeated calls
with it reuse them; each is a ``features.Memo``, emptied when it reaches
``features.CACHE_ENTRIES`` entries.
"""

from __future__ import annotations

import codecs
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Optional

from . import features, maxent
# perfbench's tracer patches ``pipeline.tokenize_with_positions``; nothing
# here calls it.
from .candidates import Candidate, Candidates, scan, tokenize_with_positions  # noqa: F401
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
    actives = features.active_predicates(registry, labeled.columns)
    return maxent.merge_events(list(zip(actives, labeled.labels)))


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


def decide(model: Model, c: Candidates) -> list[bool]:
    """The model's decision on each candidate, read from its decision memo;
    ``classify`` scores an active-predicate tuple on a miss only."""
    return list(map(model.decisions.__getitem__, features.active_predicates(model.registry, c)))


def make_classifier(model: Model) -> Callable[[Candidate], bool]:
    """Candidate -> is-boundary decision function for a trained model: what
    ``decide`` gives for the candidate. The function keeps the model alive;
    the decision memo refers to it only weakly."""
    return lambda cand: model.decisions[features.encode(cand, model.registry)]


@dataclass
class Segmentation:
    sentences: list[str]
    boundary_offsets: list[int]  # character offsets of boundary marks


def boundary_offsets(model: Model, text: str) -> list[int]:
    """Character offsets of the marks in raw text that the model calls
    boundaries, in text order."""
    cands = scan(text)
    return list(compress(cands.positions, decide(model, cands)))


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
