"""End-to-end glue: corpus -> trained model, and model -> segmented text.

``train_model`` picks the template set's resources once; from there the
model's registry carries them to every encoding. Training events take the
``scan`` columns of the whole training corpus, as ``label_candidates``
concatenates them; ``evaluate`` takes them one slice of the joined corpus
at a time (``corpus.label_groups``), and ``boundary_offsets`` (which
``segment_text`` calls before it joins sentences) one slice of raw text at
a time, both cut by ``candidates.slices``. Training encodes its columns
with ``features.active_predicates``, through slot lookups of predicate
indices; ``decide``, imported from ``maxent``, decides each candidate from
slot lookups of scores, and ``make_classifier`` decides one candidate the
same way. The ``features`` module says what the slot lookups are and how
far they grow.
"""

from __future__ import annotations

import codecs
from dataclasses import dataclass, replace
from itertools import compress
from typing import Callable, Optional

from . import features, maxent
# perfbench's tracer patches ``pipeline.tokenize_with_positions``; nothing
# here calls it.
from .candidates import (  # noqa: F401
    Candidate,
    Candidates,
    scan,
    slices,
    tokenize_with_positions,
)
from .corpus import (
    AnnotatedCorpus,
    LabeledCandidateSet,
    induce_abbreviations,
    label_candidates,
)
from .features import Templates
from .maxent import Model, decide


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

    The text is scanned and decided one slice (``candidates.slices``) at a
    time, so only one slice's candidates are held at once."""
    offsets: list[int] = []
    for start, piece, prev_word, next_word in slices(text):
        cands = scan(piece, prev_word, next_word)
        if start:
            cands.positions = list(map(start.__add__, cands.positions))
        offsets += compress(cands.positions, decide(model, cands))
        del cands  # this slice's columns go before the next slice's are built
    return offsets


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
