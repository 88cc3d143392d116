"""Reference training encoder: the two passes ``sentbound.pipeline.train_model``
made before it computed each candidate's keys once. The first pass counts
every candidate's keys into the registry; the second encodes every
candidate again, through slot lookups of index tuples (a slot value's
registered indices), and merges the index contexts. ``train_model`` must
write the same model, also where distinct key contexts encode alike once
the cutoff drops keys.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from itertools import chain

from sentbound import maxent
from sentbound.candidates import Candidates
from sentbound.corpus import AnnotatedCorpus, induce_abbreviations, label_candidates
from sentbound.features import (
    FOLLOWING,
    PREVIOUS,
    EmptyRegistryError,
    PredicateRegistry,
    Templates,
)


def build_registry(columns: Candidates, templates: Templates, cutoff: int) -> PredicateRegistry:
    """The first pass: each candidate's keys, in sorted order, counted in
    first-occurrence order; the keys below the cutoff dropped."""
    counts = Counter(chain.from_iterable(sorted(templates.extract(c)) for c in columns))
    keys = [k for k, n in counts.items() if n >= cutoff]
    if not keys:
        raise EmptyRegistryError(f"no predicate reached the cutoff of {cutoff}")
    return PredicateRegistry(templates, keys, [counts[k] for k in keys], cutoff)


def encode_events(
    labeled: tuple[Candidates, list[bool]], registry: PredicateRegistry
) -> list[maxent.TrainingEvent]:
    """The second pass: each slot value's registered indices, looked up once
    per distinct value; a candidate's context is its three slots' indices,
    sorted. Equal (context, label) pairs are merged."""
    columns, labels = labeled
    templates, index = registry.templates, registry.index
    token, previous, following = {}, {}, {}

    def indices(keys: set[str]) -> tuple[int, ...]:
        return tuple(index[k] for k in keys if k in index)

    contexts = []
    for tok, offset, prev_word, next_word in zip(
        columns.tokens, columns.offsets, columns.prev_words, columns.next_words
    ):
        if (tok, offset) not in token:
            token[tok, offset] = indices(templates.token_keys(tok, offset))
        if prev_word not in previous:
            previous[prev_word] = indices(templates.word_keys(PREVIOUS, prev_word))
        if next_word not in following:
            following[next_word] = indices(templates.word_keys(FOLLOWING, next_word))
        contexts.append(
            tuple(sorted(token[tok, offset] + previous[prev_word] + following[next_word]))
        )
    return [maxent.TrainingEvent(*event, n) for event, n in Counter(zip(contexts, labels)).items()]


def train_model(
    corpus: AnnotatedCorpus,
    template_set: str,
    *,
    cutoff: int = 1,
    max_iters: int = maxent.DEFAULT_MAX_ITERS,
    lexicons: dict[str, frozenset[str]] | None = None,
) -> maxent.Model:
    """Label, build the registry, encode the events and run GIS, as
    ``sentbound.pipeline.train_model`` does, with the two passes above."""
    templates = Templates(template_set, **(lexicons or {}))
    labeled = label_candidates(corpus)
    if template_set == "portable":
        templates = replace(templates, abbreviations=induce_abbreviations(labeled))
    registry = build_registry(labeled[0], templates, cutoff)
    return maxent.train_gis(encode_events(labeled, registry), registry, max_iters=max_iters)
