"""Scoring against a labeled corpus: accuracy, error cells, the two
reference baselines, and the training-set-size experiment.

Accuracy is measured over candidate punctuation marks, not sentences.
Decisions and labels are both booleans, True at a sentence boundary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import eq, gt, lt
from typing import Sequence

from .corpus import (
    AnnotatedCorpus,
    CorpusError,
    LabeledCandidateSet,
    corpus_from_sentences,
    label_candidates,
)
from .maxent import Model
# perfbench's tracer patches ``evaluation.make_classifier``; nothing here
# calls it.
from .pipeline import decide, make_classifier, train_model  # noqa: F401


@dataclass(frozen=True)
class EvaluationReport:
    sentences: int
    candidates: int
    accuracy: float
    false_positives: int
    false_negatives: int
    baseline_all_yes: float
    baseline_token_final: float


def baseline_all_yes(labeled: LabeledCandidateSet) -> float:
    """Accuracy of guessing a boundary at every candidate site."""
    if not labeled.labels:
        raise CorpusError("no candidates to evaluate")
    return sum(labeled.labels) / len(labeled)


def baseline_token_final(labeled: LabeledCandidateSet) -> float:
    """Accuracy of 'boundary iff the mark ends its token'."""
    if not labeled.labels:
        raise CorpusError("no candidates to evaluate")
    c = labeled.columns
    token_final = map(eq, c.offsets, map((-1).__add__, map(len, c.tokens)))
    return sum(map(eq, token_final, labeled.labels)) / len(labeled)


def score(decisions: Sequence[bool], labeled: LabeledCandidateSet) -> EvaluationReport:
    """Score one decision per candidate of ``labeled``, in its order."""
    if not labeled.labels:
        raise CorpusError("no candidates to evaluate")
    if len(decisions) != len(labeled):
        raise CorpusError(f"{len(decisions)} decisions for {len(labeled)} candidates")
    fp = sum(map(gt, decisions, labeled.labels))
    fn = sum(map(lt, decisions, labeled.labels))
    n = len(labeled)
    return EvaluationReport(
        sentences=labeled.sentences,
        candidates=n,
        # (n - errors)/n rather than 1 - errors/n: keeps the identity with
        # baseline_all_yes exact for a constant-yes classifier.
        accuracy=(n - fp - fn) / n,
        false_positives=fp,
        false_negatives=fn,
        baseline_all_yes=baseline_all_yes(labeled),
        baseline_token_final=baseline_token_final(labeled),
    )


def evaluate(model: Model, labeled: LabeledCandidateSet) -> EvaluationReport:
    return score(decide(model, labeled.columns), labeled)


def check_training_sizes(sizes: Sequence[int], corpus: AnnotatedCorpus) -> None:
    """Refuse a training size below 1 or above the corpus's sentence count."""
    for size in sizes:
        if not 1 <= size <= len(corpus):
            bound = "is below 1" if size < 1 else f"exceeds corpus size {len(corpus)}"
            raise CorpusError(f"requested training size {size} {bound}")


def learning_curve(
    corpus: AnnotatedCorpus,
    eval_labeled: LabeledCandidateSet,
    sizes: Sequence[int],
    template_set: str,
    seed: int,
    **train_kwargs,
) -> list[tuple[int, float]]:
    """Train one model per prefix-sample of each size (under a seeded shuffle
    of the training corpus) and score each on the fixed held-out set.
    ``train_kwargs`` go to ``train_model``."""
    check_training_sizes(sizes, corpus)
    shuffled = list(corpus.sentences)
    random.Random(seed).shuffle(shuffled)
    rows = []
    for size in sizes:
        subset = corpus_from_sentences(shuffled[:size])
        model, _ = train_model(subset, template_set, **train_kwargs)
        rows.append((size, evaluate(model, eval_labeled).accuracy))
    return rows


def format_report(report: EvaluationReport) -> str:
    """Aligned table plus machine-readable key=value lines."""
    # (table, key=value) format specs of each kind of value.
    count, ratio = ("", ""), (".2%", ".6f")
    fields = [
        ("Sentences", "sentences", report.sentences, count),
        ("Candidate P. Marks", "candidates", report.candidates, count),
        ("Accuracy", "accuracy", report.accuracy, ratio),
        ("False Positives", "fp", report.false_positives, count),
        ("False Negatives", "fn", report.false_negatives, count),
        ("Baseline (all yes)", "baseline_all_yes", report.baseline_all_yes, ratio),
        ("Baseline (token-final)", "baseline_token_final", report.baseline_token_final, ratio),
    ]
    width = max(len(name) for name, *_ in fields)
    table = [f"{name:<{width}}  {format(v, spec):>8}" for name, _, v, (spec, _) in fields]
    kv = [f"{key}={format(v, spec)}" for _, key, v, (_, spec) in fields]
    return "\n".join(table) + "\n\n" + "\n".join(kv) + "\n"


def format_learning_curve(rows: Sequence[tuple[int, float]]) -> str:
    return "".join(f"{size},{acc:.6f}\n" for size, acc in rows)
