"""Scoring against a labeled corpus: accuracy, error cells, the two
reference baselines, and the training-set-size experiment.

Accuracy is measured over candidate punctuation marks, not sentences.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import eq, gt, lt
from typing import Callable, Optional, Sequence

from .candidates import Candidate
from .corpus import (
    YES,
    AnnotatedCorpus,
    CorpusError,
    LabeledCandidateSet,
    corpus_from_sentences,
    label_candidates,
)
from .features import ResourceLexicons
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
    return labeled.n_yes / len(labeled)


def baseline_token_final(labeled: LabeledCandidateSet) -> float:
    """Accuracy of 'boundary iff the mark ends its token'."""
    if not labeled.labels:
        raise CorpusError("no candidates to evaluate")
    c = labeled.columns
    token_final = map(eq, c.offsets, map((-1).__add__, map(len, c.tokens)))
    return sum(map(eq, token_final, map(YES.__eq__, labeled.labels))) / len(labeled)


def _report(predicted: list[bool], labeled: LabeledCandidateSet, sentences: int) -> EvaluationReport:
    """Score one decision per candidate of ``labeled``, in its order."""
    if not labeled.labels:
        raise CorpusError("no candidates to evaluate")
    yes = list(map(YES.__eq__, labeled.labels))
    fp = sum(map(gt, predicted, yes))
    fn = sum(map(lt, predicted, yes))
    n = len(labeled)
    return EvaluationReport(
        sentences=sentences,
        candidates=n,
        # (n - errors)/n rather than 1 - errors/n: keeps the identity with
        # baseline_all_yes exact for a constant-yes classifier.
        accuracy=(n - fp - fn) / n,
        false_positives=fp,
        false_negatives=fn,
        baseline_all_yes=baseline_all_yes(labeled),
        baseline_token_final=baseline_token_final(labeled),
    )


def evaluate_classifier(
    classify_candidate: Callable[[Candidate], bool],
    labeled: LabeledCandidateSet,
    sentences: int = 0,
) -> EvaluationReport:
    predicted = list(map(bool, map(classify_candidate, labeled.columns)))
    return _report(predicted, labeled, sentences)


def evaluate(
    model: Model, labeled: LabeledCandidateSet, *, sentences: int = 0
) -> EvaluationReport:
    return _report(decide(model, labeled.columns), labeled, sentences)


def learning_curve(
    corpus: AnnotatedCorpus,
    eval_labeled: LabeledCandidateSet,
    sizes: Sequence[int],
    template_set: str,
    seed: int,
    *,
    lexicons: Optional[ResourceLexicons] = None,
    **train_kwargs,
) -> list[tuple[int, float]]:
    """Train one model per prefix-sample of each size (under a seeded shuffle
    of the training corpus) and score each on the fixed held-out set."""
    for size in sizes:
        if size < 1:
            raise CorpusError(f"requested training size {size} is below 1")
        if size > len(corpus):
            raise CorpusError(
                f"requested training size {size} exceeds corpus size {len(corpus)}"
            )
    shuffled = list(corpus.sentences)
    random.Random(seed).shuffle(shuffled)
    rows = []
    for size in sizes:
        subset = corpus_from_sentences(shuffled[:size])
        model, _ = train_model(
            subset, template_set, lexicons=lexicons, **train_kwargs
        )
        rows.append((size, evaluate(model, eval_labeled).accuracy))
    return rows


def format_report(report: EvaluationReport) -> str:
    """Aligned table plus machine-readable key=value lines."""
    rows = [
        ("Sentences", f"{report.sentences}"),
        ("Candidate P. Marks", f"{report.candidates}"),
        ("Accuracy", f"{report.accuracy * 100:.2f}%"),
        ("False Positives", f"{report.false_positives}"),
        ("False Negatives", f"{report.false_negatives}"),
        ("Baseline (all yes)", f"{report.baseline_all_yes * 100:.2f}%"),
        ("Baseline (token-final)", f"{report.baseline_token_final * 100:.2f}%"),
    ]
    width = max(len(name) for name, _ in rows)
    table = "\n".join(f"{name:<{width}}  {value:>8}" for name, value in rows)
    kv = "\n".join(
        [
            f"sentences={report.sentences}",
            f"candidates={report.candidates}",
            f"accuracy={report.accuracy:.6f}",
            f"fp={report.false_positives}",
            f"fn={report.false_negatives}",
            f"baseline_all_yes={report.baseline_all_yes:.6f}",
            f"baseline_token_final={report.baseline_token_final:.6f}",
        ]
    )
    return table + "\n\n" + kv + "\n"


def format_learning_curve(rows: Sequence[tuple[int, float]]) -> str:
    return "".join(f"{size},{acc:.6f}\n" for size, acc in rows)
