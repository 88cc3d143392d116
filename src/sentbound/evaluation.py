"""Scoring against an annotated corpus: accuracy, error cells, the two
reference baselines, and the training-set-size experiment.

Accuracy is measured over candidate punctuation marks, not sentences.
Decisions and labels are both booleans, True at a sentence boundary.
``evaluate`` labels, decides and counts one slice of the corpus at a time,
as ``corpus.label_groups`` yields them, and sums integer counts
(candidates, false positives and negatives, True labels, token-final
agreements); the report's ratios are computed once, from the totals, so a
corpus scored in slices gives the same report as scored whole, float for
float, while only one slice's columns are held. ``score`` takes decisions
made for a whole corpus, such as the two baselines', and labels the corpus
whole (``corpus.label_candidates``). Both reports' sentence count is the
corpus's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import add, eq, gt, lt
from typing import Sequence

from .candidates import Candidates
from .corpus import (
    AnnotatedCorpus,
    CorpusError,
    corpus_from_sentences,
    label_candidates,
    label_groups,
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


def _counts(
    decisions: Sequence[bool], columns: Candidates, labels: Sequence[bool]
) -> tuple[int, ...]:
    """Candidates, false positives, false negatives, True labels and
    token-final agreements (a mark ends its token iff it ends its sentence)
    of one decision per candidate of ``columns``, in its order, against its
    ``labels``. Counts of consecutive slices of a corpus add up to the
    corpus's."""
    if len(decisions) != len(labels):
        raise CorpusError(f"{len(decisions)} decisions for {len(labels)} candidates")
    token_final = map(eq, columns.offsets, map((-1).__add__, map(len, columns.tokens)))
    return (
        len(labels),
        sum(map(gt, decisions, labels)),
        sum(map(lt, decisions, labels)),
        sum(labels),
        sum(map(eq, token_final, labels)),
    )


def _report(
    sentences: int, n: int, fp: int, fn: int, yes: int, token_final: int
) -> EvaluationReport:
    if not n:
        raise CorpusError("no candidates to evaluate")
    return EvaluationReport(
        sentences=sentences,
        candidates=n,
        # (n - errors)/n rather than 1 - errors/n: keeps the identity with
        # baseline_all_yes exact for a constant-yes classifier.
        accuracy=(n - fp - fn) / n,
        false_positives=fp,
        false_negatives=fn,
        baseline_all_yes=yes / n,
        baseline_token_final=token_final / n,
    )


def score(decisions: Sequence[bool], corpus: AnnotatedCorpus) -> EvaluationReport:
    """Score one decision per candidate of the corpus, in the order of
    ``label_candidates(corpus)``."""
    columns, labels = label_candidates(corpus)
    return _report(len(corpus), *_counts(decisions, columns, labels))


def evaluate(model: Model, corpus: AnnotatedCorpus) -> EvaluationReport:
    """Score the model's decisions on the corpus's candidates. The corpus is
    labeled and decided one slice at a time (``label_groups``), so only one
    slice's columns and decisions are held, and the report is the one that
    scoring ``label_candidates(corpus)`` whole gives."""
    totals = (0,) * 5
    for columns, labels in label_groups(corpus):
        totals = tuple(map(add, totals, _counts(decide(model, columns), columns, labels)))
        del columns, labels  # this slice's go before the next slice's are built
    return _report(len(corpus), *totals)


def check_training_sizes(sizes: Sequence[int], corpus: AnnotatedCorpus) -> None:
    """Refuse a training size below 1 or above the corpus's sentence count."""
    for size in sizes:
        if not 1 <= size <= len(corpus):
            bound = "is below 1" if size < 1 else f"exceeds corpus size {len(corpus)}"
            raise CorpusError(f"requested training size {size} {bound}")


def learning_curve(
    corpus: AnnotatedCorpus,
    eval_corpus: AnnotatedCorpus,
    sizes: Sequence[int],
    template_set: str,
    seed: int,
    **train_kwargs,
) -> list[tuple[int, float]]:
    """Train one model per prefix-sample of each size (under a seeded shuffle
    of the training corpus) and score each on the held-out ``eval_corpus``.
    ``train_kwargs`` go to ``train_model``."""
    check_training_sizes(sizes, corpus)
    shuffled = list(corpus.sentences)
    random.Random(seed).shuffle(shuffled)
    rows = []
    for size in sizes:
        subset = corpus_from_sentences(shuffled[:size])
        model = train_model(subset, template_set, **train_kwargs)
        rows.append((size, evaluate(model, eval_corpus).accuracy))
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
