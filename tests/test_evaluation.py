import pytest

from sentbound.corpus import CorpusError, corpus_from_sentences, label_candidates
from sentbound.evaluation import (
    EvaluationReport,
    baseline_all_yes,
    baseline_token_final,
    evaluate,
    format_learning_curve,
    format_report,
    learning_curve,
    score,
)
from sentbound.features import FeatureError, load_lexicons
from sentbound.pipeline import train_model
from sentbound.synthetic import make_corpus


def token_final(lab):
    """One decision per candidate: yes iff the mark ends its token."""
    c = lab.columns
    return [offset == len(token) - 1 for token, offset in zip(c.tokens, c.offsets)]


def test_baseline_all_yes_example1(example1_labeled):
    assert baseline_all_yes(example1_labeled) == pytest.approx(1 / 3)


def test_baseline_all_yes_all_boundaries():
    lab = label_candidates(corpus_from_sentences(["Hello world .", "Bye ."]))
    assert baseline_all_yes(lab) == 1.0


def test_baseline_token_final_example1(example1_labeled):
    # Corp., Dr. and resigned. are all token-final; only resigned. is a boundary.
    assert baseline_token_final(example1_labeled) == pytest.approx(1 / 3)


def test_baseline_token_final_dc(dc_corpus):
    lab = label_candidates(dc_corpus)
    assert baseline_token_final(lab) == 1.0


def test_baselines_reject_empty():
    lab = label_candidates(corpus_from_sentences(["no punctuation here"]))
    with pytest.raises(CorpusError):
        baseline_all_yes(lab)


def test_constant_yes_classifier_reproduces_baseline(example1_labeled):
    report = score([True] * len(example1_labeled), example1_labeled)
    assert report.accuracy == report.baseline_all_yes
    assert report.false_negatives == 0


def test_token_final_classifier_reproduces_baseline(two_sentence_corpus):
    lab = label_candidates(two_sentence_corpus)
    report = score(token_final(lab), lab)
    assert report.accuracy == report.baseline_token_final


def test_accuracy_identity(two_sentence_corpus):
    lab = label_candidates(two_sentence_corpus)
    report = score(token_final(lab), lab)
    errors = report.false_positives + report.false_negatives
    assert report.accuracy == pytest.approx(1 - errors / report.candidates)


@pytest.mark.parametrize("extra", [-1, 1])
def test_score_refuses_a_decision_column_of_another_length(example1_labeled, extra):
    decisions = [True] * (len(example1_labeled) + extra)
    with pytest.raises(CorpusError, match="decisions for 3 candidates"):
        score(decisions, example1_labeled)


def test_perfect_model_on_separable_corpus(synthetic_train):
    model, labeled = train_model(
        synthetic_train, "portable", max_iters=2000, tolerance=1e-3
    )
    report = evaluate(model, labeled)
    assert report.accuracy > max(report.baseline_all_yes, report.baseline_token_final)


def test_report_counts_the_sentences_of_the_labeled_corpus(synthetic_train, synthetic_eval):
    model, _ = train_model(synthetic_train, "portable", max_iters=20)
    for corpus in (synthetic_train, synthetic_eval):
        assert evaluate(model, label_candidates(corpus)).sentences == len(corpus)


def test_baselines_model_independent(synthetic_train, synthetic_eval):
    eval_lab = label_candidates(synthetic_eval)
    m1, _ = train_model(synthetic_train, "portable", max_iters=5)
    m2, _ = train_model(synthetic_train, "portable", max_iters=200)
    r1 = evaluate(m1, eval_lab)
    r2 = evaluate(m2, eval_lab)
    assert r1.baseline_all_yes == r2.baseline_all_yes
    assert r1.baseline_token_final == r2.baseline_token_final


def test_learning_curve_shape_and_determinism():
    corp = make_corpus(60, seed=5)
    eval_lab = label_candidates(make_corpus(30, seed=6))
    sizes = [10, 25, 60]
    rows1 = learning_curve(corp, eval_lab, sizes, "portable", seed=42, max_iters=50)
    rows2 = learning_curve(corp, eval_lab, sizes, "portable", seed=42, max_iters=50)
    assert [s for s, _ in rows1] == sizes
    assert rows1 == rows2


def test_learning_curve_size_exceeds_corpus():
    corp = make_corpus(10, seed=5)
    eval_lab = label_candidates(make_corpus(5, seed=6))
    with pytest.raises(CorpusError):
        learning_curve(corp, eval_lab, [11], "portable", seed=0)


@pytest.mark.parametrize("size", [0, -1])
def test_learning_curve_size_below_one(size):
    corp = make_corpus(10, seed=5)
    eval_lab = label_candidates(make_corpus(5, seed=6))
    with pytest.raises(CorpusError, match="below 1"):
        learning_curve(corp, eval_lab, [5, size], "portable", seed=0)


def test_portable_learning_curve_refuses_lexicons():
    corp = make_corpus(20, seed=5)
    eval_lab = label_candidates(make_corpus(5, seed=6))
    with pytest.raises(FeatureError):
        learning_curve(corp, eval_lab, [10], "portable", seed=0, lexicons=load_lexicons())


def test_format_report_contains_kv_lines(example1_labeled):
    report = score([True] * len(example1_labeled), example1_labeled)
    text = format_report(report)
    assert "accuracy=" in text
    assert "baseline_token_final=" in text
    assert "Candidate P. Marks" in text


REPORT = dict(sentences=4000, candidates=7497, false_positives=178, false_negatives=221)


# Ratios that round in both kinds of line, and ratios that are or round to
# 1 and 0, whose percentages are the widest and the narrowest.
@pytest.mark.parametrize(
    "ratios, text",
    [
        (
            (0.946797803475033, 0.533546752034147, 0.0125),
            "Sentences                   4000\n"
            "Candidate P. Marks          7497\n"
            "Accuracy                  94.68%\n"
            "False Positives              178\n"
            "False Negatives              221\n"
            "Baseline (all yes)        53.35%\n"
            "Baseline (token-final)     1.25%\n"
            "\n"
            "sentences=4000\n"
            "candidates=7497\n"
            "accuracy=0.946798\n"
            "fp=178\n"
            "fn=221\n"
            "baseline_all_yes=0.533547\n"
            "baseline_token_final=0.012500\n",
        ),
        (
            (1.0, 0.9999996, 0.0),
            "Sentences                   4000\n"
            "Candidate P. Marks          7497\n"
            "Accuracy                 100.00%\n"
            "False Positives              178\n"
            "False Negatives              221\n"
            "Baseline (all yes)       100.00%\n"
            "Baseline (token-final)     0.00%\n"
            "\n"
            "sentences=4000\n"
            "candidates=7497\n"
            "accuracy=1.000000\n"
            "fp=178\n"
            "fn=221\n"
            "baseline_all_yes=1.000000\n"
            "baseline_token_final=0.000000\n",
        ),
    ],
)
def test_format_report_text(ratios, text):
    accuracy, all_yes, token_final = ratios
    report = EvaluationReport(
        **REPORT,
        accuracy=accuracy,
        baseline_all_yes=all_yes,
        baseline_token_final=token_final,
    )
    assert format_report(report) == text


def test_format_learning_curve_csv():
    assert format_learning_curve([(10, 0.5), (20, 0.75)]) == "10,0.500000\n20,0.750000\n"
