import importlib.util
import math
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gis_reference import reference_train
from oracle import grid_conditional_single_predicate, ml_conditionals
from sentbound.corpus import NO, YES, corpus_from_sentences, induce_abbreviations, label_candidates
from sentbound.features import (
    TEMPLATE_SETS,
    PredicateRegistry,
    Templates,
    build_registry,
    default_lexicons,
)
from sentbound.maxent import (
    Model,
    ModelFormatError,
    TrainingError,
    TrainingEvent,
    check_constraints,
    classify,
    conditional_yes,
    load_model,
    merge_events,
    save_model,
    train_gis,
)
from sentbound.pipeline import events_from_labeled, make_classifier, train_model
from sentbound.synthetic import make_corpus


def registry(n):
    return PredicateRegistry(Templates("portable"), keys=[f"P{i}" for i in range(n)], counts=[1] * n)


def events_of(*specs):
    """specs: (active_tuple, outcome, multiplicity)."""
    return [TrainingEvent(a, o, m) for a, o, m in specs]


def zero_feature_model():
    return Model(
        registry=registry(0),
        log_alpha=[],
        corrections=(0.0, 0.0),
        C=1,
    )


def single_feature_model(alpha_no=9.0):
    return Model(
        registry=registry(1),
        log_alpha=[(None, math.log(alpha_no))],
        corrections=(0.0, 0.0),
        C=1,
    )


def test_score_zero_features():
    # Both outcomes weigh 1: p(yes) = 1 / (1 + 1).
    assert conditional_yes(zero_feature_model(), ()) == 0.5


def test_score_single_feature():
    # w_yes = 1 and w_no = alpha_no, so p(yes) = 1 / (1 + alpha_no).
    assert conditional_yes(single_feature_model(9.0), (0,)) == pytest.approx(1 / 10)
    assert conditional_yes(single_feature_model(3.0), (0,)) == pytest.approx(1 / 4)


def test_conditional_zero_features_is_half():
    assert conditional_yes(zero_feature_model(), ()) == 0.5


def test_conditional_single_feature():
    assert conditional_yes(single_feature_model(), (0,)) == pytest.approx(0.1)


def test_conditional_empty_active_set_with_equal_corrections():
    m = single_feature_model()
    assert conditional_yes(m, ()) == 0.5


def test_classify_strict_threshold():
    m = zero_feature_model()
    assert classify(m, ()) is False  # exactly 0.5 -> not a boundary
    assert classify(single_feature_model(alpha_no=0.1), (0,)) is True
    assert classify(single_feature_model(alpha_no=9.0), (0,)) is False


def test_train_nine_no_one_yes():
    ev = events_of(((0,), NO, 9), ((0,), YES, 1))
    m = train_gis(ev, registry(1), max_iters=2000, tolerance=1e-6)
    assert conditional_yes(m, (0,)) == pytest.approx(0.1, abs=1e-3)


def test_train_separable_saturates():
    ev = events_of(((0,), YES, 10))
    m = train_gis(ev, registry(1), max_iters=5000, tolerance=1e-9)
    assert conditional_yes(m, (0,)) >= 0.99


def test_zero_iterations_gives_uniform_model():
    ev = events_of(((0,), NO, 9), ((0,), YES, 1))
    m = train_gis(ev, registry(1), max_iters=0)
    assert conditional_yes(m, (0,)) == 0.5
    assert not m.converged


def test_log_likelihood_non_decreasing():
    rng = random.Random(3)
    raw = []
    for _ in range(60):
        active = tuple(sorted(rng.sample(range(4), rng.randint(0, 3))))
        raw.append((active, rng.choice([YES, NO])))
    ev = merge_events(raw)
    m = train_gis(ev, registry(4), max_iters=300, tolerance=1e-4)
    lls = [ll for ll, _ in m.history]
    assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))


def test_converged_model_satisfies_constraints():
    ev = events_of(((0,), NO, 9), ((0,), YES, 1), ((0, 1), YES, 3), ((1,), NO, 2))
    m = train_gis(ev, registry(2), max_iters=5000, tolerance=1e-3)
    assert m.converged
    assert check_constraints(m, ev) <= 1e-3


def test_uniform_model_violation_on_nine_one():
    ev = events_of(((0,), NO, 9), ((0,), YES, 1))
    m = train_gis(ev, registry(1), max_iters=0)
    # expected count under uniform is 10 * 0.5 = 5 for each outcome; the
    # yes feature's empirical count is 1, so its violation is |5 - 1| / 1
    assert check_constraints(m, ev) == pytest.approx(4.0)


def test_check_constraints_empty_events():
    assert check_constraints(zero_feature_model(), []) == 0.0


@pytest.mark.parametrize("active", [(0, 0), (1, 0), (-1,), (2,)], ids=str)
def test_malformed_event_predicates_are_refused(active):
    # features.encode yields strictly increasing registry indices. A repeated
    # index would count once in GIS's design matrix but twice in
    # conditional_yes, so GIS could report convergence while the scorer that
    # ships violates the constraints.
    ev = events_of((active, YES, 3), (active, NO, 1))
    with pytest.raises(TrainingError, match="strictly increase"):
        train_gis(ev, registry(2), max_iters=100)
    with pytest.raises(TrainingError, match="strictly increase"):
        check_constraints(trained_toy_model()[0], ev)


@pytest.mark.parametrize("outcome", ["maybe", "YES", ""])
def test_unknown_outcome_is_refused(outcome):
    ev = events_of(((0,), YES, 3), ((0,), outcome, 1))
    with pytest.raises(TrainingError, match="outcome"):
        train_gis(ev, registry(1), max_iters=10)
    with pytest.raises(TrainingError, match="outcome"):
        check_constraints(trained_toy_model()[0], ev)


def test_weights_follow_the_model_layout():
    # Predicate 0 is seen with both outcomes, predicate 1 with yes only and
    # predicate 2 in no event.
    ev = events_of(((0, 1), YES, 3), ((0,), YES, 1), ((0,), NO, 2))
    m = train_gis(ev, registry(3), max_iters=5000, tolerance=1e-3)
    assert [tuple(w is not None for w in pair) for pair in m.log_alpha] == [
        (True, True),
        (True, False),
        (False, False),
    ]
    # C is the most features one outcome fits in one context: (0, 1) fits two
    # for yes and one for no; the registry's size and the three features of
    # (0, 1) together do not set it.
    assert m.C == 2
    assert m.converged
    assert check_constraints(m, ev) <= 1e-3
    assert conditional_yes(m, (0, 1)) > 0.99
    assert conditional_yes(m, (0,)) == pytest.approx(1 / 3, abs=1e-3)


def test_gis_memory_follows_the_entries_not_contexts_times_predicates():
    # 3000 contexts of one predicate each: 9000 entries, where a dense
    # contexts x predicates matrix would take 3000 * 3002 * 8 bytes (72 MB).
    n = 3000
    ev = events_of(*(((i,), YES if i % 3 else NO, 1) for i in range(n)))
    reg = registry(n)
    tracemalloc.start()
    try:
        m = train_gis(ev, reg, max_iters=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.iterations == 5
    assert peak < 16 * 2**20


@settings(deadline=None, max_examples=25)
@given(st.randoms(use_true_random=False))
def test_permutation_invariance(rnd):
    raw = []
    rng = random.Random(7)
    for _ in range(30):
        active = tuple(sorted(rng.sample(range(3), rng.randint(0, 2))))
        raw.append((active, rng.choice([YES, NO])))
    shuffled = list(raw)
    rnd.shuffle(shuffled)
    m1 = train_gis(merge_events(raw), registry(3), max_iters=50)
    m2 = train_gis(merge_events(shuffled), registry(3), max_iters=50)
    assert m1.log_alpha == m2.log_alpha
    assert m1.corrections == m2.corrections


ORACLE_CORPORA = [
    [((0,), NO, 9), ((0,), YES, 1)],
    [((0,), NO, 1), ((0,), YES, 3)],
    [((0,), YES, 3), ((0,), NO, 1), ((1,), YES, 1), ((1,), NO, 3), ((0, 1), YES, 2), ((0, 1), NO, 2)],
    [((), YES, 1), ((), NO, 3), ((0,), YES, 3), ((0,), NO, 1)],
    [((0,), YES, 2), ((0,), NO, 1), ((1,), YES, 1), ((1,), NO, 2), ((2,), YES, 2), ((2,), NO, 2), ((0, 1, 2), YES, 1), ((0, 1, 2), NO, 1)],
]


@pytest.mark.parametrize("spec", ORACLE_CORPORA)
def test_gis_matches_ml_oracle(spec):
    n_preds = max((p for a, _, _ in spec for p in a), default=-1) + 1
    ev = events_of(*((a, o, m) for a, o, m in spec))
    model = train_gis(ev, registry(max(n_preds, 1)), max_iters=20000, tolerance=1e-7)
    oracle = ml_conditionals(spec)
    for ctx, p_star in oracle.items():
        assert conditional_yes(model, ctx) == pytest.approx(p_star, abs=1e-3)


def assert_gis_matches_reference(events, reg, max_iters, tolerance):
    """train_gis must give the reference's numbers bit for bit; returns the
    reference state."""
    expected, ref = reference_train(events, len(reg), max_iters, tolerance)
    model = train_gis(events, reg, max_iters=max_iters, tolerance=tolerance)
    assert model.iterations == expected["iterations"]
    assert model.C == expected["C"]
    assert model.corrections == expected["corrections"]
    assert model.log_alpha == expected["log_alpha"]
    assert model.history == expected["history"]
    assert model.converged == expected["converged"]
    return ref


@pytest.mark.parametrize("spec", ORACLE_CORPORA)
def test_gis_equals_reference_on_oracle_corpora(spec):
    n_preds = max((p for a, _, _ in spec for p in a), default=-1) + 1
    assert_gis_matches_reference(events_of(*spec), registry(max(n_preds, 1)), 20000, 1e-7)


def test_gis_equals_reference_on_a_best_corpus(lexicons):
    labeled = label_candidates(make_corpus(150, seed=21))
    reg = build_registry(labeled, Templates("best", lexicons=lexicons))
    ref = assert_gis_matches_reference(events_from_labeled(labeled, reg), reg, 400, 1e-3)
    assert len(ref.contexts) > 10


def test_gis_equals_reference_on_a_zipfian_portable_corpus():
    zipf_path = Path(__file__).resolve().parent.parent / "perfbench" / "zipf_corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_zipf_corpus", zipf_path)
    zipf_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(zipf_corpus)
    sentences = zipf_corpus.ZipfCorpus(3000, 5).sentences(150, "5:train")
    labeled = label_candidates(corpus_from_sentences(sentences))
    reg = build_registry(labeled, Templates("portable", induce_abbreviations(labeled)))
    ref = assert_gis_matches_reference(events_from_labeled(labeled, reg), reg, 100, 1e-3)
    assert len(ref.contexts) > 100


def test_gis_equals_reference_where_an_expectation_reaches_zero():
    # Separable, but the heavy yes contexts drive p(no|(0, 1)) to exactly 0.0
    # while both no features have positive empirical counts.
    ev = events_of(((0,), YES, 10**17), ((0, 1), NO, 10), ((1,), YES, 10**17))
    ref = assert_gis_matches_reference(ev, registry(2), 100, 1e-3)
    assert ref.zero_expectation_steps > 0


def test_grid_oracle_agrees_on_nine_one():
    assert grid_conditional_single_predicate(1, 9) == pytest.approx(0.1, abs=1e-3)


def test_merge_events_multiplicity():
    ev = merge_events([((0,), YES)] * 3 + [((0,), NO)])
    assert sorted((e.active_predicates, e.outcome, e.multiplicity) for e in ev) == [
        ((0,), NO, 1),
        ((0,), YES, 3),
    ]


def trained_toy_model():
    ev = events_of(((0,), NO, 9), ((0,), YES, 1), ((0, 1), YES, 3), ((1,), NO, 2))
    return train_gis(ev, registry(2), max_iters=2000, tolerance=1e-5), ev


def test_save_load_roundtrip_bit_exact(tmp_path):
    m, _ = trained_toy_model()
    path = tmp_path / "model.txt"
    save_model(m, path)
    m2 = load_model(path)
    assert m2.log_alpha == m.log_alpha
    assert m2.corrections == m.corrections
    assert m2.C == m.C
    assert m2.registry.keys == m.registry.keys
    assert m2.fingerprint == m.fingerprint
    for ctx in [(), (0,), (1,), (0, 1)]:
        assert classify(m2, ctx) == classify(m, ctx)
        assert conditional_yes(m2, ctx) == conditional_yes(m, ctx)


def test_save_is_deterministic(tmp_path):
    m, _ = trained_toy_model()
    p1, p2 = tmp_path / "a", tmp_path / "b"
    save_model(m, p1)
    save_model(m, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_corrupted_header(tmp_path):
    m, _ = trained_toy_model()
    path = tmp_path / "model.txt"
    save_model(m, path)
    text = path.read_text()
    path.write_text("garbage v9\n" + text.split("\n", 1)[1])
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_truncated_file(tmp_path):
    m, _ = trained_toy_model()
    path = tmp_path / "model.txt"
    save_model(m, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_detects_registry_tampering(tmp_path):
    m, _ = trained_toy_model()
    path = tmp_path / "model.txt"
    save_model(m, path)
    path.write_text(path.read_text().replace("P0", "PX"))
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_rejects_unknown_template_set(tmp_path, retag_template_set):
    m, _ = trained_toy_model()
    path = tmp_path / "model.txt"
    save_model(m, path)
    retag_template_set(path, "bogus")
    with pytest.raises(ModelFormatError, match="unknown template set 'bogus'"):
        load_model(path)


def test_load_rejects_file_that_is_not_utf8(tmp_path):
    m, _ = trained_toy_model()
    path = tmp_path / "model.txt"
    save_model(m, path)
    path.write_bytes(path.read_bytes().replace(b"P0", b"P\xff"))
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_v1_file_asks_for_retraining(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("sentbound-model v1\ntemplate_set portable\nC 1\n")
    with pytest.raises(ModelFormatError, match="retrain"):
        load_model(path)


@pytest.fixture(scope="module")
def saved_models(tmp_path_factory):
    """template set -> (model file text, candidates, decisions on them)."""
    corpus = make_corpus(30, seed=4)
    candidates = [c for c, _ in label_candidates(corpus).candidates]
    out = {}
    for template_set in TEMPLATE_SETS:
        lexicons = default_lexicons() if template_set == "best" else None
        model, _ = train_model(corpus, template_set, lexicons=lexicons, max_iters=30)
        path = tmp_path_factory.mktemp("saved") / "model.txt"
        save_model(model, path)
        decide = make_classifier(model)
        out[template_set] = (path.read_text(), candidates, [decide(c) for c in candidates])
    return out


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(TEMPLATE_SETS), st.data())
def test_damaged_model_file_fails_or_decides_alike(saved_models, tmp_path_factory, template_set, data):
    text, candidates, decisions = saved_models[template_set]
    if data.draw(st.booleans(), label="truncate"):
        lines = text.splitlines(keepends=True)
        damaged = "".join(lines[: data.draw(st.integers(0, len(lines) - 1), label="lines kept")])
    else:
        i = data.draw(st.integers(0, len(text) - 1), label="position")
        # Characters of the file itself often keep a number or key parseable.
        alphabet = st.sampled_from(sorted(set(text)))
        ch = data.draw(alphabet | st.characters(blacklist_categories=("Cs",)), label="replacement")
        damaged = text[:i] + ch + text[i + 1 :]
    path = tmp_path_factory.getbasetemp() / "damaged-model.txt"
    path.write_text(damaged, encoding="utf-8")
    try:
        loaded = load_model(path)
    except ModelFormatError:
        return
    decide = make_classifier(loaded)
    assert [decide(c) for c in candidates] == decisions
