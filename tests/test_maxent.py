import importlib.util
import math
import random
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gis_reference import reference_train
from oracle import grid_conditional_single_predicate, ml_conditionals
from sentbound import cli
from sentbound.corpus import corpus_from_sentences, induce_abbreviations, label_candidates
from sentbound.features import (
    TEMPLATE_SETS,
    PredicateRegistry,
    Templates,
    build_registry,
    load_lexicons,
)
from sentbound.maxent import (
    Model,
    ModelFormatError,
    TrainingError,
    TrainingEvent,
    _digest,
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
    ev = events_of(((0,), False, 9), ((0,), True, 1))
    m = train_gis(ev, registry(1), max_iters=2000, tolerance=1e-6)
    assert conditional_yes(m, (0,)) == pytest.approx(0.1, abs=1e-3)


def test_train_separable_saturates():
    ev = events_of(((0,), True, 10))
    m = train_gis(ev, registry(1), max_iters=5000, tolerance=1e-9)
    assert conditional_yes(m, (0,)) >= 0.99


def test_zero_iterations_gives_uniform_model():
    ev = events_of(((0,), False, 9), ((0,), True, 1))
    m = train_gis(ev, registry(1), max_iters=0)
    assert conditional_yes(m, (0,)) == 0.5
    assert not m.converged


def test_log_likelihood_non_decreasing():
    rng = random.Random(3)
    raw = []
    for _ in range(60):
        active = tuple(sorted(rng.sample(range(4), rng.randint(0, 3))))
        raw.append((active, rng.choice([True, False])))
    ev = merge_events(raw)
    m = train_gis(ev, registry(4), max_iters=300, tolerance=1e-4)
    lls = [ll for ll, _ in m.history]
    assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))


def test_converged_model_satisfies_constraints():
    ev = events_of(((0,), False, 9), ((0,), True, 1), ((0, 1), True, 3), ((1,), False, 2))
    m = train_gis(ev, registry(2), max_iters=5000, tolerance=1e-3)
    assert m.converged
    assert check_constraints(m, ev) <= 1e-3


def test_uniform_model_violation_on_nine_one():
    ev = events_of(((0,), False, 9), ((0,), True, 1))
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
    ev = events_of((active, True, 3), (active, False, 1))
    with pytest.raises(TrainingError, match="strictly increase"):
        train_gis(ev, registry(2), max_iters=100)
    with pytest.raises(TrainingError, match="strictly increase"):
        check_constraints(trained_toy_model()[0], ev)


@pytest.mark.parametrize("outcome", ["maybe", "YES", "", "yes", 1, 0, 1.0, None])
def test_unknown_outcome_is_refused(outcome):
    ev = events_of(((0,), True, 3), ((0,), outcome, 1))
    with pytest.raises(TrainingError, match="outcome"):
        train_gis(ev, registry(1), max_iters=10)
    with pytest.raises(TrainingError, match="outcome"):
        check_constraints(trained_toy_model()[0], ev)


def test_weights_follow_the_model_layout():
    # Predicate 0 is seen with both outcomes, predicate 1 with yes only and
    # predicate 2 in no event.
    ev = events_of(((0, 1), True, 3), ((0,), True, 1), ((0,), False, 2))
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
    ev = events_of(*(((i,), bool(i % 3), 1) for i in range(n)))
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
        raw.append((active, rng.choice([True, False])))
    shuffled = list(raw)
    rnd.shuffle(shuffled)
    m1 = train_gis(merge_events(raw), registry(3), max_iters=50)
    m2 = train_gis(merge_events(shuffled), registry(3), max_iters=50)
    assert m1.log_alpha == m2.log_alpha
    assert m1.corrections == m2.corrections


ORACLE_CORPORA = [
    [((0,), False, 9), ((0,), True, 1)],
    [((0,), False, 1), ((0,), True, 3)],
    [((0,), True, 3), ((0,), False, 1), ((1,), True, 1), ((1,), False, 3), ((0, 1), True, 2), ((0, 1), False, 2)],
    [((), True, 1), ((), False, 3), ((0,), True, 3), ((0,), False, 1)],
    [((0,), True, 2), ((0,), False, 1), ((1,), True, 1), ((1,), False, 2), ((2,), True, 2), ((2,), False, 2), ((0, 1, 2), True, 1), ((0, 1, 2), False, 1)],
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
    reg = build_registry(labeled, Templates("best", **lexicons))
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
    ev = events_of(((0,), True, 10**17), ((0, 1), False, 10), ((1,), True, 10**17))
    ref = assert_gis_matches_reference(ev, registry(2), 100, 1e-3)
    assert ref.zero_expectation_steps > 0


def test_grid_oracle_agrees_on_nine_one():
    assert grid_conditional_single_predicate(1, 9) == pytest.approx(0.1, abs=1e-3)


def test_merge_events_multiplicity():
    ev = merge_events([((0,), True)] * 3 + [((0,), False)])
    assert sorted((e.active_predicates, e.outcome, e.multiplicity) for e in ev) == [
        ((0,), False, 1),
        ((0,), True, 3),
    ]


def trained_toy_model():
    ev = events_of(((0,), False, 9), ((0,), True, 1), ((0, 1), True, 3), ((1,), False, 2))
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


def test_load_refuses_a_registry_that_names_a_predicate_twice(tmp_path):
    # save_model computes the fingerprint, so only the duplicate can refuse
    # the file; row 0's weights would otherwise never be read.
    model, _ = train_model(make_corpus(30, seed=4), "portable", max_iters=10)
    keys = model.registry.keys
    keys[1] = keys[0]
    path = tmp_path / "model.txt"
    save_model(model, path)
    with pytest.raises(ModelFormatError, match=f"names predicate {keys[0]!r} twice"):
        load_model(path)
    text = tmp_path / "text.txt"
    text.write_text("Dr. Smith left. He went home.\n", encoding="utf-8")
    assert cli.main(["segment", "--model", str(path), "--input", str(text)]) == 3


@pytest.mark.parametrize(
    "pattern, value, problem",
    [
        # Row 0's yes weight; the correction rows; the header's C and iterations.
        (r"^(0\t[^\t]*\t[^\t]*\t)[^\t]*", r"\1nan", "weight 'nan' is not finite"),
        (r"^(yes\t).*", r"\1inf", "weight 'inf' is not finite"),
        (r"^(C ).*", r"\g<1>0", "C 0 is below 1"),
        (r"^(iterations ).*", r"\g<1>-5", "iterations -5 is below 0"),
        # C one above the registry size, which the "[registry] N" line gives.
        (r"^C .*(?=\ncutoff .*\n\[registry\] (\d+)$)", lambda m: f"C {int(m[1]) + 1}",
         r"C \d+ is above the number of predicates"),
        # A section count below 0, read as an empty section; row 0's count.
        (r"^(\[honorifics\] ).*", r"\g<1>-2", r"\[honorifics\] count -2 is below 0"),
        (r"^(0\t)\d+", r"\g<1>0", "registry row 0 count 0 is below 1"),
        # A cutoff below 1 keeps the predicates of cutoff 1, under another
        # fingerprint.
        (r"^(cutoff ).*", r"\g<1>0", "cutoff 0 is below 1"),
        (r"^(cutoff ).*", r"\g<1>-3", "cutoff -3 is below 1"),
        # A resource section out of order and with a repeat: read as the set
        # {Dr., Mr.}, which saves back as "[honorifics] 2" / "Dr." / "Mr.".
        (r"^\[honorifics\] 0$", r"[honorifics] 3\nMr.\nDr.\nMr.",
         r"\[honorifics\] entries are not strictly increasing"),
        # Integers that int() reads but save_model never writes: each saves
        # back spelled as str spells it, under another fingerprint.
        (r"^(0\t)(\d+)", r"\1+\2", r"registry row 0 count '\+\d+' is not spelled as str spells it"),
        (r"^(C )(.*)", r"\g<1>0\2", r"C '0\d+' is not spelled as str spells it"),
        (r"^(iterations )(.*)", r"\g<1>+\2", r"iterations '\+\d+' is not spelled as str spells it"),
        (r"^(cutoff )(.*)", r"\g<1> \2", r"cutoff ' \d+' is not spelled as str spells it"),
        (r"^(\[honorifics\] )0$", r"\g<1>00", r"\[honorifics\] count '00' is not spelled as str spells it"),
        # A line that save_model never writes, after the end marker.
        (r"^\[end\]$", "[end]\n[end]", r"line \d+ follows the end marker"),
    ],
    ids=["nan-weight", "inf-correction", "C-0", "iterations-negative", "C-above-registry",
         "section-count-negative", "predicate-count-0", "cutoff-0", "cutoff-negative",
         "resource-entries-unsorted", "predicate-count-plus", "C-leading-zero",
         "iterations-plus", "cutoff-leading-space", "section-count-leading-zero",
         "line-after-end"],
)
def test_load_refuses_values_gis_cannot_produce(tmp_path, pattern, value, problem):
    # GIS clamps every weight and correction to a finite range, gives C >= 1
    # (at most one fitted feature per predicate) and counts its updates
    # from 0; a section counts its entries, sorted and without repeats; a
    # registered predicate occurred at least once, and passed a cutoff of at
    # least 1; every integer is spelled as str spells it, and nothing follows
    # the end marker. The file is signed again, so only the value can refuse it.
    model, _ = train_model(make_corpus(30, seed=4), "portable", max_iters=10)
    path = tmp_path / "model.txt"
    save_model(model, path)
    text = re.sub(pattern, value, path.read_text(encoding="utf-8"), count=1, flags=re.M)
    lines = text.split("\n")
    lines[1] = f"fingerprint {_digest(lines[4 : lines.index('[end]')])}"
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ModelFormatError, match=problem):
        load_model(path)
    raw = tmp_path / "text.txt"
    raw.write_text("Dr. Smith left. He returned!\n", encoding="utf-8")
    assert cli.main(["segment", "--model", str(path), "--input", str(raw)]) == 3


def test_a_weight_respelled_without_signing_again_is_refused(tmp_path):
    # The fingerprint covers the lines as written. A yes weight spelled with
    # upper-case hex digits keeps its value, but the file is not the one that
    # was signed.
    model, _ = train_model(make_corpus(30, seed=4), "portable", max_iters=10)
    path = tmp_path / "model.txt"
    save_model(model, path)
    text = path.read_text(encoding="utf-8")
    row = re.compile(r"^(\d+\t\d+\t[^\t]*\t0x)(1\.[0-9]*[a-f][0-9a-f]*)(?=p)", re.M)
    weight = row.search(text)[2]
    assert float.fromhex(weight.upper()) == float.fromhex(weight)
    path.write_text(row.sub(lambda m: m[1] + m[2].upper(), text, count=1), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="fingerprint mismatch"):
        load_model(path)
    raw = tmp_path / "text.txt"
    raw.write_text("Dr. Smith left. He returned!\n", encoding="utf-8")
    assert cli.main(["segment", "--model", str(path), "--input", str(raw)]) == 3


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


# Two v2 model files written by an earlier version of the writer, kept as
# bytes: the round-trip tests above save and load with the same code, so
# they would pass a writer and a reader changed together. Neither needs
# training, so the bytes do not depend on the platform's floating point.
BEST_V2 = "".join(line + "\n" for line in [
    "sentbound-model v2",
    "fingerprint 3dd4ca8e78c2b0b44da02c1a431210b0c3efd01180401fe9607cdae6e91c0302",
    "converged 0",
    "iterations 2",
    "template_set best",
    "C 7",
    "cutoff 1",
    "[registry] 16",
    "0\t2\tFollowingWordIsCapitalized\t0x1.23d905b96d2f4p-6\t-0x1.037558c382d22p-6",
    "1\t1\tPrefix=Dr\t-\t0x1.2cf45056b1139p-3",
    "2\t4\tPrefixContainsLower\t0x1.803b837e2f9ddp-6\t-0x1.49f60043baa8ep-6",
    "3\t2\tPrefixContainsUpper\t-\t0x1.31333034114c3p-3",
    "4\t1\tPrefixFeature=Honorific\t-\t0x1.2cf45056b1139p-3",
    "5\t1\tPreviousWord=NULL\t-\t0x1.2cf45056b1139p-3",
    "6\t4\tSuffix=NULL\t0x1.803b837e2f9ddp-6\t-0x1.49f60043baa8ep-6",
    "7\t1\tFollowingWordEndsWithPeriod\t-\t0x1.3582113ac7b12p-3",
    "8\t1\tPrefix=Corp\t-\t0x1.3582113ac7b12p-3",
    "9\t1\tPrefixFeature=CorporateDesignator\t-\t0x1.3582113ac7b12p-3",
    "10\t3\tPreviousWordIsCapitalized\t0x1.73f83d163f406p-4\t-0x1.fbccf5277214ap-4",
    "11\t1\tPrefix=today\t0x1.615956c98d136p-3\t-",
    "12\t1\tPreviousWordEndsWithPeriod\t0x1.615956c98d136p-3\t-",
    "13\t1\tPreviousWordIsCorporateDesignator\t0x1.615956c98d136p-3\t-",
    "14\t1\tFollowingWord=NULL\t0x1.907a0aff45de2p-3\t-",
    "15\t1\tPrefix=rained\t0x1.907a0aff45de2p-3\t-",
    "[abbreviations] 0",
    "[honorifics] 2",
    "Dr.",
    "Gen.",
    "[designators] 1",
    "Corp.",
    "[corrections]",
    "yes\t-0x1.a59ec2bad3cf6p-3",
    "no\t0x0.0p+0",
    "[end]",
])

PORTABLE_V2 = "".join(line + "\n" for line in [
    "sentbound-model v2",
    "fingerprint 4b1325c3d03461ceb3dae2c78b109bdc8764e1c09a77e07b791fbeded4b6d209",
    "converged 0",
    "iterations 2",
    "template_set portable",
    "C 5",
    "cutoff 1",
    "[registry] 12",
    "0\t1\tFollowingWord=Lee.\t-\t0x1.8cb1433d08358p-3",
    "1\t1\tPrefix=Mr\t-\t0x1.8cb1433d08358p-3",
    "2\t1\tPrefixFeature=InducedAbbreviation\t-\t0x1.8cb1433d08358p-3",
    "3\t1\tPreviousWord=met\t-\t0x1.8cb1433d08358p-3",
    "4\t3\tSuffix=NULL\t0x1.d7d2348d16d36p-4\t-0x1.4c65f588b7d4cp-3",
    "5\t1\tFollowingWord=Go.\t0x1.c1fdd9114d1aap-3\t-",
    "6\t1\tPrefix=Lee\t0x1.c1fdd9114d1aap-3\t-",
    "7\t1\tPreviousWord=Mr.\t0x1.c1fdd9114d1aap-3\t-",
    "8\t1\tPreviousWordFeature=InducedAbbreviation\t0x1.c1fdd9114d1aap-3\t-",
    "9\t1\tFollowingWord=NULL\t0x1.f2cf230fc2a86p-3\t-",
    "10\t1\tPrefix=Go\t0x1.f2cf230fc2a86p-3\t-",
    "11\t1\tPreviousWord=Lee.\t0x1.f2cf230fc2a86p-3\t-",
    "[abbreviations] 1",
    "Mr.",
    "[honorifics] 0",
    "[designators] 0",
    "[corrections]",
    "yes\t-0x1.16017989eedb3p-2",
    "no\t0x0.0p+0",
    "[end]",
])


@pytest.mark.parametrize("text, templates", [
    (BEST_V2, Templates("best", honorifics=frozenset({"Dr.", "Gen."}),
                        designators=frozenset({"Corp."}))),
    (PORTABLE_V2, Templates("portable", abbreviations=frozenset({"Mr."}))),
], ids=["best", "portable"])
def test_stored_v2_file_loads_and_saves_byte_for_byte(tmp_path, text, templates):
    path = tmp_path / "model.txt"
    path.write_bytes(text.encode("utf-8"))
    model = load_model(path)
    assert model.registry.templates == templates
    resaved = tmp_path / "resaved.txt"
    save_model(model, resaved)
    assert resaved.read_bytes() == text.encode("utf-8")


@pytest.fixture(scope="module")
def saved_models(tmp_path_factory):
    """template set -> (model file text, candidates, decisions on them)."""
    corpus = make_corpus(30, seed=4)
    candidates = list(label_candidates(corpus).columns)
    out = {}
    for template_set in TEMPLATE_SETS:
        lexicons = load_lexicons() if template_set == "best" else None
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
