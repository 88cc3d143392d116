import gc
import math
import sys
import tracemalloc
import weakref
from dataclasses import fields
from itertools import accumulate, compress
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpus_reference
import encoder_reference
import pipeline_reference
from sentbound import candidates, corpus, features, maxent, pipeline
from sentbound.candidates import NO_WORD, Candidates, scan
from sentbound.corpus import CorpusError, corpus_from_sentences, label_candidates, label_groups
from sentbound.evaluation import evaluate, score
from sentbound.features import (
    TEMPLATE_SETS,
    EmptyRegistryError,
    FeatureError,
    Memo,
    build_registry,
    candidate_keys,
    encode,
    load_lexicons,
)
from sentbound.maxent import (
    Model,
    _digest,
    check_constraints,
    classify,
    conditional_yes,
    load_model,
    save_model,
)
from sentbound.pipeline import (
    byte_offsets,
    decide,
    events_from_labeled,
    make_classifier,
    segment_text,
    train_model,
)
from sentbound.synthetic import make_corpus


@pytest.fixture(scope="module")
def portable_model():
    return train_model(make_corpus(300, seed=1), "portable", max_iters=400)


@pytest.fixture(scope="module")
def best_model(lexicons_session):
    return train_model(
        make_corpus(300, seed=1), "best", lexicons=lexicons_session, max_iters=400
    )


@pytest.fixture(scope="module")
def lexicons_session():
    return load_lexicons()


@pytest.fixture
def refuse_labeling(monkeypatch):
    """Fail on labeling: ``train_model`` must refuse the request before it
    labels the corpus."""

    def boom(corpus):
        raise AssertionError("labeled a corpus that cannot train the requested model")

    monkeypatch.setattr(pipeline, "label_candidates", boom)


def test_train_best_requires_lexicons(refuse_labeling):
    with pytest.raises(FeatureError, match="best template set requires resource lexicons"):
        train_model(make_corpus(10, seed=2), "best")


def test_unknown_template_set(refuse_labeling):
    with pytest.raises(FeatureError, match="unknown template set 'bogus'"):
        train_model(make_corpus(10, seed=2), "bogus")


def test_segment_two_sentences(portable_model):
    text = "Acme Corp. chairman Dr. Smith resigned yesterday. Who leads Acme Corp. now?"
    seg = segment_text(portable_model, text)
    assert len(seg.sentences) == 2
    assert seg.sentences[0].endswith("yesterday.")


def test_segment_no_candidates(portable_model):
    seg = segment_text(portable_model, "no punctuation at all")
    assert seg.sentences == ["no punctuation at all"]
    assert seg.boundary_offsets == []


def test_segment_empty_text(portable_model):
    seg = segment_text(portable_model, "")
    assert seg.sentences == []
    assert seg.boundary_offsets == []


def test_segment_offsets_split_reconstructs_input(portable_model):
    text = "Shares of Globex Inc. fell 2.25 percent. Dr. Chen denied the merger was off!"
    seg = segment_text(portable_model, text)
    data = text.encode("utf-8")
    offsets = byte_offsets(text, seg.boundary_offsets)
    pieces, start = [], 0
    for off in offsets:
        pieces.append(data[start : off + 1])
        start = off + 1
    pieces.append(data[start:])
    assert b"".join(pieces) == data
    for off in offsets:
        assert bytes([data[off]]) in (b".", b"?", b"!")


def test_byte_offsets_multibyte():
    text = "café. next."
    assert byte_offsets(text, [4]) == [5]


WORDS = ["Dr", "Smith", "Who", "Acme", "Corp", "now", "yesterday", "percent", "dollars",
         "Zoë", "café", "Åsa", "Жук", "中文"]
# Words with marks, openers and closers, between spaces, tabs, line feeds
# and U+0085.
RAW_TEXT = st.lists(
    st.tuples(
        st.sampled_from(["", "", '"', "("]),
        st.sampled_from(WORDS),
        st.sampled_from(["", "", ".", ".", "?", "!", "...", '."', ".)", "!'", "]"]),
        st.sampled_from([" ", " ", "  ", "\t", "\n", "\x85"]),
    ).map("".join),
    max_size=16,
).map("".join)


@pytest.mark.parametrize("encoding", ["utf-8", "latin-1", "utf-16", "utf-8-sig"])
@settings(deadline=None)
@given(text=RAW_TEXT)
# Two boundaries (see test_segment_two_sentences), so a second BOM would show.
@example(text="Acme Corp. chairman Dr. Smith resigned yesterday. Who leads Acme Corp. now?")
def test_segmentation_offsets_locate_marks_and_keep_text(portable_model, encoding, text):
    # Keep what the encoding can write: latin-1 has no Ж or 中.
    text = text.encode(encoding, "ignore").decode(encoding)
    seg = segment_text(portable_model, text)
    offsets = seg.boundary_offsets
    assert all(a < b for a, b in zip(offsets, offsets[1:]))
    assert all(text[off] in ".?!" for off in offsets)
    assert "".join("".join(s.split()) for s in seg.sentences) == "".join(text.split())
    data_bytes = text.encode(encoding)
    bom = "".encode(encoding)
    for off, byte_off in zip(offsets, byte_offsets(text, offsets, encoding)):
        mark = text[off].encode(encoding)[len(bom):]
        assert data_bytes[byte_off : byte_off + len(mark)] == mark


def test_best_and_portable_models_learn_training_data(portable_model, best_model):
    corp = make_corpus(300, seed=1)
    for model in (portable_model, best_model):
        report = evaluate(model, corp)
        assert report.accuracy > 0.95


def test_classifier_consistent_with_segmentation(portable_model):
    text = "Gen. Miller said profits rose 4.75 percent. Analysts agreed."
    classify_candidate = make_classifier(portable_model)
    decisions = [c.stream_position for c in scan(text) if classify_candidate(c)]
    assert decisions == segment_text(portable_model, text).boundary_offsets


def test_portable_training_without_any_lexicons(monkeypatch):
    # Deleting lexicon resources must not affect the portable path.
    import sentbound.features as features

    def boom(*a, **k):
        raise AssertionError("portable training consulted resource lexicons")

    monkeypatch.setattr(features, "load_lexicons", boom)
    monkeypatch.setattr(features, "_shipped_lexicon", boom)
    model = train_model(make_corpus(50, seed=9), "portable", max_iters=50)
    assert segment_text(model, "Dr. Smith resigned. He left.").sentences


def test_a_dropped_model_is_freed_without_the_collector():
    # No reference cycle runs through the model's slot score lookups: with
    # the collector off, the model and its registry go as soon as the last
    # reference does. Best's lookups are memos, portable's are tables.
    gc.disable()
    try:
        for name in TEMPLATE_SETS:
            corp = make_corpus(40, seed=4)
            model = train_model(
                corp,
                name,
                lexicons=load_lexicons() if name == "best" else None,
                max_iters=20,
            )
            decide = make_classifier(model)
            assert any(map(decide, label_candidates(corp)[0]))
            assert all(model.scores.slots)
            refs = weakref.ref(model), weakref.ref(model.registry)
            del model, decide
            assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("template_set", ["portable", "best"])
def test_scorer_matches_training_path(template_set, synthetic_train, lexicons):
    # GIS scores contexts with its own matrices; the decision scorer must
    # reproduce its final log-likelihood and constraint violation.
    model = train_model(
        synthetic_train,
        template_set,
        lexicons=lexicons if template_set == "best" else None,
        max_iters=2000,
    )
    columns, labels = label_candidates(synthetic_train)
    keys = candidate_keys(model.registry.templates, columns)
    events = events_from_labeled((keys, labels), model.registry)
    assert len({ev.active_predicates for ev in events}) > 10
    ll = 0.0
    for ev in events:
        p_yes = conditional_yes(model, ev.active_predicates)
        ll += ev.multiplicity * math.log(p_yes if ev.outcome else 1.0 - p_yes)
    final_ll, final_violation = model.history[-1]
    assert ll == pytest.approx(final_ll, rel=1e-12)
    assert check_constraints(model, events) == pytest.approx(final_violation, rel=1e-12)


@pytest.fixture(scope="module")
def cache_models():
    """template set -> a model used only by the cache tests."""
    return {
        name: train_model(
            make_corpus(200, seed=3),
            name,
            lexicons=load_lexicons() if name == "best" else None,
            max_iters=100,
        )
        for name in TEMPLATE_SETS
    }


def caches(model):
    """(the memos a model fills as it decides, bounded by CACHE_ENTRIES; the
    slot tables it reads, which never change): best's slot score memos, and
    portable's slot score tables."""
    slots = list(model.scores.slots)
    tables = [slot for slot in slots if not isinstance(slot, Memo)]
    assert bool(tables) == (model.registry.templates.name == "portable")
    return [slot for slot in slots if isinstance(slot, Memo)], tables


def uncached_encoding(model, cand):
    idx = model.registry.index
    return tuple(sorted(idx[k] for k in model.registry.templates.extract(cand) if k in idx))


# Repeated tokens with marks, closers and digits, and some made-up ones.
CACHE_TEXT = st.lists(
    st.sampled_from(["Dr.", "Mr.", "Corp.", "Inc.", "U.S.", "3.5", "4.75", "Smith", "said",
                     "He", "percent", "it.", "now?", "off!", '"stop."', "(yes.)", "...",
                     "NULL", "\\NULL.", "a.b"])
    | st.text(alphabet="aB3.?!\"')", min_size=1, max_size=5),
    max_size=30,
).map(" ".join)
MANY_KEYS = " ".join(f"w{i}. W{i} {i}.5 x{i}! Dr. Corp." for i in range(20))


@pytest.mark.parametrize("bound", [None, 3])
@pytest.mark.parametrize("template_set", TEMPLATE_SETS)
@settings(deadline=None, max_examples=60)
@given(text=CACHE_TEXT)
@example(text=MANY_KEYS)
def test_cached_decisions_equal_uncached_ones(cache_models, template_set, bound, text):
    model = cache_models[template_set]
    memos, tables = caches(model)
    sizes = list(map(len, tables))
    with pytest.MonkeyPatch.context() as mp:
        if bound is not None:
            # A small bound, so full memos get emptied while segmenting.
            mp.setattr(features, "CACHE_ENTRIES", bound)
            for memo in memos:
                memo.clear()
        cands = scan(text)
        decide = make_classifier(model)
        want = [classify(model, uncached_encoding(model, c)) for c in cands]
        keys = candidate_keys(model.registry.templates, cands)
        encoded = [encode(k, model.registry) for k in keys]
        assert encoded == [uncached_encoding(model, c) for c in cands]
        assert [decide(c) for c in cands] == want
        offsets = [c.stream_position for c, yes in zip(cands, want) if yes]
        assert segment_text(model, text).boundary_offsets == offsets
        if bound is not None:
            assert all(len(memo) <= bound for memo in memos)
        assert list(map(len, tables)) == sizes


def test_unseen_words_leave_the_slot_tables_as_they_are(cache_models):
    model = cache_models["portable"]
    _, tables = caches(model)
    sizes = list(map(len, tables))
    text = " ".join(f"Qz{i}. qz{i}? {i}!x" for i in range(10 * features.CACHE_ENTRIES + 1))
    cands = scan(text)
    assert len(set(cands.prev_words) | set(cands.tokens)) > 20 * features.CACHE_ENTRIES
    batch = decide(model, cands)
    assert batch == [classify(model, uncached_encoding(model, c)) for c in cands]
    assert list(map(len, tables)) == sizes


@pytest.mark.parametrize("template_set", TEMPLATE_SETS)
def test_batch_decisions_equal_the_classifier_row_by_row(
    cache_models, template_set, tmp_path, monkeypatch
):
    path = tmp_path / "model.txt"
    save_model(cache_models[template_set], path)
    text = MANY_KEYS + " " + " ".join(make_corpus(60, seed=8).sentences)
    cands = scan(text)
    # A bound far below the distinct slot values and contexts, so every memo
    # is emptied again and again in the middle of decide's map chain.
    monkeypatch.setattr(features, "CACHE_ENTRIES", 3)
    assert len(set(cands.next_words)) > 10 * features.CACHE_ENTRIES
    batch = decide(load_model(path), cands)
    classify_candidate = make_classifier(load_model(path))
    assert batch == [classify_candidate(c) for c in cands]
    assert len(batch) == len(cands) and any(batch) and not all(batch)


def fallbacks(monkeypatch):
    """The candidates ``decide`` sends to ``maxent.classify``, as the
    active-predicate tuples it passes, in the order it passes them."""
    calls = []

    def counted(model, active):
        calls.append(active)
        return classify(model, active)

    monkeypatch.setattr(maxent, "classify", counted)
    return calls


# Log-odds ln - ly of one fitted (yes, no) pair with no correction: an exact
# tie, a tie but for the last bit on either side (2**-53 is below the rounding
# of 1/(1 + exp(x)) at 0.5, so that x decides no, as a tie does; 2**-52 is
# above it), and a gap still inside the margin.
NEAR_TIES = {
    "x=0": (1.0, 1.0),
    "x=-2**-53": (1.0, 1.0 - 2.0**-53),
    "x=+2**-53": (1.0 - 2.0**-53, 1.0),
    "x=-2**-52": (1.0, 1.0 - 2.0**-52),
    "x=-2**-45": (1.0, 1.0 - 2.0**-45),
}


@pytest.mark.parametrize("pair", NEAR_TIES.values(), ids=NEAR_TIES)
@pytest.mark.parametrize("template_set", TEMPLATE_SETS)
def test_a_sum_within_the_margin_is_decided_by_classify(
    cache_models, template_set, pair, tmp_path, monkeypatch
):
    # The model's weights are edited: one active predicate of the first
    # candidate keeps ``pair``, every other weight is unfitted, and both
    # corrections are 0, so that candidate's log-odds are w_no - w_yes.
    trained = cache_models[template_set]
    cands = scan(MANY_KEYS + " Dr. Smith left. He went home.")
    target = uncached_encoding(trained, next(iter(cands)))
    log_alpha = [(None, None)] * len(trained.registry)
    log_alpha[target[0]] = pair
    path = tmp_path / "model.txt"
    save_model(Model(trained.registry, log_alpha, (0.0, 0.0), trained.C), path)
    model = load_model(path)
    want = [classify(model, uncached_encoding(model, c)) for c in cands]
    calls = fallbacks(monkeypatch)
    assert decide(model, cands) == want
    assert target in calls
    assert want[0] == (pair[1] - pair[0] < -2.0**-53)


@pytest.mark.parametrize("template_set", TEMPLATE_SETS)
def test_more_fitted_features_than_C_are_decided_by_classify(
    cache_models, template_set, tmp_path, monkeypatch
):
    # A file with C lowered to 1 and signed again: most candidates now have
    # more fitted features than C, where ``conditional_yes`` adds no
    # correction, so the slot scores' sum is not their log-odds.
    path = tmp_path / "model.txt"
    save_model(cache_models[template_set], path)
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[lines.index(f"C {cache_models[template_set].C}")] = "C 1"
    lines[1] = f"fingerprint {_digest(lines[4:-2])}"
    path.write_text("\n".join(lines), encoding="utf-8")
    model = load_model(path)
    assert model.C == 1
    cands = scan(MANY_KEYS + " " + " ".join(make_corpus(60, seed=8).sentences))
    want = [classify(model, uncached_encoding(model, c)) for c in cands]
    calls = fallbacks(monkeypatch)
    assert decide(model, cands) == want
    assert len(calls) > len(cands) // 2
    assert any(want) and not all(want)


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("models")


@pytest.mark.parametrize("template_set", TEMPLATE_SETS)
@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_decisions_equal_classify_at_any_C_and_any_fitted_weights(
    cache_models, model_dir, template_set, data
):
    # A lower C and fewer fitted weights put candidates' counts of fitted
    # predicates at C, just above it and far above it. The sum is the
    # log-odds only up to C, so every count above C must go to classify.
    trained = cache_models[template_set]
    C = data.draw(st.integers(1, trained.C), label="C")
    share = data.draw(st.floats(0, 1), label="unfitted share")
    rnd = data.draw(st.randoms(use_true_random=False))
    log_alpha = [
        tuple(None if rnd.random() < share else w for w in pair) for pair in trained.log_alpha
    ]
    path = model_dir / f"{template_set}.txt"
    save_model(Model(trained.registry, log_alpha, trained.corrections, C), path)
    model = load_model(path)
    cands = scan(MANY_KEYS + " " + " ".join(make_corpus(60, seed=8).sentences))
    assert decide(model, cands) == [classify(model, uncached_encoding(model, c)) for c in cands]


@pytest.mark.parametrize("template_set", TEMPLATE_SETS)
def test_a_saved_model_loads_with_its_templates(cache_models, template_set, tmp_path):
    model = cache_models[template_set]
    path = tmp_path / "model.txt"
    save_model(model, path)
    assert load_model(path).registry.templates == model.registry.templates


def test_portable_training_refuses_lexicons(refuse_labeling):
    with pytest.raises(FeatureError, match="portable template set reads no honorifics"):
        train_model(make_corpus(20, seed=1), "portable", lexicons=load_lexicons(), max_iters=5)


# Words that recur across sentences, and rarer made-up ones, so a cutoff of 2
# or 3 drops some keys and distinct key contexts encode alike.
ENCODER_SENTENCES = st.lists(
    st.tuples(
        st.lists(st.sampled_from(["Dr.", "Mr.", "Smith", "he", "U.S.", "Inc.", "3.5", "left"])
                 | st.text(alphabet="aB.", min_size=1, max_size=3), min_size=1, max_size=6),
        st.sampled_from(".?!"),
    ).map(lambda words_mark: " ".join(words_mark[0]) + words_mark[1]),
    min_size=1,
    max_size=8,
)
# "Qx." and "Zy." each end one sentence: at a cutoff of 2 their contexts
# differ only in keys that are dropped, for both template sets.
COLLAPSING = ["Mr. Smith saw Qx.", "Mr. Smith saw Zy.", "Mr. Smith left."]


@pytest.mark.parametrize("template_set", TEMPLATE_SETS)
@settings(deadline=None, max_examples=60)
@given(sentences=ENCODER_SENTENCES, cutoff=st.integers(1, 3))
@example(sentences=COLLAPSING, cutoff=2)
def test_training_writes_the_two_pass_encoders_model(lexicons, template_set, sentences, cutoff):
    corp = corpus_from_sentences(sentences)
    lexicons = lexicons if template_set == "best" else None
    kwargs = dict(cutoff=cutoff, max_iters=10, lexicons=lexicons)
    try:
        want = encoder_reference.train_model(corp, template_set, **kwargs)
    except EmptyRegistryError:
        with pytest.raises(EmptyRegistryError):
            train_model(corp, template_set, **kwargs)
        return
    got = train_model(corp, template_set, **kwargs)
    assert maxent._body(got) == maxent._body(want)
    assert got.history == want.history


@pytest.mark.parametrize("template_set", TEMPLATE_SETS)
def test_key_contexts_that_encode_alike_train_as_one(lexicons, template_set):
    corp = corpus_from_sentences(COLLAPSING)
    lexicons = lexicons if template_set == "best" else None
    model = train_model(corp, template_set, cutoff=2, max_iters=10, lexicons=lexicons)
    columns, labels = label_candidates(corp)
    keys = candidate_keys(model.registry.templates, columns)
    events = events_from_labeled((keys, labels), build_registry(keys, model.registry.templates, 2))
    # Two merged (keys, label) events share one encoded (context, label).
    assert len({(ev.active_predicates, ev.outcome) for ev in events}) < len(events)
    want = encoder_reference.train_model(
        corp, template_set, cutoff=2, max_iters=10, lexicons=lexicons
    )
    assert maxent._body(model) == maxent._body(want)


# The whitespace of test_scan_rows_equal_the_reference_scan, in runs up to 12
# characters, longer than any slice below, so some slices hold whitespace only.
SLICE_GAP = st.text(alphabet=[" ", "\t", "\n", "\r", "\x85", "\u3000", "\u2028"],
                    min_size=1, max_size=12)
SLICE_TOKEN = st.sampled_from(["Dr.", "Corp.", "U.S.", "4.75", "Smith", "it.", "now?", "off!",
                               '"stop."', "..."]) | st.text(alphabet="aB3.?!\"')", min_size=1, max_size=12)


@st.composite
def sliced_texts(draw):
    """Tokens, some longer than a slice, between whitespace runs, with
    optional runs before the first and after the last."""
    tokens = draw(st.lists(SLICE_TOKEN, max_size=12))
    gaps = [draw(SLICE_GAP) for _ in tokens[1:]] + [""]
    lead, trail = (draw(st.just("") | SLICE_GAP) for _ in "ab")
    return lead + "".join(map(add, tokens, gaps)) + trail


@settings(deadline=None)
@given(text=sliced_texts(), slice_chars=st.integers(1, 8))
# Slices "Mr. ", "Smith. " and "He": the first ends in a candidate.
@example(text="Mr. Smith. He", slice_chars=4)
# Slices "a.\t", "\u3000\u2028" and " b": one holds whitespace only.
@example(text="a.\t\u3000\u2028 b", slice_chars=2)
def test_slices_cut_after_whitespace_with_the_neighbouring_words(text, slice_chars):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(candidates, "SLICE_CHARS", slice_chars)
        cut = list(candidates.slices(text))
    starts, pieces, _, _ = map(list, zip(*cut))
    assert "".join(pieces) == text
    assert starts == list(accumulate(map(len, pieces[:-1]), initial=0))
    # Every slice but the last holds at least ``slice_chars`` characters and
    # ends in whitespace, so no token is cut.
    assert all(len(p) >= slice_chars and p[-1].isspace() for p in pieces[:-1])
    # The edge words are the whole text's words on either side of the slice.
    for start, piece, prev_word, next_word in cut:
        before, after = text[:start].split(), text[start + len(piece) :].split()
        assert prev_word == (before[-1] if before else NO_WORD)
        assert next_word == (after[0] if after else NO_WORD)


@pytest.mark.parametrize("template_set", TEMPLATE_SETS)
@settings(deadline=None, max_examples=150)
@given(text=sliced_texts(), slice_chars=st.integers(1, 8))
# Slices "Mr. ", "Smith. ", "He": a candidate closes the first slice, and
# one opens the second.
@example(text="Mr. Smith. He", slice_chars=4)
# Slices of whitespace only between "it." and its next word.
@example(text="it.\t\u3000\u2028  \r\nNow.", slice_chars=2)
def test_sliced_offsets_equal_the_whole_text_reference(cache_models, template_set, text, slice_chars):
    model = cache_models[template_set]
    want = pipeline_reference.boundary_offsets(model, text)
    decided = []

    def recording_decide(model, cands):
        decided.extend(cands)
        return decide(model, cands)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(candidates, "SLICE_CHARS", slice_chars)
        mp.setattr(pipeline, "decide", recording_decide)
        assert pipeline.boundary_offsets(model, text) == want
    # Each candidate was decided once, with the words and position that the
    # whole text gives it.
    assert decided == list(scan(text))


# Whitespace-normalised sentences of slice tokens, each ending in a mark.
MARK_FINAL_SENTENCE = st.builds(
    add, st.lists(SLICE_TOKEN, min_size=1, max_size=6).map(" ".join), st.sampled_from(".?!")
)


@settings(deadline=None)
@given(sentences=st.lists(MARK_FINAL_SENTENCE, min_size=1, max_size=8), slice_chars=st.integers(1, 8))
@example(sentences=["Dr. Smith left.", "He said \"stop.\" twice!", "Why?"], slice_chars=3)
def test_labels_used_as_decisions_give_back_the_corpus(sentences, slice_chars):
    columns, labels = label_candidates(corpus_from_sentences(sentences))
    ends = set(compress(columns.positions, labels))

    def label_decide(model, cands):
        return list(map(ends.__contains__, cands.positions))

    for chars in (candidates.SLICE_CHARS, slice_chars):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(candidates, "SLICE_CHARS", chars)
            mp.setattr(pipeline, "decide", label_decide)
            assert segment_text(None, " ".join(sentences)).sentences == sentences


# Sentences of slice tokens: most end in a mark; the others, and those that
# end in a closing quote or bracket, get a warning instead of a True label.
LABELED_SENTENCE = MARK_FINAL_SENTENCE | st.lists(SLICE_TOKEN, min_size=1, max_size=6).map(" ".join)


def outcome(func, *args):
    """What ``func(*args)`` returns, or the message of the CorpusError it raises."""
    try:
        return func(*args)
    except CorpusError as exc:
        return str(exc)


def joined_columns(columns):
    """Each column of ``scan``'s result, concatenated over ``Candidates``."""
    return {f.name: [v for c in columns for v in getattr(c, f.name)] for f in fields(Candidates)}


@pytest.mark.parametrize("template_set", TEMPLATE_SETS)
@settings(deadline=None, max_examples=100)
@given(sentences=st.lists(LABELED_SENTENCE, min_size=1, max_size=8), group_chars=st.integers(1, 8))
# Slices of at least 3 characters: "Mr. ", "Smith ", "left. ", "He ",
# "said " and '"stop."'. Sentence 2 spans two slices, two slices end no
# sentence, and sentences 3 and 4 get warnings.
@example(sentences=["Mr.", "Smith left.", "He", "said \"stop.\""], group_chars=3)
def test_grouped_labels_and_reports_equal_the_whole_corpus_reference(
    cache_models, template_set, sentences, group_chars
):
    model = cache_models[template_set]
    corp = corpus_from_sentences(sentences)
    joined = " ".join(corp.sentences)
    want_columns, want_labels = corpus_reference.label_candidates(corp)
    reports = [outcome(score, decide(model, want_columns), corp)]
    for chars in (candidates.SLICE_CHARS, group_chars):
        pieces = []

        def recording_scan(text, prev_word, next_word):
            pieces.append(text)
            return scan(text, prev_word, next_word)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(candidates, "SLICE_CHARS", chars)
            whole_columns, whole_labels = label_candidates(corp)
            reports.append(outcome(evaluate, model, corp))
            mp.setattr(corpus, "scan", recording_scan)
            groups = list(label_groups(corp))
        # One piece per group, cut from the joined corpus: every piece but
        # the last holds at least ``chars`` characters and ends in
        # whitespace, and no piece holds whitespace from its ``chars``-th
        # character to the one before its last, so it ends at the first cut.
        assert len(pieces) == len(groups) and "".join(pieces) == joined
        assert all(len(p) >= chars and p[-1].isspace() for p in pieces[:-1])
        assert not any(ch.isspace() for p in pieces for ch in p[chars - 1 : -1])
        # Positions in the joined corpus and labels, as one whole scan gives.
        assert joined_columns([c for c, _ in groups]) == joined_columns([want_columns])
        assert [label for _, labels in groups for label in labels] == want_labels
        assert joined_columns([whole_columns]) == joined_columns([want_columns])
        assert whole_labels == want_labels
    # Warnings numbered across the corpus, as the reference gives them.
    assert list(corpus.label_warnings(corp)) == corpus_reference.label_warnings(corp)
    # The same counts and the same float ratios at every group size, or the
    # same refusal of a corpus without candidates.
    assert reports[1] == reports[2] == reports[0]


def test_a_text_of_one_slice_is_scanned_whole(portable_model, monkeypatch):
    scanned = []

    def recording_scan(text, prev_word, next_word):
        scanned.append((text, prev_word, next_word))
        return scan(text, prev_word, next_word)

    monkeypatch.setattr(pipeline, "scan", recording_scan)
    text = "Acme Corp. chairman Dr. Smith resigned yesterday. Who leads Acme Corp. now?"
    offsets = pipeline.boundary_offsets(portable_model, text)
    assert len(scanned) == 1 and scanned[0][0] is text
    assert scanned[0][1:] == (NO_WORD, NO_WORD)
    assert offsets == pipeline_reference.boundary_offsets(portable_model, text) != []


def test_slices_end_where_str_split_splits():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    cuts = [m.start() for m in candidates._SPACE_RE.finditer(every)]
    assert cuts == [i for i, ch in enumerate(every) if ch.isspace()]


def test_segmentation_memory_follows_the_slice_not_the_text(portable_model):
    # 10,000 synthetic sentences: 498,220 characters and 89,063 tokens. The
    # tracemalloc peak of this call measured 9.60 MiB when the whole text was
    # scanned at once, and 1.66 MiB in slices of 64 Ki characters (1.70 MiB
    # when it is the model's first decision, which builds its score lookups).
    text = " ".join(make_corpus(10_000, seed=2).sentences)
    tracemalloc.start()
    try:
        offsets = pipeline.boundary_offsets(portable_model, text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(offsets) > 5_000
    assert peak < 4 * 2**20


def test_evaluation_memory_follows_a_group_not_the_corpus(portable_model):
    # 10,000 synthetic sentences, built before tracing starts: 498,220
    # characters joined, and 31,011 candidates. The tracemalloc peak of this
    # call measured 10.08 MiB when the whole corpus was labeled at once, and
    # 2.01 MiB in groups of 64 Ki characters. The bound leaves about twice
    # the grouped peak, and 2.5 times under the whole-corpus peak.
    corp = make_corpus(10_000, seed=2)
    tracemalloc.start()
    try:
        report = evaluate(portable_model, corp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.sentences == 10_000 and report.candidates > 30_000
    assert peak < 4 * 2**20
