import gc
import math
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sentbound import features
from sentbound.candidates import scan
from sentbound.corpus import YES, label_candidates
from sentbound.evaluation import evaluate
from sentbound.features import TEMPLATE_SETS, FeatureError, default_lexicons, encode
from sentbound.maxent import (
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
    model, _ = train_model(make_corpus(300, seed=1), "portable", max_iters=400)
    return model


@pytest.fixture(scope="module")
def best_model(lexicons_session):
    model, _ = train_model(
        make_corpus(300, seed=1), "best", lexicons=lexicons_session, max_iters=400
    )
    return model


@pytest.fixture(scope="module")
def lexicons_session():
    from sentbound.features import default_lexicons

    return default_lexicons()


def test_train_best_requires_lexicons():
    with pytest.raises(FeatureError):
        train_model(make_corpus(10, seed=2), "best")


def test_unknown_template_set():
    with pytest.raises(FeatureError):
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
    labeled = label_candidates(make_corpus(300, seed=1))
    for model in (portable_model, best_model):
        report = evaluate(model, labeled)
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

    monkeypatch.setattr(features, "default_lexicons", boom)
    monkeypatch.setattr(features, "load_lexicons", boom)
    model, _ = train_model(make_corpus(50, seed=9), "portable", max_iters=50)
    assert segment_text(model, "Dr. Smith resigned. He left.").sentences


def test_a_dropped_model_is_freed_without_the_collector():
    # No reference cycle runs through the model's memos: with the collector
    # off, the model and its registry go as soon as the last reference does.
    gc.disable()
    try:
        model, labeled = train_model(make_corpus(40, seed=4), "portable", max_iters=20)
        decide = make_classifier(model)
        assert any(decide(c) for c, _label in labeled.candidates)
        assert model.decisions and model.registry.token_slot
        refs = weakref.ref(model), weakref.ref(model.registry)
        del model, decide
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("template_set", ["portable", "best"])
def test_scorer_matches_training_path(template_set, synthetic_train, lexicons):
    # GIS scores contexts with its own matrices; the decision scorer must
    # reproduce its final log-likelihood and constraint violation.
    model, labeled = train_model(synthetic_train, template_set, lexicons=lexicons, max_iters=2000)
    events = events_from_labeled(labeled, model.registry)
    assert len({ev.active_predicates for ev in events}) > 10
    ll = 0.0
    for ev in events:
        p_yes = conditional_yes(model, ev.active_predicates)
        ll += ev.multiplicity * math.log(p_yes if ev.outcome == YES else 1.0 - p_yes)
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
            lexicons=default_lexicons() if name == "best" else None,
            max_iters=100,
        )[0]
        for name in TEMPLATE_SETS
    }


def caches(model):
    registry = model.registry
    return [registry.token_slot, registry.previous_slot, registry.following_slot, model.decisions]


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
    with pytest.MonkeyPatch.context() as mp:
        if bound is not None:
            # A small bound, so full caches get emptied while segmenting.
            mp.setattr(features, "CACHE_ENTRIES", bound)
            for cache in caches(model):
                cache.clear()
        cands = scan(text)
        decide = make_classifier(model)
        want = [classify(model, uncached_encoding(model, c)) for c in cands]
        assert [encode(c, model.registry) for c in cands] == [uncached_encoding(model, c) for c in cands]
        assert [decide(c) for c in cands] == want
        offsets = [c.stream_position for c, yes in zip(cands, want) if yes]
        assert segment_text(model, text).boundary_offsets == offsets
        if bound is not None:
            assert all(len(cache) <= bound for cache in caches(model))


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
