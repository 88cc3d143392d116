from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sentbound import features
from sentbound.candidates import Candidate, Candidates, scan
from sentbound.features import (
    FOLLOWING,
    PREVIOUS,
    TEMPLATE_SETS,
    TEMPLATE_TABLE,
    EmptyRegistryError,
    FeatureError,
    Memo,
    PredicateRegistry,
    SlotTables,
    _char_class_preds,
    _unrendered,
    _word_key,
    build_registry,
    candidate_keys,
    encode,
    extract_best,
    extract_portable,
    Templates,
    load_lexicon_file,
    load_lexicons,
)
from sentbound.maxent import Model, load_model, save_model


def make_candidate(token, offset, prev=None, nxt=None):
    return Candidate(
        token=token,
        offset_in_token=offset,
        prev_word=prev,
        next_word=nxt,
        stream_position=0,
    )


CORP = make_candidate("Corp.", 4, prev="ANLP", nxt="chairman")


def test_best_worked_example_superset(lexicons):
    preds = extract_best(CORP, lexicons)
    assert {
        "PreviousWordIsCapitalized",
        "Prefix=Corp",
        "Suffix=NULL",
        "PrefixFeature=CorporateDesignator",
    } <= preds


def test_best_honorific(lexicons):
    preds = extract_best(make_candidate("Dr.", 2, prev="chairman", nxt="Smith"), lexicons)
    assert "PrefixFeature=Honorific" in preds
    assert "FollowingWordIsCapitalized" in preds


def test_best_lone_period_empty_context(lexicons):
    preds = extract_best(make_candidate(".", 0), lexicons)
    assert {"Prefix=NULL", "Suffix=NULL", "PreviousWord=NULL", "FollowingWord=NULL"} <= preds


def test_best_char_classes(lexicons):
    preds = extract_best(make_candidate("3.5", 1, prev="rose", nxt="percent"), lexicons)
    assert "PrefixContainsDigit" in preds
    assert "SuffixContainsDigit" in preds
    assert "PrefixContainsUpper" not in preds


def char_class_reference(side, affix):
    """``_char_class_preds`` as six tests, one per class."""
    preds = set()
    if any(ch.isdigit() for ch in affix):
        preds.add(f"{side}ContainsDigit")
    if any(ch.isupper() for ch in affix):
        preds.add(f"{side}ContainsUpper")
    if any(ch.islower() for ch in affix):
        preds.add(f"{side}ContainsLower")
    if "." in affix:
        preds.add(f"{side}ContainsPeriod")
    if "," in affix:
        preds.add(f"{side}ContainsComma")
    if '"' in affix or "'" in affix:
        preds.add(f"{side}ContainsQuote")
    return preds


# Digits beyond ASCII (the superscript "²", which is not decimal, and the
# Arabic-Indic "٣"), the title case "ǅ", which is neither upper nor lower,
# the uppercase numeral "Ⅻ", the lowercase "ß", and both quote marks.
AFFIX = st.text(alphabet=st.sampled_from("aZ3²٣ǅⅫß.,\"' ") | st.characters(), max_size=8)


@settings(max_examples=300)
@example("")
@example("²ǅⅫß\"'.,")
@given(AFFIX)
def test_char_class_preds_equal_the_six_tests(affix):
    for side in ("Prefix", "Suffix"):
        assert _char_class_preds(side, affix) == char_class_reference(side, affix)


def test_portable_worked_example(example1_labeled):
    abbrevs = frozenset({"Corp.", "Dr."})
    preds = extract_portable(CORP, abbrevs)
    assert preds >= {
        "PreviousWord=ANLP",
        "FollowingWord=chairman",
        "Prefix=Corp",
        "Suffix=NULL",
        "PrefixFeature=InducedAbbreviation",
    }


def test_portable_empty_abbrevs_no_membership_predicates():
    preds = extract_portable(CORP, frozenset())
    assert not any("InducedAbbreviation" in p for p in preds)


def test_portable_final_token():
    cand = make_candidate("resigned.", 8, prev="Smith", nxt=None)
    preds = extract_portable(cand, frozenset())
    assert preds == {
        "PreviousWord=Smith",
        "FollowingWord=NULL",
        "Prefix=resigned",
        "Suffix=NULL",
    }


def test_slot_functions_take_exactly_the_resources_of_their_row():
    # A slot function sees only the resources its TEMPLATE_TABLE row names,
    # in the row's order, and nothing else of the set.
    for name, (token_keys, word_keys, reads, _) in TEMPLATE_TABLE.items():
        resources = {resource: frozenset({f"{resource}."}) for resource in reads}
        templates = Templates(name, **resources)
        for bound, func in ((templates.token_keys, token_keys), (templates.word_keys, word_keys)):
            assert bound.func is func
            assert bound.args == tuple(resources[resource] for resource in reads)
            assert all(a is b for a, b in zip(bound.args, map(resources.get, reads)))
            assert bound.keywords == {}


def test_portable_templates_refuse_lexicons():
    # A model file would store them, and no decision would read them.
    for resource, lexicon in load_lexicons().items():
        with pytest.raises(FeatureError, match=f"portable template set reads no {resource}$"):
            Templates("portable", **{resource: lexicon})
    no_lexicons = {"honorifics": frozenset(), "designators": frozenset()}
    assert Templates("portable", **no_lexicons) == Templates("portable")


def test_best_templates_refuse_abbreviations():
    # Likewise: best reads lexicons, never the abbreviation list.
    lexicons = load_lexicons()
    with pytest.raises(FeatureError, match="best template set reads no abbreviations$"):
        Templates("best", frozenset({"Mr."}), **lexicons)
    assert Templates("best", frozenset(), **lexicons) == Templates("best", **lexicons)


def test_literal_null_token_does_not_collide():
    cand = make_candidate("x.", 1, prev="NULL", nxt=None)
    preds = extract_portable(cand, frozenset())
    assert "PreviousWord=\\NULL" in preds
    assert "FollowingWord=NULL" in preds


WORD = st.text(alphabet="\\NUL.", min_size=1, max_size=6)


@example("NULL", "\\NULL")
@example("\\NULL", "\\\\NULL")
@given(WORD, WORD)
def test_word_keys_are_injective(a, b):
    assert _word_key(a) != _word_key(None)
    assert (_word_key(a) == _word_key(b)) == (a == b)
    # The slot tables read keys back into tokens.
    assert _unrendered(_word_key(a)) == a
    assert _unrendered(_word_key(None)) == ""


@pytest.mark.parametrize("template_set", TEMPLATE_SETS)
@pytest.mark.parametrize("text", ["x NULL. y", "NULL x. y", "x y. NULL"])
def test_escaped_null_and_backslash_tokens_get_different_predicates(template_set, text, lexicons):
    templates = Templates(template_set, **(lexicons if template_set == "best" else {}))

    def predicates(text):
        return [templates.extract(c) for c in scan(text)]

    assert predicates(text) != predicates(text.replace("NULL", "\\NULL"))


SLOT_TEXT = st.text(alphabet="aZ3.,?!\"'\\NUL", min_size=1, max_size=6)
DEFAULT_LEXICONS = load_lexicons()


@st.composite
def slot_cases(draw):
    """(templates, token, offset, previous word, following word)."""
    token = draw(st.sampled_from(["Dr.", "Corp.", "U.S.", "Inc."]) | SLOT_TEXT)
    offset = draw(st.integers(0, len(token) - 1))
    prev, nxt = (draw(st.none() | st.sampled_from(["Mr.", "Ltd."]) | SLOT_TEXT) for _ in range(2))
    pool = [token[: offset + 1], token[offset + 1 :], prev, nxt, "Dr.", "x"]
    abbrevs = frozenset(w for w in draw(st.lists(st.sampled_from(pool))) if w)
    name = draw(st.sampled_from(TEMPLATE_SETS))
    # Each set holds only the resource it reads.
    abbrevs, lexicons = (frozenset(), DEFAULT_LEXICONS) if name == "best" else (abbrevs, {})
    return Templates(name, abbrevs, **lexicons), token, offset, prev, nxt


@given(slot_cases())
def test_the_three_slots_partition_the_predicates(case):
    templates, token, offset, prev, nxt = case
    slots = [
        templates.token_keys(token, offset),
        templates.word_keys(PREVIOUS, prev),
        templates.word_keys(FOLLOWING, nxt),
    ]
    assert all(not a & b for i, a in enumerate(slots) for b in slots[i + 1 :])
    cand = make_candidate(token, offset, prev, nxt)
    if templates.name == "best":
        extracted = extract_best(cand, DEFAULT_LEXICONS)
    else:
        extracted = extract_portable(cand, templates.abbreviations)
    assert set().union(*slots) == extracted == templates.extract(cand)


def reference_registry(candidates, templates, cutoff):
    """(keys, counts) of the plain per-candidate count over extracted predicates."""
    order, counts = [], {}
    for cand in candidates:
        for key in sorted(templates.extract(cand)):
            if key not in counts:
                counts[key] = 0
                order.append(key)
            counts[key] += 1
    keys = [k for k in order if counts[k] >= cutoff]
    return keys, [counts[k] for k in keys]


REGISTRY_WORDS = st.sampled_from(["Dr.", "Corp.", "U.S.", "Inc.", "Smith", "he", "NULL"]) | SLOT_TEXT


@st.composite
def registry_cases(draw):
    """(templates, candidates, cutoff): candidates drawn from a few slot values,
    so tokens and neighbours repeat across them."""
    words = draw(st.lists(REGISTRY_WORDS, min_size=1, max_size=6))
    candidates = []
    for _ in range(draw(st.integers(1, 25))):
        token = draw(st.sampled_from(words))
        offset = draw(st.integers(0, len(token) - 1))
        prev, nxt = (draw(st.none() | st.sampled_from(words)) for _ in range(2))
        candidates.append(make_candidate(token, offset, prev, nxt))
    abbrevs = frozenset(draw(st.lists(st.sampled_from(words + ["x."]))))
    name = draw(st.sampled_from(TEMPLATE_SETS))
    # Each set holds only the resource it reads.
    abbrevs, lexicons = (frozenset(), DEFAULT_LEXICONS) if name == "best" else (abbrevs, {})
    return Templates(name, abbrevs, **lexicons), candidates, draw(st.integers(1, 3))


@given(registry_cases())
def test_build_registry_equals_the_per_candidate_count(case):
    templates, candidates, cutoff = case
    keys, counts = reference_registry(candidates, templates, cutoff)
    columns = Candidates.from_rows(candidates)
    # The default bound, and a bound of 2, so the key pass's slot memos get
    # emptied in the middle of it.
    for bound in (None, 2):
        with pytest.MonkeyPatch.context() as mp:
            if bound is not None:
                mp.setattr(features, "CACHE_ENTRIES", bound)
            candidates_keys = candidate_keys(templates, columns)
            assert candidates_keys == [tuple(sorted(templates.extract(c))) for c in candidates]
            if not keys:
                with pytest.raises(EmptyRegistryError):
                    build_registry(candidates_keys, templates, cutoff)
                continue
            reg = build_registry(candidates_keys, templates, cutoff)
            assert reg.keys == keys
            assert reg.counts == counts


def keys_of(labeled, templates):
    return candidate_keys(templates, labeled[0])


def test_build_registry_portable_example1(example1_labeled):
    templates = Templates("portable", abbreviations=frozenset({"Corp.", "Dr."}))
    reg = build_registry(keys_of(example1_labeled, templates), templates, cutoff=1)
    assert {"Prefix=Corp", "Prefix=Dr", "Prefix=resigned"} <= set(reg.keys)
    assert sorted(reg.index.values()) == list(range(len(reg)))


def test_build_registry_cutoff_too_high(example1_labeled):
    with pytest.raises(EmptyRegistryError):
        templates = Templates("portable")
        build_registry(keys_of(example1_labeled, templates), templates, cutoff=99)


@pytest.mark.parametrize("cutoff", [0, -3])
def test_build_registry_refuses_a_cutoff_below_one(example1_labeled, cutoff):
    # Any cutoff below 1 keeps the predicates of cutoff 1, and a model would
    # record it under another fingerprint.
    with pytest.raises(FeatureError, match=f"cutoff {cutoff} is below 1"):
        templates = Templates("portable")
        build_registry(keys_of(example1_labeled, templates), templates, cutoff=cutoff)


def test_registry_counts_scale_linearly(example1_labeled):
    columns, labels = example1_labeled
    doubled = Candidates.from_rows(list(columns) * 2), labels * 2
    templates = Templates("portable")
    reg1 = build_registry(keys_of(example1_labeled, templates), templates)
    reg2 = build_registry(keys_of(doubled, templates), templates)
    assert reg1.keys == reg2.keys
    assert [2 * c for c in reg1.counts] == reg2.counts


def test_encode_idempotent_and_drops_unseen(example1_labeled):
    templates = Templates("portable")
    reg = build_registry(keys_of(example1_labeled, templates), templates)
    keys = templates.extract(next(iter(example1_labeled[0])))
    idx = encode(keys, reg)
    assert idx == encode(keys, reg)
    assert idx == tuple(sorted(idx))
    assert [reg.keys[i] for i in idx] == [k for k in reg.keys if k in keys]
    unseen = extract_portable(make_candidate("zzzz.", 4, prev="qqqq", nxt="wwww"), frozenset())
    assert all(reg.keys[i] in unseen for i in encode(unseen, reg))


# Tokens whose keys need escaping, "=", marks, closers and abbreviations. They
# repeat, so a text shares slot values with the text its registry was built on.
TABLE_WORDS = st.sampled_from([
    "NULL", "NULL.", "\\NULL", "\\NULL.", "\\x.", "=", "a=b.", "=.", "Dr.", "Inc.", "U.S.",
    "what?!", "wow!", 'it."', "(yes.)", "3.5", "...", "Mr", "x",
]) | st.text(alphabet="aZ=\\NUL.?!\"')", min_size=1, max_size=6)
# A model file may list any string as an abbreviation: with a mark at its end
# or none at all, and even the empty string.
TABLE_ABBREVIATIONS = st.frozensets(
    TABLE_WORDS | st.sampled_from(["what?", "wow!", "Inc", "Mr", "x", "", "a", ".", "?"])
)
# Keys no portable slot produces. A registry may hold any string; tests build
# registries of keys like P0.
UNPRODUCED_KEYS = [
    "P0", "Prefix", "Prefix=", "Prefix=\\x", "Suffix=\\", "PreviousWord=\\w", "FollowingWord=",
    "PrefixFeature=Other", "PreviousWordIsCapitalized", "SuffixContainsDigit",
]


# Values with small integer parts, so every order of summing them is exact.
SMALL_COMPLEX = st.builds(complex, st.integers(-9, 9), st.integers(-9, 9))


@settings(deadline=None, max_examples=200)
@given(
    train=st.lists(TABLE_WORDS, min_size=1, max_size=25).map(" ".join),
    text=st.lists(TABLE_WORDS, max_size=25).map(" ".join),
    abbreviations=TABLE_ABBREVIATIONS,
    unproduced=st.lists(st.sampled_from(UNPRODUCED_KEYS), unique=True),
    data=st.data(),
)
@example(train="NULL. \\NULL. x", text="", abbreviations=frozenset({"NULL.", "\\NULL"}),
         unproduced=UNPRODUCED_KEYS, data=None)
def test_portable_tables_encode_as_the_slot_functions(
    tmp_path_factory, train, text, abbreviations, unproduced, data
):
    # The key encoder and the score tables agree with the slot functions on
    # a registry as built, and on one saved and loaded.
    templates = Templates("portable", abbreviations)
    train += " x."  # at least one candidate
    built = build_registry(candidate_keys(templates, scan(train)), templates)
    registry = PredicateRegistry(
        templates, built.keys + unproduced, built.counts + [1] * len(unproduced)
    )
    n = len(registry)
    values = data.draw(st.lists(SMALL_COMPLEX, min_size=n, max_size=n)) if data else [1j] * n
    path = tmp_path_factory.getbasetemp() / "tables-model.txt"
    save_model(Model(registry, [(None, None)] * n, (0.0, 0.0), C=1), path)
    cands = scan(f"{text} {train} {text}")
    for reg in (registry, load_model(path).registry):
        index = reg.index
        want = [tuple(sorted(index[k] for k in templates.extract(c) if k in index)) for c in cands]
        assert [encode(keys, reg) for keys in candidate_keys(templates, cands)] == want
        tables = reg.lookups(values)
        assert isinstance(tables, SlotTables)
        assert list(tables.sums(cands)) == [sum([values[i] for i in w], 0j) for w in want]


@settings(deadline=None, max_examples=100)
@given(
    name=st.sampled_from(TEMPLATE_SETS),
    train=st.lists(TABLE_WORDS, min_size=1, max_size=25).map(" ".join),
    text=st.lists(TABLE_WORDS, max_size=25).map(" ".join),
    data=st.data(),
)
def test_lookups_sum_the_values_of_the_encoded_predicates(
    tmp_path_factory, name, train, text, data
):
    # On a registry as built, and on one saved and loaded, a candidate's slot
    # lookups add up to the sum of its encoded predicates' values.
    abbreviations = data.draw(TABLE_ABBREVIATIONS) if name == "portable" else frozenset()
    templates = Templates(name, abbreviations, **(DEFAULT_LEXICONS if name == "best" else {}))
    train += " x."  # at least one candidate
    registry = build_registry(candidate_keys(templates, scan(train)), templates)
    n = len(registry)
    values = data.draw(st.lists(SMALL_COMPLEX, min_size=n, max_size=n))
    path = tmp_path_factory.getbasetemp() / "lookups-model.txt"
    save_model(Model(registry, [(None, None)] * n, (0.0, 0.0), C=1), path)
    cands = scan(f"{text} {train} {text}")
    for reg in (registry, load_model(path).registry):
        want = [sum([values[i] for i in encode(templates.extract(c), reg)], 0j) for c in cands]
        assert list(reg.lookups(values).sums(cands)) == want


def test_load_lexicon_file(tmp_path):
    p = tmp_path / "lex.txt"
    p.write_text("# comment\nDr.\nMs.  # trailing\n\nGen.\n")
    assert load_lexicon_file(p) == {"Dr.", "Ms.", "Gen."}


def test_a_byte_order_mark_is_not_part_of_the_first_entry(tmp_path):
    # Windows Notepad saves UTF-8 with a byte-order mark.
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text("Mr.\nDr.\n", encoding="utf-8")
    marked.write_text("Mr.\nDr.\n", encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbfMr.")
    assert load_lexicon_file(marked) == load_lexicon_file(plain) == {"Mr.", "Dr."}


def test_a_shipped_lexicon_is_read_as_a_given_file_is(tmp_path, monkeypatch):
    # The shipped files, saved with a byte-order mark, read as they are.
    shipped = load_lexicons()
    data = tmp_path / "data"
    data.mkdir()
    for name in ("honorifics.txt", "designators.txt"):
        text = features.resources.files("sentbound").joinpath("data", name).read_text("utf-8")
        (data / name).write_text(text, encoding="utf-8-sig")
    monkeypatch.setattr(features, "resources", SimpleNamespace(files=lambda package: tmp_path))
    assert (data / "honorifics.txt").read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_lexicons() == shipped
    assert load_lexicons(designators_path=data / "designators.txt") == shipped


def test_load_lexicons_reads_no_shipped_file_for_a_given_path(tmp_path, monkeypatch):
    honorifics, designators = tmp_path / "hon.txt", tmp_path / "des.txt"
    honorifics.write_text("Dr.\n")
    designators.write_text("Corp.\n")
    shipped = load_lexicons()
    read = []
    shipped_lexicon = features._shipped_lexicon
    monkeypatch.setattr(
        features, "_shipped_lexicon", lambda name: read.append(name) or shipped_lexicon(name)
    )
    both = load_lexicons(honorifics, designators)
    assert both == {"honorifics": {"Dr."}, "designators": {"Corp."}}
    assert read == []
    one = load_lexicons(designators_path=designators)
    assert one == {"honorifics": shipped["honorifics"], "designators": {"Corp."}}
    assert read == ["honorifics.txt"]
    # An empty path is a path given: reading it fails, no shipped file stands in.
    with pytest.raises(OSError):
        load_lexicons(honorifics_path="")


def test_memo_computes_each_key_once():
    calls = []
    memo = Memo(lambda key: calls.append(key) or key * 2)
    assert [memo[k] for k in (1, 2, 1, 2, 3)] == [2, 4, 2, 4, 6]
    assert calls == [1, 2, 3]


def test_full_memo_is_emptied_before_a_new_key_is_stored(monkeypatch):
    monkeypatch.setattr(features, "CACHE_ENTRIES", 2)
    memo = Memo(str)
    memo[1], memo[2]
    assert memo == {1: "1", 2: "2"}
    assert memo[3] == "3"
    assert memo == {3: "3"}


def test_memo_stores_nothing_when_compute_raises():
    calls = []

    def compute(key):
        calls.append(key)
        raise ValueError(key)

    memo = Memo(compute)
    for _ in range(2):
        with pytest.raises(ValueError):
            memo["k"]
    assert calls == ["k", "k"]
    assert memo == {}


def test_default_lexicons_seeded(lexicons):
    assert {"Ms.", "Dr.", "Gen."} <= lexicons["honorifics"]
    assert {"Corp.", "S.p.A.", "L.L.C."} <= lexicons["designators"]
