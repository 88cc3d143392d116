"""Contextual predicates, the two template systems, and the predicate registry.

Two template sets exist: "best" consults hand-maintained honorific and
corporate-designator lexicons plus character-class tests; "portable" uses only
token identities and the abbreviation list induced from training data. Each is
one row of ``TEMPLATE_TABLE``: a token-slot function that reads the token and
the mark's offset in it (prefix, suffix, lexicon or abbreviation tests), a
word-slot function for the previous and the following word, the resources
both read, and the kind of slot lookups its registry builds. A ``Templates``
value is one set with the ``RESOURCES`` a model file stores, and it owns
them: it refuses a resource to a set that does not read it. The registry
carries it, so ``encode(candidate, registry)`` needs nothing else.
``Templates.extract`` is the union of the slots.

``build_registry`` calls the slot functions through ``SlotMemos`` made for
the call, because it must count keys that miss the cutoff too: once per
distinct slot value, until a slot passes ``CACHE_ENTRIES`` values and its
emptied memo computes recurring values again.

``PredicateRegistry.lookups`` is the one constructor of slot lookups: given
a value per predicate and a zero, they map a slot value to the sum of its
registered predicates' values. Portable's keys and abbreviation list fix
every slot value with a registered predicate, so portable's lookups are
``SlotTables``, four dicts built whole that never empty and never grow.
Best's character-class predicates take any affix, so best's are
``SlotMemos``, bounded by ``CACHE_ENTRIES``. ``sums`` adds each candidate's
slot values, for both, through ``map``, so Python runs only on a best memo's
miss. With ``(i,)`` as predicate i's value and ``()`` as the zero, a sum is
a concatenation of indices: ``active_predicates`` encodes the ``scan``
columns of many candidates so, through lookups made for the call, and sorts
each. ``maxent.Scores`` builds its lookups from the model's per-predicate
scores and ``0j``, to score a slot value once. ``encode`` gives one
candidate's sorted indices from its extracted predicates, with no lookup.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from importlib import resources
from itertools import chain, repeat
from operator import add
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple, Optional

from .candidates import BOUNDARY_MARKS, NO_WORD, Candidate, Candidates
from .corpus import LabeledCandidateSet

class FeatureError(Exception):
    pass


class EmptyRegistryError(FeatureError):
    """No predicate survived the frequency cutoff; the model would be vacuous."""


def _word_key(word: Optional[str]) -> str:
    """Render a token for use in a predicate key. None and the empty affix
    render as NULL; a literal token "NULL", and any token starting with a
    backslash, gets a backslash in front, so keys stay injective."""
    if word is None or word == "":
        return "NULL"
    if word == "NULL" or word.startswith("\\"):
        return "\\" + word
    return word


def _unrendered(rendered: str) -> Optional[str]:
    """The token or affix that ``_word_key`` renders as ``rendered``, "" for
    NULL; None if it renders none, as for a registry key no slot produces."""
    if rendered == "NULL":
        return ""
    if rendered.startswith("\\"):
        word = rendered[1:]
        return word if word == "NULL" or word.startswith("\\") else None
    return rendered or None


# Every predicate of both template systems reads exactly one slot: the token
# around the mark (at its offset), the previous word or the following word.
# The word slots name their side in their keys, so the three slots' key sets
# never overlap and a candidate's predicates are their union.
PREVIOUS = "PreviousWord"
FOLLOWING = "FollowingWord"


def _best_token_keys(hon: frozenset[str], des: frozenset[str], token: str, offset: int) -> set[str]:
    prefix, suffix = token[:offset], token[offset + 1 :]
    preds = {
        f"Prefix={_word_key(prefix)}",
        f"Suffix={_word_key(suffix)}",
    }
    preds.update(_char_class_preds("Prefix", prefix))
    preds.update(_char_class_preds("Suffix", suffix))
    if token in hon:
        preds.add("PrefixFeature=Honorific")
    if token in des:
        preds.add("PrefixFeature=CorporateDesignator")
    return preds


# Best's character classes of an affix: (predicate name, test of one character).
_CHAR_CLASSES = (
    ("ContainsDigit", str.isdigit),
    ("ContainsUpper", str.isupper),
    ("ContainsLower", str.islower),
    ("ContainsPeriod", ".".__eq__),
    ("ContainsComma", ",".__eq__),
    ("ContainsQuote", "\"'".__contains__),
)


def _char_class_preds(side: str, affix: str) -> set[str]:
    return {f"{side}{name}" for name, test in _CHAR_CLASSES if any(map(test, affix))}


def _best_word_keys(
    hon: frozenset[str], des: frozenset[str], side: str, word: Optional[str]
) -> set[str]:
    if word is None:
        return {f"{side}=NULL"}
    preds = set()
    if word[:1].isupper():
        preds.add(f"{side}IsCapitalized")
    if len(word) > 1 and word.isupper():
        preds.add(f"{side}IsAllCaps")
    if word in hon:
        preds.add(f"{side}IsHonorific")
    if word in des:
        preds.add(f"{side}IsCorporateDesignator")
    if word.endswith("."):
        preds.add(f"{side}EndsWithPeriod")
    return preds


def _portable_token_keys(abbrevs: frozenset[str], token: str, offset: int) -> set[str]:
    prefix, suffix = token[:offset], token[offset + 1 :]
    preds = {
        f"Prefix={_word_key(prefix)}",
        f"Suffix={_word_key(suffix)}",
    }
    # The prefix with its mark, as an induced abbreviation is spelled.
    if prefix and token[: offset + 1] in abbrevs:
        preds.add("PrefixFeature=InducedAbbreviation")
    if suffix and suffix in abbrevs:
        preds.add("SuffixFeature=InducedAbbreviation")
    return preds


def _portable_word_keys(abbrevs: frozenset[str], side: str, word: Optional[str]) -> set[str]:
    preds = {f"{side}={_word_key(word)}"}
    if word is not None and word in abbrevs:
        preds.add(f"{side}Feature=InducedAbbreviation")
    return preds


# Entries a best slot memo, of indices or of scores, may hold before it is
# emptied. Enough for the frequent words of a Zipfian vocabulary; an entry
# costs about 200 bytes, and most entries of a much larger memo would hold
# words seen once. Portable's slots read tables that never fill (SlotTables).
CACHE_ENTRIES = 1_024


class Memo(dict):
    """A dict that fills a missing key with ``compute(key)``, first emptying
    itself if it holds ``CACHE_ENTRIES`` entries."""

    __slots__ = ("compute",)

    def __init__(self, compute: Callable):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self.compute(key)
        if len(self) >= CACHE_ENTRIES:
            self.clear()
        self[key] = value
        return value


class SlotMemos(NamedTuple):
    """Memos of a conversion of each slot's keys: the token slot keyed by
    (token, offset), the previous- and following-word slots by the word.
    ``build_registry`` counts keys through them, and a best registry's
    lookups are them: best's character-class predicates take any affix, so
    no table of registered values covers its token slot."""

    token: Memo
    previous: Memo
    following: Memo

    @classmethod
    def of(cls, templates: Templates, convert: Callable) -> SlotMemos:
        return cls(
            Memo(lambda slot: convert(templates.token_keys(*slot))),
            Memo(lambda word: convert(templates.word_keys(PREVIOUS, word))),
            Memo(lambda word: convert(templates.word_keys(FOLLOWING, word))),
        )

    @classmethod
    def for_registry(
        cls, templates: Templates, index: dict[str, int], per_predicate: list, zero
    ) -> SlotMemos:
        def convert(preds: set[str]):
            return sum([per_predicate[index[k]] for k in preds if k in index], zero)

        return cls.of(templates, convert)

    def sums(self, c: Candidates, missing=()) -> Iterator:
        """Each candidate's three slot values added together. A memo computes
        every value it lacks, so ``missing`` is never read."""
        return map(
            add,
            map(add, map(self.token.__getitem__, zip(c.tokens, c.offsets)),
                map(self.previous.__getitem__, c.prev_words)),
            map(self.following.__getitem__, c.next_words),
        )


class SlotTables(NamedTuple):
    """A portable registry's lookups as four tables, from a slot value to the
    sum of its registered predicates' values: the head of the token (its
    prefix and mark), its tail (after the mark), the previous word and the
    following word. Portable reads only token identities and the
    abbreviation list, so the registry's keys and that list fix every value
    with a registered predicate; any other value is left out, and sums to
    the caller's ``missing``. The tables never change once built."""

    head: dict[str, Any]
    tail: dict[str, Any]
    previous: dict[Optional[str], Any]
    following: dict[Optional[str], Any]

    @classmethod
    def for_registry(
        cls, templates: Templates, index: dict[str, int], per_predicate: list, zero
    ) -> SlotTables:
        tables = head, tail, previous, following = cls({}, {}, {}, {})
        # The identity keys, spelled "name=value" as _portable_*_keys spell
        # them. No two give one slot value, so it is set here, not added to.
        for key, i in index.items():
            name, _, rendered = key.partition("=")
            value = _unrendered(rendered)
            if value is None:
                continue
            one = per_predicate[i]
            if name == FOLLOWING:
                following[value or NO_WORD] = one
            elif name == PREVIOUS:
                previous[value or NO_WORD] = one
            elif name == "Prefix":
                for mark in BOUNDARY_MARKS:
                    head[value + mark] = one
            elif name == "Suffix":
                tail[value] = one
        # The induced-abbreviation flags. A head flags only a non-empty prefix,
        # a tail only a non-empty suffix.
        abbreviations = templates.abbreviations
        for table, name, values in (
            (head, "Prefix", [a for a in abbreviations if len(a) > 1]),
            (tail, "Suffix", [a for a in abbreviations if a]),
            (previous, PREVIOUS, abbreviations),
            (following, FOLLOWING, abbreviations),
        ):
            flag = index.get(f"{name}Feature=InducedAbbreviation")
            if flag is not None:
                one = per_predicate[flag]
                for value in values:
                    table[value] = table.get(value, zero) + one
        return tables

    def sums(self, c: Candidates, missing=()) -> Iterator:
        """Each candidate's four table values added together; ``missing`` is
        the value of a slot value that no table holds."""
        ends = list(map((1).__add__, c.offsets))
        heads = map(str.__getitem__, c.tokens, map(slice, ends))
        tails = map(str.__getitem__, c.tokens, map(slice, ends, repeat(None)))
        return map(
            add,
            map(add,
                map(add, map(self.head.get, heads, repeat(missing)),
                    map(self.tail.get, tails, repeat(missing))),
                map(self.previous.get, c.prev_words, repeat(missing))),
            map(self.following.get, c.next_words, repeat(missing)),
        )


# The resources a template set may read: ``Templates`` fields and model file sections, in order.
RESOURCES = ("abbreviations", "honorifics", "designators")

# The template sets: name -> (token-slot function, word-slot function, the
# resources both read, which they take first, in this order, and the kind of
# slot lookups ``PredicateRegistry.lookups`` builds for the set).
TEMPLATE_TABLE = {
    "best": (_best_token_keys, _best_word_keys, ("honorifics", "designators"), SlotMemos),
    "portable": (_portable_token_keys, _portable_word_keys, ("abbreviations",), SlotTables),
}
TEMPLATE_SETS = tuple(TEMPLATE_TABLE)


@dataclass(frozen=True)
class Templates:
    """A template set and the resources a model file stores for it. A set
    holds an empty resource where its slots read none, and is refused others."""

    name: str
    abbreviations: frozenset[str] = frozenset()
    honorifics: frozenset[str] = frozenset()
    designators: frozenset[str] = frozenset()
    # The set's slot functions, bound to its resources: ``token_keys(token, offset)``,
    # and ``word_keys(side, word)`` with ``side`` PREVIOUS or FOLLOWING.
    token_keys: Callable[..., set[str]] = field(init=False, repr=False, compare=False)
    word_keys: Callable[..., set[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.name not in TEMPLATE_TABLE:
            raise FeatureError(f"unknown template set {self.name!r}")
        token_keys, word_keys, reads, _ = TEMPLATE_TABLE[self.name]
        for resource in RESOURCES:
            if resource not in reads and getattr(self, resource):
                raise FeatureError(f"{self.name} template set reads no {resource}")
        bound = [getattr(self, resource) for resource in reads]
        object.__setattr__(self, "token_keys", partial(token_keys, *bound))
        object.__setattr__(self, "word_keys", partial(word_keys, *bound))

    def extract(self, c: Candidate) -> set[str]:
        """All predicates of a candidate: the union of its three slots'."""
        return (self.token_keys(c.token, c.offset_in_token)
                | self.word_keys(PREVIOUS, c.prev_word)
                | self.word_keys(FOLLOWING, c.next_word))


def extract_best(c: Candidate, lexicons: dict[str, frozenset[str]]) -> set[str]:
    """Predicates for the high-performance template set; ``lexicons`` as from ``load_lexicons``."""
    return Templates("best", **lexicons).extract(c)


def extract_portable(c: Candidate, abbrevs: frozenset[str]) -> set[str]:
    """Predicates for the portable template set: identities plus membership in
    the induced abbreviation list. No external lexicons."""
    return Templates("portable", abbrevs).extract(c)


@dataclass
class PredicateRegistry:
    """Dense-indexed predicate set with training-time occurrence counts and
    the templates that extract its predicates."""

    templates: Templates
    keys: list[str]
    counts: list[int]
    cutoff: int = 1
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        index = self.index = {k: i for i, k in enumerate(self.keys)}
        if len(index) < len(self.keys):
            # Only one of the rows could ever be read.
            twice = next(k for k, n in Counter(self.keys).items() if n > 1)
            raise FeatureError(f"registry names predicate {twice!r} twice")

    def __len__(self) -> int:
        return len(self.keys)

    def lookups(self, per_predicate: list, zero) -> SlotMemos | SlotTables:
        """Slot lookups of this registry's template set (``TEMPLATE_TABLE``),
        from a slot's value to the sum, from ``zero``, of ``per_predicate``
        over its registered predicates."""
        kind = TEMPLATE_TABLE[self.templates.name][3]
        return kind.for_registry(self.templates, self.index, per_predicate, zero)


def build_registry(
    labeled: LabeledCandidateSet,
    templates: Templates,
    cutoff: int = 1,
) -> PredicateRegistry:
    """Count predicate occurrences over the training candidates, drop those
    below the cutoff, and assign dense indices in first-occurrence order.

    Each slot's keys are read from a slot memo made for the call, which must
    count keys that miss the cutoff too."""
    if not labeled.labels:
        raise FeatureError("no training candidates")
    # Counter keeps first-occurrence order; a candidate's keys count in sorted order.
    counts = Counter(chain.from_iterable(
        map(sorted, SlotMemos.of(templates, tuple).sums(labeled.columns))
    ))
    keys = [k for k, n in counts.items() if n >= cutoff]
    if not keys:
        raise EmptyRegistryError(f"no predicate reached the cutoff of {cutoff}")
    return PredicateRegistry(templates, keys, [counts[k] for k in keys], cutoff)


def active_predicates(registry: PredicateRegistry, c: Candidates) -> Iterator[tuple[int, ...]]:
    """For each candidate, the sorted indices of the registered predicates
    active on it: the union of its slots' indices, each read from slot
    lookups made for the call, with ``(i,)`` as predicate i's value. The
    slots' keys never overlap, so the concatenation is the union. Predicates
    unseen at training time are silently dropped."""
    lookups = registry.lookups([(i,) for i in range(len(registry))], ())
    return map(tuple, map(sorted, lookups.sums(c, ())))


def encode(c: Candidate, registry: PredicateRegistry) -> tuple[int, ...]:
    """The sorted indices of the registered predicates active on one
    candidate, from its extracted predicates."""
    index = registry.index
    return tuple(sorted([index[k] for k in registry.templates.extract(c) if k in index]))


def _lexicon_entries(text: str) -> frozenset[str]:
    """One token per line; '#' starts a comment; blank lines ignored."""
    entries = (line.split("#", 1)[0].strip() for line in text.splitlines())
    return frozenset(entry for entry in entries if entry)


def load_lexicon_file(path: str | Path) -> frozenset[str]:
    return _lexicon_entries(Path(path).read_text(encoding="utf-8"))


def _shipped_lexicon(name: str) -> frozenset[str]:
    data = resources.files("sentbound").joinpath("data")
    return _lexicon_entries(data.joinpath(name).read_text("utf-8"))


def load_lexicons(
    honorifics_path: Optional[str | Path] = None,
    designators_path: Optional[str | Path] = None,
) -> dict[str, frozenset[str]]:
    """The honorifics and designators, as ``Templates`` keyword arguments:
    the lexicon files at the given paths; a shipped file stands in for a path
    not given, and is read only then."""
    paths = {"honorifics": honorifics_path, "designators": designators_path}
    return {
        name: _shipped_lexicon(f"{name}.txt") if path is None else load_lexicon_file(path)
        for name, path in paths.items()
    }
