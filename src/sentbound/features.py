"""Contextual predicates, the two template systems, and the predicate registry.

Two template sets exist: "best" consults hand-maintained honorific and
corporate-designator lexicons plus character-class tests; "portable" uses only
token identities and the abbreviation list induced from training data. A
``Templates`` value is one template set with its resources; the registry
carries it, so ``encode(candidate, registry)`` needs nothing else.

Each template set is three slot functions: the token slot reads the token and
the mark's offset in it (prefix, suffix, lexicon or abbreviation tests), the
two word slots read the previous and the following word. ``extract_best`` and
``extract_portable`` are the union of the three. ``build_registry`` calls the
slot functions once per distinct slot value of its candidates. The registry
keeps one ``Memo`` per slot, from the slot's value to its registered predicate
indices. ``active_predicates`` encodes the ``scan`` columns of many
candidates at once: three memo lookups, a concatenation and a sort per
candidate, all through ``map``, so Python runs only on a memo miss;
``encode`` is the same formula for one candidate. Every memo of the package
is a ``Memo``, emptied when it holds ``CACHE_ENTRIES`` entries.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from itertools import chain
from operator import add
from pathlib import Path
from typing import Callable, Iterator, Optional

from .candidates import Candidate, Candidates
from .corpus import LabeledCandidateSet

TEMPLATE_SETS = ("best", "portable")


class FeatureError(Exception):
    pass


class EmptyRegistryError(FeatureError):
    """No predicate survived the frequency cutoff; the model would be vacuous."""


@dataclass(frozen=True)
class ResourceLexicons:
    honorifics: frozenset[str]
    corporate_designators: frozenset[str]


def _word_key(word: Optional[str]) -> str:
    """Render a token for use in a predicate key. None and the empty affix
    render as NULL; a literal token "NULL", and any token starting with a
    backslash, gets a backslash in front, so keys stay injective."""
    if word is None or word == "":
        return "NULL"
    if word == "NULL" or word.startswith("\\"):
        return "\\" + word
    return word


# Every predicate of both template systems reads exactly one slot: the token
# around the mark (at its offset), the previous word or the following word.
# The word slots name their side in their keys, so the three slots' key sets
# never overlap and a candidate's predicates are their union.
PREVIOUS = "PreviousWord"
FOLLOWING = "FollowingWord"


def _best_token_keys(token: str, offset: int, lex: ResourceLexicons) -> set[str]:
    prefix, suffix = token[:offset], token[offset + 1 :]
    preds = {
        f"Prefix={_word_key(prefix)}",
        f"Suffix={_word_key(suffix)}",
    }
    preds.update(_char_class_preds("Prefix", prefix))
    preds.update(_char_class_preds("Suffix", suffix))
    if token in lex.honorifics:
        preds.add("PrefixFeature=Honorific")
    if token in lex.corporate_designators:
        preds.add("PrefixFeature=CorporateDesignator")
    return preds


def _char_class_preds(side: str, affix: str) -> set[str]:
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


def _best_word_keys(side: str, word: Optional[str], lex: ResourceLexicons) -> set[str]:
    if word is None:
        return {f"{side}=NULL"}
    preds = set()
    if word[:1].isupper():
        preds.add(f"{side}IsCapitalized")
    if len(word) > 1 and word.isupper():
        preds.add(f"{side}IsAllCaps")
    if word in lex.honorifics:
        preds.add(f"{side}IsHonorific")
    if word in lex.corporate_designators:
        preds.add(f"{side}IsCorporateDesignator")
    if word.endswith("."):
        preds.add(f"{side}EndsWithPeriod")
    return preds


def extract_best(c: Candidate, lex: ResourceLexicons) -> set[str]:
    """Predicates for the high-performance template set."""
    preds = _best_token_keys(c.token, c.offset_in_token, lex)
    preds |= _best_word_keys(PREVIOUS, c.prev_word, lex)
    preds |= _best_word_keys(FOLLOWING, c.next_word, lex)
    return preds


def _portable_token_keys(token: str, offset: int, abbrevs: frozenset[str]) -> set[str]:
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


def _portable_word_keys(side: str, word: Optional[str], abbrevs: frozenset[str]) -> set[str]:
    preds = {f"{side}={_word_key(word)}"}
    if word is not None and word in abbrevs:
        preds.add(f"{side}Feature=InducedAbbreviation")
    return preds


def extract_portable(c: Candidate, abbrevs: frozenset[str]) -> set[str]:
    """Predicates for the portable template set: identities plus membership in
    the induced abbreviation list. No external lexicons."""
    preds = _portable_token_keys(c.token, c.offset_in_token, abbrevs)
    preds |= _portable_word_keys(PREVIOUS, c.prev_word, abbrevs)
    preds |= _portable_word_keys(FOLLOWING, c.next_word, abbrevs)
    return preds


@dataclass(frozen=True)
class Templates:
    """A template set and its resources: best reads the lexicons, portable
    the induced abbreviation list."""

    name: str
    abbreviations: frozenset[str] = frozenset()
    lexicons: Optional[ResourceLexicons] = None

    def __post_init__(self):
        if self.name not in TEMPLATE_SETS:
            raise FeatureError(f"unknown template set {self.name!r}")
        if self.name == "best" and self.lexicons is None:
            raise FeatureError("best template set requires resource lexicons")

    def token_keys(self, token: str, offset: int) -> set[str]:
        """Predicates of the token slot: the mark at ``offset`` in ``token``."""
        if self.name == "best":
            return _best_token_keys(token, offset, self.lexicons)
        return _portable_token_keys(token, offset, self.abbreviations)

    def word_keys(self, side: str, word: Optional[str]) -> set[str]:
        """Predicates of a word slot; ``side`` is PREVIOUS or FOLLOWING."""
        if self.name == "best":
            return _best_word_keys(side, word, self.lexicons)
        return _portable_word_keys(side, word, self.abbreviations)

    def extract(self, c: Candidate) -> set[str]:
        """All predicates of a candidate: the union of its three slots'."""
        if self.name == "best":
            return extract_best(c, self.lexicons)
        return extract_portable(c, self.abbreviations)


# Entries a memo may hold before it is emptied: each slot memo, and the
# decision memo of a model. Enough for the frequent words of a Zipfian
# vocabulary; an entry costs about 200 bytes, and most entries of a much
# larger memo would hold words seen once.
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


def slot_memos(templates: Templates, convert: Callable) -> tuple[Memo, Memo, Memo]:
    """Memos of ``convert`` applied to each slot's keys: the token slot keyed
    by (token, offset), the previous- and following-word slots by the word."""
    return (
        Memo(lambda slot: convert(templates.token_keys(*slot))),
        Memo(lambda word: convert(templates.word_keys(PREVIOUS, word))),
        Memo(lambda word: convert(templates.word_keys(FOLLOWING, word))),
    )


def _sorted_slot_union(
    token_slot: Memo, previous_slot: Memo, following_slot: Memo, c: Candidates
) -> Iterator[list]:
    """Each candidate's three slot values, read from the slot memos and sorted.

    The slots' keys (and so their indices) never overlap, so the
    concatenation is the union."""
    return map(sorted, map(
        add,
        map(add, map(token_slot.__getitem__, zip(c.tokens, c.offsets)),
            map(previous_slot.__getitem__, c.prev_words)),
        map(following_slot.__getitem__, c.next_words),
    ))


@dataclass
class PredicateRegistry:
    """Dense-indexed predicate set with training-time occurrence counts, the
    templates that extract its predicates, and one memo per slot from the
    slot's value to the indices of its registered predicates."""

    templates: Templates
    keys: list[str]
    counts: list[int]
    cutoff: int = 1
    index: dict[str, int] = field(init=False)
    token_slot: Memo = field(init=False, repr=False, compare=False)
    previous_slot: Memo = field(init=False, repr=False, compare=False)
    following_slot: Memo = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = self.index = {k: i for i, k in enumerate(self.keys)}
        self.token_slot, self.previous_slot, self.following_slot = slot_memos(
            self.templates, lambda preds: tuple([index[k] for k in preds if k in index])
        )

    def __len__(self) -> int:
        return len(self.keys)


def build_registry(
    labeled: LabeledCandidateSet,
    templates: Templates,
    cutoff: int = 1,
) -> PredicateRegistry:
    """Count predicate occurrences over the training candidates, drop those
    below the cutoff, and assign dense indices in first-occurrence order.

    Each slot's keys are read from a slot memo made for the call."""
    if not labeled.labels:
        raise FeatureError("no training candidates")
    # Counter keeps first-occurrence order.
    counts = Counter(chain.from_iterable(
        _sorted_slot_union(*slot_memos(templates, tuple), labeled.columns)
    ))
    keys = [k for k, n in counts.items() if n >= cutoff]
    if not keys:
        raise EmptyRegistryError(f"no predicate reached the cutoff of {cutoff}")
    return PredicateRegistry(templates, keys, [counts[k] for k in keys], cutoff)


def active_predicates(registry: PredicateRegistry, c: Candidates) -> Iterator[tuple[int, ...]]:
    """For each candidate, the sorted indices of the registered predicates
    active on it: the union of its three slots' indices, each read from the
    registry's memo for that slot. Predicates unseen at training time are
    silently dropped."""
    r = registry
    return map(tuple, _sorted_slot_union(r.token_slot, r.previous_slot, r.following_slot, c))


def encode(c: Candidate, registry: PredicateRegistry) -> tuple[int, ...]:
    """``active_predicates`` of one candidate."""
    (active,) = active_predicates(registry, Candidates.from_rows([c]))
    return active


def _lexicon_entries(text: str) -> frozenset[str]:
    """One token per line; '#' starts a comment; blank lines ignored."""
    entries = (line.split("#", 1)[0].strip() for line in text.splitlines())
    return frozenset(entry for entry in entries if entry)


def load_lexicon_file(path: str | Path) -> frozenset[str]:
    return _lexicon_entries(Path(path).read_text(encoding="utf-8"))


def _shipped_lexicon(name: str) -> frozenset[str]:
    data = resources.files("sentbound").joinpath("data")
    return _lexicon_entries(data.joinpath(name).read_text("utf-8"))


def default_lexicons() -> ResourceLexicons:
    """The lexicons shipped in the package's data directory."""
    return load_lexicons()


def load_lexicons(
    honorifics_path: Optional[str | Path] = None,
    designators_path: Optional[str | Path] = None,
) -> ResourceLexicons:
    """The lexicon files at the given paths; a shipped file stands in for a
    path not given, and is read only then."""
    hon = (_shipped_lexicon("honorifics.txt") if honorifics_path is None
           else load_lexicon_file(honorifics_path))
    des = (_shipped_lexicon("designators.txt") if designators_path is None
           else load_lexicon_file(designators_path))
    return ResourceLexicons(honorifics=hon, corporate_designators=des)
