"""Contextual predicates, the two template systems, and the predicate registry.

Two template sets exist: "best" consults hand-maintained honorific and
corporate-designator lexicons plus character-class tests; "portable" uses only
token identities and the abbreviation list induced from training data. A
``Templates`` value is one template set with its resources; the registry
carries it, so ``encode(candidate, registry)`` needs nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

from .candidates import Candidate
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
    render as NULL; a literal token "NULL" is escaped so keys stay injective."""
    if word is None or word == "":
        return "NULL"
    if word == "NULL":
        return "\\NULL"
    return word


def extract_best(c: Candidate, lex: ResourceLexicons) -> set[str]:
    """Predicates for the high-performance template set."""
    preds = {
        f"Prefix={_word_key(c.prefix)}",
        f"Suffix={_word_key(c.suffix)}",
    }
    preds.update(_char_class_preds("Prefix", c.prefix))
    preds.update(_char_class_preds("Suffix", c.suffix))
    if c.token in lex.honorifics:
        preds.add("PrefixFeature=Honorific")
    if c.token in lex.corporate_designators:
        preds.add("PrefixFeature=CorporateDesignator")
    preds.update(_word_shape_preds("PreviousWord", c.prev_word, lex))
    preds.update(_word_shape_preds("FollowingWord", c.next_word, lex))
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


def _word_shape_preds(side: str, word: Optional[str], lex: ResourceLexicons) -> set[str]:
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


def extract_portable(c: Candidate, abbrevs: frozenset[str]) -> set[str]:
    """Predicates for the portable template set: identities plus membership in
    the induced abbreviation list. No external lexicons."""
    preds = {
        f"Prefix={_word_key(c.prefix)}",
        f"Suffix={_word_key(c.suffix)}",
        f"PreviousWord={_word_key(c.prev_word)}",
        f"FollowingWord={_word_key(c.next_word)}",
    }
    if c.prefix and (c.prefix + c.mark) in abbrevs:
        preds.add("PrefixFeature=InducedAbbreviation")
    if c.suffix and c.suffix in abbrevs:
        preds.add("SuffixFeature=InducedAbbreviation")
    if c.prev_word is not None and c.prev_word in abbrevs:
        preds.add("PreviousWordFeature=InducedAbbreviation")
    if c.next_word is not None and c.next_word in abbrevs:
        preds.add("FollowingWordFeature=InducedAbbreviation")
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

    def extract(self, c: Candidate) -> set[str]:
        """The one template dispatch."""
        if self.name == "best":
            return extract_best(c, self.lexicons)
        return extract_portable(c, self.abbreviations)


@dataclass
class PredicateRegistry:
    """Dense-indexed predicate set with training-time occurrence counts, and
    the templates that extract its predicates."""

    templates: Templates
    keys: list[str]
    counts: list[int]
    cutoff: int = 1
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.index = {k: i for i, k in enumerate(self.keys)}

    def __len__(self) -> int:
        return len(self.keys)


def build_registry(
    labeled: LabeledCandidateSet,
    templates: Templates,
    cutoff: int = 1,
) -> PredicateRegistry:
    """Count predicate occurrences over the training candidates, drop those
    below the cutoff, and assign dense indices in first-occurrence order."""
    if not labeled.candidates:
        raise FeatureError("no training candidates")
    order: list[str] = []
    counts: dict[str, int] = {}
    for cand, _label in labeled.candidates:
        for key in sorted(templates.extract(cand)):
            if key not in counts:
                counts[key] = 0
                order.append(key)
            counts[key] += 1
    keys = [k for k in order if counts[k] >= cutoff]
    if not keys:
        raise EmptyRegistryError(f"no predicate reached the cutoff of {cutoff}")
    return PredicateRegistry(templates, keys, [counts[k] for k in keys], cutoff)


def encode(c: Candidate, registry: PredicateRegistry) -> tuple[int, ...]:
    """Sorted indices of registered predicates active on the candidate.
    Predicates unseen at training time are silently dropped."""
    idx = registry.index
    return tuple(sorted(idx[k] for k in registry.templates.extract(c) if k in idx))


def _lexicon_entries(text: str) -> frozenset[str]:
    """One token per line; '#' starts a comment; blank lines ignored."""
    entries = (line.split("#", 1)[0].strip() for line in text.splitlines())
    return frozenset(entry for entry in entries if entry)


def load_lexicon_file(path: str | Path) -> frozenset[str]:
    return _lexicon_entries(Path(path).read_text(encoding="utf-8"))


def default_lexicons() -> ResourceLexicons:
    """The lexicons shipped in the package's data directory."""
    data = resources.files("sentbound").joinpath("data")
    return ResourceLexicons(
        honorifics=_lexicon_entries(data.joinpath("honorifics.txt").read_text("utf-8")),
        corporate_designators=_lexicon_entries(
            data.joinpath("designators.txt").read_text("utf-8")
        ),
    )


def load_lexicons(
    honorifics_path: Optional[str | Path] = None,
    designators_path: Optional[str | Path] = None,
) -> ResourceLexicons:
    defaults = default_lexicons()
    hon = load_lexicon_file(honorifics_path) if honorifics_path else defaults.honorifics
    des = load_lexicon_file(designators_path) if designators_path else defaults.corporate_designators
    return ResourceLexicons(honorifics=hon, corporate_designators=des)
