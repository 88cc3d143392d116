"""Maximum entropy model over (outcome, context): the scorer, the training
events and the model file format, in pure Python.

An outcome is a bool, True (yes) iff the mark ends a sentence. Binary
features pair one contextual predicate with one outcome; the model keeps one
(yes, no) log-weight pair per registry predicate. A per-outcome correction
(slack) feature absorbs C minus the active-feature count, as GIS's
constant-sum condition requires. ``conditional_yes`` is the one definition
of p(yes|c); ``Scores`` restates its decision as a sum of per-slot scores,
read through slot lookups that the registry builds from each predicate's
score, and says where that sum is sure to agree. ``decide`` adds each
candidate's slot scores and sends only the candidates whose sum is not sure
to ``classify``.
``train_gis`` and ``check_constraints`` import ``sentbound.gis``, GIS's
array code, only when called, so loading a model and deciding with it need
no array library. A model file holds everything that turns a candidate into
a decision: the registry's ``features.Templates`` value owns its
``features.RESOURCES`` sections.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cached_property, partial
from itertools import chain, compress, count
from operator import attrgetter, ge, is_not, ne, or_
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

from . import features
from .candidates import Candidate, Candidates
from .features import RESOURCES, FeatureError, PredicateRegistry, SlotMemos, SlotTables, Templates

OUTCOMES = (True, False)  # GIS's row order: yes, then no

DEFAULT_MAX_ITERS = 100
DEFAULT_TOLERANCE = 1e-3
# GIS keeps every log-weight within [-DEFAULT_CLAMP, DEFAULT_CLAMP].
DEFAULT_CLAMP = 50.0

# Relative constraint violation uses max(empirical, floor) as denominator.
VIOLATION_FLOOR = 1.0

MODEL_FORMAT_VERSION = 2
_HEADER = f"sentbound-model v{MODEL_FORMAT_VERSION}"
_CORRECTION_TAGS = ("yes", "no")  # of the correction rows, in OUTCOMES order

Weight = Optional[float]

_REAL, _IMAG = attrgetter("real"), attrgetter("imag")


class TrainingError(Exception):
    pass


class ModelFormatError(Exception):
    """Unreadable, truncated, or inconsistent model file."""


@dataclass(frozen=True)
class TrainingEvent:
    active_predicates: tuple[int, ...]
    outcome: bool  # True iff the mark ends a sentence
    multiplicity: int = 1


@dataclass
class Model:
    """A trained classifier with everything that affects its predictions."""

    registry: PredicateRegistry
    # (yes, no) log-weights per registry predicate; None where GIS fitted no
    # feature for that predicate and outcome.
    log_alpha: list[tuple[Weight, Weight]]
    # (yes, no) log-weights of the correction features.
    corrections: tuple[float, float]
    C: int
    converged: bool = False
    iterations: int = 0
    history: list[tuple[float, float]] = field(default_factory=list)

    def __post_init__(self):
        if len(self.log_alpha) != len(self.registry):
            raise ValueError(
                f"{len(self.log_alpha)} weight pairs for {len(self.registry)} predicates"
            )

    @cached_property
    def scores(self) -> Scores:
        """The per-slot scores ``decide`` reads, built on first use;
        not part of the file or the fingerprint, and valid as long as the
        weights are not edited after the first decision."""
        return _slot_scores(self)

    @property
    def fingerprint(self) -> str:
        """SHA-256 of the serialised template set, C, cutoff, registry (keys,
        counts, weights), resources and corrections."""
        return _digest(_body(self))


def merge_events(raw: Iterable[tuple[tuple[int, ...], bool]]) -> list[TrainingEvent]:
    """Merge identical (context, outcome) events into multiplicities, in
    first-occurrence order; GIS orders the contexts itself."""
    return [TrainingEvent(*event, n) for event, n in Counter(raw).items()]


def conditional_yes(model: Model, active_predicates: Sequence[int]) -> float:
    """p(yes|c), the one scoring path for decisions.

    Each outcome sums its fitted log-weights in ascending predicate order and
    then adds its correction weight times max(C - n, 0), n being the number
    of fitted features it summed.
    """
    ly = ln_ = 0.0
    n_yes = n_no = 0
    log_alpha = model.log_alpha
    for p in active_predicates:
        w_yes, w_no = log_alpha[p]
        if w_yes is not None:
            ly += w_yes
            n_yes += 1
        if w_no is not None:
            ln_ += w_no
            n_no += 1
    c_yes, c_no = model.corrections
    ly += max(model.C - n_yes, 0) * c_yes
    ln_ += max(model.C - n_no, 0) * c_no
    # Logistic of the log-odds keeps this in (0, 1).
    return 1.0 / (1.0 + math.exp(min(ln_ - ly, 700.0)))


def classify(model: Model, active_predicates: Sequence[int]) -> bool:
    """Boundary iff p(yes|c) > 0.5 strictly."""
    return conditional_yes(model, active_predicates) > 0.5


class Scores(NamedTuple):
    """A model's decisions as sums over the candidates' slots.

    While at most C fitted features per outcome are summed, the log-odds
    ln - ly of ``conditional_yes`` are the base C·(c_no - c_yes) plus the
    sum over the active predicates of d = (w_no - c_no) - (w_yes - c_yes),
    where an unfitted weight adds neither itself nor its correction. Each
    predicate reads one slot, so a slot value has one score, a complex
    number: the sum of its predicates' d, and the number of its predicates
    that have a yes or a no weight. One chain of additions sums both parts.
    A count of at most C bounds both outcomes' fitted features, so a
    candidate whose count is at most C is surely a boundary if its sum is
    below ``low`` and surely not from ``high`` on; these lie a margin below
    and above -base."""

    slots: SlotMemos | SlotTables  # slot value -> score, from ``PredicateRegistry.lookups``
    low: float
    high: float


def _slot_scores(model: Model) -> Scores:
    registry, C = model.registry, model.C
    c_yes, c_no = model.corrections
    score = [
        complex((0.0 if w_no is None else w_no - c_no) - (0.0 if w_yes is None else w_yes - c_yes),
                w_yes is not None or w_no is not None)
        for w_yes, w_no in model.log_alpha
    ]
    # The margin. Let u = 2**-53 and W >= 1 bound every |weight| and
    # |correction|, with at most C fitted features per outcome.
    # ``conditional_yes`` sums at most C + 1 terms per outcome, of absolute sum
    # at most C·W, and subtracts: its ln - ly lies within 2·(C + 2)·C·u·W of
    # the exact log-odds. A sum of slot scores, in whatever order its slots
    # and predicates give, adds at most 4·C terms (fitted weights and their
    # corrections) of absolute sum at most 4·C·W, so it lies within
    # 16·C**2·u·W of its exact value, and ``low`` and ``high`` within
    # 6·C·u·W + u·margin of theirs. In floats, 1/(1 + exp(x)) > 0.5 holds for
    # x <= -2**-49 and fails for x >= 0. So a sum further than
    # 2**-47·(C + 4)**2·W from -base has the sign that decides in
    # ``conditional_yes``; the margin is 2**7 times that.
    # Weights large enough for a sum to overflow leave no sum sure.
    fitted = filter(partial(is_not, None), chain(model.corrections, *model.log_alpha))
    scale = (C + 4) ** 2 * max(1.0, max(map(abs, fitted)))
    margin = scale * 2.0**-40 if scale < 2.0**1000 else math.inf
    base = C * (c_no - c_yes)
    return Scores(registry.lookups(score, 0j), -base - margin, -base + margin)


def decide(model: Model, c: Candidates) -> list[bool]:
    """The model's decision on each candidate, the one ``classify`` gives:
    from the sum of its slot scores where that sum is sure (``Scores``), and
    from ``classify`` on its ``features.encode`` encoding where it is not."""
    scores = model.scores
    sums = list(scores.slots.sums(c, 0j))
    odds = list(map(_REAL, sums))
    decisions = list(map(scores.low.__gt__, odds))
    maybe = list(map(scores.high.__gt__, odds))
    C = float(model.C)
    if decisions != maybe or max(map(_IMAG, sums), default=0.0) > C:
        # The candidates between low and high, or with more fitted predicates than C.
        unsure = map(or_, map(ne, decisions, maybe), map(C.__lt__, map(_IMAG, sums)))
        for row in list(compress(count(), unsure)):
            cand = Candidate(*(getattr(c, f.name)[row] for f in fields(c)))
            decisions[row] = classify(model, features.encode(cand, model.registry))
    return decisions


def train_gis(
    events: Sequence[TrainingEvent],
    registry: PredicateRegistry,
    *,
    max_iters: int = DEFAULT_MAX_ITERS,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Model:
    """Fit alphas by GIS: alpha_j <- alpha_j * (empirical_j/expected_j)^(1/C).

    Stops when the max relative constraint violation drops below ``tolerance``
    or after ``max_iters`` updates. The per-iteration (log-likelihood,
    violation) trace is kept on the model.
    """
    from . import gis

    prob = gis.Problem(events, registry)
    converged, iterations, history = prob.fit(max_iters, tolerance)
    (theta, active), C = prob.weights(), prob.C
    # The buffers would otherwise add to the peak memory of building the model.
    del prob
    return Model(
        registry=registry,
        log_alpha=[
            tuple(w[p] if a[p] else None for w, a in zip(theta, active))
            for p in range(len(registry))
        ],
        # An inactive correction column stays at 0.0, so it adds nothing.
        corrections=(theta[0][-2], theta[1][-1]),
        C=C,
        converged=converged,
        iterations=iterations,
        history=history,
    )


def check_constraints(model: Model, events: Sequence[TrainingEvent]) -> float:
    """Max over features of |expected - empirical| / max(empirical, floor),
    with p(yes|c) of each context from ``conditional_yes``."""
    if not events:
        return 0.0
    from . import gis

    prob = gis.Problem(events, model.registry)
    if prob.C != model.C:
        # Constraint checks must use the model's own correction geometry.
        raise TrainingError(
            f"event set implies C={prob.C} but model has C={model.C}"
        )
    prob.p_yes[:] = [conditional_yes(model, ctx) for ctx in prob.contexts]
    prob.expectations()
    return prob.violation()


# ----------------------------------------------------------------------------
# Model persistence: versioned text format with bit-exact float round trip.
#
#   sentbound-model v2
#   fingerprint <sha256 of the lines from template_set to the corrections>
#   converged 0|1
#   iterations N
#   template_set best|portable
#   C N
#   cutoff N
#   [registry] N        then N rows: index, count, key, yes-weight, no-weight
#   [abbreviations] N   then N entries, sorted
#   [honorifics] N      likewise
#   [designators] N     likewise
#   [corrections]       then "yes <weight>" and "no <weight>"
#   [end]
#
# Fields are tab-separated; weights are float.hex() or "-" where absent.

def _weight_text(w: Weight) -> str:
    return "-" if w is None else w.hex()


def _body(model: Model) -> list[str]:
    registry = model.registry
    templates = registry.templates
    lines = [
        f"template_set {templates.name}",
        f"C {model.C}",
        f"cutoff {registry.cutoff}",
        f"[registry] {len(registry)}",
    ]
    for i, (key, count, (w_yes, w_no)) in enumerate(
        zip(registry.keys, registry.counts, model.log_alpha)
    ):
        lines.append(f"{i}\t{count}\t{key}\t{_weight_text(w_yes)}\t{_weight_text(w_no)}")
    for resource in RESOURCES:
        entries = sorted(getattr(templates, resource))
        lines += [f"[{resource}] {len(entries)}", *entries]
    lines.append("[corrections]")
    lines.extend(f"{b}\t{w.hex()}" for b, w in zip(_CORRECTION_TAGS, model.corrections))
    return lines


def _digest(body: list[str]) -> str:
    return hashlib.sha256("\n".join(body).encode("utf-8")).hexdigest()


def save_model(model: Model, path: str | Path) -> None:
    body = _body(model)
    lines = [
        _HEADER,
        f"fingerprint {_digest(body)}",
        f"converged {int(model.converged)}",
        f"iterations {model.iterations}",
        *body,
        "[end]",
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> Model:
    """Read a v2 model file. Any damage raises ModelFormatError; so does a
    file whose fingerprint does not match what it holds, whose registry
    names a predicate twice, or that holds a value ``save_model`` never
    writes: a non-finite weight or correction, C below 1 or above the
    registry's size (1 for an empty registry), a cutoff below 1, a negative
    iteration count or section count, a predicate count below 1, an integer
    that ``str`` spells otherwise (``+5``, ``05``), a resource section whose
    entries are not strictly increasing, or a line after the end marker."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{path}: model file is not UTF-8: {exc}") from None
    lines = text.splitlines()
    read = 0  # lines read so far

    def next_line() -> str:
        nonlocal read
        if read == len(lines):
            raise ModelFormatError(f"{path}: truncated model file")
        read += 1
        return lines[read - 1]

    def integer(name: str, text: str, low: int) -> int:
        # At least ``low`` and spelled as ``str`` spells it, as ``save_model``
        # writes it: a value spelled otherwise would save back as other bytes.
        value = int(text)
        if value < low:
            raise ModelFormatError(f"{path}: {name} {text} is below {low}")
        if str(value) != text:
            raise ModelFormatError(f"{path}: {name} {text!r} is not spelled as str spells it")
        return value

    def header_field(name: str) -> str:
        line = next_line()
        key, sep, value = line.partition(" ")
        if key != name or not sep:
            raise ModelFormatError(f"{path}: expected header field {name!r}, got {line!r}")
        return value

    def section(tag: str) -> list[str]:
        line = next_line()
        head, _, size = line.partition(" ")
        if head != tag:
            raise ModelFormatError(f"{path}: expected section {tag}, got {line!r}")
        return [next_line() for _ in range(integer(f"{tag} count", size, 0))]

    def entries(tag: str) -> frozenset[str]:
        # Sorted and without repeats, as ``save_model`` writes them: a set
        # written any other way would save back with other bytes.
        lines = section(tag)
        if any(map(ge, lines, lines[1:])):
            raise ModelFormatError(f"{path}: {tag} entries are not strictly increasing")
        return frozenset(lines)

    def weight(text: str) -> Weight:
        if text == "-":
            return None
        w = float.fromhex(text)
        if not math.isfinite(w):
            raise ModelFormatError(f"{path}: weight {text!r} is not finite")
        return w

    header = next_line()
    if header != _HEADER:
        if header.startswith("sentbound-model v"):
            raise ModelFormatError(
                f"{path}: model format {header.rpartition(' ')[2]} is not supported "
                f"(this version reads v{MODEL_FORMAT_VERSION}); retrain the model"
            )
        raise ModelFormatError(f"{path}: not a sentbound model file: {header!r}")
    try:
        fingerprint = header_field("fingerprint")
        converged = header_field("converged")
        if converged not in ("0", "1"):
            raise ModelFormatError(f"{path}: bad converged flag {converged!r}")
        iterations = integer("iterations", header_field("iterations"), 0)
        template_set = header_field("template_set")
        C = integer("C", header_field("C"), 1)
        cutoff = integer("cutoff", header_field("cutoff"), 1)
        keys, counts, log_alpha = [], [], []
        for i, row in enumerate(section("[registry]")):
            parts = row.split("\t")
            if len(parts) != 5 or parts[0] != str(i):
                raise ModelFormatError(f"{path}: bad registry row {i}: {row!r}")
            count = int(parts[1])  # ``integer``'s checks, inlined for speed
            if count < 1 or str(count) != parts[1]:
                integer(f"registry row {i} count", parts[1], 1)  # raises
            counts.append(count)
            keys.append(parts[2])
            log_alpha.append((weight(parts[3]), weight(parts[4])))
        resources = {name: entries(f"[{name}]") for name in RESOURCES}
        if next_line() != "[corrections]":
            raise ModelFormatError(f"{path}: missing corrections section")
        corrections = []
        for b in _CORRECTION_TAGS:
            name, _, value = next_line().partition("\t")
            if name != b or value == "-":
                raise ModelFormatError(f"{path}: bad correction row for {b}")
            corrections.append(weight(value))
        if next_line() != "[end]":
            raise ModelFormatError(f"{path}: missing end marker")
        if read < len(lines):
            raise ModelFormatError(f"{path}: line {read + 1} follows the end marker")
        registry = PredicateRegistry(Templates(template_set, **resources), keys, counts, cutoff)
        # C is the most fitted features any context has, at most one per predicate.
        if C > max(len(registry), 1):
            raise ModelFormatError(f"{path}: C {C} is above the number of predicates")
    except (ValueError, OverflowError, FeatureError) as exc:
        raise ModelFormatError(f"{path}: malformed model file: {exc}") from exc
    # The lines from template_set to the last correction row, as read.
    if _digest(lines[4 : read - 1]) != fingerprint:
        raise ModelFormatError(f"{path}: fingerprint mismatch (corrupt or edited file)")
    return Model(
        registry=registry,
        log_alpha=log_alpha,
        corrections=tuple(corrections),
        C=C,
        converged=converged == "1",
        iterations=iterations,
    )
