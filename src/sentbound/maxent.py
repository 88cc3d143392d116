"""Maximum entropy model over (outcome, context) with Generalized Iterative
Scaling training.

Binary features pair one contextual predicate with one outcome; the model
keeps one (yes, no) log-weight pair per registry predicate. Training is
conditional GIS: expectations are taken over outcomes given each observed
context, so the joint model's normaliser cancels and is not stored. A
per-outcome correction (slack) feature absorbs C minus the active-feature
count, as GIS's constant-sum condition requires. GIS sums sparse context
entries with ``np.bincount``, not BLAS, so training is machine-independent.
The model's registry carries the template set and its resources, so a model
file holds everything that turns a candidate into a decision.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .corpus import NO, YES
from .features import FeatureError, PredicateRegistry, ResourceLexicons, Templates

OUTCOMES = (YES, NO)

DEFAULT_MAX_ITERS = 100
DEFAULT_TOLERANCE = 1e-3
# GIS keeps every log-weight within [-DEFAULT_CLAMP, DEFAULT_CLAMP].
DEFAULT_CLAMP = 50.0

# Relative constraint violation uses max(empirical, floor) as denominator.
VIOLATION_FLOOR = 1.0

MODEL_FORMAT_VERSION = 2
_HEADER = f"sentbound-model v{MODEL_FORMAT_VERSION}"
_NO_LEXICONS = ResourceLexicons(frozenset(), frozenset())

Weight = Optional[float]


class TrainingError(Exception):
    pass


class ModelFormatError(Exception):
    """Unreadable, truncated, or inconsistent model file."""


@dataclass(frozen=True)
class TrainingEvent:
    active_predicates: tuple[int, ...]
    outcome: str
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
    # Active-predicate tuple -> classify(model, tuple), filled by
    # pipeline.make_classifier; not part of the file or the fingerprint.
    # Valid as long as the weights are not edited after the first decision.
    decisions: dict[tuple[int, ...], bool] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if len(self.log_alpha) != len(self.registry):
            raise ValueError(
                f"{len(self.log_alpha)} weight pairs for {len(self.registry)} predicates"
            )

    @property
    def fingerprint(self) -> str:
        """SHA-256 of the serialised template set, C, cutoff, registry (keys,
        counts, weights), abbreviations, lexicons and corrections."""
        return _digest(_body(self))


def merge_events(raw: Iterable[tuple[tuple[int, ...], str]]) -> list[TrainingEvent]:
    """Merge identical (context, outcome) events into multiplicities."""
    counts: dict[tuple[tuple[int, ...], str], int] = {}
    for active, outcome in raw:
        counts[(active, outcome)] = counts.get((active, outcome), 0) + 1
    return [
        TrainingEvent(active, outcome, mult)
        for (active, outcome), mult in sorted(counts.items())
    ]


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


class _GisProblem:
    """Vectorized training state, indexed as the model is.

    Columns are the registry predicates, then the yes- and no-correction
    columns. A context is a row of flat ``(rows, cols, vals)`` entries: 1 per
    active predicate, then both corrections (C minus the fitted features it
    activates for that outcome), so no row is empty. Sums over contexts are
    ``np.bincount`` calls, in entry order. ``theta`` has one row of log-weights
    per outcome; it stays 0 off the ``active`` (positive empirical count) entries.
    """

    def __init__(self, events: Sequence[TrainingEvent], registry: PredicateRegistry):
        if not events:
            raise TrainingError("no training events")
        n_preds = len(registry)
        contexts: dict[tuple[int, ...], list[int]] = {}
        for ev in events:
            if ev.multiplicity < 1:
                raise TrainingError("event multiplicity must be >= 1")
            active = ev.active_predicates
            # -1 < first < ... < last < n_preds, as features.encode produces them.
            if any(a >= b for a, b in zip((-1, *active), (*active, n_preds))):
                raise TrainingError(
                    f"event predicates {active} must strictly increase within 0..{n_preds - 1}"
                )
            contexts.setdefault(active, [0, 0])[OUTCOMES.index(ev.outcome)] += ev.multiplicity
        # Canonical ordering makes training invariant to event permutation.
        self.contexts = sorted(contexts)
        self.m = np.array([contexts[c] for c in self.contexts], float).T  # (yes, no) x contexts
        self.m_tot = self.m.sum(axis=0)

        n_ctx, n_cols = len(self.contexts), n_preds + 2
        rows = np.repeat(np.arange(n_ctx), [len(c) for c in self.contexts])
        cols = np.fromiter(chain.from_iterable(self.contexts), np.intp)
        seen = np.array([np.bincount(cols, m[rows], n_preds) > 0.0 for m in self.m])
        fitted = np.array([np.bincount(rows, s[cols], n_ctx) for s in seen])  # (yes, no) x contexts
        self.C = max(int(fitted.max()), 1)
        self.rows = np.concatenate([rows, np.tile(np.arange(n_ctx), 2)])
        self.cols = np.concatenate([cols, np.full(n_ctx, n_preds), np.full(n_ctx, n_preds + 1)])
        self.vals = np.concatenate([np.ones(len(cols)), (self.C - fitted).ravel()])
        self.both_cols = np.concatenate([self.cols, self.cols + n_cols])
        self.empirical = self.column_sums(self.m)
        corrections = np.eye(2, dtype=bool) & (self.empirical[:, n_preds:] > 0.0)
        self.active = np.hstack([seen, corrections])
        self.theta = np.zeros((2, n_cols))
        # Never empty: a context fits a feature or a correction for each outcome it has.
        self.empirical_active = self.empirical[self.active]
        self.violation_scale = np.maximum(self.empirical_active, VIOLATION_FLOOR)

    def column_sums(self, per_context: np.ndarray) -> np.ndarray:
        """Per outcome o, the column sums of per_context[o, row] * val; one
        bincount covers both outcomes, with (o, col) at bin o * columns + col."""
        weights = (per_context.take(self.rows, 1) * self.vals).ravel()
        return np.bincount(self.both_cols, weights).reshape(2, -1)

    def p_yes(self) -> np.ndarray:
        """p(yes|c) per context under the current weights."""
        d = np.bincount(self.rows, (self.theta[1] - self.theta[0])[self.cols] * self.vals)
        return 1.0 / (1.0 + np.exp(d.clip(-700.0, 700.0)))

    def expectations(self, p_yes: np.ndarray) -> tuple[np.ndarray, float]:
        """(expected counts, total conditional log-likelihood) given p(yes|c)
        per context."""
        p = np.array([p_yes, 1.0 - p_yes])
        expected = self.column_sums(self.m_tot * p)
        ll = float((self.m * np.log(np.maximum(p, 1e-300))).sum())
        return expected, ll

    def violation(self, expected: np.ndarray) -> float:
        gap = np.abs(expected[self.active] - self.empirical_active)
        return float(np.max(gap / self.violation_scale))

    def update(self, expected: np.ndarray) -> None:
        act = self.active & (expected > 0.0)
        step = np.zeros_like(self.theta)
        step[act] = np.log(self.empirical[act] / expected[act]) / self.C
        # Positive empirical count but zero expectation: push toward -clamp.
        step[self.active & ~act] = -2.0 * DEFAULT_CLAMP
        self.theta = (self.theta + step).clip(-DEFAULT_CLAMP, DEFAULT_CLAMP)
        if not np.isfinite(self.theta).all():
            bad = np.argwhere(~np.isfinite(self.theta))[0].tolist()
            raise TrainingError(f"non-finite parameter at (outcome, column) {bad}")


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
    prob = _GisProblem(events, registry)
    history: list[tuple[float, float]] = []
    converged = False
    iterations = 0
    while True:
        expected, ll = prob.expectations(prob.p_yes())
        viol = prob.violation(expected)
        history.append((ll, viol))
        if viol <= tolerance:
            converged = True
            break
        if iterations >= max_iters:
            break
        prob.update(expected)
        iterations += 1

    theta, active = prob.theta.tolist(), prob.active.tolist()
    return Model(
        registry=registry,
        log_alpha=[
            tuple(w[p] if a[p] else None for w, a in zip(theta, active))
            for p in range(len(registry))
        ],
        # An inactive correction column stays at 0.0, so it adds nothing.
        corrections=(theta[0][-2], theta[1][-1]),
        C=prob.C,
        converged=converged,
        iterations=iterations,
        history=history,
    )


def check_constraints(model: Model, events: Sequence[TrainingEvent]) -> float:
    """Max over features of |expected - empirical| / max(empirical, floor),
    with p(yes|c) of each context from ``conditional_yes``."""
    if not events:
        return 0.0
    prob = _GisProblem(events, model.registry)
    if prob.C != model.C:
        # Constraint checks must use the model's own correction geometry.
        raise TrainingError(
            f"event set implies C={prob.C} but model has C={model.C}"
        )
    p_yes = np.array([conditional_yes(model, ctx) for ctx in prob.contexts])
    expected, _ = prob.expectations(p_yes)
    return prob.violation(expected)


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
    lexicons = templates.lexicons or _NO_LEXICONS
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
    for tag, entries in (
        ("[abbreviations]", templates.abbreviations),
        ("[honorifics]", lexicons.honorifics),
        ("[designators]", lexicons.corporate_designators),
    ):
        lines.append(f"{tag} {len(entries)}")
        lines.extend(sorted(entries))
    lines.append("[corrections]")
    lines.extend(f"{b}\t{w.hex()}" for b, w in zip(OUTCOMES, model.corrections))
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
    file whose fingerprint does not match what it holds."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{path}: model file is not UTF-8: {exc}") from None
    lines = iter(text.splitlines())

    def next_line() -> str:
        line = next(lines, None)
        if line is None:
            raise ModelFormatError(f"{path}: truncated model file")
        return line

    def header_field(name: str) -> str:
        line = next_line()
        key, sep, value = line.partition(" ")
        if key != name or not sep:
            raise ModelFormatError(f"{path}: expected header field {name!r}, got {line!r}")
        return value

    def section(tag: str) -> list[str]:
        line = next_line()
        head, _, count = line.partition(" ")
        if head != tag:
            raise ModelFormatError(f"{path}: expected section {tag}, got {line!r}")
        return [next_line() for _ in range(int(count))]

    def weight(text: str) -> Weight:
        return None if text == "-" else float.fromhex(text)

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
        iterations = int(header_field("iterations"))
        template_set = header_field("template_set")
        C = int(header_field("C"))
        cutoff = int(header_field("cutoff"))
        keys, counts, log_alpha = [], [], []
        for i, row in enumerate(section("[registry]")):
            parts = row.split("\t")
            if len(parts) != 5 or parts[0] != str(i):
                raise ModelFormatError(f"{path}: bad registry row {i}: {row!r}")
            counts.append(int(parts[1]))
            keys.append(parts[2])
            log_alpha.append((weight(parts[3]), weight(parts[4])))
        abbreviations = frozenset(section("[abbreviations]"))
        honorifics = frozenset(section("[honorifics]"))
        designators = frozenset(section("[designators]"))
        if next_line() != "[corrections]":
            raise ModelFormatError(f"{path}: missing corrections section")
        corrections = []
        for b in OUTCOMES:
            name, _, value = next_line().partition("\t")
            if name != b:
                raise ModelFormatError(f"{path}: bad correction row for {b}")
            corrections.append(float.fromhex(value))
        if next_line() != "[end]":
            raise ModelFormatError(f"{path}: missing end marker")
        templates = Templates(
            template_set,
            abbreviations,
            ResourceLexicons(honorifics, designators) if template_set == "best" else None,
        )
    except (ValueError, OverflowError, FeatureError) as exc:
        raise ModelFormatError(f"{path}: malformed model file: {exc}") from exc
    model = Model(
        registry=PredicateRegistry(templates, keys, counts, cutoff),
        log_alpha=log_alpha,
        corrections=tuple(corrections),
        C=C,
        converged=converged == "1",
        iterations=iterations,
    )
    if model.fingerprint != fingerprint:
        raise ModelFormatError(f"{path}: fingerprint mismatch (corrupt or edited file)")
    return model
