"""Maximum entropy model over (outcome, context) with Generalized Iterative
Scaling training.

Binary features pair one contextual predicate with one outcome. Training is
conditional GIS: expectations are taken over outcomes given each observed
context, so the joint model's normaliser cancels and is not stored. A
per-outcome correction (slack) feature absorbs C minus the active-feature
count, as GIS's constant-sum condition requires.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .corpus import NO, YES
from .features import TEMPLATE_SETS, PredicateRegistry, ResourceLexicons

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

    template_set: str
    registry: PredicateRegistry
    # (yes, no) log-weights per registry predicate; None where GIS fitted no
    # feature for that predicate and outcome.
    log_alpha: list[tuple[Weight, Weight]]
    # (yes, no) log-weights of the correction features.
    corrections: tuple[float, float]
    C: int
    abbreviations: frozenset[str] = frozenset()  # portable: the induced list
    lexicons: Optional[ResourceLexicons] = None  # best: honorifics, designators
    converged: bool = False
    iterations: int = 0
    history: list[tuple[float, float]] = field(default_factory=list)

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
    """Vectorized training state: one row per distinct context, one column per
    (predicate, outcome) feature plus the two correction columns."""

    def __init__(self, events: Sequence[TrainingEvent], registry: PredicateRegistry):
        if not events:
            raise TrainingError("no training events")
        n_preds = len(registry)
        contexts: dict[tuple[int, ...], dict[str, int]] = {}
        for ev in events:
            if ev.multiplicity < 1:
                raise TrainingError("event multiplicity must be >= 1")
            if any(p < 0 or p >= n_preds for p in ev.active_predicates):
                raise TrainingError("event references predicate outside registry")
            slot = contexts.setdefault(ev.active_predicates, {YES: 0, NO: 0})
            slot[ev.outcome] += ev.multiplicity
        # Canonical ordering makes training invariant to event permutation.
        self.contexts = sorted(contexts)
        self.m_yes = np.array([contexts[c][YES] for c in self.contexts], float)
        self.m_no = np.array([contexts[c][NO] for c in self.contexts], float)
        self.m_tot = self.m_yes + self.m_no

        emp_pairs: dict[tuple[int, str], float] = {}
        for ctx in self.contexts:
            slot = contexts[ctx]
            for b in OUTCOMES:
                if slot[b]:
                    for p in ctx:
                        emp_pairs[(p, b)] = emp_pairs.get((p, b), 0.0) + slot[b]
        self.feature_pairs = sorted(emp_pairs)
        self.pair_col = {pair: j for j, pair in enumerate(self.feature_pairs)}
        n_feat = len(self.feature_pairs)
        self.col_yes = n_feat
        self.col_no = n_feat + 1
        n_cols = n_feat + 2

        # Active-feature counts per (context, outcome) determine C.
        n_ctx = len(self.contexts)
        count_b = {b: np.zeros(n_ctx) for b in OUTCOMES}
        for i, ctx in enumerate(self.contexts):
            for b in OUTCOMES:
                count_b[b][i] = sum(1 for p in ctx if (p, b) in emp_pairs)
        max_count = max(
            (int(count_b[b].max()) for b in OUTCOMES if n_ctx), default=0
        )
        self.C = max(max_count, 1)

        self.A = {b: np.zeros((n_ctx, n_cols)) for b in OUTCOMES}
        for i, ctx in enumerate(self.contexts):
            for b in OUTCOMES:
                for p in ctx:
                    col = self.pair_col.get((p, b))
                    if col is not None:
                        self.A[b][i, col] = 1.0
        self.A[YES][:, self.col_yes] = self.C - count_b[YES]
        self.A[NO][:, self.col_no] = self.C - count_b[NO]

        self.empirical = self.A[YES].T @ self.m_yes + self.A[NO].T @ self.m_no
        self.active_cols = self.empirical > 0.0
        self.theta = np.zeros(n_cols)

    def p_yes(self) -> np.ndarray:
        """p(yes|c) per context under the current weights."""
        ly = self.A[YES] @ self.theta
        ln_ = self.A[NO] @ self.theta
        d = ln_ - ly
        return 1.0 / (1.0 + np.exp(np.clip(d, -700.0, 700.0)))

    def expectations(self, p_yes: np.ndarray) -> tuple[np.ndarray, float]:
        """(expected counts, total conditional log-likelihood) given p(yes|c)
        per context."""
        p_no = 1.0 - p_yes
        expected = self.A[YES].T @ (self.m_tot * p_yes) + self.A[NO].T @ (
            self.m_tot * p_no
        )
        with np.errstate(divide="ignore"):
            ll = float(
                np.sum(self.m_yes * np.log(np.maximum(p_yes, 1e-300)))
                + np.sum(self.m_no * np.log(np.maximum(p_no, 1e-300)))
            )
        return expected, ll

    def violation(self, expected: np.ndarray) -> float:
        act = self.active_cols
        if not act.any():
            return 0.0
        denom = np.maximum(self.empirical[act], VIOLATION_FLOOR)
        return float(np.max(np.abs(expected[act] - self.empirical[act]) / denom))

    def update(self, expected: np.ndarray) -> None:
        clamp = DEFAULT_CLAMP
        act = self.active_cols & (expected > 0.0)
        step = np.zeros_like(self.theta)
        step[act] = np.log(self.empirical[act] / expected[act]) / self.C
        # Zero empirical count with positive expectation: push toward -clamp.
        dead = self.active_cols & ~act
        step[dead] = -2.0 * clamp
        self.theta = np.clip(self.theta + step, -clamp, clamp)
        self.theta[~self.active_cols] = 0.0
        if not np.isfinite(self.theta).all():
            bad = int(np.argmax(~np.isfinite(self.theta)))
            name = (
                self.feature_pairs[bad]
                if bad < len(self.feature_pairs)
                else ("correction", OUTCOMES[bad - len(self.feature_pairs)])
            )
            raise TrainingError(f"non-finite parameter for feature {name}")


def train_gis(
    events: Sequence[TrainingEvent],
    registry: PredicateRegistry,
    *,
    template_set: str = "portable",
    abbreviations: frozenset[str] = frozenset(),
    lexicons: Optional[ResourceLexicons] = None,
    max_iters: int = DEFAULT_MAX_ITERS,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Model:
    """Fit alphas by GIS: alpha_j <- alpha_j * (empirical_j/expected_j)^(1/C).

    Stops when the max relative constraint violation drops below ``tolerance``
    or after ``max_iters`` updates. The per-iteration (log-likelihood,
    violation) trace is kept on the model. ``abbreviations`` and ``lexicons``
    are the resources the events were extracted with; the model keeps them.
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

    fitted = {
        pair: float(prob.theta[j])
        for j, pair in enumerate(prob.feature_pairs)
        if prob.active_cols[j]
    }
    return Model(
        template_set=template_set,
        registry=registry,
        log_alpha=[(fitted.get((p, YES)), fitted.get((p, NO))) for p in range(len(registry))],
        # An inactive correction column stays at 0.0, so it adds nothing.
        corrections=(float(prob.theta[prob.col_yes]), float(prob.theta[prob.col_no])),
        C=prob.C,
        abbreviations=abbreviations,
        lexicons=lexicons,
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
    lexicons = model.lexicons or _NO_LEXICONS
    registry = model.registry
    lines = [
        f"template_set {model.template_set}",
        f"C {model.C}",
        f"cutoff {registry.cutoff}",
        f"[registry] {len(registry)}",
    ]
    for i, (key, count, (w_yes, w_no)) in enumerate(
        zip(registry.keys, registry.counts, model.log_alpha)
    ):
        lines.append(f"{i}\t{count}\t{key}\t{_weight_text(w_yes)}\t{_weight_text(w_no)}")
    for tag, entries in (
        ("[abbreviations]", model.abbreviations),
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
        if template_set not in TEMPLATE_SETS:
            raise ModelFormatError(f"{path}: unknown template set {template_set!r}")
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
    except (ValueError, OverflowError) as exc:
        raise ModelFormatError(f"{path}: malformed model file: {exc}") from exc
    model = Model(
        template_set=template_set,
        registry=PredicateRegistry(
            template_set=template_set, keys=keys, counts=counts, cutoff=cutoff
        ),
        log_alpha=log_alpha,
        corrections=tuple(corrections),
        C=C,
        abbreviations=abbreviations,
        lexicons=(
            ResourceLexicons(honorifics, designators) if template_set == "best" else None
        ),
        converged=converged == "1",
        iterations=iterations,
    )
    if model.fingerprint != fingerprint:
        raise ModelFormatError(f"{path}: fingerprint mismatch (corrupt or edited file)")
    return model
