"""Maximum entropy model over (outcome, context) with Generalized Iterative
Scaling training.

An outcome is a bool, True (yes) iff the mark ends a sentence. Binary
features pair one contextual predicate with one outcome; the model keeps one
(yes, no) log-weight pair per registry predicate. Training is conditional
GIS: expectations are taken over outcomes given each observed context, so
the joint model's normaliser cancels and is not stored. A per-outcome
correction (slack) feature absorbs C minus the active-feature count, as
GIS's constant-sum condition requires. GIS sums sparse context entries with
``np.bincount``, not BLAS, so training is machine-independent. A model file
holds everything that turns a candidate into a decision: the registry's
``features.Templates`` value owns its ``features.RESOURCES`` sections.
"""

from __future__ import annotations

import hashlib
import math
import weakref
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .features import RESOURCES, FeatureError, Memo, PredicateRegistry, Templates

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
    # Memo of active-predicate tuple -> classify(model, tuple), filled by
    # pipeline.decide and pipeline.make_classifier; not part of the file or
    # the fingerprint.
    # Valid as long as the weights are not edited after the first decision.
    decisions: Memo = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.log_alpha) != len(self.registry):
            raise ValueError(
                f"{len(self.log_alpha)} weight pairs for {len(self.registry)} predicates"
            )
        # A proxy, so the memo does not keep its model alive in a cycle.
        model = weakref.proxy(self)
        self.decisions = Memo(lambda active: classify(model, active))

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


class _GisProblem:
    """Vectorized training state, indexed as the model is.

    Columns are the registry predicates, then the yes- and no-correction
    columns. A context is a row of flat ``(rows, cols)`` entries: one of value
    1 per active predicate, then, after every context's predicate entries,
    both corrections (value C minus the fitted features it activates for that
    outcome), so no row is empty. ``active`` marks the fitted (outcome,
    column) features, those with a positive empirical count; ``theta``, the
    empirical counts, the violation scale and the expected counts hold one
    value per fitted feature, in ``active``'s row-major order.

    Each iteration writes into buffers made here: ``predict`` fills
    ``p[0]`` with p(yes|c) per context, ``expectations`` the expected counts
    and the log-likelihood, ``update`` the GIS step. Sums over contexts are
    ``np.bincount`` calls in entry order (the two arrays an iteration makes),
    so each sum adds the same terms in the same order as a sum over the full
    (outcome, column) grid.
    """

    def __init__(self, events: Sequence[TrainingEvent], registry: PredicateRegistry):
        if not events:
            raise TrainingError("no training events")
        n_preds = len(registry)
        contexts: dict[tuple[int, ...], list[int]] = {}
        for ev in events:
            if ev.multiplicity < 1:
                raise TrainingError("event multiplicity must be >= 1")
            # Not ``in OUTCOMES``, which 1, 0 and 1.0 would pass.
            if type(ev.outcome) is not bool:
                raise TrainingError(f"event outcome {ev.outcome!r} is not a bool")
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
        # Build temporaries are dropped once used: the build sets GIS's peak memory.
        del contexts

        n_ctx, n_cols = len(self.contexts), n_preds + 2
        self.n_cols = n_cols
        rows = np.repeat(np.arange(n_ctx), [len(c) for c in self.contexts])
        cols = np.fromiter(chain.from_iterable(self.contexts), np.intp)
        seen = np.array([np.bincount(cols, m[rows], n_preds) > 0.0 for m in self.m])
        fitted = np.array([np.bincount(rows, s[cols], n_ctx) for s in seen])  # (yes, no) x contexts
        self.C = max(int(fitted.max()), 1)
        n_pred_entries = len(cols)
        self.rows = np.concatenate([rows, np.tile(np.arange(n_ctx), 2)])
        self.cols = np.concatenate([cols, np.full(n_ctx, n_preds), np.full(n_ctx, n_preds + 1)])
        del rows, cols
        self.correction_vals = (self.C - fitted).ravel()
        vals = np.concatenate([np.ones(n_pred_entries), self.correction_vals])
        empirical = np.array([np.bincount(self.cols, m[self.rows] * vals, n_cols) for m in self.m])
        del vals
        corrections = np.eye(2, dtype=bool) & (empirical[:, n_preds:] > 0.0)
        self.active = np.hstack([seen, corrections])

        # Never empty: a context fits a feature or a correction for each outcome it has.
        self.active_idx = np.flatnonzero(self.active)
        n_active = len(self.active_idx)
        # Position of each (outcome, column) in the fitted vectors; unfitted
        # ones point at theta_ext's last element, which stays 0.
        self.position = np.full((2, n_cols), n_active)
        self.position.flat[self.active_idx] = np.arange(n_active)
        self.theta_ext = np.zeros(n_active + 1)
        self.theta = self.theta_ext[:-1]
        self.empirical = empirical.ravel()[self.active_idx]
        self.violation_scale = np.maximum(self.empirical, VIOLATION_FLOOR)

        # x * 1.0 == x, so only the correction entries, which come last, are
        # multiplied by their values. expectations sums over the (entry,
        # outcome) pairs of fitted features in entry order, each bin's order,
        # so their correction pairs come last too.
        entry, outcome = np.nonzero(self.active[:, self.cols].T)
        n_fit_preds = int(np.searchsorted(entry, n_pred_entries))
        self.fit_correction_vals = self.correction_vals[entry[n_fit_preds:] - n_pred_entries]
        self.fit_bins = self.position[outcome, self.cols[entry]]
        self.fit_rows = self.rows[entry]
        self.fit_rows += np.multiply(outcome, n_ctx, out=outcome)
        del entry, outcome
        self.fit_weights = np.empty(len(self.fit_rows))
        self.fit_correction_weights = self.fit_weights[n_fit_preds:]
        self.column_theta = np.empty((2, n_cols))
        self.column_yes, self.column_no = self.column_theta
        self.column_diff = np.empty(n_cols)
        self.entry_diff = np.empty(len(self.rows))
        self.correction_diff = self.entry_diff[n_pred_entries:]
        self.p = np.empty((2, n_ctx))
        self.p_yes, self.p_no = self.p
        self.work = np.empty((2, n_ctx))
        self.work_flat = self.work.reshape(-1)
        self.expected = np.zeros(n_active)
        self.gap = np.empty(n_active)
        self.step = np.empty(n_active)

    def predict(self) -> None:
        """Fill ``p_yes`` with p(yes|c) per context under the current weights."""
        self.theta_ext.take(self.position, out=self.column_theta, mode="clip")
        np.subtract(self.column_no, self.column_yes, out=self.column_diff)
        d = self.column_diff.take(self.cols, out=self.entry_diff, mode="clip")
        np.multiply(self.correction_diff, self.correction_vals, out=self.correction_diff)
        d = np.bincount(self.rows, d, len(self.p_yes))
        np.maximum(d, -700.0, out=d)
        np.minimum(d, 700.0, out=d)
        np.exp(d, out=d)
        np.add(d, 1.0, out=d)
        np.divide(1.0, d, out=self.p_yes)

    def expectations(self) -> float:
        """Fill ``expected`` from ``p_yes``; return the total conditional
        log-likelihood."""
        p = self.p
        np.subtract(1.0, self.p_yes, out=self.p_no)
        np.multiply(p, self.m_tot, out=self.work)
        w = self.work_flat.take(self.fit_rows, out=self.fit_weights, mode="clip")
        tail = self.fit_correction_weights
        np.multiply(tail, self.fit_correction_vals, out=tail)
        self.expected = np.bincount(self.fit_bins, w, len(self.expected))
        log_p = np.maximum(p, 1e-300, out=self.work)
        np.log(log_p, out=log_p)
        np.multiply(self.m, log_p, out=log_p)
        return float(np.add.reduce(log_p, axis=None))

    def violation(self) -> float:
        gap = np.subtract(self.expected, self.empirical, out=self.gap)
        np.absolute(gap, out=gap)
        np.divide(gap, self.violation_scale, out=gap)
        return float(np.maximum.reduce(gap))

    def update(self) -> None:
        """One GIS step, under ``np.errstate(divide="ignore")``: a zero
        expectation divides by zero before its step is replaced."""
        expected, step, theta = self.expected, self.step, self.theta
        np.divide(self.empirical, expected, out=step)
        np.log(step, out=step)
        np.divide(step, self.C, out=step)
        # A finite step is below 1,500 in magnitude, so the sum is finite
        # exactly when every step is.
        finite = math.isfinite(np.add.reduce(step))
        if not finite:
            # Positive empirical count but zero expectation: push toward -clamp.
            step[~(expected > 0.0)] = -2.0 * DEFAULT_CLAMP
        np.add(theta, step, out=theta)
        np.maximum(theta, -DEFAULT_CLAMP, out=theta)
        np.minimum(theta, DEFAULT_CLAMP, out=theta)
        # The clamp leaves NaN as the only non-finite value.
        if not finite and np.isnan(theta).any():
            bad = self.active_idx[np.flatnonzero(np.isnan(theta))[0]]
            raise TrainingError(
                f"non-finite parameter at (outcome, column) {list(divmod(int(bad), self.n_cols))}"
            )

    def weights(self) -> np.ndarray:
        """(yes, no) x columns log-weights, 0 off the fitted features."""
        return self.theta_ext.take(self.position)


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
    with np.errstate(divide="ignore"):
        while True:
            prob.predict()
            ll = prob.expectations()
            viol = prob.violation()
            history.append((ll, viol))
            if viol <= tolerance:
                converged = True
                break
            if iterations >= max_iters:
                break
            prob.update()
            iterations += 1

    theta, active, C = prob.weights().tolist(), prob.active.tolist(), prob.C
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
    prob = _GisProblem(events, model.registry)
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
    names a predicate twice, or that holds a value GIS never gives: a
    non-finite weight or correction, or C below 1."""
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
        iterations = int(header_field("iterations"))
        template_set = header_field("template_set")
        C = int(header_field("C"))
        if C < 1:
            raise ModelFormatError(f"{path}: C {C} is below 1")
        cutoff = int(header_field("cutoff"))
        keys, counts, log_alpha = [], [], []
        for i, row in enumerate(section("[registry]")):
            parts = row.split("\t")
            if len(parts) != 5 or parts[0] != str(i):
                raise ModelFormatError(f"{path}: bad registry row {i}: {row!r}")
            counts.append(int(parts[1]))
            keys.append(parts[2])
            log_alpha.append((weight(parts[3]), weight(parts[4])))
        resources = {name: frozenset(section(f"[{name}]")) for name in RESOURCES}
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
        registry = PredicateRegistry(Templates(template_set, **resources), keys, counts, cutoff)
    except (ValueError, OverflowError, FeatureError) as exc:
        raise ModelFormatError(f"{path}: malformed model file: {exc}") from exc
    model = Model(
        registry=registry,
        log_alpha=log_alpha,
        corrections=tuple(corrections),
        C=C,
        converged=converged == "1",
        iterations=iterations,
    )
    if model.fingerprint != fingerprint:
        raise ModelFormatError(f"{path}: fingerprint mismatch (corrupt or edited file)")
    return model
