"""Conditional GIS over numpy arrays, the only module of the package that
imports numpy; ``maxent.train_gis`` and ``maxent.check_constraints`` import
it when called. Expectations are taken over outcomes given each context, so
the joint normaliser cancels. Sums over contexts are ``np.bincount`` calls in
a fixed entry order, not BLAS, so no thread count or event order changes a
result. The CPU can: ``np.exp`` and ``np.log`` follow numpy's SIMD kernels
(AVX-512 and AVX2 gave weights up to 4.0e-15 apart), so the weights, the
corrections and the fingerprint may differ in their last bits. Keys, counts,
C, cutoff, resources and iteration count are exact on every CPU, and so were
the decisions on every set tested.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Sequence

import numpy as np

from .features import PredicateRegistry
from .maxent import DEFAULT_CLAMP, OUTCOMES, VIOLATION_FLOOR, TrainingError, TrainingEvent


class Problem:
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
            # -1 < first < ... < last < n_preds, as features.encode gives them.
            if any(a >= b for a, b in zip((-1, *active), (*active, n_preds))):
                raise TrainingError(
                    f"event predicates {active} must strictly increase within 0..{n_preds - 1}"
                )
            # Equal contexts add up: training's merged key contexts may encode alike.
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
        """One GIS step, under ``fit``'s ``np.errstate(divide="ignore")``: a
        zero expectation divides by zero before its step is replaced."""
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

    def fit(self, max_iters: int, tolerance: float) -> tuple[bool, int, list[tuple[float, float]]]:
        """Iterate GIS until the violation is at most ``tolerance`` or after
        ``max_iters`` updates: (converged, iterations, the (log-likelihood,
        violation) of each pass)."""
        history: list[tuple[float, float]] = []
        with np.errstate(divide="ignore"):
            while True:
                self.predict()
                history.append((self.expectations(), self.violation()))
                converged = history[-1][1] <= tolerance
                if converged or len(history) > max_iters:
                    return converged, len(history) - 1, history
                self.update()

    def weights(self) -> tuple[list[list[float]], list[list[bool]]]:
        """As lists: (yes, no) x columns log-weights, 0 off the fitted
        features, and ``active``."""
        return self.theta_ext.take(self.position).tolist(), self.active.tolist()
