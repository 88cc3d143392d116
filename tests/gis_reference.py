"""Reference GIS: the per-iteration arithmetic over the full (outcome, column)
grid, with 2-D boolean masks and freshly allocated arrays, that
``sentbound.maxent`` computed before it iterated on the fitted features only.
``maxent.train_gis`` must reproduce it bit for bit.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from sentbound.maxent import DEFAULT_CLAMP, OUTCOMES, VIOLATION_FLOOR


class ReferenceGis:
    """Training state over (yes, no) x columns: the registry predicates, then
    the yes- and no-correction columns. ``theta`` stays 0 off ``active``."""

    def __init__(self, events, n_preds):
        contexts = {}
        for ev in events:
            contexts.setdefault(ev.active_predicates, [0, 0])[
                OUTCOMES.index(ev.outcome)
            ] += ev.multiplicity
        self.contexts = sorted(contexts)
        self.m = np.array([contexts[c] for c in self.contexts], float).T
        self.m_tot = self.m.sum(axis=0)
        n_ctx, n_cols = len(self.contexts), n_preds + 2
        rows = np.repeat(np.arange(n_ctx), [len(c) for c in self.contexts])
        cols = np.fromiter(chain.from_iterable(self.contexts), np.intp)
        seen = np.array([np.bincount(cols, m[rows], n_preds) > 0.0 for m in self.m])
        fitted = np.array([np.bincount(rows, s[cols], n_ctx) for s in seen])
        self.C = max(int(fitted.max()), 1)
        self.rows = np.concatenate([rows, np.tile(np.arange(n_ctx), 2)])
        self.cols = np.concatenate([cols, np.full(n_ctx, n_preds), np.full(n_ctx, n_preds + 1)])
        self.vals = np.concatenate([np.ones(len(cols)), (self.C - fitted).ravel()])
        self.both_cols = np.concatenate([self.cols, self.cols + n_cols])
        self.empirical = self.column_sums(self.m)
        corrections = np.eye(2, dtype=bool) & (self.empirical[:, n_preds:] > 0.0)
        self.active = np.hstack([seen, corrections])
        self.theta = np.zeros((2, n_cols))
        self.empirical_active = self.empirical[self.active]
        self.violation_scale = np.maximum(self.empirical_active, VIOLATION_FLOOR)
        self.zero_expectation_steps = 0

    def column_sums(self, per_context):
        weights = (per_context.take(self.rows, 1) * self.vals).ravel()
        return np.bincount(self.both_cols, weights).reshape(2, -1)

    def p_yes(self):
        d = np.bincount(self.rows, (self.theta[1] - self.theta[0])[self.cols] * self.vals)
        return 1.0 / (1.0 + np.exp(d.clip(-700.0, 700.0)))

    def expectations(self, p_yes):
        p = np.array([p_yes, 1.0 - p_yes])
        expected = self.column_sums(self.m_tot * p)
        ll = float((self.m * np.log(np.maximum(p, 1e-300))).sum())
        return expected, ll

    def violation(self, expected):
        gap = np.abs(expected[self.active] - self.empirical_active)
        return float(np.max(gap / self.violation_scale))

    def update(self, expected):
        act = self.active & (expected > 0.0)
        step = np.zeros_like(self.theta)
        step[act] = np.log(self.empirical[act] / expected[act]) / self.C
        zero = self.active & ~act
        self.zero_expectation_steps += int(zero.sum())
        step[zero] = -2.0 * DEFAULT_CLAMP
        self.theta = (self.theta + step).clip(-DEFAULT_CLAMP, DEFAULT_CLAMP)
        assert np.isfinite(self.theta).all()


def reference_train(events, n_preds, max_iters, tolerance):
    """(fields of the model ``train_gis`` should build, the reference state)."""
    ref = ReferenceGis(events, n_preds)
    history, converged, iterations = [], False, 0
    while True:
        expected, ll = ref.expectations(ref.p_yes())
        viol = ref.violation(expected)
        history.append((ll, viol))
        if viol <= tolerance:
            converged = True
            break
        if iterations >= max_iters:
            break
        ref.update(expected)
        iterations += 1
    theta, active = ref.theta.tolist(), ref.active.tolist()
    fields = {
        "history": history,
        "log_alpha": [
            tuple(w[p] if a[p] else None for w, a in zip(theta, active)) for p in range(n_preds)
        ],
        "corrections": (theta[0][-2], theta[1][-1]),
        "C": ref.C,
        "iterations": iterations,
        "converged": converged,
    }
    return fields, ref
