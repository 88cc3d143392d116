"""Independent maximum-likelihood oracle for small event sets.

Fits the conditional log-linear family directly by numerical optimization of
the negative log-likelihood (scipy BFGS), with no shared code with the GIS
trainer. Parameters are the per-predicate log-odds deltas plus one delta for
the correction feature value (C - |context|). Only valid for corpora where
every predicate occurs with both outcomes, so the per-outcome active-feature
counts coincide.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize


def ml_conditionals(events):
    """events: list of (active_predicate_tuple, outcome, multiplicity).

    Returns {context_tuple: ml_p_yes}.
    """
    preds = sorted({p for active, _, _ in events for p in active})
    col = {p: j for j, p in enumerate(preds)}
    contexts = sorted({active for active, _, _ in events})
    C = max((len(c) for c in contexts), default=0) or 1

    X = np.zeros((len(contexts), len(preds) + 1))
    for i, ctx in enumerate(contexts):
        for p in ctx:
            X[i, col[p]] = 1.0
        X[i, -1] = C - len(ctx)
    m_yes = np.zeros(len(contexts))
    m_no = np.zeros(len(contexts))
    ctx_row = {c: i for i, c in enumerate(contexts)}
    for active, outcome, mult in events:
        if outcome is True:
            m_yes[ctx_row[active]] += mult
        else:
            m_no[ctx_row[active]] += mult

    def nll(theta):
        z = X @ theta
        # log(1+e^-z) and log(1+e^z), numerically stable
        return float(
            np.sum(m_yes * np.logaddexp(0.0, -z)) + np.sum(m_no * np.logaddexp(0.0, z))
        )

    res = minimize(nll, np.zeros(X.shape[1]), method="BFGS", options={"gtol": 1e-10})
    z = X @ res.x
    p = 1.0 / (1.0 + np.exp(-z))
    return {ctx: float(p[i]) for ctx, i in ctx_row.items()}


def grid_conditional_single_predicate(n_yes, n_no, grid=None):
    """Brute-force ML fit for a corpus where one predicate fires in every
    event: scan p over a fine grid and maximize the likelihood directly."""
    if grid is None:
        grid = np.linspace(1e-4, 1 - 1e-4, 19999)
    ll = n_yes * np.log(grid) + n_no * np.log(1 - grid)
    return float(grid[np.argmax(ll)])
