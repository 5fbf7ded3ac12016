"""Best-worst-case and elimination rules as first written, kept as references.

The policies now share list-based helpers; these are verbatim copies of the
dict- and numpy-based rules they replaced.
"""

import math

import numpy as np


def rrdb_survivors(bounds, active):
    """RrDbDelay._eliminate: bounds keyed by (i, j)."""
    survivors = [
        i
        for i in active
        if not any(bounds[(i, j)] < 0.5 for j in active if j != i)
    ]
    if not survivors:
        keep = max(
            active,
            key=lambda i: min(bounds[(i, j)] for j in active if j != i),
        )
        survivors = [keep]
    return survivors


def mrr_end_round(means, active, gamma):
    """MrrDbDelay.end_round: (eliminated, survivors, rescued); means keyed by (i, j)."""
    eliminated = {
        i
        for i in active
        if any(means[(i, j)] + gamma < 0.5 for j in active if j != i)
    }
    rescued = False
    if eliminated == set(active):
        keep = max(
            active,
            key=lambda i: min(means[(i, j)] for j in active if j != i),
        )
        eliminated.discard(keep)
        rescued = True
    return eliminated, [i for i in active if i not in eliminated], rescued


def best_worst_case_lcb(ucb):
    """declared_winner fallback: argmax_i min_{j != i} (1 - U_ji), lowest index on ties."""
    lcb = 1.0 - ucb.T
    np.fill_diagonal(lcb, np.inf)
    return int(np.argmax(lcb.min(axis=1)))


def baseline_ucb_matrix(wins, alpha, t):
    """RucbBaseline._ucb_matrix under np.errstate."""
    n = wins + wins.T
    with np.errstate(divide="ignore", invalid="ignore"):
        u = wins / n + np.sqrt(alpha * math.log(t) / n)
    u[n == 0.0] = 1.0
    np.fill_diagonal(u, 0.5)
    return u
