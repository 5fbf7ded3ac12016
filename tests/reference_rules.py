"""Best-worst-case, elimination and MRR select rules as first written, kept as references.

The policies now share list-based helpers and MrrDbDelay selects in one
loop; these are verbatim copies of the dict- and numpy-based rules and of
the next_pair/RoundComplete select they replaced.
"""

import math

import numpy as np

from duelsim import PolicyAction


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


class RoundComplete(Exception):
    """All active pairs have reached the round's play target."""


def mrr_next_pair(pol):
    """MrrDbDelay.next_pair: next scheduled pair, or RoundComplete when all targets are met."""
    if len(pol.active) == 1:
        w = pol.active[0]
        pol._prev_pair = (w, w)
        return PolicyAction(w, w)
    while pol._pos < len(pol._pairs):
        pair = pol._pairs[pol._pos]
        if pol.plays.get(pair, 0) < pol.n_target:
            pol.plays[pair] = pol.plays.get(pair, 0) + 1
            pol._prev_pair = pair
            return PolicyAction(*pair)
        pol._pos += 1
    raise RoundComplete(f"round {pol.m}: every active pair has {pol.n_target} plays")


def mrr_select(pol):
    """MrrDbDelay.select over pol's state: next_pair, ending the round once on RoundComplete."""
    try:
        return mrr_next_pair(pol)
    except RoundComplete:
        pol.end_round()
        return mrr_next_pair(pol)
