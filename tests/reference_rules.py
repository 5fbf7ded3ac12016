"""Best-worst-case, elimination, bound, MRR select and winner rules as first written, kept as references.

The policies now share list-based helpers, RrDbDelay reads its bounds from
estimator.corrected_bounds, MrrDbDelay selects in one loop and the winner
rules are written once; these are verbatim copies of the dict- and
numpy-based rules, of the scalar round-robin bound, of the
next_pair/RoundComplete select and of the declared_winner methods they
replaced.
"""

import math

import numpy as np

from duelsim import PolicyAction
from duelsim.policies import _best_worst_case


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


def rrdb_bound(self, n, n_tilde, s_ij, t):
    """RrDbDelay._bound, with the policy passed as self."""
    if n_tilde == 0.0:
        return 1.0
    radius = math.sqrt(
        n * math.log(self.k * t / self.delta) / (n_tilde * n_tilde)
    )
    return s_ij / n_tilde + radius


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
    """RucbBaseline._ucb_matrix under np.errstate: the classical bound
    wins/n + sqrt(alpha log t / n), in corrected_bounds' operation order
    with N = Ntilde = n."""
    n = wins + wins.T
    with np.errstate(divide="ignore", invalid="ignore"):
        u = wins / n + np.sqrt(alpha * n * math.log(t) / (n * n))
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


def rucb_declared_winner(self):
    """RucbDelay.declared_winner, with the policy passed as self."""
    if self.best is not None:
        return self.best
    ucb = self.est.ucb_matrix(self.est.last_t + 1, self.alpha)
    return _best_worst_case((1.0 - ucb.T).tolist(), range(self.k))


def baseline_declared_winner(self):
    """RucbBaseline.declared_winner, with the policy passed as self."""
    if self.best is not None:
        return self.best
    ucb = self._ucb_matrix(self.last_t + 1)
    return _best_worst_case((1.0 - ucb.T).tolist(), range(self.k))


def mrr_declared_winner(self):
    """MrrDbDelay.declared_winner, with the policy passed as self."""
    if len(self.active) == 1:
        return self.active[0]
    best, best_score = None, -math.inf
    for i in self.active:
        scores = [
            self.mean_estimate(i, j)
            for j in self.active
            if j != i and self.plays.get((i, j), 0) > 0
        ]
        score = min(scores) if scores else -math.inf
        if score > best_score:
            best, best_score = i, score
    return best if best is not None else self.active[0]
