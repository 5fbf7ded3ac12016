"""Windowed, delay-corrected pairwise statistics.

Per ordered play of (u, v) at step s, queried at step t with censoring
window M and delay CDF tau:

  weight(s)  = tau(min(M, t - s))          (0 for t <= s since tau(0) = 0)
  N[i, j]    = plays of (i, j) + (j, i), either order
  Ntilde     = sum of weight(s) over those plays  (delay-discounted count)
  S[i, j]    = sum over (i, j)-plays of Ytilde
             + sum over (j, i)-plays of (weight - Ytilde)

where Ytilde = 1 iff the play's win converted within min(M, age) steps.
A play older than M is frozen: its weight is tau(M) forever and late
conversions are ignored, so it is folded into permanent aggregates and
dropped from the window.  Storage is O(K^2 + M) regardless of t.

The window is one ring buffer of M slots: the play at step s lives in
slot s mod M, which is collision-free because play times strictly
increase and the window only holds plays with s > t - M.  Each slot has
a pair key u * K + v and a converted flag.  The keys are written twice,
at i and i + M of a 2M array, so the window in chronological order is
always the contiguous view keys[h : h + M] with h = (last_t + 1) mod M.
Empty and folded slots hold the sentinel key K * K, whose bincount bin
is dropped.  Position p of that view holds the play at
s = last_t + 1 - M + p, so play times need no storage: the weights
tau(clip(t - s, 0, M)) of a query at t are the view ext[M - d : 2M - d]
of one table ext[i] = tau(clip(2M - i, 0, M)), with d = t - last_t - 1
clamped to [-M, M], and a whole-matrix query is one bincount that adds
each pair's weights oldest first.

The one statistics query is matrices(t), the whole K x K arrays N, Ntilde
and S; S/Ntilde is the unbiased, unclipped preference estimate.  rucb-delay
(log term log t, via ucb_matrix) and rrdb-delay (alpha 1, log term
log(K t / delta)) rank pairs by one delay-corrected bound, corrected_bounds.

Call discipline per step t: ingest the conversions that land at t, then
query (statistics describe plays up to t-1), then record the play at t.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import check_count


class DelayCorrectedEstimator:
    """Maintains N, Ntilde and S for all arm pairs under a censoring window M.

    tau_table holds tau(0..M), so its length fixes M.
    """

    def __init__(self, k: int, tau_table: np.ndarray):
        check_count("K", k, 1)
        tau_table = np.asarray(tau_table, dtype=np.float64)
        if tau_table.ndim != 1 or tau_table.size < 2:
            raise ValueError(f"tau table must be 1-D, length >= 2, got shape {tau_table.shape}")
        if tau_table[0] != 0.0 or np.any(np.diff(tau_table) < 0) or tau_table[-1] > 1.0:
            raise ValueError("tau table must be a CDF: tau(0) = 0, non-decreasing, at most 1")
        m_window = tau_table.size - 1
        self.k = k
        self.m_window = m_window
        self.tau_m = float(tau_table[-1])

        self.n = np.zeros((k, k), dtype=np.int64)
        self._n_read = self.n.view()  # the N that matrices() hands out
        self._n_read.flags.writeable = False
        # plays folded out of the window, per ordered pair
        self._folded_plays = np.zeros((k, k), dtype=np.float64)
        # landed wins per ordered pair, in the window or folded out of it
        self._wins = np.zeros((k, k), dtype=np.float64)

        # ring buffer: slot s mod M holds the play at step s
        self._empty = k * k
        self._keys = np.full(2 * m_window, self._empty, dtype=np.int64)
        self._converted = np.zeros(m_window, dtype=bool)
        # ext[i] = tau(clip(2M - i, 0, M)): every query's weights are a view of it
        lag = np.clip(2 * m_window - np.arange(3 * m_window), 0, m_window)
        self._ext = tau_table[lag]
        self.last_t = 0

    # -- bookkeeping ------------------------------------------------------

    def record_play(self, u: int, v: int, t: int) -> None:
        """Register the play at step t.  Times must strictly increase."""
        if t <= self.last_t:
            raise ValueError(f"play at t={t} after t={self.last_t}")
        if not (0 <= u < self.k and 0 <= v < self.k):
            raise ValueError(f"arm pair ({u}, {v}) out of range for k={self.k}")
        k = self.k
        m = self.m_window
        keys = self._keys
        # a play can still convert at age M, and those conversions are
        # ingested before the step-t play is recorded, so s <= t - M is final.
        # The window holds s in (last_t - M, last_t], one time per slot, so
        # these candidates visit each slot at most once even across long gaps.
        for s in range(self.last_t - m + 1, min(t - m, self.last_t) + 1):
            i = s % m
            key = int(keys[i])
            if key != self._empty:
                self._folded_plays[divmod(key, k)] += 1.0
                self._converted[i] = False
                keys[i] = keys[i + m] = self._empty
        i = t % m
        keys[i] = keys[i + m] = u * k + v
        self.n[u, v] += 1
        self.n[v, u] += 1
        self.last_t = t

    def ingest_conversion(self, s: int, u: int, v: int) -> bool:
        """Mark the play at step s as converted.

        Returns False when the conversion is older than the window (it is
        discarded, matching the censored-observation rule).  Idempotent for
        duplicate events.  Raises ValueError when s should still be in the
        window but no matching play was recorded.
        """
        if s <= self.last_t - self.m_window:
            return False
        i = s % self.m_window
        key = int(self._keys[i])
        if s > self.last_t or key == self._empty:
            raise ValueError(f"no play recorded at t={s}")
        if key != u * self.k + v:
            raise ValueError(f"play at t={s} was not of pair ({u}, {v})")
        if not self._converted[i]:
            self._converted[i] = True
            self._wins[u, v] += 1.0
        return True

    # -- queries ----------------------------------------------------------

    def matrices(self, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(N, Ntilde, S) as K x K arrays at step t.  N is a read-only view of
        the live counts, not a copy: writing through it raises, and it follows
        later record_play calls."""
        k = self.k
        m = self.m_window
        h = (self.last_t + 1) % m
        d = min(max(t - self.last_t - 1, -m), m)
        w = self._ext[m - d : 2 * m - d]
        window = np.bincount(self._keys[h : h + m], weights=w, minlength=k * k + 1)
        a = self.tau_m * self._folded_plays + window[: k * k].reshape(k, k)
        y = self._wins
        n_tilde = a + a.T
        s = y + (a.T - y.T)
        return self._n_read, n_tilde, s

    def ucb_matrix(self, t: int, alpha: float) -> np.ndarray:
        """corrected_bounds at step t with log term log t."""
        return corrected_bounds(*self.matrices(t), alpha, math.log(t))


def corrected_bounds(n, n_tilde, s, alpha: float, log_term: float) -> np.ndarray:
    """Optimistic bounds S/Ntilde + sqrt(alpha * N * log_term / Ntilde^2).

    1/2 on the diagonal; 1 where the pair has no discounted plays yet.
    """
    # no-data pairs divide by 1 instead of 0 and are overwritten below
    empty = n_tilde == 0.0
    n_tilde = n_tilde + empty
    u = s / n_tilde + np.sqrt(alpha * n * log_term / (n_tilde * n_tilde))
    u[empty] = 1.0
    u.ravel()[:: u.shape[0] + 1] = 0.5
    return u
