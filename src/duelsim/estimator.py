"""Windowed, delay-corrected pairwise statistics.

Per ordered play of (u, v) at step s, seen from the current step t with
censoring window M and delay CDF tau:

  weight(s)  = tau(min(M, t - s))          (0 for t <= s since tau(0) = 0)
  N[i, j]    = plays of (i, j) + (j, i), either order
  Ntilde     = sum of weight(s) over those plays  (delay-discounted count)
  S[i, j]    = sum over (i, j)-plays of Ytilde
             + sum over (j, i)-plays of (weight - Ytilde)

where Ytilde = 1 iff the play's win converted within min(M, age) steps.
A play older than M is frozen: its weight is tau(M) forever and late
conversions are ignored, so it is folded into permanent aggregates and
dropped from the window.  Storage is O(K^2 + M) regardless of t.

The estimator records one play per step, so it describes the current
step last_t + 1 from the plays s <= last_t.  The window is one ring
buffer of M slots: the play at step s lives in slot s mod M, holding the
plays of the last M steps.  Each slot has a pair key u * K + v and a
converted flag.  The keys are written twice, at i and i + M of a 2M
array, so the window in chronological order is always the contiguous
view keys[h : h + M] with h = (last_t + 1) mod M.  Empty slots hold the
sentinel key K * K, whose bincount bin is dropped.  Position p of that
view holds the play at s = last_t + 1 - M + p, of age M - p, so every
query weights the view by the one table tau(M), tau(M - 1), ..., tau(1),
and a whole-matrix query is one bincount that adds each pair's weights
oldest first.

The one statistics query is matrices(), the whole K x K arrays N, Ntilde
and S; S/Ntilde is the unbiased, unclipped preference estimate.  rucb-delay
(log term log t, via ucb_matrix) and rrdb-delay (alpha 1, log term
log(K t / delta)) rank pairs by one delay-corrected bound, corrected_bounds.

Call discipline per step t: ingest the conversions that land at t, then
query (statistics describe plays up to t-1), then record the play at t.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import check_count, check_pair


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
        # tau(M), ..., tau(1): the weights of the window, oldest first, as a
        # contiguous copy, since bincount would copy a strided view on every query
        self._weights = tau_table[m_window:0:-1].copy()
        self.last_t = 0

    # -- bookkeeping ------------------------------------------------------

    def record_play(self, u: int, v: int, t: int) -> None:
        """Register the play at step t = last_t + 1: one play per step."""
        if type(t) is not int:
            t = check_count("step", t, 1)
        if t != self.last_t + 1:
            raise ValueError(f"play at t={t}, expected t={self.last_t + 1}")
        check_pair(u, v, self.k)
        k = self.k
        m = self.m_window
        keys = self._keys
        # slot t mod M holds the play at t - M, which can still convert at age
        # M; those conversions are ingested before the step-t play is
        # recorded, so it is final now and folds out of the window
        i = t % m
        key = int(keys[i])
        if key != self._empty:
            self._folded_plays[divmod(key, k)] += 1.0
            self._converted[i] = False
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
        if type(s) is not int or s < 1:
            s = check_count("step", s, 1)
        check_pair(u, v, self.k)
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

    def matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(N, Ntilde, S) as K x K arrays at step last_t + 1.  N is a read-only
        view of the live counts, not a copy: writing through it raises, and it
        follows later record_play calls."""
        k = self.k
        h = (self.last_t + 1) % self.m_window
        keys = self._keys[h : h + self.m_window]
        window = np.bincount(keys, weights=self._weights, minlength=k * k + 1)
        a = self.tau_m * self._folded_plays + window[: k * k].reshape(k, k)
        y = self._wins
        n_tilde = a + a.T
        s = y + (a.T - y.T)
        return self._n_read, n_tilde, s

    def ucb_matrix(self, alpha: float) -> np.ndarray:
        """corrected_bounds at step t = last_t + 1 with log term log t."""
        return corrected_bounds(*self.matrices(), alpha, math.log(self.last_t + 1))


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
