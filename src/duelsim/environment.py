"""Preference environment with censored, delayed pairwise feedback.

Protocol per step t:
  1. the player picks an ordered pair (u, v),
  2. the environment draws the hidden outcome X ~ Bernoulli(mu[u, v]) and a
     delay D from the delay law,
  3. a win (X = 1) becomes visible from step s + D onward; until then the
     player sees 0 for that play, indistinguishable from a loss.

Losses never "arrive": only conversions are ever announced, which is what
biases naive statistics toward the second arm of each pair.

Draw contract: the one generator is read in chunks of DRAW_CHUNK plays,
each drawn at its first play: rng.random(DRAW_CHUNK) outcome uniforms, then
delay.sample(rng, DRAW_CHUNK) delays, for wins and losses alike.  Play t
uses element (t-1) % DRAW_CHUNK of chunk (t-1) // DRAW_CHUNK, so a trace
depends on the plays alone, not on how step and play_run split them.

The environment keeps only the undelivered wins that can still be observed,
those landing by horizon + 1, keyed by landing step: O(pending wins), not
O(t).  Each step's conversions are handed out once: observing t removes them.
The full censored view Y_{s,t} is the running union of those deliveries.
Aggregated mode hands out counts only and plays by play_run only: it
queues one sorted int64 array of landing steps, one entry per win, counted
with searchsorted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import check_bool, check_count
from .delays import DelayDistribution

COMPLEMENT_TOL = 1e-6
DRAW_CHUNK = 4096  # plays per block of outcome and delay draws


@dataclass(frozen=True)
class PreferenceMatrix:
    """Validated K x K win-probability matrix with its Condorcet winner.

    After validation mu[i, j] + mu[j, i] == 1 holds exactly (the lower
    triangle is rebuilt from the upper one) and mu[i, i] == 0.5.
    Arms keep their original indices; the winner is stored, not relabeled.
    """

    mu: np.ndarray
    winner: int

    @property
    def k(self) -> int:
        return self.mu.shape[0]

    def gaps(self) -> np.ndarray:
        """Suboptimality gaps: gap[i] = mu[winner, i] - 1/2, zero at the winner."""
        return self.mu[self.winner] - 0.5


def validate_matrix(raw) -> PreferenceMatrix:
    """Check and normalize a raw square array of win probabilities.

    Complement violations up to 1e-6 (dataset rounding) are repaired from
    the upper triangle; anything larger is rejected.  Exactly one row must
    dominate all others strictly, else there is no Condorcet winner.
    """
    mu = np.array(raw, dtype=np.float64)
    if mu.ndim != 2 or mu.shape[0] != mu.shape[1]:
        raise ValueError(f"preference matrix must be square, got shape {mu.shape}")
    k = mu.shape[0]
    if k < 2:
        raise ValueError("preference matrix needs at least 2 arms")
    outside = ~((mu >= 0.0) & (mu <= 1.0))
    if outside.any():
        i, j = np.argwhere(outside)[0]
        raise ValueError(f"entry ({i}, {j}) = {mu[i, j]} outside [0, 1]")

    violations = np.argwhere(np.abs(mu + mu.T - 1.0) > COMPLEMENT_TOL)
    if violations.size:  # in row-major order the first one has i <= j
        i, j = violations[0]
        raise ValueError(f"mu[{i},{j}] + mu[{j},{i}] = {mu[i, j] + mu[j, i]:.9f} != 1")
    fixed = np.where(np.tri(k, k, -1, dtype=bool), 1.0 - mu.T, mu)  # lower from upper
    np.fill_diagonal(fixed, 0.5)

    dominant = np.flatnonzero(np.all((fixed > 0.5) | np.eye(k, dtype=bool), axis=1))
    if dominant.size != 1:
        raise ValueError(f"{dominant.size} rows dominate all others; expected exactly 1")
    return PreferenceMatrix(mu=fixed, winner=int(dominant[0]))


class PendingOutcome(NamedTuple):
    """Hidden truth of one comparison: played at s, outcome x, delay d.

    If x = 1 the conversion lands at step s + d; if x = 0 nothing is ever
    announced for this play.
    """

    s: int
    u: int
    v: int
    x: int
    d: int


class DuelingEnvironment:
    """Single-run environment: outcome sampling, delays, conversion delivery.

    Play t wins iff its outcome uniform is below mu[u, v] (draws: see the
    module docstring).  A bad horizon, arm pair or run length, a step past the
    horizon, a future step observed and a call of the other mode's method
    each fail with a one-line ValueError.  Instances are single-threaded;
    run replications in separate instances.
    """

    def __init__(
        self,
        matrix: PreferenceMatrix,
        delay: DelayDistribution,
        rng: np.random.Generator,
        horizon: int,
        aggregated: bool = False,
    ):
        self.matrix = matrix
        self.delay = delay
        self.rng = rng
        self.horizon = check_count("horizon", horizon, 1)
        check_bool("aggregated", aggregated)
        self.aggregated = aggregated
        self.k = matrix.k
        # nested lists: one Python float read per step, no numpy scalar
        self._mu: list[list[float]] = matrix.mu.tolist()
        self.t = 1  # next step to play
        # undelivered wins: the outcomes by landing step, or if aggregated
        # the sorted landing steps, one per win
        self._landings: dict[int, list[PendingOutcome]] | np.ndarray
        self._landings = np.empty(0, dtype=np.int64) if aggregated else {}
        self._start = 1 - DRAW_CHUNK  # first step of the drawn chunk; none drawn yet
        self._uniforms = self._delays = np.empty(0, dtype=np.int64)  # int64 keeps delays integral
        self._lists: tuple[list[float], list[int]] | None = None  # step's copy of the chunk

    def _draw_chunk(self) -> None:
        self._start += DRAW_CHUNK
        self._uniforms = self._delays = self._lists = None  # one chunk in memory at a time
        self._uniforms = self.rng.random(DRAW_CHUNK)
        self._delays = self.delay.sample(self.rng, DRAW_CHUNK)

    def step(self, u: int, v: int) -> PendingOutcome:
        """Play (u, v) at the current step and advance time by one."""
        if self.aggregated:
            raise ValueError("aggregated mode plays by play_run only")
        if not (0 <= u < self.k and 0 <= v < self.k):
            raise ValueError(f"arm pair ({u}, {v}) out of range for k={self.k}")
        t = self.t
        if t > self.horizon:
            raise ValueError(f"step {t} past horizon {self.horizon}")
        if t - self._start == DRAW_CHUNK:
            self._draw_chunk()
        if self._lists is None:  # one Python float read per step, no numpy scalar
            self._lists = (self._uniforms.tolist(), self._delays.tolist())
        i = t - self._start
        x = 1 if self._lists[0][i] < self._mu[u][v] else 0
        d = self._lists[1][i]
        out = PendingOutcome(t, u, v, x, d)
        if x == 1 and t + d <= self.horizon + 1:  # a later win is never observed
            self._landings.setdefault(t + d, []).append(out)
        self.t = t + 1
        return out

    def play_run(self, u: int, v: int, n: int) -> list[PendingOutcome] | int:
        """Play (u, v) at steps t..t+n-1, as n standard-mode step calls would.

        Returns the conversions landing strictly inside the run, at steps
        t+1..t+n-1, in the order observe_new (a list, by landing step, then
        by play step) or observe_aggregated (a count) would have delivered
        them over those steps.  Later wins landing by horizon + 1 stay queued.
        """
        t = self.t
        end = t + n
        if n < 1:
            raise ValueError(f"run length must be >= 1, got {n}")
        if not (0 <= u < self.k and 0 <= v < self.k):
            raise ValueError(f"arm pair ({u}, {v}) out of range for k={self.k}")
        if end - 1 > self.horizon:
            raise ValueError(f"step {max(t, self.horizon + 1)} past horizon {self.horizon}")
        i = t - self._start
        uniforms, delays = self._uniforms[i : i + n], self._delays[i : i + n]
        while uniforms.size < n:  # the run goes on into the next chunk
            self._draw_chunk()
            rest = n - uniforms.size
            uniforms = np.concatenate((uniforms, self._uniforms[:rest]))
            delays = np.concatenate((delays, self._delays[:rest]))
        wins = (uniforms < self._mu[u][v]).nonzero()[0]  # steps after t
        win_delays = delays.take(wins)
        lands = wins + win_delays  # landing steps, less t
        self.t = end
        if self.aggregated:  # an integer sum does not depend on the order
            late = lands[lands >= n]
            due = self._pop_landings(t + 1, end)  # queued wins, all played before t
            if late.size:
                late += t
                queue = np.concatenate((self._landings, late))
                queue.sort(kind="stable")  # one linear pass when they arrive in order
                if queue[-1] > self.horizon + 1:  # those wins are never observed
                    queue = queue[: queue.searchsorted(self.horizon + 1, "right")]
                self._landings = queue
            return due + wins.size - late.size
        # queued wins landing inside the run, all played before t; a standard
        # run is at most the window M, so visiting its steps is O(n)
        landings = self._landings
        due = [landings.pop(s) for s in range(t + 1, end) if s in landings]
        inside = int(np.count_nonzero(lands < n))
        kept = int(np.count_nonzero(lands <= self.horizon + 1 - t))  # observable wins
        order = np.argsort(lands, kind="stable")[:kept]  # by landing step, then play step
        plays, win_delays = (wins[order] + t).tolist(), win_delays[order].tolist()
        del uniforms, delays, wins, lands, order  # peak memory: the outcomes, not these arrays
        outs = [PendingOutcome(s, u, v, 1, d) for s, d in zip(plays, win_delays)]
        for o in outs[inside:]:
            landings.setdefault(o.s + o.d, []).append(o)
        # at each landing step the queued wins come before the run's own, as
        # observe_new delivers them: the sort is stable
        delivered = [o for wins_at in due for o in wins_at] + outs[:inside]
        delivered.sort(key=lambda o: o.s + o.d)
        return delivered

    def observe_new(self, t: int) -> list[PendingOutcome]:
        """Conversions landing exactly at step t, delivered once.

        Y_{s,t} = 1 iff some observe_new(t') with t' <= t contained play s.
        A second call for the same t returns [].
        """
        if self.aggregated:
            raise ValueError("aggregated mode exposes only anonymous counts")
        self._check_time(t)
        return self._landings.pop(t, [])

    def observe_aggregated(self, t: int) -> int:
        """Anonymous count of the conversions landing at step t, delivered once."""
        if not self.aggregated:
            raise ValueError("environment is not in aggregated mode")
        self._check_time(t)
        return self._pop_landings(t, t + 1)

    def _pop_landings(self, first: int, end: int) -> int:
        """Unqueue the aggregated wins landing at steps first..end-1; their count."""
        queue = self._landings
        if not queue.size:
            return 0
        lo, hi = queue.searchsorted((first, end)).tolist()
        if lo < hi:
            self._landings = queue[hi:] if lo == 0 else np.concatenate((queue[:lo], queue[hi:]))
        return hi - lo

    def _check_time(self, t: int) -> None:
        if t > self.t:
            raise ValueError(f"cannot observe future step {t} (current {self.t})")
