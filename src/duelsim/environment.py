"""Preference environment with censored, delayed pairwise feedback.

Protocol per step t:
  1. the player picks an ordered pair (u, v),
  2. the environment draws the hidden outcome X ~ Bernoulli(mu[u, v]) and a
     delay D from the delay law,
  3. a win (X = 1) becomes visible from step s + D onward; until then the
     player sees 0 for that play, indistinguishable from a loss.

Losses never "arrive": only conversions are ever announced, which is what
biases naive statistics toward the second arm of each pair.

The environment keeps only the wins that have not been delivered yet,
keyed by landing step, so its storage is O(pending wins), not O(t).  Each
step's conversions are handed out once: observing step t removes them.
The full censored view Y_{s,t} is the running union of those deliveries.
Each play's hidden truth is a PendingOutcome, an immutable NamedTuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .delays import DelayDistribution
from .errors import (
    ComplementViolation,
    HorizonExceeded,
    ModeMismatch,
    NoCondorcetWinner,
)

COMPLEMENT_TOL = 1e-6


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

    for i in range(k):
        for j in range(i, k):
            err = abs(mu[i, j] + mu[j, i] - 1.0)
            if err > COMPLEMENT_TOL:
                raise ComplementViolation(
                    f"mu[{i},{j}] + mu[{j},{i}] = {mu[i, j] + mu[j, i]:.9f} != 1"
                )
    fixed = np.empty_like(mu)
    for i in range(k):
        fixed[i, i] = 0.5
        for j in range(i + 1, k):
            fixed[i, j] = mu[i, j]
            fixed[j, i] = 1.0 - mu[i, j]

    off_diag = ~np.eye(k, dtype=bool)
    dominant = np.flatnonzero([np.all(fixed[i][off_diag[i]] > 0.5) for i in range(k)])
    if dominant.size != 1:
        raise NoCondorcetWinner(
            f"{dominant.size} rows dominate all others; expected exactly 1"
        )
    return PreferenceMatrix(mu=fixed, winner=int(dominant[0]))


class RegretTracker:
    """Accumulates true per-step regret (gap_u + gap_v) / 2."""

    def __init__(self, matrix: PreferenceMatrix):
        # Python floats: the running sum stays a float, with the same IEEE results
        self.gaps: list[float] = matrix.gaps().tolist()
        self.cumulative = 0.0

    def instant_regret(self, u: int, v: int) -> float:
        r = (self.gaps[u] + self.gaps[v]) / 2.0
        self.cumulative += r
        return r


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

    Per step exactly one uniform draw decides the outcome, then the delay
    is sampled (deterministic delays consume no randomness).  Instances
    are single-threaded; run replications in separate instances.
    """

    def __init__(
        self,
        matrix: PreferenceMatrix,
        delay: DelayDistribution,
        rng: np.random.Generator,
        horizon: int | None = None,
        aggregated: bool = False,
    ):
        self.matrix = matrix
        self.delay = delay
        self.rng = rng
        self.horizon = horizon
        self.aggregated = aggregated
        self.k = matrix.k
        # nested lists: one Python float read per step, no numpy scalar
        self._mu: list[list[float]] = matrix.mu.tolist()
        self.t = 1  # next step to play
        # undelivered wins by landing step
        self._landings: dict[int, list[PendingOutcome]] = {}

    def step(self, u: int, v: int) -> PendingOutcome:
        """Play (u, v) at the current step and advance time by one."""
        k = self.k
        if not (0 <= u < k and 0 <= v < k):
            raise ValueError(f"arm pair ({u}, {v}) out of range for k={k}")
        t = self.t
        if self.horizon is not None and t > self.horizon:
            raise HorizonExceeded(f"step {t} past horizon {self.horizon}")
        x = 1 if self.rng.random() < self._mu[u][v] else 0
        d = self.delay.sample(self.rng)
        out = PendingOutcome(t, u, v, x, d)
        if x == 1:
            self._landings.setdefault(t + d, []).append(out)
        self.t = t + 1
        return out

    def observe_new(self, t: int) -> list[PendingOutcome]:
        """Conversions landing exactly at step t, delivered once.

        Y_{s,t} = 1 iff some observe_new(t') with t' <= t contained play s.
        A second call for the same t returns [].
        """
        if self.aggregated:
            raise ModeMismatch("aggregated mode exposes only anonymous counts")
        self._check_time(t)
        return self._landings.pop(t, [])

    def observe_aggregated(self, t: int) -> int:
        """Anonymous count of the conversions landing at step t, delivered once."""
        if not self.aggregated:
            raise ModeMismatch("environment is not in aggregated mode")
        self._check_time(t)
        return len(self._landings.pop(t, ()))

    def _check_time(self, t: int) -> None:
        if t > self.t:
            raise ValueError(f"cannot observe future step {t} (current {self.t})")
