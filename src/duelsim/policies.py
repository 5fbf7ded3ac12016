"""Action-selection policies behind a single select/observe interface.

Every policy exposes:
  select(t) -> PolicyAction     choose and commit the pair for step t
  observe(t, conversions)       deliver conversion events landing at t
  observe_count(t, count)       anonymous-count variant (multi-round only)

and read-only inspection for the harness: declared_winner() on all four,
active_arms on the elimination policies only.  MrrDbDelay also has
select_run(t, limit), which commits a run of plays of one pair.
One instance drives one run; none of them share state.

Random-draw order inside champion-style selection (kept fixed so seeded
runs are reproducible and external references can align draw-for-draw):
  1. champion set C empty            -> one integers(k) draw
     exactly one champion            -> no draw
     several, remembered best in C   -> one random() coin; if it is >= 0.5,
                                        one integers(len(C)-1) draw over the
                                        remaining champions in index order
     several, no remembered best     -> one integers(len(C)) draw
  2. challenger: single maximizer of the champion's column -> no draw
     (self-comparison allowed); otherwise one integers() draw over the
     non-champion maximizers in index order, skipped when only one remains.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .bounds import check_bool, check_count, check_domain, is_real, n_schedule, n_schedule_aggregated
from .estimator import DelayCorrectedEstimator, corrected_bounds


class PolicyAction(NamedTuple):
    """Ordered pair for one step; pending feedback biases toward v."""

    u: int
    v: int


def _champion_pair(
    ucb: np.ndarray, best: int | None, rng: np.random.Generator
) -> tuple[int, int, int | None]:
    """Champion/challenger selection from a full bound matrix.

    Returns (u, v, new_best).  See the module docstring for the draw order.
    """
    k = ucb.shape[0]
    champions = [i for i, low in enumerate(ucb.min(axis=1).tolist()) if low >= 0.5]
    if best not in champions:
        best = None
    if len(champions) == 1:
        u = best = champions[0]
    elif best is not None and rng.random() < 0.5:
        u = best
    else:  # the champions other than best; every arm when there are none
        rest = [i for i in champions if i != best] or range(k)
        u = rest[rng.integers(len(rest))]

    column = ucb[:, u].tolist()
    top = max(column)
    maxers = [i for i, x in enumerate(column) if x == top]
    if len(maxers) == 1:
        v = maxers[0]
    else:
        others = [i for i in maxers if i != u]
        v = others[0] if len(others) == 1 else others[rng.integers(len(others))]
    return u, v, best


def _best_worst_case(score: list[list[float]], arms) -> int:
    """The arm i maximizing min_{j != i} score[i][j] over arms, first on ties."""
    return max(
        arms, key=lambda i: min((score[i][j] for j in arms if j != i), default=math.inf)
    )


def _ucb_winner(best: int | None, ucb: np.ndarray) -> int:
    """The remembered champion, else argmax_i min_{j != i} (1 - U_ji), first on ties."""
    if best is not None:
        return best
    return _best_worst_case((1.0 - ucb.T).tolist(), range(ucb.shape[0]))


def _unbeaten(score: list[list[float]], arms, margin: float) -> list[int]:
    """Arms i with no opponent j where score[i][j] + margin < 1/2; NaN never beats."""
    return [
        i for i in arms if not any(score[i][j] + margin < 0.5 for j in arms if j != i)
    ]


class RucbDelay:
    """Optimistic champion/challenger selection on delay-corrected statistics.

    tau_table holds tau(0..M); its length sets the estimator's window M.
    """

    name = "rucb-delay"

    def __init__(self, k: int, *, alpha: float, tau_table: np.ndarray, rng: np.random.Generator):
        if not (is_real(alpha) and 1.0 <= alpha < math.inf):
            raise ValueError(f"alpha must be >= 1, got {alpha}")
        self.k = k
        self.alpha = alpha
        self.est = DelayCorrectedEstimator(k, tau_table)
        self.rng = rng
        self.best: int | None = None

    def select(self, t: int) -> PolicyAction:
        ucb = self.est.ucb_matrix(t, self.alpha)
        u, v, self.best = _champion_pair(ucb, self.best, self.rng)
        self.est.record_play(u, v, t)
        return PolicyAction(u, v)

    def observe(self, t: int, conversions) -> None:
        for o in conversions:
            self.est.ingest_conversion(o.s, o.u, o.v)

    def declared_winner(self) -> int:
        return _ucb_winner(self.best, self.est.ucb_matrix(self.est.last_t + 1, self.alpha))


class RucbBaseline:
    """Delay-unaware reference: classical win counts fed the raw stream.

    Each play's first observation (one step after it) enters the additive
    win-count update as seen: a win for the first arm if it has already
    converted, otherwise a zero, which reads as a win for the second arm.
    Later conversions arrive as further win events; the count update has
    no retraction, so the earlier zero stays on the books.  With unit
    delay nothing is ever pending and this is exactly the classical
    policy; under real delay the phantom losses accumulate and keep the
    race open.
    """

    name = "rucb-baseline"

    def __init__(self, k: int, *, alpha: float, rng: np.random.Generator):
        check_domain("alpha", alpha)  # the calculators' rule
        self.k = check_count("K", k, 1)
        self.alpha = alpha
        self.rng = rng
        self.wins = np.zeros((k, k), dtype=np.float64)
        self.best: int | None = None
        self.last_t = 0
        self._unobserved: tuple[int, int, int] | None = None  # (s, u, v)

    def _ucb_matrix(self, t: int) -> np.ndarray:
        n = self.wins + self.wins.T  # undiscounted: N and Ntilde coincide
        return corrected_bounds(n, n, self.wins, self.alpha, math.log(t))

    def select(self, t: int) -> PolicyAction:
        u, v, self.best = _champion_pair(self._ucb_matrix(t), self.best, self.rng)
        self._unobserved = (t, u, v)
        self.last_t = t
        return PolicyAction(u, v)

    def observe(self, t: int, conversions) -> None:
        converted_now = set()
        for o in conversions:
            self.wins[o.u, o.v] += 1.0
            converted_now.add(o.s)
        if self._unobserved is not None:
            s, u, v = self._unobserved
            if s not in converted_now:
                self.wins[v, u] += 1.0  # the zero reads as a second-arm win
            self._unobserved = None

    def declared_winner(self) -> int:
        return _ucb_winner(self.best, self._ucb_matrix(self.last_t + 1))


class RrDbDelay:
    """Round-robin sweeps over active pairs with per-sweep elimination.

    A sweep visits every unordered active pair in index order, playing
    both orderings back to back.  After a sweep, any arm whose corrected_bounds
    entry (log term log(K t / delta)) against some active opponent falls
    below 1/2 is dropped; the survivor, once unique, is played against itself.
    tau_table holds tau(0..M); its length sets the estimator's window M.
    """

    name = "rrdb-delay"

    def __init__(self, k: int, *, tau_table: np.ndarray, delta: float):
        check_domain("delta", delta)  # the calculators' rule
        self.k = k
        self.delta = delta
        self.est = DelayCorrectedEstimator(k, tau_table)
        self.active: list[int] = list(range(k))
        self._sweep = self._build_sweep()
        self._pos = 0

    def _build_sweep(self) -> list[PolicyAction]:
        pairs = itertools.combinations(self.active, 2)
        return [p for i, j in pairs for p in (PolicyAction(i, j), PolicyAction(j, i))]

    def _eliminate(self, t: int) -> None:
        log_term = math.log(self.k * t / self.delta)
        if not math.isfinite(log_term):
            raise ValueError(
                f"delta {self.delta} too small: K*t/delta overflows for K={self.k}, t={t}"
            )
        bounds = corrected_bounds(*self.est.matrices(t), 1.0, log_term).tolist()
        active = _unbeaten(bounds, self.active, 0.0) or [_best_worst_case(bounds, self.active)]
        if len(active) < len(self.active):  # the sweep changes only when an arm drops
            self.active = active
            self._sweep = self._build_sweep()

    def select(self, t: int) -> PolicyAction:
        if len(self.active) > 1 and self._pos == len(self._sweep):
            self._eliminate(t)
            self._pos = 0
        if len(self.active) == 1:
            w = self.active[0]
            action = PolicyAction(w, w)
        else:
            action = self._sweep[self._pos]
            self._pos += 1
        self.est.record_play(action.u, action.v, t)
        return action

    def observe(self, t: int, conversions) -> None:
        for o in conversions:
            self.est.ingest_conversion(o.s, o.u, o.v)

    @property
    def active_arms(self) -> tuple[int, ...]:
        return tuple(self.active)

    def declared_winner(self) -> int | None:
        return self.active[0] if len(self.active) == 1 else None


class MrrDbDelay:
    """Multi-round elimination driven only by the expected delay.

    Each round m plays every ordered pair of active arms up to the
    cumulative target n_m (counts carry over between rounds), compares
    raw conversion frequencies against 1/2 - gamma_m, and halves gamma.
    In aggregated mode anonymous per-step counts are credited to the pair
    played on the previous step.

    select_run commits a run of consecutive plays of the round's first
    ordered pair, in index order, that is still below n_m: up to the plays
    it lacks, at most limit.  When every pair has met n_m it ends the round
    in place and carries on in the next; n_m strictly increases, so that
    happens at most once per call.  A sole survivor plays itself for the
    whole limit.  Counts are read only in end_round and the pair played
    never depends on feedback, so conversions landing inside a run may be
    delivered at its last step.  select(t) is the one-play run.
    """

    name = "mrr-delay"

    def __init__(
        self, k: int, *, horizon: int, mean_delay: float, aggregated: bool = False
    ):
        check_bool("aggregated", aggregated)
        self.k = check_count("K", k, 1)
        self.horizon = horizon
        self.mean_delay = mean_delay
        self.aggregated = aggregated
        self._schedule = n_schedule_aggregated if aggregated else n_schedule
        self.m = 1
        self.gamma = 0.5
        self.n_target = self._schedule(1, horizon, mean_delay)
        self.active: list[int] = list(range(k))
        self.plays: dict[tuple[int, int], int] = {}
        self.convs: dict[tuple[int, int], float] = {}
        self._pairs = self._build_pairs()
        self._pos = 0
        self._prev_pair: tuple[int, int] | None = None
        self.rescued_rounds: list[int] = []

    def _build_pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in self.active for j in self.active if i != j]

    def mean_estimate(self, i: int, j: int) -> float:
        """Conversions per play of (i, j); may exceed 1 in aggregated mode."""
        plays = self.plays.get((i, j), 0)
        if plays == 0:
            return math.nan
        return self.convs.get((i, j), 0.0) / plays

    def end_round(self) -> set[int]:
        """Eliminate beaten arms, halve the tolerance and open the next round.

        If every arm is beaten, the best worst-case estimate survives and the
        round is recorded in rescued_rounds.  Returns the eliminated arms.
        """
        means = [
            [self.mean_estimate(i, j) for j in range(self.k)] for i in range(self.k)
        ]
        survivors = _unbeaten(means, self.active, self.gamma)
        if not survivors:
            survivors = [_best_worst_case(means, self.active)]
            self.rescued_rounds.append(self.m)
        eliminated = set(self.active) - set(survivors)
        self.active = survivors
        self.gamma /= 2.0
        self.m += 1
        target = self._schedule(self.m, self.horizon, self.mean_delay)
        self.n_target = max(target, self.n_target + 1)
        self._pairs = self._build_pairs()
        self._pos = 0
        return eliminated

    def select_run(self, t: int, limit: int) -> tuple[PolicyAction, int]:
        """The pair for steps t, t+1, ..., t+n-1 and its run length n <= limit."""
        while len(self.active) > 1:
            if self._pos == len(self._pairs):
                self.end_round()
                continue
            pair = self._pairs[self._pos]
            plays = self.plays.get(pair, 0)
            if plays < self.n_target:
                n = min(self.n_target - plays, limit)
                self.plays[pair] = plays + n
                self._prev_pair = pair
                return PolicyAction(*pair), n
            self._pos += 1
        w = self.active[0]
        self._prev_pair = (w, w)
        return PolicyAction(w, w), limit

    def select(self, t: int) -> PolicyAction:
        return self.select_run(t, 1)[0]

    def observe(self, t: int, conversions) -> None:
        for o in conversions:
            key = (o.u, o.v)
            self.convs[key] = self.convs.get(key, 0.0) + 1.0

    def observe_count(self, t: int, count: int) -> None:
        if count and self._prev_pair is not None:
            key = self._prev_pair
            self.convs[key] = self.convs.get(key, 0.0) + count

    @property
    def active_arms(self) -> tuple[int, ...]:
        return tuple(self.active)

    def declared_winner(self) -> int:
        """The active arm with the best worst-case estimate against the
        opponents it has played (-inf if none), first on ties."""
        def worst(i):
            played = (j for j in self.active if j != i and self.plays.get((i, j), 0) > 0)
            return min((self.mean_estimate(i, j) for j in played), default=-math.inf)

        return max(self.active, key=worst)


_BUILTINS = (RucbDelay, RucbBaseline, RrDbDelay, MrrDbDelay)


def policy_names() -> list[str]:
    """Names make_policy accepts, sorted."""
    return sorted(cls.name for cls in _BUILTINS)


def make_policy(
    name: str,
    *,
    k: int,
    horizon: int,
    delay,
    alpha: float = 1.0,
    window: int = 1000,
    delta: float | None = None,
    aggregated: bool = False,
    rng: np.random.Generator | None = None,
):
    """Instantiate a built-in policy by name."""
    if name not in policy_names():
        known = ", ".join(policy_names())
        raise ValueError(f"unknown policy {name!r}; known: {known}")
    check_bool("aggregated", aggregated)
    if aggregated and name != MrrDbDelay.name:
        raise ValueError(f"policy {name!r} cannot consume aggregated anonymous feedback")
    if rng is None and name in (RucbDelay.name, RucbBaseline.name):
        raise ValueError(f"policy {name!r} breaks ties at random and needs an rng")
    # no play is older than T at t <= T + 1: a longer window changes no weight
    window = min(window, horizon)
    if name == RucbDelay.name:
        return RucbDelay(k, alpha=alpha, tau_table=delay.tau_table(window), rng=rng)
    if name == RucbBaseline.name:
        return RucbBaseline(k, alpha=alpha, rng=rng)
    if name == RrDbDelay.name:
        delta = delta if delta is not None else 1.0 / horizon
        check_domain("delta", delta)  # before the overflow test divides by it
        if not math.isfinite(k * horizon / delta):
            raise ValueError(
                f"delta {delta} too small: K*T/delta overflows for K={k}, T={horizon}"
            )
        return RrDbDelay(k, tau_table=delay.tau_table(window), delta=delta)
    return MrrDbDelay(k, horizon=horizon, mean_delay=delay.mean, aggregated=aggregated)
