"""Conversion-delay distributions on the positive integers.

A delay D >= 1 is the number of steps between playing a pair and the
outcome (if it was a win) becoming visible.  tau(d) = P(D <= d) is the
delay CDF, with tau(0) = 0 by construction: feedback for the play at
step s is first revealed at step s+1 at the earliest.  The one CDF query
is tau_table(m), the whole array tau(0..m) that a windowed estimator reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import check_count, is_real

MAX_DELAY = 2**62  # longest delay: s + d stays within int64 for every step s < 2**62


def _validate_positive_int(name: str, value: int) -> int:
    if check_count(name, value, 1) > MAX_DELAY:
        raise ValueError(f"{name} must be at most 2**62, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class DelayDistribution:
    """A discrete delay law: CDF table, sampler and mean.

    tau_table(m) builds tau(0..m) directly for each law: its entries are
    the closed forms evaluated in Python floats (uniform's ramp by int
    division), so no numpy rounding enters the weights.
    sample(rng, n) draws n delays as one block: geometric and uniform with
    one numpy call, a table with one searchsorted over rng.random(n).  No
    delay exceeds MAX_DELAY: geometric draws are clipped to it (numpy
    returns the int64 maximum for tiny p), and such a delay never lands.  The
    deterministic kind consumes no randomness at all, so traces stay
    aligned across delay configurations with the same action sequence.
    """

    kind: str
    params: tuple
    mean: float
    _cum: np.ndarray | None = field(default=None, repr=False, compare=False)

    def tau_table(self, m: int) -> np.ndarray:
        """Array [tau(0), tau(1), ..., tau(m)] for windowed estimators; tau(0) = 0."""
        m = _validate_positive_int("table length", m)
        if self.kind == "geometric":
            q = 1.0 - self.params[0]
            return np.array([0.0] + [1.0 - q**d for d in range(1, m + 1)])
        if self.kind == "deterministic":
            return (np.arange(m + 1) >= self.params[0]).astype(np.float64)
        if self.kind == "uniform":
            lo, hi = self.params
            ramp = [(d - lo + 1) / (hi - lo + 1) for d in range(lo, min(hi, m + 1))]
            return np.array([0.0] * min(lo, m + 1) + ramp + [1.0] * max(m + 1 - hi, 0))
        cum = self._cum[:m]
        return np.concatenate(([0.0], cum, np.ones(m - cum.size)))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n delays as an int64 array, drawn as one block from rng."""
        if self.kind == "geometric":
            delays = rng.geometric(self.params[0], n)
            return np.minimum(delays, MAX_DELAY, out=delays)
        if self.kind == "deterministic":
            return np.full(n, self.params[0], dtype=np.int64)
        if self.kind == "uniform":
            lo, hi = self.params
            return rng.integers(lo, hi + 1, n)
        return np.searchsorted(self._cum, rng.random(n), side="right") + 1

def geometric(p: float) -> DelayDistribution:
    """Geometric delay on {1, 2, ...}: P(D = d) = p(1-p)^(d-1), mean 1/p."""
    if not (is_real(p) and 0.0 < p <= 1.0):
        raise ValueError(f"geometric parameter must be in (0, 1], got {p}")
    if math.isinf(1.0 / p):
        raise ValueError(f"geometric parameter {p} too small: its mean 1/p overflows")
    return DelayDistribution("geometric", (float(p),), 1.0 / p)


def deterministic(d0: int) -> DelayDistribution:
    """All delays equal d0 >= 1.  d0 = 1 is the no-delay limit (tau_1 = 1)."""
    d0 = _validate_positive_int("deterministic delay", d0)
    return DelayDistribution("deterministic", (d0,), float(d0))


def uniform_delay(lo: int, hi: int) -> DelayDistribution:
    """Uniform delay on the integers {lo, ..., hi}, 1 <= lo <= hi."""
    lo = _validate_positive_int("uniform lower bound", lo)
    hi = _validate_positive_int("uniform upper bound", hi)
    if lo > hi:
        raise ValueError(f"uniform bounds must satisfy lo <= hi, got ({lo}, {hi})")
    return DelayDistribution("uniform", (lo, hi), (lo + hi) / 2.0)


def from_table(probs) -> DelayDistribution:
    """Delay with P(D = d) = probs[d-1] for d = 1..len(probs).

    The probabilities must sum to 1 within 1e-9; they are renormalized so
    the stored CDF ends exactly at 1.
    """
    arr = np.asarray(probs, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("delay table must be a non-empty 1-D probability vector")
    if np.any(arr < 0):
        raise ValueError("delay table entries must be non-negative")
    total = float(arr.sum())
    if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9):
        raise ValueError(f"delay table must sum to 1 (got {total})")
    arr = arr / total
    mean = float(np.dot(arr, np.arange(1, arr.size + 1)))
    # rounding can carry the running sum past 1 before the last entry
    cum = np.minimum(np.cumsum(arr), 1.0)
    cum[-1] = 1.0
    return DelayDistribution("table", tuple(float(x) for x in arr), mean, _cum=cum)


def parse_delay_spec(spec: str) -> DelayDistribution:
    """Parse a CLI delay spec: geometric:<p> | det:<d> | uniform:<lo>,<hi> | table:<file>.

    A table file holds one probability per line, line d giving P(D = d).
    """
    kind, sep, arg = spec.partition(":")
    if not sep or not arg:
        raise ValueError(f"malformed delay spec {spec!r}")
    def number(text: str, parse=int, where: str = ""):
        try:
            return parse(text)
        except ValueError:
            raise ValueError(f"malformed delay spec {spec!r}{where}") from None

    if kind == "geometric":
        return geometric(number(arg, float))
    if kind == "det":
        return deterministic(number(arg))
    if kind == "uniform":
        lo, _, hi = arg.partition(",")
        return uniform_delay(number(lo), number(hi))
    if kind == "table":
        with open(arg, "r", encoding="utf-8") as fh:
            lines = [(no, line) for no, line in enumerate(fh, start=1) if line.strip()]
        return from_table([number(line, float, f" (line {no})") for no, line in lines])
    raise ValueError(f"unknown delay kind {kind!r}")
