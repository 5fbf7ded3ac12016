"""Conversion-delay distributions on the positive integers.

A delay D >= 1 is the number of steps between playing a pair and the
outcome (if it was a win) becoming visible.  tau(d) = P(D <= d) is the
delay CDF, with tau(0) = 0 by construction: feedback for the play at
step s is first revealed at step s+1 at the earliest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def _validate_positive_int(name: str, value: int) -> int:
    if not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class DelayDistribution:
    """A discrete delay law: CDF, sampler and mean.

    Samplers draw from the run's generator in a fixed order; the
    deterministic kind consumes no randomness at all, so traces stay
    aligned across delay configurations with the same action sequence.
    """

    kind: str
    params: tuple
    mean: float
    _cum: np.ndarray | None = field(default=None, repr=False, compare=False)

    def tau(self, d: int) -> float:
        """P(D <= d) for d >= 0; tau(0) = 0."""
        if d < 0:
            raise ValueError(f"delay index must be >= 0, got {d}")
        if d == 0:
            return 0.0
        if self.kind == "geometric":
            (p,) = self.params
            return 1.0 - (1.0 - p) ** d
        if self.kind == "deterministic":
            (d0,) = self.params
            return 1.0 if d >= d0 else 0.0
        if self.kind == "uniform":
            lo, hi = self.params
            if d < lo:
                return 0.0
            if d >= hi:
                return 1.0
            return (d - lo + 1) / (hi - lo + 1)
        # table
        cum = self._cum
        assert cum is not None
        if d >= len(cum):
            return 1.0
        return float(cum[d - 1])

    def tau_table(self, m: int) -> np.ndarray:
        """Array [tau(0), tau(1), ..., tau(m)] for windowed estimators."""
        m = _validate_positive_int("table length", m)
        return np.array([self.tau(d) for d in range(m + 1)], dtype=np.float64)

    def sample(self, rng: np.random.Generator) -> int:
        if self.kind == "geometric":
            (p,) = self.params
            return int(rng.geometric(p))
        if self.kind == "deterministic":
            return self.params[0]
        if self.kind == "uniform":
            lo, hi = self.params
            return int(rng.integers(lo, hi + 1))
        cum = self._cum
        assert cum is not None
        return int(np.searchsorted(cum, rng.random(), side="right")) + 1

def geometric(p: float) -> DelayDistribution:
    """Geometric delay on {1, 2, ...}: P(D = d) = p(1-p)^(d-1), mean 1/p."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"geometric parameter must be in (0, 1], got {p}")
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
    if kind == "geometric":
        return geometric(float(arg))
    if kind == "det":
        return deterministic(int(arg))
    if kind == "uniform":
        lo, _, hi = arg.partition(",")
        return uniform_delay(int(lo), int(hi))
    if kind == "table":
        with open(arg, "r", encoding="utf-8") as fh:
            probs = [float(line) for line in fh if line.strip()]
        return from_table(probs)
    raise ValueError(f"unknown delay kind {kind!r}")
