"""Closed-form schedule and regret-bound calculators.

All calculators are pure functions of their inputs and use the natural
logarithm.  Logarithms that would go negative at small arguments are
floored at zero so every radical stays real; callers relying on the
asymptotic regime are unaffected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class BoundInputs:
    """Shared problem constants for the regret-bound calculators.

    gaps holds the suboptimal arms' gaps (winner excluded), each in
    (0, 1/2].  tau_1 and tau_m are the delay CDF at 1 and at the window
    M; mean_delay is E[D].
    """

    k: int
    t_horizon: int
    gaps: tuple[float, ...]
    alpha: float = 1.0
    m_window: int = 1000
    tau_1: float = 1.0
    tau_m: float = 1.0
    mean_delay: float = 0.0

    def __post_init__(self):
        if self.k < 2 or len(self.gaps) != self.k - 1:
            raise ValueError("gaps must list one value per suboptimal arm")
        if any(not 0.0 < g <= 0.5 for g in self.gaps):
            raise ValueError("gaps must lie in (0, 1/2]")
        if not (0.0 < self.tau_1 <= 1.0 and 0.0 < self.tau_m <= 1.0):
            raise ValueError("tau values must lie in (0, 1]")


def c_delta(alpha: float, m_window: int, k: int, delta: float) -> float:
    """Time threshold beyond which all confidence intervals hold w.p. 1-delta."""
    if alpha <= 0.5:
        raise ValueError(f"alpha must exceed 1/2, got {alpha}")
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    return ((4 * alpha - 1) * (m_window + 1) * k * (k - 1) / ((2 * alpha - 1) * delta)) ** (
        1 / (2 * alpha - 1)
    )


def _round_terms(m: int, t_horizon: int, mean_delay: float) -> tuple[float, float]:
    """gamma_m = 2^-m and log(T gamma_m^2), floored at 0, for valid inputs."""
    if m < 1:
        raise ValueError(f"round index must be >= 1, got {m}")
    if not 0.0 <= mean_delay < math.inf:
        raise ValueError(f"mean delay must be finite and >= 0, got {mean_delay}")
    g = 2.0**-m
    return g, max(math.log(t_horizon * g * g), 0.0)


def _play_target(x: float, m: int, mean_delay: float) -> int:
    """ceil(x), at least 1 play; x must be finite."""
    if not math.isfinite(x):
        raise ValueError(f"round {m} play target overflows for mean delay {mean_delay}")
    # guard against float noise pushing algebraically-integer values up a notch
    return max(1, math.ceil(x - 1e-9))


def _pair_min_gaps(gaps: tuple[float, ...]):
    """Smallest nonzero gap per unordered arm pair, winner included.

    Pairs (winner, j) use gap_j alone: the winner's zero gap would make
    the literal min vacuous, and only the opponent's gap drives how long
    such a pair survives.
    """
    for g in gaps:
        yield g
    n = len(gaps)
    for a in range(n):
        for b in range(a + 1, n):
            yield min(gaps[a], gaps[b])


def rucb_delay_expected_bound(inputs: BoundInputs, use_tau_m: bool = False) -> float:
    """Explicit expected-regret constant for the delay-aware UCB policy.

    Requires alpha > 1: the constant carries a (2a-1)/(a-1) factor that
    diverges at alpha = 1, so the empirical default alpha = 1 has no
    finite value under this expression.  With use_tau_m, tau_1 is replaced
    by tau_m / (M + 1), valid when every pair is compared once up front.
    """
    a = inputs.alpha
    if a <= 1.0:
        raise ValueError(f"alpha must exceed 1 for the expected bound, got {a}")
    k, m, t = inputs.k, inputs.m_window, inputs.t_horizon
    tau = inputs.tau_m / (m + 1) if use_tau_m else inputs.tau_1
    gaps = inputs.gaps
    d_max = max(gaps)
    big_d = (1 / tau**2) * sum(4 * a / g**2 for g in _pair_min_gaps(gaps))
    head = (
        8 + (2 * (4 * a - 1) * (m + 1) * k * (k - 1) / (2 * a - 1)) ** (1 / (2 * a - 1))
        * (2 * a - 1) / (a - 1)
    ) * d_max
    log_t = math.log(t)
    tail = sum(2 * a * (g + 4 * d_max) / (tau**2 * g**2) * log_t for g in gaps)
    return head + 2 * big_d * math.log(2 * big_d) * d_max + tail


def n_schedule(m: int, t_horizon: int, mean_delay: float) -> int:
    """Cumulative plays per ordered pair required by round m.

    Closed form with gamma_m = 2^-m; log(T * gamma^2) is floored at 0,
    which covers small horizons.  Raw formula value (no cross-round
    monotonicity), clamped below at 1 play.
    """
    g, loga = _round_terms(m, t_horizon, mean_delay)
    root = math.sqrt(loga / 2) + math.sqrt(
        loga / 2
        + (4 / 3) * g * loga
        + 2 * g * math.sqrt(2 * mean_delay * loga)
        + 2 * g * mean_delay
    )
    return _play_target(root * root / (g * g), m, mean_delay)


def n_schedule_aggregated(m: int, t_horizon: int, mean_delay: float) -> int:
    """Round-m play target when feedback is aggregated and anonymous."""
    g, loga = _round_terms(m, t_horizon, mean_delay)
    root = math.sqrt(2 * loga) + math.sqrt(
        2 * loga + (8 / 3) * g * loga + 6 * g * m * mean_delay
    )
    return _play_target(root * root / (g * g), m, mean_delay)


def mrr_expected_bound(inputs: BoundInputs) -> float:
    """Explicit expected-regret constant for the round-robin elimination policy."""
    k, t, ed = inputs.k, inputs.t_horizon, inputs.mean_delay
    total = 0.0
    for g in inputs.gaps:
        loga = max(math.log(4 * t * g * g / 9), 0.0)
        total += (
            9 * k * loga / g
            + 4 * k * loga
            + 6 * k * math.sqrt(2 * ed * loga)
            + 81 / g
            + 6 * k * ed
            + 0.5 * k * g
        )
    return total


def lower_bound_value(k: int, t_horizon: int, tau_m: float) -> tuple[float, float]:
    """Hard-instance gap and the sqrt(T K / tau_M) regret scale (unit constant)."""
    if k < 2:
        raise ValueError(f"need at least 2 arms, got {k}")
    if not 0.0 < tau_m <= 1.0:
        raise ValueError(f"tau_m must lie in (0, 1], got {tau_m}")
    delta_star = math.sqrt((k - 1) / (128 * t_horizon * tau_m))
    return delta_star, math.sqrt(t_horizon * k / tau_m)
