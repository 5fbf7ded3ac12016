"""Closed-form schedule and regret-bound calculators.

All calculators are pure functions of their inputs and use the natural
logarithm.  Logarithms that would go negative at small arguments are
floored at zero so every radical stays real; callers relying on the
asymptotic regime are unaffected.  Each calculator takes only the
constants it reads, named as in COUNTS and DOMAINS: k (K), t_horizon
(T), m (round index), m_window (window M), alpha, delta, tau_1 and tau_m
(the delay CDF at 1 and at M), mean_delay (E[D]), and gaps (the
suboptimal arms' gaps, winner excluded, one per arm: len(gaps) == k - 1).
An argument outside its COUNTS or DOMAINS entry, a gap count other than
k - 1, or a result that overflows fails with a one-line ValueError.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import numbers

# count argument -> (name in errors, least value)
COUNTS = {"k": ("K", 2), "t_horizon": ("T", 1), "m": ("round index", 1), "m_window": ("window M", 1)}
# argument -> (name in errors, domain in words, membership test)
DOMAINS = {
    "alpha": ("alpha", "finite and > 1/2", lambda x: 0.5 < x < math.inf),
    "delta": ("delta", "in (0, 1]", lambda x: 0.0 < x <= 1.0),
    "tau_1": ("tau_1", "in (0, 1]", lambda x: 0.0 < x <= 1.0),
    "tau_m": ("tau_m", "in (0, 1]", lambda x: 0.0 < x <= 1.0),
    "mean_delay": ("mean delay", "finite and >= 0", lambda x: 0.0 <= x < math.inf),
    "gaps": ("gaps", "in (0, 1/2]", lambda gaps: all(0.0 < g <= 0.5 for g in gaps)),
}


def check_count(name: str, x, low: int) -> int:
    """x as an int: the library's one count rule (an int or numpy integer, never bool, >= low)."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValueError(f"{name} must be an integer >= {low}, got {x}")
    if x < low:
        raise ValueError(f"{name} must be >= {low}, got {x}")
    return int(x)


def check_bool(name: str, x) -> None:
    """Fail with one line unless x is a bool: a truthy "no" must not switch a mode on."""
    if not isinstance(x, bool):
        raise ValueError(f"{name} must be True or False, got {x!r}")


def is_real(x) -> bool:
    """x is a real number (int, float or numpy scalar), never bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def check_domain(arg: str, x) -> None:
    """Fail with one line unless x lies in DOMAINS[arg]; a scalar must be real."""
    name, domain, inside = DOMAINS[arg]
    if not (arg == "gaps" or is_real(x)) or not inside(x):
        raise ValueError(f"{name} must be {domain}, got {x}")


def _calculator(function):
    """function with its arguments checked against COUNTS and DOMAINS, then
    gaps against k; a result that overflows (inf, nan or a float error on the
    way) fails with one line."""
    signature = inspect.signature(function)

    @functools.wraps(function)
    def checked(*args, **kwargs):
        arguments = signature.bind(*args, **kwargs).arguments
        for arg, (name, low) in COUNTS.items():
            if arg in arguments:
                check_count(name, arguments[arg], low)
        for arg in DOMAINS:
            if arg in arguments:
                check_domain(arg, arguments[arg])
        if "gaps" in arguments and len(arguments["gaps"]) != arguments["k"] - 1:
            raise ValueError("gaps must list one value per suboptimal arm")
        try:
            result = function(*args, **kwargs)
            if all(map(math.isfinite, result if isinstance(result, tuple) else (result,))):
                return result
        except (OverflowError, ZeroDivisionError):
            pass
        raise ValueError(f"{function.__name__} overflows for {dict(arguments)}")

    return checked


@_calculator
def c_delta(alpha: float, m_window: int, k: int, delta: float) -> float:
    """Time threshold beyond which all confidence intervals hold w.p. 1-delta."""
    base = (4 * alpha - 1) * (m_window + 1) * k * (k - 1) / ((2 * alpha - 1) * delta)
    return base ** (1 / (2 * alpha - 1))


def _round_terms(m: int, t_horizon: int) -> tuple[float, float]:
    """gamma_m = 2^-m and log(T gamma_m^2), floored at 0 (T gamma_m^2 may underflow)."""
    g = 2.0**-m
    return g, math.log(max(t_horizon * g * g, 1.0))


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
    yield from gaps
    yield from (min(a, b) for a, b in itertools.combinations(gaps, 2))


@_calculator
def rucb_delay_expected_bound(
    k: int,
    t_horizon: int,
    gaps: tuple[float, ...],
    alpha: float,
    m_window: int = 1000,
    tau_1: float = 1.0,
) -> float:
    """Explicit expected-regret constant for the delay-aware UCB policy.

    Requires alpha > 1: the constant carries a (2a-1)/(a-1) factor that
    diverges at alpha = 1, so the empirical default alpha = 1 has no
    finite value under this expression.  The paper's up-front form, valid
    when every pair is compared once first, passes tau_1 = tau_m / (M + 1).
    """
    a = alpha
    if a <= 1.0:
        raise ValueError(f"alpha must exceed 1 for the expected bound, got {a}")
    d_max = max(gaps)
    big_d = (1 / tau_1**2) * sum(4 * a / g**2 for g in _pair_min_gaps(gaps))
    head = (8 + c_delta(a, m_window, k, 0.5) * (2 * a - 1) / (a - 1)) * d_max
    log_t = math.log(t_horizon)
    tail = sum(2 * a * (g + 4 * d_max) / (tau_1**2 * g**2) * log_t for g in gaps)
    return head + 2 * big_d * math.log(2 * big_d) * d_max + tail


@_calculator
def n_schedule(m: int, t_horizon: int, mean_delay: float) -> int:
    """Cumulative plays per ordered pair required by round m.

    Closed form with gamma_m = 2^-m; log(T * gamma^2) is floored at 0,
    which covers small horizons.  Raw formula value (no cross-round
    monotonicity), clamped below at 1 play.
    """
    g, loga = _round_terms(m, t_horizon)
    root = math.sqrt(loga / 2) + math.sqrt(
        loga / 2
        + (4 / 3) * g * loga
        + 2 * g * math.sqrt(2 * mean_delay * loga)
        + 2 * g * mean_delay
    )
    return _play_target(root * root / (g * g), m, mean_delay)


@_calculator
def n_schedule_aggregated(m: int, t_horizon: int, mean_delay: float) -> int:
    """Round-m play target when feedback is aggregated and anonymous."""
    g, loga = _round_terms(m, t_horizon)
    root = math.sqrt(2 * loga) + math.sqrt(
        2 * loga + (8 / 3) * g * loga + 6 * g * m * mean_delay
    )
    return _play_target(root * root / (g * g), m, mean_delay)


@_calculator
def mrr_expected_bound(
    k: int, t_horizon: int, gaps: tuple[float, ...], mean_delay: float
) -> float:
    """Explicit expected-regret constant for the round-robin elimination policy."""
    total = 0.0
    for g in gaps:
        loga = math.log(max(4 * t_horizon * g * g / 9, 1.0))
        total += (
            9 * k * loga / g
            + 4 * k * loga
            + 6 * k * math.sqrt(2 * mean_delay * loga)
            + 81 / g
            + 6 * k * mean_delay
            + 0.5 * k * g
        )
    return total


@_calculator
def lower_bound_value(k: int, t_horizon: int, tau_m: float) -> tuple[float, float]:
    """Hard-instance gap and the sqrt(T K / tau_M) regret scale (unit constant)."""
    delta_star = math.sqrt((k - 1) / (128 * t_horizon * tau_m))
    return delta_star, math.sqrt(t_horizon * k / tau_m)
