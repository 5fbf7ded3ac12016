import math
import re
from functools import partial

import numpy as np
import pytest

from duelsim import (
    DelayCorrectedEstimator,
    DuelingEnvironment,
    ExperimentConfig,
    MrrDbDelay,
    RucbBaseline,
    arithmetic_matrix,
    c_delta,
    deterministic,
    geometric,
    hard_instance_pair,
    lower_bound_value,
    mrr_expected_bound,
    n_schedule,
    n_schedule_aggregated,
    rucb_delay_expected_bound,
    uniform_delay,
)

# ---------------------------------------------------------------------------
# independent single-expression oracles, written directly from the closed forms
# ---------------------------------------------------------------------------


def oracle_c_delta(a, m, k, d):
    return ((4 * a - 1) * (m + 1) * k * (k - 1) / ((2 * a - 1) * d)) ** (1 / (2 * a - 1))


def _guarded_ceil(x):
    # same numeric contract as the calculators: ceil with a 1e-9 tie guard
    return math.ceil(x - 1e-9)


def oracle_n_schedule(m, t, ed):
    g = 2.0**-m
    L = max(math.log(t * g * g), 0.0)
    root = math.sqrt(L / 2) + math.sqrt(
        L / 2 + (4 / 3) * g * L + 2 * g * math.sqrt(2 * ed * L) + 2 * g * ed
    )
    return max(1, _guarded_ceil(root * root / (g * g)))


def oracle_n_schedule_aggregated(m, t, ed):
    g = 2.0**-m
    L = max(math.log(t * g * g), 0.0)
    root = math.sqrt(2 * L) + math.sqrt(2 * L + (8 / 3) * g * L + 6 * g * m * ed)
    return max(1, _guarded_ceil(root * root / (g * g)))


def oracle_rucb_expected(k, t, gaps, a, m, tau):
    dmax = max(gaps)
    pair_mins = list(gaps) + [
        min(gaps[x], gaps[y]) for x in range(len(gaps)) for y in range(x + 1, len(gaps))
    ]
    D = sum(4 * a / (tau * tau * g * g) for g in pair_mins)
    head = (
        8
        + (2 * (4 * a - 1) * (m + 1) * k * (k - 1) / (2 * a - 1)) ** (1 / (2 * a - 1))
        * (2 * a - 1)
        / (a - 1)
    ) * dmax
    return (
        head
        + 2 * D * math.log(2 * D) * dmax
        + sum(2 * a * (g + 4 * dmax) * math.log(t) / (tau * tau * g * g) for g in gaps)
    )


def oracle_mrr_expected(k, t, gaps, ed):
    total = 0.0
    for g in gaps:
        L = max(math.log(4 * t * g * g / 9), 0.0)
        total += (
            9 * k * L / g + 4 * k * L + 6 * k * math.sqrt(2 * ed * L) + 81 / g + 6 * k * ed + k * g / 2
        )
    return total


# ---------------------------------------------------------------------------


class TestCDelta:
    def test_pinned_values(self):
        assert c_delta(1, 1000, 6, 0.1) == oracle_c_delta(1, 1000, 6, 0.1)
        assert c_delta(1, 1000, 6, 0.1) == pytest.approx(900900, rel=1e-12)
        assert c_delta(1, 1000, 6, 1.0) == pytest.approx(90090, rel=1e-12)
        assert c_delta(1, 1000, 2, 0.1) == pytest.approx(60060, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            c_delta(0.5, 1000, 6, 0.1)
        with pytest.raises(ValueError):
            c_delta(1.0, 1000, 6, 0.0)

    def test_oracle_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = float(rng.uniform(0.51, 3.0))
            m = int(rng.integers(1, 5000))
            k = int(rng.integers(2, 30))
            d = float(rng.uniform(1e-4, 1.0))
            assert c_delta(a, m, k, d) == pytest.approx(
                oracle_c_delta(a, m, k, d), rel=1e-9
            )


class TestNSchedule:
    def test_pinned_round_one_value(self):
        assert oracle_n_schedule(1, 200000, 100.0) == 893  # derived first, frozen
        assert n_schedule(1, 200000, 100.0) == 893

    def test_small_horizon_floors_log(self):
        # T * gamma^2 <= 1 makes the log vanish: n = ceil(2 E[D] / gamma)
        assert n_schedule(1, 4, 50.0) == math.ceil(2 * 50.0 / 0.5)
        assert n_schedule(3, 60, 10.0) == math.ceil(2 * 10.0 / 0.125)

    def test_zero_delay_leading_order(self):
        # with E[D] = 0 and gamma small the value tracks 2 log(T g^2) / g^2
        m = 8
        got = n_schedule(m, 10**9, 0.0)
        g = 2.0**-m
        L = math.log(10**9 * g * g)
        lead = 2 * L / (g * g)
        assert got == pytest.approx(lead, rel=0.05)

    def test_oracle_grid(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = int(rng.integers(1, 12))
            t = int(rng.integers(2, 10**7))
            ed = float(rng.uniform(0.0, 500.0))
            assert n_schedule(m, t, ed) == oracle_n_schedule(m, t, ed)

    def test_monotone_in_mean_delay(self):
        values = [n_schedule(1, 200000, ed) for ed in (0.0, 10.0, 50.0, 100.0, 400.0)]
        assert values == sorted(values)

    def test_domain(self):
        with pytest.raises(ValueError):
            n_schedule(0, 1000, 1.0)

    @pytest.mark.parametrize("schedule", [n_schedule, n_schedule_aggregated])
    @pytest.mark.parametrize("mean", [math.inf, math.nan, -1.0])
    def test_non_finite_or_negative_mean_delay_rejected(self, schedule, mean):
        with pytest.raises(ValueError, match=f"^mean delay must be finite and >= 0, got {mean}$"):
            schedule(1, 200000, mean)

    @pytest.mark.parametrize("schedule", [n_schedule, n_schedule_aggregated])
    def test_overflowing_play_target_rejected(self, schedule):
        # 1/p of geometric:1e-308 is finite, but the round's target is not
        with pytest.raises(ValueError, match="^round 1 play target overflows for mean delay"):
            schedule(1, 200000, 1e308)


class TestNScheduleAggregated:
    def test_pinned_value(self):
        assert oracle_n_schedule_aggregated(1, 200000, 100.0) == 2114  # derived, frozen
        assert n_schedule_aggregated(1, 200000, 100.0) == 2114

    def test_zero_delay_collapse(self):
        g = 0.5
        L = math.log(200000 * g * g)
        expected = math.ceil(
            (math.sqrt(2 * L) + math.sqrt(2 * L + (8 / 3) * g * L)) ** 2 / (g * g)
        )
        assert n_schedule_aggregated(1, 200000, 0.0) == expected

    def test_oracle_grid(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m = int(rng.integers(1, 12))
            t = int(rng.integers(2, 10**7))
            ed = float(rng.uniform(0.0, 500.0))
            assert n_schedule_aggregated(m, t, ed) == oracle_n_schedule_aggregated(m, t, ed)

    def test_round_index_enters_directly(self):
        # the anonymity term grows with m even at fixed gamma contributions
        lo = n_schedule_aggregated(1, 10**6, 200.0)
        hi = n_schedule_aggregated(2, 10**6, 200.0)
        assert hi > lo


class TestRucbExpectedBound:
    def test_alpha_at_or_below_one_rejected(self):
        with pytest.raises(ValueError):
            rucb_delay_expected_bound(k=3, t_horizon=1000, gaps=(0.1, 0.2), alpha=1.0)

    def test_oracle_match_single_case(self):
        got = rucb_delay_expected_bound(
            k=2, t_horizon=10**4, gaps=(0.1,), alpha=2.0, m_window=10, tau_1=0.5
        )
        assert got == pytest.approx(
            oracle_rucb_expected(2, 10**4, (0.1,), 2.0, 10, 0.5), rel=1e-9
        )

    def test_no_delay_log_coefficient(self):
        # with tau_1 = 1 the log T part is sum 2a (g + 4 gmax) / g^2 * log T
        gaps = (0.1, 0.25)
        t1 = rucb_delay_expected_bound(
            k=3, t_horizon=10**6, gaps=gaps, alpha=2.0, m_window=5, tau_1=1.0
        )
        t2 = rucb_delay_expected_bound(
            k=3, t_horizon=10**12, gaps=gaps, alpha=2.0, m_window=5, tau_1=1.0
        )
        gmax = max(gaps)
        coeff = sum(2 * 2.0 * (g + 4 * gmax) / (g * g) for g in gaps)
        assert (t2 - t1) == pytest.approx(
            coeff * (math.log(10**12) - math.log(10**6)), rel=1e-9
        )

    def test_delay_scaling_of_tau_terms(self):
        # halving tau_1 quadruples D and the log T coefficient
        gaps = (0.2,)
        a = 2.0
        base = dict(k=2, t_horizon=10**5, gaps=gaps, alpha=a, m_window=10, tau_1=1.0)
        half = dict(base, tau_1=0.5)
        head = (
            8
            + (2 * (4 * a - 1) * 11 * 2 * 1 / (2 * a - 1)) ** (1 / (2 * a - 1))
            * (2 * a - 1)
            / (a - 1)
        ) * 0.2
        d1 = 4 * a / (1.0 * 0.2 * 0.2)
        d2 = 4 * d1
        log_t = math.log(10**5)
        expect1 = head + 2 * d1 * math.log(2 * d1) * 0.2 + 2 * a * (0.2 + 0.8) / 0.04 * log_t
        expect2 = head + 2 * d2 * math.log(2 * d2) * 0.2 + 4 * 2 * a * (0.2 + 0.8) / 0.04 * log_t
        assert rucb_delay_expected_bound(**base) == pytest.approx(expect1, rel=1e-9)
        assert rucb_delay_expected_bound(**half) == pytest.approx(expect2, rel=1e-9)

    @pytest.mark.parametrize(
        ("args", "tau_m", "expected"),
        [
            (dict(k=3, t_horizon=10**4, gaps=(0.1, 0.3), alpha=1.5, m_window=20), 0.9,
             8056020.8139398545),
            (dict(k=2, t_horizon=10**5, gaps=(0.2,), alpha=2.0, m_window=1), 1.0,
             6969.244659504167),
            (dict(k=5, t_horizon=10**5, gaps=(0.1, 0.2, 0.3, 0.4), alpha=2.0, m_window=1000),
             0.5, 358395894635.7762),
            (dict(k=4, t_horizon=2 * 10**5, gaps=(0.05, 0.1, 0.15), alpha=1.2, m_window=99),
             0.3, 6071911219.188229),
        ],
    )
    def test_up_front_tau_form(self, args, tau_m, expected):
        # tau_1 = tau_m / (M + 1) gives, to the bit, what the former
        # use_tau_m=True switch printed for these inputs
        tau_1 = tau_m / (args["m_window"] + 1)
        assert rucb_delay_expected_bound(**args, tau_1=tau_1) == expected
        manual = oracle_rucb_expected(
            args["k"], args["t_horizon"], args["gaps"], args["alpha"], args["m_window"], tau_1
        )
        assert expected == pytest.approx(manual, rel=1e-9)

    def test_oracle_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(2, 8))
            gaps = tuple(float(x) for x in rng.uniform(0.01, 0.5, size=k - 1))
            a = float(rng.uniform(1.01, 3.0))
            m = int(rng.integers(1, 2000))
            tau = float(rng.uniform(0.05, 1.0))
            t = int(rng.integers(10, 10**7))
            got = rucb_delay_expected_bound(
                k=k, t_horizon=t, gaps=gaps, alpha=a, m_window=m, tau_1=tau
            )
            assert got == pytest.approx(
                oracle_rucb_expected(k, t, gaps, a, m, tau), rel=1e-9
            )


class TestMrrExpectedBound:
    def test_zero_delay_kills_delay_terms(self):
        gaps = (0.2, 0.4)
        k, t = 3, 10**5
        expected = sum(
            9 * k * math.log(4 * t * g * g / 9) / g
            + 4 * k * math.log(4 * t * g * g / 9)
            + 81 / g
            + k * g / 2
            for g in gaps
        )
        got = mrr_expected_bound(k=k, t_horizon=t, gaps=gaps, mean_delay=0.0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_log_floor(self):
        # tiny T drives the log negative; floored to zero leaves the constants
        assert mrr_expected_bound(k=2, t_horizon=2, gaps=(0.1,), mean_delay=7.0) == pytest.approx(
            81 / 0.1 + 6 * 2 * 7.0 + 0.5 * 2 * 0.1, rel=1e-12
        )

    def test_oracle_grid(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            k = int(rng.integers(2, 10))
            gaps = tuple(float(x) for x in rng.uniform(0.01, 0.5, size=k - 1))
            t = int(rng.integers(2, 10**7))
            ed = float(rng.uniform(0.0, 300.0))
            assert mrr_expected_bound(k=k, t_horizon=t, gaps=gaps, mean_delay=ed) == pytest.approx(
                oracle_mrr_expected(k, t, gaps, ed), rel=1e-9
            )

    def test_squaring_horizon_doubles_positive_logs(self):
        gaps = (0.3,)
        k = 2
        t = 10**4
        g = gaps[0]
        l_lo = math.log(4 * t * g * g / 9)
        l_hi = math.log(4 * t * t * g * g / 9)
        got = mrr_expected_bound(k=k, t_horizon=t * t, gaps=gaps, mean_delay=0.0) - (
            mrr_expected_bound(k=k, t_horizon=t, gaps=gaps, mean_delay=0.0)
        )
        assert got == pytest.approx((9 * k / g + 4 * k) * (l_hi - l_lo), rel=1e-9)


class TestLowerBound:
    def test_pinned_values(self):
        delta, scale = lower_bound_value(10, 10**5, 1.0)
        assert delta == pytest.approx(8.385254915624212e-4, rel=1e-9)
        assert scale == pytest.approx(math.sqrt(10**5 * 10), rel=1e-12)
        delta2, _ = lower_bound_value(2, 128, 1.0)
        assert delta2 == 1 / 128

    def test_monotone_in_tau(self):
        d1, _ = lower_bound_value(5, 1000, 1.0)
        d2, _ = lower_bound_value(5, 1000, 0.25)
        assert d2 > d1

    def test_domain(self):
        with pytest.raises(ValueError):
            lower_bound_value(1, 100, 1.0)
        with pytest.raises(ValueError):
            lower_bound_value(5, 100, 0.0)


class TestPurity:
    def test_same_inputs_same_outputs(self):
        shared = dict(k=4, t_horizon=12345, gaps=(0.05, 0.1, 0.2))
        rucb = dict(shared, alpha=1.7, m_window=77, tau_1=0.4)
        mrr = dict(shared, mean_delay=33.0)
        assert rucb_delay_expected_bound(**rucb) == rucb_delay_expected_bound(**rucb)
        assert mrr_expected_bound(**mrr) == mrr_expected_bound(**mrr)
        assert n_schedule(3, 999, 12.0) == n_schedule(3, 999, 12.0)

    @pytest.mark.parametrize("calculator", [rucb_delay_expected_bound, mrr_expected_bound])
    def test_calculator_validation(self, calculator):
        with pytest.raises(ValueError, match="^gaps must list one value per suboptimal arm$"):
            calculator(**{**SMALL[calculator], "k": 3})  # wrong gap count
        with pytest.raises(ValueError, match=r"^gaps must be in \(0, 1/2\], got \(0.7,\)$"):
            calculator(**{**SMALL[calculator], "gaps": (0.7,)})  # gap out of range
        with pytest.raises(ValueError, match=r"^tau_1 must be in \(0, 1\], got 0.0$"):
            rucb_delay_expected_bound(**SMALL[rucb_delay_expected_bound], tau_1=0.0)


# ---------------------------------------------------------------------------
# robustness: each numeric argument in turn set to an extreme, the rest valid
# ---------------------------------------------------------------------------

EXTREMES = [0, -1, math.nan, math.inf, -math.inf, 1e-300, 1e300]
RUCB_INPUTS = dict(k=3, t_horizon=10**4, gaps=(0.1, 0.3), alpha=1.5, m_window=20, tau_1=0.3)
MRR_INPUTS = dict(k=3, t_horizon=10**4, gaps=(0.1, 0.3), mean_delay=5.0)
# name -> (calculator taking keyword arguments, valid arguments)
CALCULATORS = {
    "c_delta": (c_delta, dict(alpha=1.0, m_window=1000, k=6, delta=0.1)),
    "n_schedule": (n_schedule, dict(m=1, t_horizon=200000, mean_delay=100.0)),
    "n_schedule_aggregated": (
        n_schedule_aggregated, dict(m=1, t_horizon=200000, mean_delay=100.0)
    ),
    "lower_bound_value": (lower_bound_value, dict(k=10, t_horizon=10**5, tau_m=1.0)),
    "rucb_delay_expected_bound": (rucb_delay_expected_bound, RUCB_INPUTS),
    "mrr_expected_bound": (mrr_expected_bound, MRR_INPUTS),
}
# the smallest valid call of each expected-regret calculator
SMALL = {
    rucb_delay_expected_bound: dict(k=2, t_horizon=100, gaps=(0.1,), alpha=2.0),
    mrr_expected_bound: dict(k=2, t_horizon=100, gaps=(0.1,), mean_delay=1.0),
}


def _swept_arguments():
    """(calculator, argument, index): index picks one gap, None a scalar."""
    for name, (_, valid) in CALCULATORS.items():
        for arg, value in valid.items():
            for index in range(len(value)) if isinstance(value, tuple) else [None]:
                yield name, arg, index


def _assert_finite_real(result, kind, args=None):
    for value in result if isinstance(result, tuple) else (result,):
        assert type(value) is kind and math.isfinite(value), (args, result)


class TestRobustness:
    @pytest.mark.parametrize("name, arg, index", list(_swept_arguments()))
    def test_extreme_argument_returns_a_finite_real_or_raises_value_error(
        self, name, arg, index
    ):
        function, valid = CALCULATORS[name]
        kind = int if name.startswith("n_schedule") else float
        _assert_finite_real(function(**valid), kind)
        for extreme in EXTREMES:
            args = dict(valid)
            if index is None:
                args[arg] = extreme
            else:
                args[arg] = valid[arg][:index] + (extreme,) + valid[arg][index + 1 :]
            try:
                result = function(**args)
            except ValueError:
                continue
            except Exception as exc:  # any other type is the failure
                pytest.fail(f"{name}({args}) raised {exc!r}")
            _assert_finite_real(result, kind, args)

    def test_overflow_fails_with_one_line(self):
        with pytest.raises(ValueError, match=r"^c_delta overflows for \{'alpha': 0.5000001, "):
            c_delta(0.5000001, 1000, 6, 0.1)
        with pytest.raises(ValueError, match=r"^n_schedule overflows for \{'m': 2000, "):
            n_schedule(2000, 100, 1.0)  # gamma^2 underflows to 0
        with pytest.raises(ValueError, match=r"^rucb_delay_expected_bound overflows for "):
            # tau_1^2 underflows to 0
            rucb_delay_expected_bound(k=2, t_horizon=100, gaps=(0.1,), alpha=2.0, tau_1=1e-300)
        with pytest.raises(
            ValueError,
            match=r"^mrr_expected_bound overflows for \{'k': 2, 't_horizon': 100, "
            r"'gaps': \(0.1,\), 'mean_delay': 1e\+308\}$",
        ):
            mrr_expected_bound(k=2, t_horizon=100, gaps=(0.1,), mean_delay=1e308)

    @pytest.mark.parametrize(
        "calculator, args, message",
        [
            *((calculator, dict(k=1, gaps=()), "K must be >= 2, got 1") for calculator in SMALL),
            *((calculator, dict(t_horizon=0), "T must be >= 1, got 0") for calculator in SMALL),
            (mrr_expected_bound, dict(mean_delay=math.inf), "mean delay must be finite and >= 0, got inf"),
            (mrr_expected_bound, dict(mean_delay=math.nan), "mean delay must be finite and >= 0, got nan"),
            (mrr_expected_bound, dict(mean_delay=-5.0), "mean delay must be finite and >= 0, got -5.0"),
            (rucb_delay_expected_bound, dict(alpha=math.inf), "alpha must be finite and > 1/2, got inf"),
            (rucb_delay_expected_bound, dict(m_window=0), "window M must be >= 1, got 0"),
            (rucb_delay_expected_bound, dict(tau_1=1.5), "tau_1 must be in (0, 1], got 1.5"),
        ],
    )
    def test_calculator_domains(self, calculator, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            calculator(**{**SMALL[calculator], **args})

    def test_mrr_reads_no_rucb_constant(self):
        small = SMALL[mrr_expected_bound]
        assert mrr_expected_bound(**small) == 822.1
        with pytest.raises(TypeError):
            mrr_expected_bound(**small, alpha=0.5)

    @pytest.mark.parametrize(
        "function, args, message",
        [
            (n_schedule, (1.5, 1000, 1.0), "round index must be an integer >= 1, got 1.5"),
            (c_delta, (1.0, 10.5, 2.5, 0.1), "K must be an integer >= 2, got 2.5"),
            (c_delta, (1.0, 10.5, 6, 0.1), "window M must be an integer >= 1, got 10.5"),
            (lower_bound_value, (2.5, 100, 1.0), "K must be an integer >= 2, got 2.5"),
            (n_schedule, (1, math.inf, 1.0), "T must be an integer >= 1, got inf"),
            (n_schedule, (True, 1000, 1.0), "round index must be an integer >= 1, got True"),
        ],
        ids=["m-float", "k-float", "window-float", "lower-bound-k-float", "t-inf", "m-bool"],
    )
    def test_counts_must_be_integers(self, function, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            function(*args)

    def test_numpy_integer_counts_accepted(self):
        assert n_schedule(np.int64(1), np.int32(200_000), 100.0) == n_schedule(1, 200_000, 100.0)
        assert c_delta(1.0, np.int64(1000), np.int64(6), 0.1) == c_delta(1.0, 1000, 6, 0.1)


# ---------------------------------------------------------------------------
# every count taken from outside follows bounds.check_count
# ---------------------------------------------------------------------------


def _config(policy, **counts):
    return partial(ExperimentConfig, "arithmetic", policy, **counts)


def _environment(horizon):
    return DuelingEnvironment(
        arithmetic_matrix(3), geometric(0.5), np.random.default_rng(0), horizon=horizon
    )


@pytest.mark.parametrize(
    "make, message",
    [
        (_config("rucb-baseline", horizon=1000.5), "horizon must be an integer >= 1, got 1000.5"),
        (_config("rucb-delay", horizon=True), "horizon must be an integer >= 1, got True"),
        (_config("rucb-delay", trace_stride=10.5), "trace_stride must be an integer >= 1, got 10.5"),
        (_config("rucb-delay", runs=2.5), "runs must be an integer >= 1, got 2.5"),
        (_config("rucb-delay", workers=1.5), "workers must be an integer >= 1, got 1.5"),
        (_config("rucb-delay", base_seed=1.5), "base_seed must be an integer >= 0, got 1.5"),
        (_config("rucb-delay", base_seed=-1), "base_seed must be >= 0, got -1"),
        (_config("mrr-delay", window=2.5), "window must be an integer >= 1, got 2.5"),
        (_config("rucb-delay", window=True), "window must be an integer >= 1, got True"),
        (partial(deterministic, True), "deterministic delay must be an integer >= 1, got True"),
        (partial(uniform_delay, True, 3), "uniform lower bound must be an integer >= 1, got True"),
        (partial(geometric(0.5).tau_table, True), "table length must be an integer >= 1, got True"),
        (
            partial(DelayCorrectedEstimator, 2.5, geometric(0.5).tau_table(10)),
            "K must be an integer >= 1, got 2.5",
        ),
        (
            partial(DelayCorrectedEstimator, 3, [0.0]),
            "tau table must be 1-D, length >= 2, got shape (1,)",
        ),
        (
            partial(DelayCorrectedEstimator, 3, np.zeros((2, 3))),
            "tau table must be 1-D, length >= 2, got shape (2, 3)",
        ),
        (
            partial(DelayCorrectedEstimator, 3, [0.5, 1.0]),
            "tau table must be a CDF: tau(0) = 0, non-decreasing, at most 1",
        ),
        (partial(arithmetic_matrix, 2.5), "arm count must be an integer >= 2, got 2.5"),
        (partial(hard_instance_pair, 3.5, 0.1), "K must be an integer >= 3, got 3.5"),
        (partial(hard_instance_pair, 4, 0.1, 1.5), "k_star must be an integer >= 1, got 1.5"),
        (partial(_environment, horizon=2.5), "horizon must be an integer >= 1, got 2.5"),
        (partial(_environment, horizon=True), "horizon must be an integer >= 1, got True"),
        (
            partial(MrrDbDelay, True, horizon=100, mean_delay=1.0),
            "K must be an integer >= 1, got True",
        ),
        (
            partial(RucbBaseline, 2.5, alpha=0.51, rng=np.random.default_rng(0)),
            "K must be an integer >= 1, got 2.5",
        ),
    ],
    ids=[
        "horizon-float", "horizon-bool", "stride-float", "runs-float", "workers-float",
        "seed-float", "seed-negative", "window-float", "window-bool", "det-bool",
        "uniform-bool", "tau-table-bool", "estimator-k-float", "estimator-tau-short",
        "estimator-tau-2d", "estimator-tau-not-cdf", "arithmetic-k-float", "hard-k-float",
        "hard-k-star-float", "env-horizon-float", "env-horizon-bool", "mrr-k-bool",
        "baseline-k-float",
    ],
)
def test_every_count_argument_fails_with_one_line(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_numpy_integer_counts_accepted_outside_the_calculators():
    config = ExperimentConfig("arithmetic", "rucb-delay", horizon=np.int64(100), runs=np.int32(2))
    assert (config.horizon, config.runs) == (100, 2)
    assert deterministic(np.int64(3)).params == (3,)
    assert geometric(0.5).tau_table(np.int64(4)).shape == (5,)
    assert DelayCorrectedEstimator(np.int64(3), geometric(0.5).tau_table(np.int64(4))).k == 3
