import math
import re

import numpy as np
import pytest

from duelsim import deterministic, from_table, geometric, parse_delay_spec, uniform_delay
from duelsim.delays import MAX_DELAY

# 99.9% chi-square quantiles by degrees of freedom, for the sampler fits
CHI2_999 = {4: 18.467, 9: 27.877, 10: 29.588}


def test_geometric_cdf_values():
    d = geometric(0.01)
    assert d.tau(0) == 0.0
    assert d.tau(1) == pytest.approx(0.01)
    assert d.tau(1000) == pytest.approx(1 - 0.99**1000)
    # the closed form, not the loosely rounded 0.999
    assert d.tau(1000) == pytest.approx(0.9999568, abs=1e-6)
    assert d.mean == pytest.approx(100.0)


def test_deterministic_cdf_is_step():
    d = deterministic(1)
    assert d.tau(0) == 0.0
    assert all(d.tau(t) == 1.0 for t in (1, 2, 5, 1000))
    d3 = deterministic(3)
    assert d3.tau(2) == 0.0 and d3.tau(3) == 1.0
    assert d3.mean == 3.0


def test_uniform_cdf_and_mean():
    d = uniform_delay(2, 5)
    assert [d.tau(x) for x in (1, 2, 3, 4, 5, 6)] == [0.0, 0.25, 0.5, 0.75, 1.0, 1.0]
    assert d.mean == 3.5


def test_table_cdf_mean_and_validation():
    d = from_table([0.5, 0.25, 0.25])
    assert d.tau(1) == 0.5 and d.tau(2) == 0.75 and d.tau(3) == 1.0 and d.tau(9) == 1.0
    assert d.mean == pytest.approx(1.75)
    with pytest.raises(ValueError):
        from_table([0.5, 0.4])  # does not sum to 1
    with pytest.raises(ValueError):
        from_table([1.2, -0.2])


def test_cdf_monotone_in_unit_interval():
    # the cumulative sum of [1/6, 4/6, 1/6, 0] passes 1 before its last entry
    tables = (from_table([0.1, 0.9]), from_table([1 / 6, 4 / 6, 1 / 6, 0.0]))
    for d in (geometric(0.3), deterministic(4), uniform_delay(1, 7), *tables):
        taus = [d.tau(x) for x in range(0, 30)]
        assert all(0.0 <= x <= 1.0 for x in taus)
        assert all(b >= a for a, b in zip(taus, taus[1:]))


def test_tau_table_shape():
    t = geometric(0.1).tau_table(50)
    assert t.shape == (51,)
    assert t[0] == 0.0 and t[1] == pytest.approx(0.1)


def _chi2_fit(dist, bins, n=20000, seed=7):
    """Chi-square statistic for n samples against the CDF-implied bins.

    bins is a list of delay sets; the last one catches everything beyond.
    """
    rng = np.random.default_rng(seed)
    draws = dist.sample(rng, n)
    assert np.all(draws >= 1)
    stat = 0.0
    covered = 0.0
    for cell in bins[:-1]:
        p = sum(dist.tau(d) - dist.tau(d - 1) for d in cell)
        covered += p
        observed = np.isin(draws, list(cell)).sum()
        stat += (observed - n * p) ** 2 / (n * p)
    p_rest = 1.0 - covered
    observed_rest = n - np.isin(draws, [d for cell in bins[:-1] for d in cell]).sum()
    stat += (observed_rest - n * p_rest) ** 2 / (n * p_rest)
    return stat, len(bins) - 1


def test_geometric_sampler_matches_cdf():
    stat, df = _chi2_fit(geometric(0.3), [[1], [2], [3], [4], [5], [6], [7], [8], [9], [10], []])
    assert stat < CHI2_999[df]


def test_uniform_sampler_matches_cdf():
    dist = uniform_delay(1, 5)
    rng = np.random.default_rng(11)
    draws = dist.sample(rng, 20000)
    stat = 0.0
    for d in range(1, 6):
        p = 0.2
        obs = (draws == d).sum()
        stat += (obs - 20000 * p) ** 2 / (20000 * p)
    assert stat < CHI2_999[4]


def test_table_sampler_matches_cdf():
    dist = from_table([0.2, 0.3, 0.5])
    rng = np.random.default_rng(13)
    draws = dist.sample(rng, 20000)
    stat = 0.0
    for d, p in ((1, 0.2), (2, 0.3), (3, 0.5)):
        obs = (draws == d).sum()
        stat += (obs - 20000 * p) ** 2 / (20000 * p)
    assert stat < CHI2_999[4]


def test_deterministic_sampler_consumes_no_randomness():
    dist = deterministic(4)
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state["state"]["state"]
    draws = dist.sample(rng, 5)
    assert draws.dtype == np.int64 and draws.tolist() == [4] * 5
    assert rng.bit_generator.state["state"]["state"] == before


def test_parse_delay_spec(tmp_path):
    assert parse_delay_spec("geometric:0.01").kind == "geometric"
    assert parse_delay_spec("det:3").params == (3,)
    assert parse_delay_spec("uniform:2,5").params == (2, 5)
    table = tmp_path / "delays.txt"
    table.write_text("0.5\n0.5\n")
    d = parse_delay_spec(f"table:{table}")
    assert d.kind == "table" and d.mean == pytest.approx(1.5)
    with pytest.raises(ValueError):
        parse_delay_spec("exponential:1.0")
    with pytest.raises(ValueError):
        parse_delay_spec("geometric")


@pytest.mark.parametrize("spec", ["uniform:5", "det:1.5", "uniform:3,x", "geometric:abc"])
def test_parse_delay_spec_malformed_number(spec):
    with pytest.raises(ValueError, match=f"^malformed delay spec '{spec}'$"):
        parse_delay_spec(spec)


def test_table_file_with_a_non_number_line_names_the_line(tmp_path):
    table = tmp_path / "bad.txt"
    table.write_text("0.5\n\nx\n")
    spec = f"table:{table}"
    message = re.escape(f"malformed delay spec '{spec}' (line 3)")
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_delay_spec(spec)


@pytest.mark.parametrize(
    "spec, message",
    [
        ("det:0", "deterministic delay must be >= 1, got 0"),
        ("geometric:nan", r"geometric parameter must be in \(0, 1\], got nan"),
    ],
)
def test_parse_delay_spec_keeps_range_messages(spec, message):
    with pytest.raises(ValueError, match=message):
        parse_delay_spec(spec)


def test_geometric_parameter_is_never_bool():
    # True == 1 would otherwise build the no-delay law
    with pytest.raises(ValueError, match=r"^geometric parameter must be in \(0, 1\], got True$"):
        geometric(True)


def test_mean_matches_samples():
    rng = np.random.default_rng(5)
    dist = geometric(0.2)
    draws = dist.sample(rng, 20000)
    assert np.mean(draws) == pytest.approx(dist.mean, rel=0.05)


class TestLongestDelay:
    """No delay exceeds MAX_DELAY = 2**62, so a landing step s + d fits in int64."""

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("det:9223372036854775807", "deterministic delay must be at most 2**62"),
            ("det:100000000000000000000000000000", "deterministic delay must be at most 2**62"),
            (f"uniform:1,{2**62 + 1}", "uniform upper bound must be at most 2**62"),
            ("geometric:1e-320", "geometric parameter 1e-320 too small: its mean 1/p overflows"),
        ],
    )
    def test_out_of_range_laws_rejected(self, spec, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            parse_delay_spec(spec)

    def test_bound_itself_accepted(self):
        assert deterministic(MAX_DELAY).sample(np.random.default_rng(0), 3).tolist() == [
            MAX_DELAY
        ] * 3
        assert uniform_delay(MAX_DELAY, MAX_DELAY).mean == float(MAX_DELAY)

    def test_tiny_geometric_draws_clipped(self):
        # numpy draws the int64 maximum here; the sampler caps it
        draws = geometric(1e-300).sample(np.random.default_rng(0), 100)
        assert draws.dtype == np.int64
        assert draws.tolist() == [MAX_DELAY] * 100

    def test_clip_leaves_ordinary_draws_alone(self):
        want = np.random.default_rng(4).geometric(0.01, 5000)
        got = geometric(0.01).sample(np.random.default_rng(4), 5000)
        assert np.array_equal(got, want)
