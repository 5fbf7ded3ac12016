import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duelsim import (
    DelayCorrectedEstimator,
    deterministic,
    from_table,
    geometric,
    uniform_delay,
)


def make_est(k=3, m=50, p=0.1):
    dist = geometric(p)
    return DelayCorrectedEstimator(k, dist.tau_table(m)), dist


def window_size(est):
    """Plays currently held in the window: non-sentinel keys in the ring."""
    return int(np.count_nonzero(est._keys[: est.m_window] != est._empty))


def pair_stats(est, i, j, t):
    """(N_ij, Ntilde_ij, S_ij, S_ji) for pair {i, j} at step t, read from matrices(t)."""
    n, n_tilde, s = est.matrices(t)
    return int(n[i, j]), float(n_tilde[i, j]), float(s[i, j]), float(s[j, i])


def mu_hat(est, i, j, t):
    """The preference estimate S_ij / Ntilde_ij at step t, unclipped."""
    _, n_tilde, s_ij, _ = pair_stats(est, i, j, t)
    return s_ij / n_tilde


def brute_force_stats(plays, conversions, i, j, t, m, tau):
    """Direct evaluation of the defining sums from the full play log.

    plays: list of (s, u, v); conversions: {s: d} for winning plays.
    Censored win indicator: converted and d <= min(m, t - s).
    """
    n = 0
    n_tilde = 0.0
    s_ij = 0.0
    s_ji = 0.0
    for (s, u, v) in plays:
        if s >= t:
            continue
        matches_ij = (u, v) == (i, j)
        matches_ji = (u, v) == (j, i)
        if not (matches_ij or matches_ji):
            continue
        w = tau(min(m, t - s))
        y = 1.0 if (s in conversions and conversions[s] <= min(m, t - s)) else 0.0
        if matches_ij:
            n += 1
            n_tilde += w
            s_ij += y
            s_ji += w - y
        if matches_ji:
            n += 1
            n_tilde += w
            s_ji += y
            s_ij += w - y
    return n, n_tilde, s_ij, s_ji


class TestRecordPlay:
    def test_counts_both_orders(self):
        est, _ = make_est()
        est.record_play(0, 1, 1)
        assert est.n[0, 1] == est.n[1, 0] == 1
        est.record_play(1, 0, 2)
        assert est.n[0, 1] == est.n[1, 0] == 2

    def test_self_play_counts_twice(self):
        est, _ = make_est()
        est.record_play(2, 2, 1)
        assert est.n[2, 2] == 2

    def test_out_of_order_rejected(self):
        est, _ = make_est()
        est.record_play(0, 1, 5)
        with pytest.raises(ValueError, match="^play at t=5 after t=5$"):
            est.record_play(0, 1, 5)
        with pytest.raises(ValueError, match="^play at t=3 after t=5$"):
            est.record_play(0, 1, 3)

    def test_window_never_exceeds_m(self):
        est, _ = make_est(m=10)
        for t in range(1, 200):
            est.record_play(0, 1, t)
            assert window_size(est) <= 10


class TestIngestConversion:
    def test_conversion_inside_window_counts(self):
        est, dist = make_est()
        est.record_play(0, 1, 1)
        est.record_play(0, 2, 2)
        est.ingest_conversion(1, 0, 1)
        assert pair_stats(est, 0, 1, 4)[2] == 1.0

    def test_conversion_at_age_m_plus_one_discarded(self):
        est, dist = make_est(m=5)
        est.record_play(0, 1, 1)
        for t in range(2, 8):
            est.record_play(1, 2, t)
        # last record at t=7 folded the s=1 play (age 6 > 5)
        before = pair_stats(est, 0, 1, 7)[2]
        assert est.ingest_conversion(1, 0, 1) is False
        assert pair_stats(est, 0, 1, 7)[2] == before

    def test_conversion_at_age_exactly_m_counts(self):
        est, dist = make_est(m=5)
        est.record_play(0, 1, 1)
        for t in range(2, 6):
            est.record_play(1, 2, t)
        # conversions landing at t=6 are ingested before the play at t=6
        assert est.ingest_conversion(1, 0, 1) is True
        est.record_play(1, 2, 6)
        n, n_tilde, s01, _ = pair_stats(est, 0, 1, 6)
        assert s01 == 1.0

    def test_double_conversion_idempotent(self):
        est, _ = make_est()
        est.record_play(0, 1, 1)
        est.ingest_conversion(1, 0, 1)
        est.ingest_conversion(1, 0, 1)
        assert pair_stats(est, 0, 1, 3)[2] == 1.0

    def test_unknown_play_raises(self):
        est, _ = make_est()
        est.record_play(0, 1, 1)
        with pytest.raises(ValueError, match="^no play recorded at t=2$"):
            est.ingest_conversion(2, 0, 1)  # never played
        with pytest.raises(ValueError, match=r"^play at t=1 was not of pair \(1, 2\)$"):
            est.ingest_conversion(1, 1, 2)  # wrong pair


class TestDiscountedCount:
    def test_single_play_weight_is_tau_of_age(self):
        est, dist = make_est(p=0.01)
        est.record_play(0, 1, 1)
        assert pair_stats(est, 0, 1, 3)[1] == pytest.approx(1 - 0.99**2)  # 0.0199

    def test_no_delay_reduces_to_plain_count(self):
        dist = deterministic(1)
        est = DelayCorrectedEstimator(3, dist.tau_table(20))
        rng = np.random.default_rng(0)
        for t in range(1, 100):
            u, v = rng.integers(3), rng.integers(3)
            est.record_play(u, v, t)
        for i in range(3):
            for j in range(3):
                assert pair_stats(est, i, j, 100)[1] == est.n[i, j]

    def test_old_play_contributes_exactly_tau_m(self):
        est, dist = make_est(m=10)
        est.record_play(0, 1, 1)
        for t in range(2, 30):
            est.record_play(1, 2, t)
        tau_m = dist.tau(10)
        assert pair_stats(est, 0, 1, 30)[1] == pytest.approx(tau_m + 0.0, abs=1e-12)
        # still tau_m much later
        assert pair_stats(est, 0, 1, 300)[1] == pytest.approx(tau_m, abs=1e-12)

    def test_bracketed_by_tau1_and_tau_m_times_n(self):
        est, dist = make_est(k=2, m=30, p=0.2)
        rng = np.random.default_rng(1)
        for t in range(1, 400):
            pair = (0, 1) if rng.random() < 0.5 else (1, 0)
            est.record_play(*pair, t)
        # query one step past the last play so every entry has age >= 1
        n, n_tilde, _, _ = pair_stats(est, 0, 1, 400)
        assert dist.tau(1) * n <= n_tilde <= dist.tau(30) * n

    def test_time_gaps_fold_multiple_entries(self):
        est, dist = make_est(k=3, m=10)
        for t in (1, 2, 3):
            est.record_play(0, 1, t)
        est.record_play(1, 2, 50)  # ages 49, 48, 47 all fold at once
        assert window_size(est) == 1
        tau_m = dist.tau(10)
        assert pair_stats(est, 0, 1, 51)[1] == pytest.approx(3 * tau_m)
        # conversions for the folded plays are quietly discarded
        assert est.ingest_conversion(2, 0, 1) is False
        assert pair_stats(est, 0, 1, 51)[2] == 0.0  # no wins ever landed for arm 0
        assert pair_stats(est, 1, 0, 51)[2] == pytest.approx(3 * tau_m)  # correction side


class TestBiasCorrectedCount:
    def test_converted_first_position_counts_one(self):
        est, _ = make_est()
        est.record_play(0, 1, 1)
        est.ingest_conversion(1, 0, 1)
        assert pair_stats(est, 0, 1, 5)[2] == 1.0

    def test_unconverted_second_position_counts_tau(self):
        est, dist = make_est()
        est.record_play(1, 0, 1)  # play of (j, i) from the view of pair (0, 1)
        age = 3
        assert pair_stats(est, 0, 1, 1 + age)[2] == pytest.approx(dist.tau(age))

    def test_identity_holds_on_random_stream(self):
        est, dist = make_est(k=4, m=25, p=0.15)
        rng = np.random.default_rng(42)
        pending: dict[int, list] = {}
        for t in range(1, 2000):
            for (s, u, v) in pending.pop(t, []):
                est.ingest_conversion(s, u, v)
            u, v = int(rng.integers(4)), int(rng.integers(4))
            if rng.random() < 0.6:
                d = int(rng.geometric(0.15))
                if d <= 25:
                    pending.setdefault(t + d, []).append((t, u, v))
            est.record_play(u, v, t)
            i, j = int(rng.integers(4)), int(rng.integers(4))
            n, n_tilde, s_ij, s_ji = pair_stats(est, i, j, t)
            assert s_ij + s_ji == pytest.approx(n_tilde, rel=1e-12, abs=1e-12)


class TestAgainstBruteForce:
    def test_random_stream_matches_definitions(self):
        k, m, p = 4, 12, 0.2
        dist = geometric(p)
        est = DelayCorrectedEstimator(k, dist.tau_table(m))
        rng = np.random.default_rng(9)
        plays, conversions = [], {}
        pending: dict[int, list] = {}
        for t in range(1, 600):
            for (s, u, v) in pending.pop(t, []):
                est.ingest_conversion(s, u, v)
            # statistics at t describe plays before t: query before recording
            if t % 37 == 0:
                for i in range(k):
                    for j in range(k):
                        n, n_tilde, s_ij, s_ji = pair_stats(est, i, j, t)
                        bn, bnt, bs_ij, bs_ji = brute_force_stats(
                            plays, conversions, i, j, t, m, dist.tau
                        )
                        assert n == bn
                        assert n_tilde == pytest.approx(bnt, abs=1e-9)
                        assert s_ij == pytest.approx(bs_ij, abs=1e-9)
                        assert s_ji == pytest.approx(bs_ji, abs=1e-9)
            u, v = int(rng.integers(k)), int(rng.integers(k))
            plays.append((t, u, v))
            if rng.random() < 0.55:
                d = int(rng.geometric(p))
                conversions[t] = d
                if d <= m:
                    pending.setdefault(t + d, []).append((t, u, v))
            est.record_play(u, v, t)


DELAY_LAWS = st.one_of(
    st.floats(0.05, 1.0).map(geometric),
    st.integers(1, 20).map(deterministic),
    st.tuples(st.integers(1, 20), st.integers(0, 10)).map(
        lambda lo_width: uniform_delay(lo_width[0], sum(lo_width))
    ),
    st.lists(st.integers(0, 5), min_size=1, max_size=20)
    .filter(any)
    .map(lambda w: from_table(np.asarray(w) / sum(w))),
)


@st.composite
def play_streams(draw):
    """(k, m, delay law, steps); see test_matches_definitions for a step."""
    k = draw(st.integers(1, 4))
    m = draw(st.integers(1, 15))
    gap = st.one_of(
        st.just(1), st.just(m), st.integers(2 * m + 1, 3 * m + 2), st.integers(1, m + 1)
    )
    step = st.tuples(
        gap,
        st.integers(0, k - 1),
        st.integers(0, k - 1),
        st.none() | st.integers(1, m),  # delay of a win that lands in the window
        st.integers(0, 2 * m + 2),  # query offset past the new play time
        st.none() | st.integers(0, 50),  # pick of a conversion to deliver again
        st.none() | st.integers(0, 50),  # pick of an out-of-window play to convert
    )
    return k, m, draw(DELAY_LAWS), draw(st.lists(step, min_size=1, max_size=40))


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(play_streams())
    def test_matches_definitions(self, stream):
        """Random play streams against the brute-force definitions.

        Each step first queries at last_t + 1 (the constant-weight view),
        then delivers a duplicate and an out-of-window conversion, then
        queries at the new play time plus an offset (the gathered weights
        unless that is last_t + 1 again), and finally records the play.
        """
        k, m, dist, steps = stream
        est = DelayCorrectedEstimator(k, dist.tau_table(m))
        plays, delivered, pending = [], {}, {}

        def deliver_upto(t):
            for land in sorted(x for x in pending if x <= t):
                for s, u, v, d in pending.pop(land):
                    assert est.ingest_conversion(s, u, v) is True
                    delivered[s] = d

        def check(tq):
            n_mat, nt_mat, s_mat = est.matrices(tq)
            for i in range(k):
                for j in range(k):
                    stats = (n_mat[i, j], nt_mat[i, j], s_mat[i, j], s_mat[j, i])
                    n, n_tilde, s_ij, s_ji = stats
                    brute = brute_force_stats(plays, delivered, i, j, tq, m, dist.tau)
                    assert n == brute[0]
                    assert stats[1:] == pytest.approx(brute[1:], abs=1e-9)
                    assert 0.0 <= n_tilde <= n
                    if i != j:
                        assert s_ij + s_ji == pytest.approx(n_tilde, abs=1e-9)
            assert window_size(est) <= m

        for gap, u, v, delay, offset, again, stale in steps:
            last_t = est.last_t
            t = last_t + gap
            deliver_upto(last_t + 1)
            check(last_t + 1)
            if again is not None and delivered:
                s = list(delivered)[again % len(delivered)]
                _, su, sv = next(p for p in plays if p[0] == s)
                assert est.ingest_conversion(s, su, sv) is (s > last_t - m)
            old = [p for p in plays if p[0] <= last_t - m]
            if stale is not None and old:
                s, su, sv = old[stale % len(old)]
                assert est.ingest_conversion(s, su, sv) is False
            deliver_upto(t)
            check(t + offset)
            est.record_play(u, v, t)
            plays.append((t, u, v))
            if delay is not None:
                pending.setdefault(t + delay, []).append((t, u, v, delay))
        deliver_upto(est.last_t + m)
        check(est.last_t + m)


class TestPreferenceEstimate:
    def test_no_delay_equals_empirical_frequency(self):
        dist = deterministic(1)
        est = DelayCorrectedEstimator(2, dist.tau_table(10))
        rng = np.random.default_rng(3)
        wins = 0
        for t in range(1, 301):
            x = int(rng.random() < 0.7)
            est.record_play(0, 1, t)
            if x:
                wins += 1
                est.ingest_conversion(t, 0, 1)
        # query one step after the final play so it has converted
        assert mu_hat(est, 0, 1, 301) == pytest.approx(wins / 300)
        assert 0.0 <= mu_hat(est, 0, 1, 301) <= 1.0

    def test_single_early_conversion_gives_large_unclipped_value(self):
        est, dist = make_est(p=0.01)
        est.record_play(0, 1, 1)
        est.ingest_conversion(1, 0, 1)
        value = mu_hat(est, 0, 1, 3)
        assert value == pytest.approx(1 / 0.0199, rel=1e-9)
        assert value > 1.0  # unbiased, deliberately not range-clipped

    def test_complements_sum_to_one(self):
        est, dist = make_est(k=3, m=20, p=0.3)
        rng = np.random.default_rng(8)
        pending = {}
        for t in range(1, 500):
            for (s, u, v) in pending.pop(t, []):
                est.ingest_conversion(s, u, v)
            u, v = int(rng.integers(3)), int(rng.integers(3))
            if u != v and rng.random() < 0.5:
                d = int(rng.geometric(0.3))
                if d <= 20:
                    pending.setdefault(t + d, []).append((t, u, v))
            est.record_play(u, v, t)
        assert mu_hat(est, 0, 1, 500) + mu_hat(est, 1, 0, 500) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "dist",
        [
            geometric(0.1),
            deterministic(5),
            uniform_delay(2, 9),
            # 0.2 of the mass lies beyond the window: tau(M) = 0.8
            from_table([0.2, 0.0, 0.3] + [0.0] * 26 + [0.3, 0.0, 0.2]),
        ],
        ids=["geometric", "det", "uniform", "table"],
    )
    def test_monte_carlo_unbiased_short(self, dist):
        # scaled-down version of the unbiasedness acceptance check
        reps, plays, mu_ij, m = 2000, 60, 0.7, 30
        table = dist.tau_table(m)
        rng = np.random.default_rng(77)
        estimates = np.empty(reps)
        for r in range(reps):
            est = DelayCorrectedEstimator(2, table)
            pending = {}
            for t in range(1, plays + 2):
                for (s, u, v) in pending.pop(t, []):
                    est.ingest_conversion(s, u, v)
                if t <= plays:
                    u, v = (0, 1) if t % 2 == 1 else (1, 0)
                    win_prob = mu_ij if (u, v) == (0, 1) else 1 - mu_ij
                    est.record_play(u, v, t)
                    if rng.random() < win_prob:
                        d = int(dist.sample(rng, 1)[0])
                        if d <= m:
                            pending.setdefault(t + d, []).append((t, u, v))
            estimates[r] = mu_hat(est, 0, 1, plays + 1)
        se = estimates.std(ddof=1) / math.sqrt(reps)
        assert abs(estimates.mean() - mu_ij) <= 3 * se


class TestConfidenceBounds:
    def test_diagonal_pinned(self):
        est, _ = make_est()
        assert est.ucb_matrix(10, 1.0)[1, 1] == 0.5

    def test_formula_value(self):
        # engineered state: mu_hat 0.6, N 100, Ntilde 50 via direct fields
        est, _ = make_est(k=2, m=5)
        est.n[0, 1] = est.n[1, 0] = 100
        est._folded_plays[0, 1] = 50.0
        est._wins[0, 1] = 30.0
        est.tau_m = 1.0
        # Ntilde = tau_m * 50 = 50, S = 30 + (0 - 0) = 30 -> mu_hat 0.6
        u = est.ucb_matrix(1000, 1.0)[0, 1]
        assert u == pytest.approx(0.6 + math.sqrt(100 * math.log(1000) / 2500), rel=1e-12)
        assert u == pytest.approx(1.1257, abs=5e-5)

    def test_no_data_defaults(self):
        est, _ = make_est()
        u = est.ucb_matrix(10, 1.0)
        assert u[0, 1] == 1.0
        assert 1.0 - u[1, 0] == 0.0

    def test_ucb_lcb_complement(self):
        est, dist = make_est(k=3, m=15, p=0.25)
        rng = np.random.default_rng(11)
        pending = {}
        for t in range(1, 300):
            for (s, u, v) in pending.pop(t, []):
                est.ingest_conversion(s, u, v)
            u, v = int(rng.integers(3)), int(rng.integers(3))
            if rng.random() < 0.5:
                d = int(rng.geometric(0.25))
                if d <= 15:
                    pending.setdefault(t + d, []).append((t, u, v))
            est.record_play(u, v, t)
        ucb = est.ucb_matrix(300, 1.0)
        for i in range(3):
            for j in range(3):
                if i != j:
                    # 1 - U_ij is j's lower bound against i: mu_hat_ji minus the radius
                    radius = ucb[j, i] - mu_hat(est, j, i, 300)
                    lcb_ji = 1.0 - ucb[i, j]
                    assert lcb_ji == pytest.approx(mu_hat(est, j, i, 300) - radius)


def errstate_ucb_matrix(est, t, alpha, matrices=None):
    """The whole-matrix bound as first written, under np.errstate."""
    n, n_tilde, s = est.matrices(t) if matrices is None else matrices
    with np.errstate(divide="ignore", invalid="ignore"):
        u = s / n_tilde + np.sqrt(alpha * n * math.log(t) / (n_tilde * n_tilde))
    u[n_tilde == 0.0] = 1.0
    np.fill_diagonal(u, 0.5)
    return u


class TestUcbMatrix:
    LAWS = [geometric(0.2), deterministic(5), uniform_delay(2, 9)]

    @staticmethod
    def assert_same_bounds(est, t, alpha):
        with np.errstate(all="raise"):
            got = est.ucb_matrix(t, alpha)
        assert np.array_equal(got, errstate_ucb_matrix(est, t, alpha))

    @pytest.mark.parametrize("dist", LAWS)
    def test_fresh_estimator(self, dist):
        est = DelayCorrectedEstimator(4, dist.tau_table(10))
        for t in (1, 2, 50):
            self.assert_same_bounds(est, t, 1.0)

    @pytest.mark.parametrize("dist", LAWS)
    @pytest.mark.parametrize("seed", range(3))
    def test_after_random_plays(self, dist, seed):
        k, m = 4, 10
        est = DelayCorrectedEstimator(k, dist.tau_table(m))
        rng = np.random.default_rng(seed)
        pending: dict[int, list] = {}
        for t in range(1, 120):
            for (s, u, v) in pending.pop(t, []):
                est.ingest_conversion(s, u, v)
            # at last_t + 1, the query time of the hot loop
            self.assert_same_bounds(est, t, 1.5)
            # elsewhere: earlier t leave recorded plays with zero weight
            for tq in (max(1, t - 3), t + 7):
                self.assert_same_bounds(est, tq, 1.0)
            u, v = int(rng.integers(k)), int(rng.integers(k))
            if rng.random() < 0.5:
                d = int(dist.sample(rng, 1)[0])
                if d <= m:
                    pending.setdefault(t + d, []).append((t, u, v))
            est.record_play(u, v, t)

    def test_matrices_n_is_a_read_only_live_view(self):
        est, _ = make_est(k=2, m=5)
        est.record_play(0, 1, 1)
        n, _, _ = est.matrices(2)
        assert not n.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            n[0, 1] = 99
        assert est.n[0, 1] == 1
        est.record_play(1, 0, 2)
        assert n[0, 1] == n[1, 0] == 2


def gathered_matrices(est, tau, times, t):
    """matrices(t) with weights gathered from stored play times, as first written.

    tau is the table est was built from and times[s % M] = s for every
    recorded play s.  The weights are tau(clip(t - s, 0, M)) in the
    chronological order of the window.
    """
    k, m = est.k, est.m_window
    h = (est.last_t + 1) % m
    chronological = np.concatenate((times[h:], times[:h]))
    w = tau[np.clip(t - chronological, 0, m)]
    window = np.bincount(est._keys[h : h + m], weights=w, minlength=k * k + 1)
    a = est.tau_m * est._folded_plays + window[: k * k].reshape(k, k)
    y = est._wins
    return est.n.copy(), a + a.T, y + (a.T - y.T)


class TestWeightView:
    """The ext-table view reproduces the stored-time gather at every query time."""

    LAWS = [geometric(0.2), deterministic(5), uniform_delay(2, 9), deterministic(1)]

    @pytest.mark.parametrize("dist", LAWS)
    @pytest.mark.parametrize("m", [1, 3, 10])
    @pytest.mark.parametrize("seed", range(2))
    def test_matches_stored_time_gather(self, dist, m, seed):
        k = 3
        tau = dist.tau_table(m)
        est = DelayCorrectedEstimator(k, tau)
        times = np.zeros(m, dtype=np.int64)
        rng = np.random.default_rng(seed)
        pending: dict[int, list] = {}
        t = 0
        for _ in range(60):
            # mostly consecutive steps, sometimes gaps past M and 2M
            t += int(rng.choice([1, 1, 1, 2, m + 1, 2 * m + 3]))
            for s in range(est.last_t + 1, t + 1):
                for (sp, u, v) in pending.pop(s, []):
                    est.ingest_conversion(sp, u, v)
            for tq in range(est.last_t - m - 2, est.last_t + m + 3):
                want = gathered_matrices(est, tau, times, tq)
                for got, ref in zip(est.matrices(tq), want):
                    assert np.array_equal(got, ref)
                if tq >= 1:
                    with np.errstate(all="raise"):
                        got = est.ucb_matrix(tq, 1.5)
                    assert np.array_equal(got, errstate_ucb_matrix(est, tq, 1.5, want))
            u, v = int(rng.integers(k)), int(rng.integers(k))
            if rng.random() < 0.6:
                d = int(dist.sample(rng, 1)[0])
                if d <= m:
                    pending.setdefault(t + d, []).append((t, u, v))
            est.record_play(u, v, t)
            times[t % m] = t


class TestStorageAndDump:
    def test_storage_stays_bounded(self):
        est, _ = make_est(k=3, m=40)
        rng = np.random.default_rng(2)
        pending = {}
        for t in range(1, 5000):
            for (s, u, v) in pending.pop(t, []):
                est.ingest_conversion(s, u, v)
            u, v = t % 3, (t + 1) % 3
            est.record_play(u, v, t)
            if rng.random() < 0.7:
                d = int(rng.geometric(0.1))
                if d <= 40:
                    pending.setdefault(t + d, []).append((t, u, v))
        assert window_size(est) <= 40
        assert est._keys.shape == (2 * 40,)
        assert est._converted.shape == (40,)
        assert np.count_nonzero(est._converted) <= window_size(est)
