import numpy as np
import pytest

from duelsim import (
    DuelingEnvironment,
    RegretTracker,
    arithmetic_matrix,
    deterministic,
    geometric,
    validate_matrix,
)
from duelsim.errors import (
    ComplementViolation,
    HorizonExceeded,
    ModeMismatch,
    NoCondorcetWinner,
)


def _brute_force_winner(mu):
    """Independent check: rows strictly dominating every opponent."""
    k = mu.shape[0]
    return [i for i in range(k) if all(mu[i, j] > 0.5 for j in range(k) if j != i)]


class TestValidateMatrix:
    def test_arithmetic_is_valid_with_first_winner(self):
        m = arithmetic_matrix(10)
        assert m.winner == 0
        assert _brute_force_winner(m.mu) == [0]

    def test_all_half_has_no_winner(self):
        with pytest.raises(NoCondorcetWinner):
            validate_matrix([[0.5, 0.5], [0.5, 0.5]])

    def test_rock_paper_scissors_cycle_rejected(self):
        mu = np.full((3, 3), 0.5)
        mu[0, 1] = mu[1, 2] = mu[2, 0] = 0.9
        mu[1, 0] = mu[2, 1] = mu[0, 2] = 0.1
        assert _brute_force_winner(mu) == []
        with pytest.raises(NoCondorcetWinner):
            validate_matrix(mu)

    def test_complement_violation_rejected(self):
        mu = [[0.5, 0.6], [0.6, 0.5]]
        with pytest.raises(ComplementViolation):
            validate_matrix(mu)

    def test_small_rounding_error_is_repaired_exactly(self):
        mu = np.array([[0.5, 0.7000004], [0.2999999, 0.5]])
        m = validate_matrix(mu)
        assert m.mu[0, 1] + m.mu[1, 0] == 1.0
        assert m.mu[0, 1] == 0.7000004  # upper triangle is authoritative

    def test_diagonal_must_be_half(self):
        mu = np.array([[0.6, 0.7], [0.3, 0.5]])
        with pytest.raises(ComplementViolation):
            validate_matrix(mu)

    def test_rejects_non_square_and_out_of_range(self):
        with pytest.raises(ValueError):
            validate_matrix([[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]])
        with pytest.raises(ValueError):
            validate_matrix([[0.5, 1.2], [-0.2, 0.5]])

    def test_rejects_nan(self):
        mu = [[0.5, 0.7, 0.8], [0.3, 0.5, float("nan")], [0.2, 0.6, 0.5]]
        with pytest.raises(ValueError, match=r"entry \(1, 2\) = nan outside \[0, 1\]"):
            validate_matrix(mu)

    def test_complement_exact_after_validation(self):
        rng = np.random.default_rng(0)
        raw = rng.uniform(0.05, 0.95, size=(6, 6))
        raw = np.triu(raw, 1)
        mu = raw + np.tril(1 - raw.T, -1) + 0.5 * np.eye(6)
        mu[0, 1:] = 0.9
        mu[1:, 0] = 0.1
        m = validate_matrix(mu)
        assert np.all(m.mu + m.mu.T == 1.0)


class TestEnvStep:
    def test_degenerate_bernoulli_always_wins(self):
        mu = np.full((3, 3), 0.5)
        mu[0, 1], mu[1, 0] = 1.0, 0.0
        mu[0, 2], mu[2, 0] = 0.9, 0.1
        mu[1, 2], mu[2, 1] = 0.6, 0.4
        env = DuelingEnvironment(validate_matrix(mu), deterministic(1), np.random.default_rng(2))
        assert all(env.step(0, 1).x == 1 for _ in range(200))

    def test_win_frequency_matches_probability(self):
        env = DuelingEnvironment(
            arithmetic_matrix(10), geometric(0.01), np.random.default_rng(3)
        )
        wins = sum(env.step(0, 9).x for _ in range(20000))
        assert wins / 20000 == pytest.approx(0.725, abs=0.01)

    def test_horizon_enforced(self):
        env = DuelingEnvironment(
            arithmetic_matrix(5), deterministic(1), np.random.default_rng(0), horizon=3
        )
        for _ in range(3):
            env.step(0, 0)
        with pytest.raises(HorizonExceeded):
            env.step(0, 0)

    def test_self_comparison_is_fair_coin(self):
        env = DuelingEnvironment(arithmetic_matrix(5), deterministic(1), np.random.default_rng(4))
        wins = sum(env.step(2, 2).x for _ in range(20000))
        assert wins / 20000 == pytest.approx(0.5, abs=0.012)

    def test_outcome_and_delay_independent(self):
        env = DuelingEnvironment(arithmetic_matrix(5), geometric(0.2), np.random.default_rng(5))
        outs = [env.step(0, 1) for _ in range(20000)]
        x = np.array([o.x for o in outs], dtype=float)
        d = np.array([o.d for o in outs], dtype=float)
        assert abs(np.corrcoef(x, d)[0, 1]) < 4 / np.sqrt(20000)


def censored_view(outcomes, t):
    """Full censored view at step t: (s, Y_{s,t}) for every play s < t."""
    return [(o.s, 1 if o.x == 1 and o.d <= t - o.s else 0) for o in outcomes if o.s < t]


class TestObservation:
    def test_loss_never_visible(self):
        mu = np.full((2, 2), 0.5)
        mu[0, 1], mu[1, 0] = 1.0, 0.0
        env = DuelingEnvironment(validate_matrix(mu), deterministic(2), np.random.default_rng(0))
        outs = [env.step(1, 0)]  # x = 0 surely
        for t in range(2, 30):
            outs.append(env.step(1, 0))
            assert censored_view(outs, t)[0] == (1, 0)

    def test_censoring_definition(self):
        # play at s=10 with delay 2 becomes visible exactly at t=12
        mu = np.full((2, 2), 0.5)
        mu[0, 1], mu[1, 0] = 1.0, 0.0
        env = DuelingEnvironment(validate_matrix(mu), deterministic(2), np.random.default_rng(1))
        outs = [env.step(1, 0) for _ in range(9)]  # losses, invisible
        out = env.step(0, 1)
        assert out.s == 10 and out.x == 1 and out.d == 2
        outs += [out, env.step(1, 0), env.step(1, 0)]
        y_by_t = {t: dict(censored_view(outs, t)).get(10) for t in (11, 12)}
        assert y_by_t == {11: 0, 12: 1}
        assert env.observe_new(11) == [] and env.observe_new(12) == [out]

    def test_unit_delay_reveals_everything_next_step(self):
        env = DuelingEnvironment(arithmetic_matrix(5), deterministic(1), np.random.default_rng(2))
        outs = [env.step(0, 1) for _ in range(50)]
        view = dict(censored_view(outs, 51))
        assert view == {o.s: o.x for o in outs}

    def test_visibility_monotone_and_bounded_by_outcome(self):
        env = DuelingEnvironment(arithmetic_matrix(5), geometric(0.3), np.random.default_rng(3))
        outs = [env.step(0, 1) for _ in range(40)]
        series = {o.s: [] for o in outs}
        for t in range(1, 42):
            for s, y in censored_view(outs, t):
                series[s].append(y)
        for o in outs:
            ys = series[o.s]
            assert all(b >= a for a, b in zip(ys, ys[1:]))
            assert all(y <= o.x for y in ys)
            # once visible, stays visible
            if 1 in ys:
                first = ys.index(1)
                assert all(y == 1 for y in ys[first:])

    def test_event_view_interconvertible_with_full_view(self):
        env = DuelingEnvironment(arithmetic_matrix(5), geometric(0.3), np.random.default_rng(4))
        outs = [env.step(1, 2) for _ in range(60)]
        landed: set[int] = set()
        for t in range(1, 61):
            landed |= {o.s for o in env.observe_new(t)}
            reconstructed = {s: (1 if s in landed else 0) for s, _ in censored_view(outs, t)}
            assert reconstructed == dict(censored_view(outs, t))

    def test_cannot_observe_future(self):
        env = DuelingEnvironment(arithmetic_matrix(5), deterministic(1), np.random.default_rng(5))
        env.step(0, 1)
        with pytest.raises(ValueError):
            env.observe_new(5)


class TestDelivery:
    def _env(self, aggregated, delay=deterministic(2)):
        mu = np.full((2, 2), 0.5)
        mu[0, 1], mu[1, 0] = 1.0, 0.0
        return DuelingEnvironment(
            validate_matrix(mu), delay, np.random.default_rng(0), aggregated=aggregated
        )

    def test_each_step_delivered_once(self):
        std = self._env(aggregated=False)
        out = std.step(0, 1)  # s=1 wins, lands at 3
        std.step(0, 1)
        std.step(0, 1)
        assert std.observe_new(3) == [out]
        assert std.observe_new(3) == []
        agg = self._env(aggregated=True)
        for _ in range(3):
            agg.step(0, 1)
        assert agg.observe_aggregated(3) == 1
        assert agg.observe_aggregated(3) == 0

    @pytest.mark.parametrize("aggregated", [False, True])
    def test_undelivered_wins_stay_bounded(self, aggregated):
        # every play wins and lands 100 steps later: at most 100 are pending
        env = self._env(aggregated, delay=deterministic(100))
        observe = env.observe_aggregated if aggregated else env.observe_new
        peak = 0
        for t in range(1, 5001):
            observe(t)
            env.step(0, 1)
            peak = max(peak, sum(len(w) for w in env._landings.values()))
        assert peak == 100


class TestAggregatedMode:
    def _env(self, seed=0):
        return DuelingEnvironment(
            arithmetic_matrix(5), deterministic(2), np.random.default_rng(seed), aggregated=True
        )

    def test_mode_mismatch_both_ways(self):
        std = DuelingEnvironment(arithmetic_matrix(5), deterministic(2), np.random.default_rng(0))
        with pytest.raises(ModeMismatch):
            std.observe_aggregated(1)
        agg = self._env()
        agg.step(0, 1)
        with pytest.raises(ModeMismatch):
            agg.observe_new(1)

    def test_counts_land_at_fixed_offsets(self):
        mu = np.full((2, 2), 0.5)
        mu[0, 1], mu[1, 0] = 1.0, 0.0
        env = DuelingEnvironment(
            validate_matrix(mu), deterministic(2), np.random.default_rng(1), aggregated=True
        )
        env.step(0, 1)  # s=1 wins, lands at 3
        env.step(0, 1)  # s=2 wins, lands at 4
        env.step(1, 0)  # s=3 loses, never lands
        assert env.observe_aggregated(2) == 0
        assert env.observe_aggregated(3) == 1
        assert env.observe_aggregated(4) == 1

    def test_two_wins_landing_together(self):
        # plays at s=1 (delay 2) and s=2 (delay 1) both land at step 3

        class ScriptedDelay:
            mean = 1.5

            def __init__(self):
                self.queue = [2, 1]

            def sample(self, rng):
                return self.queue.pop(0)

        mu = np.full((2, 2), 0.5)
        mu[0, 1], mu[1, 0] = 1.0, 0.0
        env = DuelingEnvironment(
            validate_matrix(mu), ScriptedDelay(), np.random.default_rng(0), aggregated=True
        )
        env.step(0, 1)
        env.step(0, 1)
        assert env.observe_aggregated(3) == 2

    def test_conservation(self):
        env = self._env(seed=7)
        outs = [env.step(0, 1) for _ in range(300)]
        total = sum(env.observe_aggregated(t) for t in range(1, env.t + 1))
        resolved_wins = sum(o.x for o in outs if o.s + o.d <= env.t)
        assert total == resolved_wins


class TestRegret:
    def test_examples(self):
        m = arithmetic_matrix(10)
        tr = RegretTracker(m)
        assert tr.instant_regret(0, 0) == 0.0
        assert tr.instant_regret(1, 2) == pytest.approx(0.0375)
        assert tr.instant_regret(0, 9) == pytest.approx(0.1125)

    def test_cumulative_is_exact_running_sum(self):
        m = arithmetic_matrix(10)
        tr = RegretTracker(m)
        rng = np.random.default_rng(0)
        expected = 0.0
        for _ in range(500):
            u, v = rng.integers(10), rng.integers(10)
            expected += tr.instant_regret(u, v)
        assert tr.cumulative == expected

    def test_gap_signs(self):
        m = arithmetic_matrix(10)
        gaps = m.gaps()
        assert gaps[m.winner] == 0.0
        assert np.all(np.delete(gaps, m.winner) > 0.0)
