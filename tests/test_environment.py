import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duelsim import (
    DuelingEnvironment,
    ExperimentConfig,
    PendingOutcome,
    PolicyAction,
    arithmetic_matrix,
    builtin,
    deterministic,
    from_table,
    geometric,
    run_one,
    uniform_delay,
    validate_matrix,
)
from duelsim.environment import DRAW_CHUNK


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
        with pytest.raises(ValueError, match="^0 rows dominate all others; expected exactly 1$"):
            validate_matrix([[0.5, 0.5], [0.5, 0.5]])

    def test_rock_paper_scissors_cycle_rejected(self):
        mu = np.full((3, 3), 0.5)
        mu[0, 1] = mu[1, 2] = mu[2, 0] = 0.9
        mu[1, 0] = mu[2, 1] = mu[0, 2] = 0.1
        assert _brute_force_winner(mu) == []
        with pytest.raises(ValueError, match="^0 rows dominate all others; expected exactly 1$"):
            validate_matrix(mu)

    def test_complement_violation_rejected(self):
        mu = [[0.5, 0.6], [0.6, 0.5]]
        with pytest.raises(ValueError, match=r"^mu\[0,1\] \+ mu\[1,0\] = 1\.200000000 != 1$"):
            validate_matrix(mu)

    def test_small_rounding_error_is_repaired_exactly(self):
        mu = np.array([[0.5, 0.7000004], [0.2999999, 0.5]])
        m = validate_matrix(mu)
        assert m.mu[0, 1] + m.mu[1, 0] == 1.0
        assert m.mu[0, 1] == 0.7000004  # upper triangle is authoritative

    def test_diagonal_must_be_half(self):
        mu = np.array([[0.6, 0.7], [0.3, 0.5]])
        with pytest.raises(ValueError, match=r"^mu\[0,0\] \+ mu\[0,0\] = 1\.200000000 != 1$"):
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
        env = DuelingEnvironment(
            validate_matrix(mu), deterministic(1), np.random.default_rng(2), horizon=200
        )
        assert all(env.step(0, 1).x == 1 for _ in range(200))

    def test_win_frequency_matches_probability(self):
        env = DuelingEnvironment(
            arithmetic_matrix(10), geometric(0.01), np.random.default_rng(3), horizon=20000
        )
        wins = sum(env.step(0, 9).x for _ in range(20000))
        assert wins / 20000 == pytest.approx(0.725, abs=0.01)

    def test_horizon_enforced(self):
        env = DuelingEnvironment(
            arithmetic_matrix(5), deterministic(1), np.random.default_rng(0), horizon=3
        )
        for _ in range(3):
            env.step(0, 0)
        with pytest.raises(ValueError, match="^step 4 past horizon 3$"):
            env.step(0, 0)

    def test_self_comparison_is_fair_coin(self):
        env = DuelingEnvironment(
            arithmetic_matrix(5), deterministic(1), np.random.default_rng(4), horizon=20000
        )
        wins = sum(env.step(2, 2).x for _ in range(20000))
        assert wins / 20000 == pytest.approx(0.5, abs=0.012)

    def test_outcome_and_delay_independent(self):
        env = DuelingEnvironment(
            arithmetic_matrix(5), geometric(0.2), np.random.default_rng(5), horizon=20000
        )
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
        env = DuelingEnvironment(
            validate_matrix(mu), deterministic(2), np.random.default_rng(0), horizon=29
        )
        outs = [env.step(1, 0)]  # x = 0 surely
        for t in range(2, 30):
            outs.append(env.step(1, 0))
            assert censored_view(outs, t)[0] == (1, 0)

    def test_censoring_definition(self):
        # play at s=10 with delay 2 becomes visible exactly at t=12
        mu = np.full((2, 2), 0.5)
        mu[0, 1], mu[1, 0] = 1.0, 0.0
        env = DuelingEnvironment(
            validate_matrix(mu), deterministic(2), np.random.default_rng(1), horizon=12
        )
        outs = [env.step(1, 0) for _ in range(9)]  # losses, invisible
        out = env.step(0, 1)
        assert out.s == 10 and out.x == 1 and out.d == 2
        assert env.observe_new() == []  # at step 11
        outs += [out, env.step(1, 0)]
        assert env.observe_new() == [out]  # at step 12
        outs.append(env.step(1, 0))
        y_by_t = {t: dict(censored_view(outs, t)).get(10) for t in (11, 12)}
        assert y_by_t == {11: 0, 12: 1}

    def test_unit_delay_reveals_everything_next_step(self):
        env = DuelingEnvironment(
            arithmetic_matrix(5), deterministic(1), np.random.default_rng(2), horizon=50
        )
        outs = [env.step(0, 1) for _ in range(50)]
        view = dict(censored_view(outs, 51))
        assert view == {o.s: o.x for o in outs}

    def test_visibility_monotone_and_bounded_by_outcome(self):
        env = DuelingEnvironment(
            arithmetic_matrix(5), geometric(0.3), np.random.default_rng(3), horizon=40
        )
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
        env = DuelingEnvironment(
            arithmetic_matrix(5), geometric(0.3), np.random.default_rng(4), horizon=60
        )
        outs, landed = [], set()
        for t in range(1, 62):  # the plays before t, then the step-t play
            landed |= {o.s for o in env.observe_new()}
            reconstructed = {s: (1 if s in landed else 0) for s, _ in censored_view(outs, t)}
            assert reconstructed == dict(censored_view(outs, t))
            if t <= 60:
                outs.append(env.step(1, 2))


def queued(env):
    """The undelivered wins as an exact value to compare between twins: the
    outcomes by landing step, or when aggregated the sorted list of landing
    steps, one per win (checked to be sorted); nothing past horizon + 1."""
    if not env.aggregated:
        return env._landings
    steps = env._landings.tolist()
    assert steps == sorted(steps)
    assert max(steps, default=0) <= env.horizon + 1
    return steps


def twin_queued(twin, aggregated):
    """queued() of an environment in that mode, from its standard-mode twin on
    the same seed and plays: the twin's outcomes, or when aggregated their
    landing steps, one per queued outcome."""
    if not aggregated:
        return queued(twin)
    return sorted(s for s, outs in twin._landings.items() for _ in outs)


def as_delivered(outs, aggregated):
    """A standard-mode delivery as the aggregated one counts it."""
    return len(outs) if aggregated else outs


def observe(env):
    """What env hands out at its step: a count when aggregated, else the outcomes."""
    return env.observe_aggregated() if env.aggregated else env.observe_new()


def play(env, u, v):
    """One play: step, or in aggregated mode, which plays by play_run only, a run of one."""
    return env.play_run(u, v, 1) if env.aggregated else env.step(u, v)


def pending_wins(env):
    """Undelivered wins: queued outcomes, or queued landing steps when aggregated."""
    if env.aggregated:
        return len(queued(env))
    return sum(len(w) for w in env._landings.values())


class TestDelivery:
    def _env(self, aggregated, delay=deterministic(2)):
        mu = np.full((2, 2), 0.5)
        mu[0, 1], mu[1, 0] = 1.0, 0.0
        return DuelingEnvironment(
            validate_matrix(mu), delay, np.random.default_rng(0), horizon=5000,
            aggregated=aggregated,
        )

    def test_each_step_delivered_once(self):
        std = self._env(aggregated=False)
        out = std.step(0, 1)  # s=1 wins, lands at 3
        std.step(0, 1)
        assert std.observe_new() == [out]
        assert std.observe_new() == []
        agg = self._env(aggregated=True)
        for _ in range(2):
            agg.play_run(0, 1, 1)
        assert agg.observe_aggregated() == 1
        assert agg.observe_aggregated() == 0

    @pytest.mark.parametrize("aggregated", [False, True])
    def test_undelivered_wins_stay_bounded(self, aggregated):
        # every play wins and lands 100 steps later: at most 100 are pending
        env = self._env(aggregated, delay=deterministic(100))
        peak = 0
        for _ in range(5000):
            observe(env)
            play(env, 0, 1)
            peak = max(peak, pending_wins(env))
        assert peak == 100

    @pytest.mark.parametrize("delay", [deterministic(3), geometric(0.5)])
    def test_aggregated_counts_are_python_ints(self, delay):
        env = self._env(aggregated=True, delay=delay)
        counts = []  # at each run's first step, then the wins landing inside it
        while env.t <= 60:
            counts.append(env.observe_aggregated())
            counts.append(env.play_run(0, 1, 1 + env.t % 3))
        assert all(type(c) is int for c in counts)
        assert sum(counts) > 0


class TestPlayRun:
    """play_run(u, v, n) against n step calls on a standard-mode twin with the
    same seed; the longest run spans two draw chunks."""

    LAWS = {
        "det:1": deterministic(1),
        "det:5": deterministic(5),
        "det:100": deterministic(100),
        "geometric:0.2": geometric(0.2),
        "uniform:2,9": uniform_delay(2, 9),
        "table": from_table([0.1, 0.0, 0.5, 0.4]),
    }

    @staticmethod
    def _twins(delay, aggregated, horizon, seed=3):
        """An environment in the given mode and its standard-mode twin."""
        return [
            DuelingEnvironment(
                arithmetic_matrix(4), delay, np.random.default_rng(seed), horizon=horizon,
                aggregated=mode,
            )
            for mode in (aggregated, False)
        ]

    @pytest.mark.parametrize("cut", [False, True])
    @pytest.mark.parametrize("aggregated", [False, True])
    @pytest.mark.parametrize("law", list(LAWS))
    @pytest.mark.parametrize("n", [1, 3, 250, DRAW_CHUNK + 7])
    def test_matches_step_calls(self, law, aggregated, n, cut):
        # a cut horizon ends at the run's last play, so it cuts through the
        # landings; otherwise T lies far beyond every landing
        horizon = 40 + n if cut else 10**6
        run_env, step_env = self._twins(self.LAWS[law], aggregated, horizon)
        for t in range(1, 41):  # wins of earlier plays stay queued across the run
            assert observe(run_env) == as_delivered(step_env.observe_new(), aggregated)
            play(run_env, t % 4, (t + 1) % 4)
            step_env.step(t % 4, (t + 1) % 4)
        assert observe(run_env) == as_delivered(step_env.observe_new(), aggregated)  # at 41
        got = run_env.play_run(2, 0, n)
        step_env.step(2, 0)
        want = []
        for _ in range(n - 1):
            want += step_env.observe_new()
            step_env.step(2, 0)
        assert got == as_delivered(want, aggregated)
        assert run_env.t == step_env.t == 41 + n
        assert run_env.rng.bit_generator.state == step_env.rng.bit_generator.state
        assert queued(run_env) == twin_queued(step_env, aggregated)
        if cut:
            assert max(queued(run_env), default=0) <= horizon + 1
            want = as_delivered(self._landing_at(law, n, horizon + 1), aggregated)
            assert observe(run_env) == want  # at horizon + 1

    def _landing_at(self, law, n, step):
        """The wins of test_matches_step_calls' plays landing exactly at step,
        from the drawn chunks, as in TestDrawContract.test_chunk_layout."""
        ref = np.random.default_rng(3)
        uniforms, delays = [], []
        for _ in range(2):  # at most 40 + DRAW_CHUNK + 7 plays
            uniforms.append(ref.random(DRAW_CHUNK))
            delays.append(self.LAWS[law].sample(ref, DRAW_CHUNK))
        uniforms, delays = np.concatenate(uniforms).tolist(), np.concatenate(delays).tolist()
        mu = arithmetic_matrix(4).mu
        pairs = [(s % 4, (s + 1) % 4) for s in range(1, 41)] + [(2, 0)] * n
        return [
            PendingOutcome(s, u, v, 1, delays[s - 1])
            for s, (u, v) in enumerate(pairs, 1)
            if uniforms[s - 1] < mu[u, v] and s + delays[s - 1] == step
        ]

    @pytest.mark.parametrize("aggregated", [False, True])
    def test_longest_delays_never_land_inside_a_run(self, aggregated):
        # numpy draws the int64 maximum for this p; unclipped, s + d wrapped
        # around in play_run, which then delivered wins that step never does
        run_env, step_env = (
            DuelingEnvironment(
                builtin("mslr"), geometric(1e-300), np.random.default_rng(0), horizon=1000,
                aggregated=mode,
            )
            for mode in (aggregated, False)
        )
        got = run_env.play_run(0, 1, 1000)
        step_env.step(0, 1)
        want = []
        for _ in range(999):
            want += step_env.observe_new()
            step_env.step(0, 1)
        assert got == as_delivered(want, aggregated) == as_delivered([], aggregated)
        assert queued(run_env) == twin_queued(step_env, aggregated)
        assert pending_wins(run_env) == 0  # the wins land far past T + 1: none is queued

    def test_long_run_leaves_only_late_wins_queued(self):
        mu = np.full((2, 2), 0.5)
        mu[0, 1], mu[1, 0] = 1.0, 0.0  # every play wins
        env = DuelingEnvironment(  # every late win lands by T + 1
            validate_matrix(mu), deterministic(100), np.random.default_rng(0), horizon=1100
        )
        inside = env.play_run(0, 1, 1000)
        assert [o.s for o in inside] == list(range(1, 901))  # land at 101..1000
        assert pending_wins(env) == 100

    def test_aggregated_long_run_returns_a_count(self):
        mu = np.full((2, 2), 0.5)
        mu[0, 1], mu[1, 0] = 1.0, 0.0  # every play wins
        env = DuelingEnvironment(  # every late win lands by T + 1
            validate_matrix(mu), deterministic(100), np.random.default_rng(0), horizon=1100,
            aggregated=True,
        )
        inside = env.play_run(0, 1, 1000)
        assert type(inside) is int and inside == 900
        assert pending_wins(env) == 100
        assert env.observe_aggregated() == 1  # at step 1001

    @pytest.mark.parametrize("law", ["det:5", "geometric:0.2"])
    def test_validates_like_step(self, law):
        env = DuelingEnvironment(
            arithmetic_matrix(4), self.LAWS[law], np.random.default_rng(0), horizon=10
        )
        with pytest.raises(ValueError, match="out of range"):
            env.play_run(0, 4, 3)
        with pytest.raises(ValueError, match="run length must be >= 1"):
            env.play_run(0, 1, 0)
        env.play_run(0, 1, 8)
        with pytest.raises(ValueError, match="step 11 past horizon 10"):
            env.play_run(0, 1, 3)
        assert env.t == 9  # the whole run is refused before any draw


SPLIT_LAWS = {
    "det:5": deterministic(5),
    "geometric:0.05": geometric(0.05),
    "uniform:2,9": uniform_delay(2, 9),
    "table": from_table([0.1, 0.0, 0.5, 0.4]),
}


@st.composite
def play_splits(draw):
    """More than DRAW_CHUNK plays cut into segments (n, u, v, by_step), some
    cuts on or next to the chunk boundary; by_step segments call step."""
    total = DRAW_CHUNK + draw(st.integers(1, DRAW_CHUNK // 2))
    near_boundary = st.sampled_from([DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1])
    cuts = draw(st.sets(st.one_of(st.integers(1, total - 1), near_boundary), max_size=10))
    bounds = [0, *sorted(c for c in cuts if c < total), total]
    pair = st.integers(0, 3)
    return [
        (b - a, draw(pair), draw(pair), draw(st.booleans())) for a, b in zip(bounds, bounds[1:])
    ]


class TestDrawContract:
    """A trace depends on the sequence of plays only, not on how step and
    play_run split it; in aggregated mode, against a standard-mode twin."""

    @pytest.mark.parametrize("aggregated", [False, True])
    @pytest.mark.parametrize("law", list(SPLIT_LAWS))
    @settings(max_examples=12, deadline=None)
    @given(segments=play_splits())
    def test_any_split_gives_the_per_step_trace(self, law, aggregated, segments):
        ref, env = (
            DuelingEnvironment(
                arithmetic_matrix(4), SPLIT_LAWS[law], np.random.default_rng(7),
                horizon=2 * DRAW_CHUNK, aggregated=mode,
            )
            for mode in (False, aggregated)
        )
        for n, u, v, by_step in segments:
            assert observe(env) == as_delivered(ref.observe_new(), aggregated)
            want, seen = [ref.step(u, v)], []
            for _ in range(n - 1):
                seen.append(as_delivered(ref.observe_new(), aggregated))
                want.append(ref.step(u, v))
            if by_step:
                got, got_seen = [play(env, u, v)], []
                for _ in range(n - 1):
                    got_seen.append(observe(env))
                    got.append(play(env, u, v))
                # a run of one play has nothing landing inside it
                assert (got, got_seen) == ([0] * n if aggregated else want, seen)
            else:
                delivered = sum(seen) if aggregated else [o for outs in seen for o in outs]
                assert env.play_run(u, v, n) == delivered
        assert env.t == ref.t
        assert queued(env) == twin_queued(ref, aggregated)
        assert env.rng.bit_generator.state == ref.rng.bit_generator.state

    def test_chunk_layout(self):
        # the first chunk is drawn at the first play, not at construction
        p = 0.05
        env = DuelingEnvironment(
            arithmetic_matrix(4), geometric(p), np.random.default_rng(5), horizon=2 * DRAW_CHUNK
        )
        ref = np.random.default_rng(5)
        assert env.rng.bit_generator.state == ref.bit_generator.state
        mu = env.matrix.mu
        for _ in range(2):
            uniforms, delays = ref.random(DRAW_CHUNK), ref.geometric(p, DRAW_CHUNK)
            for i in range(DRAW_CHUNK):
                u, v = i % 4, i // 4 % 4
                out = env.step(u, v)
                assert (out.x, out.d) == (int(uniforms[i] < mu[u, v]), delays[i])
            assert env.rng.bit_generator.state == ref.bit_generator.state


class TestAggregatedMode:
    def _env(self, seed=0, aggregated=True):
        return DuelingEnvironment(
            arithmetic_matrix(5), deterministic(2), np.random.default_rng(seed), horizon=300,
            aggregated=aggregated,
        )

    def test_mode_mismatch_both_ways(self):
        std = DuelingEnvironment(
            arithmetic_matrix(5), deterministic(2), np.random.default_rng(0), horizon=1
        )
        with pytest.raises(ValueError, match="^environment is not in aggregated mode$"):
            std.observe_aggregated()
        agg = DuelingEnvironment(
            arithmetic_matrix(5), deterministic(100), np.random.default_rng(0), horizon=300,
            aggregated=True,
        )

        def assert_refused():
            before = (agg.t, agg.rng.bit_generator.state, queued(agg))
            with pytest.raises(ValueError, match="aggregated mode plays by play_run only"):
                agg.step(0, 1)
            assert (agg.t, agg.rng.bit_generator.state, queued(agg)) == before

        assert_refused()  # step 1 would draw the first chunk
        agg.play_run(0, 1, 50)
        assert queued(agg)  # wins landing at 101..150
        assert_refused()
        with pytest.raises(ValueError, match="^aggregated mode exposes only anonymous counts$"):
            agg.observe_new()

    @pytest.mark.parametrize("aggregated", ["no", 0, 1, None])
    def test_aggregated_must_be_a_bool(self, aggregated):
        message = f"^aggregated must be True or False, got {aggregated!r}$"
        with pytest.raises(ValueError, match=message):
            self._env(aggregated=aggregated)

    def test_per_step_policy_is_refused(self):
        # run_one plays a policy without select_run by step, which aggregated mode refuses

        class Scripted:
            def select(self, t):
                return PolicyAction(0, 1)

            def observe_count(self, n):
                pass

        config = ExperimentConfig(
            dataset="arithmetic", policy="mrr-delay", delay="det:1", horizon=10, runs=1,
            aggregated=True,
        )
        with pytest.raises(ValueError, match="aggregated mode plays by play_run only"):
            run_one(config, 0, policy_factory=lambda m, rng: Scripted())

    def test_counts_land_at_fixed_offsets(self):
        mu = np.full((2, 2), 0.5)
        mu[0, 1], mu[1, 0] = 1.0, 0.0
        env = DuelingEnvironment(
            validate_matrix(mu), deterministic(2), np.random.default_rng(1), horizon=3,
            aggregated=True,
        )
        env.play_run(0, 1, 1)  # s=1 wins, lands at 3
        assert env.observe_aggregated() == 0  # at step 2
        env.play_run(0, 1, 1)  # s=2 wins, lands at 4
        assert env.observe_aggregated() == 1  # at step 3
        env.play_run(1, 0, 1)  # s=3 loses, never lands
        assert env.observe_aggregated() == 1  # at step 4

    def test_two_wins_landing_together(self):
        # plays at s=1 (delay 2) and s=2 (delay 1) both land at step 3

        class ScriptedDelay:
            mean = 1.5

            def __init__(self):
                self.queue = [2, 1]

            def sample(self, rng, n):
                return np.array(self.queue + [1] * (n - len(self.queue)))

        mu = np.full((2, 2), 0.5)
        mu[0, 1], mu[1, 0] = 1.0, 0.0
        env = DuelingEnvironment(
            validate_matrix(mu), ScriptedDelay(), np.random.default_rng(0), horizon=2,
            aggregated=True,
        )
        env.play_run(0, 1, 1)
        env.play_run(0, 1, 1)
        assert env.observe_aggregated() == 2  # at step 3

    @pytest.mark.parametrize("law", ["det:1", "det:300", "geometric:0.5", "geometric:0.01"])
    def test_counts_to_the_end_match_the_standard_twin(self, law):
        # runs of random length and pair, one across a draw chunk, play every
        # step to T; each count, T + 1's included, is the number of outcomes
        # the twin delivers, and after T + 1 nothing is left queued
        delay = {
            "det:1": deterministic(1), "det:300": deterministic(300),
            "geometric:0.5": geometric(0.5), "geometric:0.01": geometric(0.01),
        }[law]
        horizon = DRAW_CHUNK + 500
        env, twin = (
            DuelingEnvironment(
                arithmetic_matrix(4), delay, np.random.default_rng(5), horizon=horizon,
                aggregated=mode,
            )
            for mode in (True, False)
        )
        plan = np.random.default_rng(11)
        while env.t <= horizon:
            t = env.t
            n = min(int(plan.integers(1, 700)), horizon + 1 - t)
            u, v = plan.integers(0, 4, size=2).tolist()
            assert env.observe_aggregated() == len(twin.observe_new())
            inside = 0
            twin.step(u, v)
            for _ in range(n - 1):
                inside += len(twin.observe_new())
                twin.step(u, v)
            assert env.play_run(u, v, n) == inside
            assert queued(env) == twin_queued(twin, True)
        assert env.t == twin.t == horizon + 1
        assert env.observe_aggregated() == len(twin.observe_new())  # at horizon + 1
        assert pending_wins(env) == 0 and not twin._landings

    def test_conservation(self):
        # the count of every landing equals the standard twin's resolved wins
        env, twin = self._env(seed=7), self._env(seed=7, aggregated=False)
        total = 0
        for _ in range(300):
            total += env.observe_aggregated()
            env.play_run(0, 1, 1)
        total += env.observe_aggregated()  # at step 301
        outs = [twin.step(0, 1) for _ in range(300)]
        resolved_wins = sum(o.x for o in outs if o.s + o.d <= env.t)
        assert total == resolved_wins > 0


class TestRegret:
    @staticmethod
    def regret_trace(pairs):
        """run_one's regret at every step for a policy that plays pairs in order."""

        class Scripted:
            def select(self, t):
                return PolicyAction(*pairs[t - 1])

            def observe(self, conversions):
                pass

        config = ExperimentConfig(
            dataset="arithmetic", policy="rucb-delay", delay="det:1",
            horizon=len(pairs), runs=1, trace_stride=1,
        )
        trace = run_one(config, 0, policy_factory=lambda m, rng: Scripted())
        assert trace.times.tolist() == list(range(1, len(pairs) + 1))
        return trace.regret.tolist()

    def test_examples(self):
        regret = self.regret_trace([(0, 0), (1, 2), (0, 9)])
        assert regret[0] == 0.0
        assert regret[1] == pytest.approx(0.0375)
        assert regret[2] - regret[1] == pytest.approx(0.1125)

    def test_cumulative_is_exact_running_sum(self):
        m = arithmetic_matrix(10)
        rng = np.random.default_rng(0)
        pairs = [(int(rng.integers(10)), int(rng.integers(10))) for _ in range(500)]
        gaps = [float(x) - 0.5 for x in m.mu[m.winner]]
        expected, total = [], 0.0
        for u, v in pairs:
            total += (gaps[u] + gaps[v]) / 2.0
            expected.append(total)
        assert self.regret_trace(pairs) == expected

    @pytest.mark.parametrize("stride", [1, 7, 1000])
    def test_runs_charge_the_exact_running_sum(self, stride):
        # runs of up to 900 plays with gaps such as 0.0375, which no binary
        # fraction equals: any reordering of the additions shows in the last bits
        m = arithmetic_matrix(10)
        rng = np.random.default_rng(1)
        runs = [
            ((int(rng.integers(10)), int(rng.integers(10))), int(rng.integers(1, 900)))
            for _ in range(60)
        ]

        class ScriptedRuns:
            def __init__(self):
                self.queue = list(runs)

            def select(self, t):
                raise AssertionError("a run policy is asked for runs only")

            def select_run(self, t, limit):
                pair, n = self.queue.pop(0)
                return PolicyAction(*pair), min(n, limit)

            def observe(self, conversions):
                pass

        horizon = sum(n for _, n in runs) - 5  # the last run is cut at T
        config = ExperimentConfig(
            dataset="arithmetic", policy="mrr-delay", delay="det:1",
            horizon=horizon, runs=1, window=1000, trace_stride=stride,
        )
        trace = run_one(config, 0, policy_factory=lambda m, rng: ScriptedRuns())
        gaps = [float(x) - 0.5 for x in m.mu[m.winner]]
        times, expected, total, t = [], [], 0.0, 0
        for (u, v), n in runs:
            for _ in range(n):
                t += 1
                if t > horizon:
                    break
                total += (gaps[u] + gaps[v]) / 2.0
                if t % stride == 0 or t == horizon:
                    times.append(t)
                    expected.append(total)
        assert trace.times.tolist() == times
        assert trace.regret.tolist() == expected

    def test_gap_signs(self):
        m = arithmetic_matrix(10)
        gaps = m.gaps()
        assert gaps[m.winner] == 0.0
        assert np.all(np.delete(gaps, m.winner) > 0.0)
