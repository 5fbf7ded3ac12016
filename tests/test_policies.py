import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duelsim import (
    DuelingEnvironment,
    ExperimentConfig,
    MrrDbDelay,
    PendingOutcome,
    RrDbDelay,
    RucbBaseline,
    RucbDelay,
    arithmetic_matrix,
    deterministic,
    geometric,
    make_policy,
    run_many,
    validate_matrix,
)
from duelsim.policies import _best_worst_case, _champion_pair, _unbeaten
import reference_rules
from reference_rucb import classical_rucb_actions, reference_champion_pair


def run_actions(matrix, delay, policy, horizon):
    """Drive a policy against a fresh environment, mirroring the harness loop."""
    env = DuelingEnvironment(matrix, delay, np.random.default_rng(12345))
    actions = []
    for t in range(1, horizon + 1):
        policy.observe(t, env.observe_new(t))
        a = policy.select(t)
        actions.append((a.u, a.v))
        env.step(a.u, a.v)
    return actions


def fresh_policy(name, k=5, horizon=2000, delay=None, seed=0, **kw):
    delay = delay or geometric(0.1)
    return make_policy(
        name,
        k=k,
        horizon=horizon,
        delay=delay,
        rng=np.random.default_rng(seed),
        **kw,
    )


@st.composite
def bound_matrices(draw):
    """(ucb, best, seed): few distinct entries, so champions and maximizers tie."""
    k = draw(st.integers(1, 6))
    values = st.sampled_from([0.5, 1.0, 0.25, 0.75, 0.75, 1.5])
    ucb = np.array(draw(st.lists(values, min_size=k * k, max_size=k * k))).reshape(k, k)
    best = draw(st.none() | st.integers(0, k - 1))
    return ucb, best, draw(st.integers(0, 2**32 - 1))


class TestChampionPair:
    @settings(max_examples=300, deadline=None)
    @given(bound_matrices())
    def test_matches_numpy_reference(self, case):
        ucb, best, seed = case
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _champion_pair(ucb, best, rng)
        assert got == reference_champion_pair(ucb, best, ref_rng)
        assert all(type(x) is int for x in got if x is not None)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestRucbDelaySelection:
    def test_no_data_two_arms(self):
        counts = {0: 0, 1: 0}
        for seed in range(200):
            pol = fresh_policy("rucb-delay", k=2, seed=seed)
            a = pol.select(1)
            assert {a.u, a.v} == {0, 1}
            counts[a.u] += 1
        # champion drawn uniformly; both arms should appear
        assert min(counts.values()) > 50

    def test_arm_outside_champion_set(self):
        pol = fresh_policy("rucb-delay", k=3, seed=1)
        est = pol.est
        # arm 1 pessimistic against both others: U_10 < 1/2 and U_12 < 1/2
        est.n[1, 0] = est.n[0, 1] = 400
        est.n[1, 2] = est.n[2, 1] = 400
        est._folded_plays[1, 0] = 200.0
        est._folded_plays[1, 2] = 200.0
        est._wins[1, 0] = 20.0
        est._wins[1, 2] = 20.0
        ucb = est.ucb_matrix(1000, 1.0)
        assert ucb[1, 0] < 0.5 and ucb[1, 2] < 0.5
        champs = np.flatnonzero(np.all(ucb >= 0.5, axis=1))
        assert 1 not in champs

    def test_best_set_at_most_one(self):
        pol = fresh_policy("rucb-delay", k=4, seed=2)
        env = DuelingEnvironment(arithmetic_matrix(4), geometric(0.1), np.random.default_rng(7))
        for t in range(1, 800):
            pol.observe(t, env.observe_new(t))
            a = pol.select(t)
            env.step(a.u, a.v)
            assert pol.best is None or isinstance(pol.best, int)

    def test_declared_winner_without_single_champion(self):
        pol = fresh_policy("rucb-delay", k=4, seed=0)
        run_actions(arithmetic_matrix(4), geometric(0.1), pol, 20)
        t = pol.est.last_t + 1
        ucb = pol.est.ucb_matrix(t, pol.alpha)
        assert np.count_nonzero(np.all(ucb >= 0.5, axis=1)) > 1 and pol.best is None
        worst_lcb = [
            min(1.0 - ucb[j, i] for j in range(4) if j != i)
            for i in range(4)
        ]
        assert pol.declared_winner() == worst_lcb.index(max(worst_lcb))

    def test_declared_winner_keeps_remembered_best(self):
        pol = fresh_policy("rucb-delay", k=4, seed=3)
        pol.best = 2
        assert pol.declared_winner() == 2

    def test_deterministic_per_seed(self):
        runs = []
        for _ in range(2):
            pol = fresh_policy("rucb-delay", k=4, seed=9)
            runs.append(run_actions(arithmetic_matrix(4), geometric(0.1), pol, 300))
        assert runs[0] == runs[1]

    def test_unit_delay_matches_classical_reference(self):
        matrix = arithmetic_matrix(3)
        seed = 4242
        env_seq, pol_seq = np.random.SeedSequence(seed).spawn(2)
        env = DuelingEnvironment(matrix, deterministic(1), np.random.default_rng(env_seq))
        pol = RucbDelay(
            3,
            alpha=1.0,
            window=50,
            tau_table=deterministic(1).tau_table(50),
            rng=np.random.default_rng(pol_seq),
        )
        mine = []
        for t in range(1, 401):
            pol.observe(t, env.observe_new(t))
            a = pol.select(t)
            mine.append((a.u, a.v))
            env.step(a.u, a.v)
        assert mine == classical_rucb_actions(matrix, 400, seed)


class TestRucbBaseline:
    def test_pending_play_counts_as_loss_for_first_arm(self):
        pol = fresh_policy("rucb-baseline", k=3, seed=3)
        a = pol.select(1)
        pol.observe(2, [])  # first observation of play 1 is a zero
        assert pol.wins[a.v, a.u] == 1.0
        assert pol.wins[a.u, a.v] == 0.0

    def test_immediate_conversion_counts_as_plain_win(self):
        pol = fresh_policy("rucb-baseline", k=3, seed=4)
        a = pol.select(1)

        class Event:
            s, u, v = 1, a.u, a.v

        pol.observe(2, [Event])
        assert pol.wins[a.u, a.v] == 1.0
        assert pol.wins[a.v, a.u] == 0.0

    def test_late_conversion_adds_win_but_keeps_the_zero(self):
        # the additive count update has no retraction: the phantom loss
        # recorded while the play was pending stays on the books
        pol = fresh_policy("rucb-baseline", k=3, seed=5)
        a = pol.select(1)
        pol.observe(2, [])

        class Event:
            s, u, v = 1, a.u, a.v

        pol.observe(5, [Event])
        assert pol.wins[a.u, a.v] == 1.0
        assert pol.wins[a.v, a.u] == 1.0

    def test_instant_feedback_matches_classical_reference(self):
        # with unit delay every outcome is flipped-or-settled by selection time
        matrix = arithmetic_matrix(3)
        seed = 99
        env_seq, pol_seq = np.random.SeedSequence(seed).spawn(2)
        env = DuelingEnvironment(matrix, deterministic(1), np.random.default_rng(env_seq))
        pol = RucbBaseline(3, alpha=1.0, rng=np.random.default_rng(pol_seq))
        mine = []
        for t in range(1, 401):
            pol.observe(t, env.observe_new(t))
            a = pol.select(t)
            mine.append((a.u, a.v))
            env.step(a.u, a.v)
        assert mine == classical_rucb_actions(matrix, 400, seed)

    def test_declared_winner_never_none_under_delay(self):
        # three runs under long delays end without a single champion at least once
        policies = []

        def factory(matrix, rng):
            policies.append(RucbBaseline(matrix.k, alpha=1.0, rng=rng))
            return policies[-1]

        config = ExperimentConfig(
            dataset="arithmetic",
            policy="rucb-baseline",
            delay="geometric:0.01",
            horizon=5000,
            runs=3,
            base_seed=0,
        )
        winners = [tr.winner for tr in run_many(config, policy_factory=factory).runs]
        assert None not in winners
        assert any(pol.best is None for pol in policies)
        for pol, winner in zip(policies, winners):
            if pol.best is None:
                ucb = pol._ucb_matrix(pol.last_t + 1)
                k = pol.k
                worst_lcb = [min(1.0 - ucb[j, i] for j in range(k) if j != i) for i in range(k)]
                assert winner == worst_lcb.index(max(worst_lcb))
            else:
                assert winner == pol.best


class TestRrDbDelay:
    @staticmethod
    def bound(pol, i, j, t):
        return pol._bound(*pol.est.pair_stats(i, j, t)[:3], t)

    def test_sweep_visits_both_orderings_pairwise(self):
        pol = RrDbDelay(3, window=20, tau_table=geometric(0.5).tau_table(20), delta=0.01)
        actions = [pol.select(t) for t in range(1, 7)]
        assert [tuple(a) for a in actions] == [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]

    def test_bound_formula_value(self):
        pol = RrDbDelay(10, window=5, tau_table=deterministic(1).tau_table(5), delta=0.001)
        est = pol.est
        est.n[0, 1] = est.n[1, 0] = 100
        est._folded_plays[0, 1] = 50.0
        est._wins[0, 1] = 30.0
        # Ntilde = 50, mu_hat = 0.6
        got = self.bound(pol, 0, 1, 1000)
        expected = 0.6 + math.sqrt(100 * math.log(10 * 1000 / 0.001) / 2500)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(1.4029, abs=5e-5)

    def test_bound_monotone_decreasing_in_delta(self):
        values = []
        for delta in (1e-4, 1e-2, 0.5):
            pol = RrDbDelay(4, window=5, tau_table=deterministic(1).tau_table(5), delta=delta)
            est = pol.est
            est.n[0, 1] = est.n[1, 0] = 20
            est._folded_plays[0, 1] = 20.0
            est._wins[0, 1] = 10.0
            values.append(self.bound(pol, 0, 1, 500))
        assert values[0] > values[1] > values[2]

    def test_unit_delay_reduces_to_plain_rr_bound(self):
        pol = RrDbDelay(4, window=5, tau_table=deterministic(1).tau_table(5), delta=0.01)
        est = pol.est
        est.n[0, 1] = est.n[1, 0] = 80
        est._folded_plays[0, 1] = 50.0
        est._folded_plays[1, 0] = 30.0
        est._wins[0, 1] = 40.0
        est._wins[1, 0] = 10.0
        # tau == 1: mu_hat = wins/N and the radius collapses to sqrt(log(Kt/d)/N)
        mu_hat = (40.0 + (30.0 - 10.0)) / 80.0
        expected = mu_hat + math.sqrt(math.log(4 * 900 / 0.01) / 80)
        assert self.bound(pol, 0, 1, 900) == pytest.approx(expected, rel=1e-12)

    def test_no_data_bound_is_one(self):
        pol = RrDbDelay(3, window=5, tau_table=geometric(0.5).tau_table(5), delta=0.1)
        assert self.bound(pol, 0, 1, 10) == 1.0

    def test_elimination_and_exploitation(self):
        # huge gaps, unit delay: the dominated arms fall away quickly
        mu = np.full((3, 3), 0.5)
        mu[0, 1], mu[1, 0] = 0.95, 0.05
        mu[0, 2], mu[2, 0] = 0.95, 0.05
        mu[1, 2], mu[2, 1] = 0.6, 0.4
        matrix = validate_matrix(mu)
        pol = RrDbDelay(3, window=10, tau_table=deterministic(1).tau_table(10), delta=0.05)
        env = DuelingEnvironment(matrix, deterministic(1), np.random.default_rng(17))
        eliminated_ever: set[int] = set()
        for t in range(1, 3000):
            pol.observe(t, env.observe_new(t))
            a = pol.select(t)
            assert a.u not in eliminated_ever and a.v not in eliminated_ever
            env.step(a.u, a.v)
            eliminated_ever = {i for i in range(3) if i not in pol.active}
        assert pol.active_arms == (0,)
        assert pol.declared_winner() == 0
        # exploitation: sole survivor plays itself
        assert tuple(pol.select(3000)) == (0, 0)

    def test_single_arm_plays_itself_forever(self):
        pol = RrDbDelay(3, window=5, tau_table=geometric(0.5).tau_table(5), delta=0.1)
        pol.active = [2]
        assert [tuple(pol.select(t)) for t in (1, 2, 3)] == [(2, 2)] * 3


class TestMrrDbDelay:
    @staticmethod
    def make(k=2, n_target=None, aggregated=False):
        """At horizon 1 without delay both closed forms give 1, so after the
        pinned round-1 target each round's target is the previous one + 1."""
        pol = MrrDbDelay(k, horizon=1, mean_delay=0.0, aggregated=aggregated)
        if n_target is not None:
            pol.n_target = n_target
        return pol

    def test_round_one_schedule_order(self):
        pol = self.make(k=2, n_target=5)
        actions = [tuple(pol.select(t)) for t in range(1, 11)]
        assert actions == [(0, 1)] * 5 + [(1, 0)] * 5
        assert pol.m == 1
        assert tuple(pol.select(11)) == (0, 1)  # the next select opens round 2
        assert (pol.m, pol.n_target) == (2, 6)

    def test_lexicographic_pair_order_three_arms(self):
        pol = self.make(k=3)
        actions = [tuple(pol.select(t)) for t in range(1, 7)]
        assert actions == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
        assert pol.m == 1

    def test_elimination_rule_boundary(self):
        pol = self.make(k=2, n_target=10)
        pol.gamma = 0.25
        pol.plays = {(0, 1): 10, (1, 0): 10}
        pol.convs = {(0, 1): 2.0, (1, 0): 6.0}  # means 0.2 and 0.6
        eliminated = pol.end_round()
        assert eliminated == {0}  # 0.2 + 0.25 < 0.5
        assert pol.active == [1]

    def test_surviving_boundary_not_eliminated(self):
        pol = self.make(k=2, n_target=10)
        pol.gamma = 0.25
        pol.plays = {(0, 1): 10, (1, 0): 10}
        pol.convs = {(0, 1): 3.0, (1, 0): 6.0}  # 0.3 + 0.25 >= 0.5 survives
        assert pol.end_round() == set()
        assert pol.active == [0, 1]

    def test_all_eliminated_rescue_keeps_strongest(self):
        pol = self.make(k=3, n_target=10)
        pol.gamma = 0.125
        pol.plays = {(i, j): 10 for i in range(3) for j in range(3) if i != j}
        pol.convs = {
            (0, 1): 3.0, (0, 2): 1.0,   # min 0.1
            (1, 0): 3.5, (1, 2): 3.6,   # min 0.35  <- strongest worst case
            (2, 0): 2.0, (2, 1): 1.0,   # min 0.1
        }
        eliminated = pol.end_round()
        assert pol.active == [1]
        assert eliminated == {0, 2}
        assert pol.rescued_rounds == [1]

    def test_gamma_halves_and_target_strictly_increases(self):
        pol = self.make(k=2, n_target=10)
        pol.plays = {(0, 1): 10, (1, 0): 10}
        pol.convs = {(0, 1): 6.0, (1, 0): 6.0}
        pol.end_round()
        assert pol.gamma == 0.25
        assert pol.m == 2
        assert pol.n_target == 11  # monotonicity guard beats the formula's 1

    def test_carryover_counts_toward_next_round(self):
        pol = self.make(k=2, n_target=2)
        for t in range(1, 5):
            pol.select(t)
        pol.convs = {(0, 1): 2.0, (1, 0): 2.0}
        pol.end_round()
        # target 3: each ordered pair needs just 1 more play
        more = [tuple(pol.select(t)) for t in range(5, 7)]
        assert more == [(0, 1), (1, 0)]
        assert pol.m == 2
        assert tuple(pol.select(7)) == (0, 1)  # the next select opens round 3
        assert (pol.m, pol.n_target) == (3, 4)

    def test_select_wraps_round_transition(self):
        pol = self.make(k=2)
        first = tuple(pol.select(1))
        second = tuple(pol.select(2))
        third = tuple(pol.select(3))  # crosses the round boundary internally
        assert first == (0, 1) and second == (1, 0)
        assert third in ((0, 1), (1, 0))
        assert pol.m == 2

    def test_single_survivor_plays_itself(self):
        pol = self.make(k=2)
        pol.active = [1]
        assert tuple(pol.select(1)) == (1, 1)
        assert pol.declared_winner() == 1

    def test_never_plays_eliminated_arm(self):
        mu = np.full((3, 3), 0.5)
        mu[0, 1], mu[1, 0] = 0.9, 0.1
        mu[0, 2], mu[2, 0] = 0.9, 0.1
        mu[1, 2], mu[2, 1] = 0.6, 0.4
        matrix = validate_matrix(mu)
        pol = self.make(k=3, n_target=40)
        env = DuelingEnvironment(matrix, deterministic(1), np.random.default_rng(23))
        for t in range(1, 4000):
            pol.observe(t, env.observe_new(t))
            a = pol.select(t)
            assert a.u in pol.active and a.v in pol.active
            env.step(a.u, a.v)
        assert pol.active == [0]

    def test_active_chain_shrinks_monotonically(self):
        pol = self.make(k=4, n_target=5)
        sets = [set(pol.active)]
        pol.plays = {(i, j): 5 for i in range(4) for j in range(4) if i != j}
        pol.convs = {(i, j): (0.5 if i == 0 else 1.0) for i in range(4) for j in range(4) if i != j}
        pol.end_round()
        sets.append(set(pol.active))
        assert sets[1] <= sets[0]

    def test_declared_winner_mid_round_uses_worst_case_mean(self):
        # horizon cut before any elimination: winner = argmax_i min_j mean
        pol = self.make(k=3, n_target=4)
        pol.plays = {(i, j): 4 for i in range(3) for j in range(3) if i != j}
        pol.convs = {
            (0, 1): 3.0, (0, 2): 1.0,   # min 0.25
            (1, 0): 2.0, (1, 2): 3.0,   # min 0.50  <- best worst case
            (2, 0): 1.5, (2, 1): 1.0,   # min 0.25
        }
        assert pol.declared_winner() == 1

    def test_aggregated_counts_credit_previous_pair(self):
        pol = self.make(k=2, n_target=5, aggregated=True)
        first = tuple(pol.select(1))
        pol.observe_count(2, 3)
        assert pol.convs[first] == 3.0
        pol.observe_count(3, 0)  # zero-count steps change nothing
        assert pol.convs == {first: 3.0}

    def test_default_schedule_comes_from_calculators(self):
        from duelsim import n_schedule, n_schedule_aggregated

        pol = MrrDbDelay(2, horizon=200000, mean_delay=100.0)
        assert pol.n_target == n_schedule(1, 200000, 100.0)
        agg = MrrDbDelay(2, horizon=200000, mean_delay=100.0, aggregated=True)
        assert agg.n_target == n_schedule_aggregated(1, 200000, 100.0)


# ties, NaN (an unplayed MRR pair) and dyadic values at 1/2 - 2^-m, so that
# adding a margin of 2^-m lands exactly on the elimination threshold
RULE_SCORES = [math.nan, 0.0, 0.25, 0.375, 0.4375, 0.46875, 0.5, 0.5, 0.625, 1.0, 1.5]
MARGINS = [0.0] + [2.0**-m for m in range(1, 6)]


@st.composite
def rule_cases(draw):
    k = draw(st.integers(1, 6))
    score = [[draw(st.sampled_from(RULE_SCORES)) for _ in range(k)] for _ in range(k)]
    active = sorted(draw(st.sets(st.integers(0, k - 1), min_size=1)))
    return score, active, draw(st.sampled_from(MARGINS))


@st.composite
def win_matrices(draw):
    k = draw(st.integers(1, 6))
    counts = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 5]), min_size=k * k, max_size=k * k))
    return np.array(counts, dtype=np.float64).reshape(k, k), draw(st.integers(1, 10**6))


@st.composite
def mrr_drives(draw):
    """(k, aggregated, steps): per step a conversion count and how many plays
    back the conversions credit (standard mode; aggregated credits the last)."""
    k = draw(st.integers(2, 5))
    step = st.tuples(st.sampled_from([0, 0, 0, 1, 2]), st.integers(0, 3))
    return k, draw(st.booleans()), draw(st.lists(step, min_size=1, max_size=300))


class TestSharedRules:
    """The list-based helpers against the rules they replaced (tests/reference_rules.py)."""

    @staticmethod
    def keyed(score, active):
        return {(i, j): score[i][j] for i in active for j in active if i != j}

    @settings(max_examples=400, deadline=None)
    @given(rule_cases())
    def test_elimination_matches_old_rules(self, case):
        score, active, margin = case
        keyed = self.keyed(score, active)
        _, survivors, rescued = reference_rules.mrr_end_round(keyed, active, margin)
        unbeaten = _unbeaten(score, active, margin)
        assert unbeaten == ([] if rescued else survivors)
        if rescued:
            assert [_best_worst_case(score, active)] == survivors
        rrdb = _unbeaten(score, active, 0.0) or [_best_worst_case(score, active)]
        assert rrdb == reference_rules.rrdb_survivors(keyed, active)

    @settings(max_examples=300, deadline=None)
    @given(rule_cases())
    def test_mrr_end_round_matches_old_rule(self, case):
        score, active, margin = case
        k = len(score)
        pol = MrrDbDelay(k, horizon=10**6, mean_delay=2.0)
        pol.active, pol.gamma = list(active), margin
        # 64 plays reproduce every dyadic score exactly; no plays read as NaN
        cells = [(i, j, x) for i, row in enumerate(score) for j, x in enumerate(row)]
        pol.plays = {(i, j): 0 if math.isnan(x) else 64 for i, j, x in cells}
        pol.convs = {(i, j): 0.0 if math.isnan(x) else 64 * x for i, j, x in cells}
        eliminated, survivors, rescued = reference_rules.mrr_end_round(
            self.keyed(score, active), active, margin
        )
        assert pol.end_round() == eliminated
        assert pol.active == survivors
        assert pol.rescued_rounds == ([1] if rescued else [])

    @settings(max_examples=200, deadline=None)
    @given(mrr_drives())
    def test_mrr_select_matches_old_rule(self, case):
        k, aggregated, steps = case
        new, old = (
            MrrDbDelay(k, horizon=1, mean_delay=0.0, aggregated=aggregated) for _ in range(2)
        )
        played = []
        for t, (count, back) in enumerate(steps, start=1):
            if aggregated:
                new.observe_count(t, count)
                old.observe_count(t, count)
            elif played:
                s = max(len(played) - back, 1)
                u, v = played[s - 1]
                conversions = [PendingOutcome(s, u, v, 1, t - s)] * count
                new.observe(t, conversions)
                old.observe(t, conversions)
            action = new.select(t)
            assert action == reference_rules.mrr_select(old)
            for attr in ("m", "n_target", "active", "rescued_rounds", "_prev_pair"):
                assert getattr(new, attr) == getattr(old, attr), attr
            played.append(tuple(action))

    @settings(max_examples=200, deadline=None)
    @given(win_matrices())
    def test_baseline_declared_winner_matches_argmax_rule(self, case):
        wins, t = case
        k = wins.shape[0]
        pol = RucbBaseline(k, alpha=1.0, rng=np.random.default_rng(0))
        pol.wins, pol.last_t = wins.copy(), t - 1
        ucb = reference_rules.baseline_ucb_matrix(wins, 1.0, t)
        assert pol.declared_winner() == reference_rules.best_worst_case_lcb(ucb)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 6),
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.booleans()), max_size=40),
    )
    def test_rucb_declared_winner_matches_argmax_rule(self, k, plays):
        tau = geometric(0.3).tau_table(8)
        pol = RucbDelay(k, alpha=1.0, window=8, tau_table=tau, rng=np.random.default_rng(0))
        for t, (u, v, converted) in enumerate(plays, start=1):
            pol.est.record_play(u % k, v % k, t)
            if converted:
                pol.est.ingest_conversion(t, u % k, v % k)
        ucb = pol.est.ucb_matrix(pol.est.last_t + 1, pol.alpha)
        assert pol.best is None
        assert pol.declared_winner() == reference_rules.best_worst_case_lcb(ucb)


class TestRucbBaselineBounds:
    """The masked bound equals the np.errstate formula it replaced."""

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_fresh_state(self, k):
        pol = RucbBaseline(k, alpha=1.0, rng=np.random.default_rng(0))
        for t in (1, 2, 50):
            with np.errstate(all="raise"):
                got = pol._ucb_matrix(t)
            assert np.array_equal(got, reference_rules.baseline_ucb_matrix(pol.wins, 1.0, t))

    @settings(max_examples=200, deadline=None)
    @given(win_matrices(), st.sampled_from([1.0, 1.5, 3.0]))
    def test_random_win_matrices(self, case, alpha):
        wins, t = case
        pol = RucbBaseline(wins.shape[0], alpha=alpha, rng=np.random.default_rng(0))
        pol.wins = wins
        with np.errstate(all="raise"):
            got = pol._ucb_matrix(t)
        assert np.array_equal(got, reference_rules.baseline_ucb_matrix(wins, alpha, t))


class TestRegistry:
    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy"):
            fresh_policy("thompson")

    def test_aggregated_restricted_to_mrr(self):
        with pytest.raises(ValueError, match="aggregated"):
            fresh_policy("rucb-delay", aggregated=True)
        pol = fresh_policy("mrr-delay", aggregated=True)
        assert pol.aggregated

    def test_default_delta_is_one_over_horizon(self):
        pol = fresh_policy("rrdb-delay", horizon=4000)
        assert pol.delta == pytest.approx(1 / 4000)

    @pytest.mark.parametrize("name", ["rucb-delay", "rrdb-delay", "mrr-delay", "rucb-baseline"])
    def test_all_policies_run_and_are_deterministic(self, name):
        matrix = arithmetic_matrix(4)
        traces = []
        for _ in range(2):
            pol = fresh_policy(name, k=4, horizon=500, seed=31, window=30)
            traces.append(run_actions(matrix, geometric(0.2), pol, 500))
        assert traces[0] == traces[1]
