import math

import numpy as np
import pytest

from duelsim import (
    DuelingEnvironment,
    MrrDbDelay,
    RrDbDelay,
    RucbBaseline,
    RucbDelay,
    arithmetic_matrix,
    deterministic,
    geometric,
    make_policy,
    validate_matrix,
)
from duelsim.errors import EmptyActiveSet, RoundComplete
from reference_rucb import classical_rucb_actions


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
            min(1.0 - pol.est.ucb(j, i, t, pol.alpha) for j in range(4) if j != i)
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


class TestRrDbDelay:
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
        got = pol.bound(0, 1, 1000)
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
            values.append(pol.bound(0, 1, 500))
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
        assert pol.bound(0, 1, 900) == pytest.approx(expected, rel=1e-12)

    def test_no_data_bound_is_one(self):
        pol = RrDbDelay(3, window=5, tau_table=geometric(0.5).tau_table(5), delta=0.1)
        assert pol.bound(0, 1, 10) == 1.0

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
    def make(self, k=2, schedule=None, horizon=10**6, aggregated=False):
        return MrrDbDelay(
            k,
            horizon=horizon,
            mean_delay=2.0,
            aggregated=aggregated,
            schedule=schedule,
        )

    def test_round_one_schedule_order(self):
        pol = self.make(k=2, schedule=lambda m: 5 * m)
        actions = [tuple(pol.next_pair(t)) for t in range(1, 11)]
        assert actions == [(0, 1)] * 5 + [(1, 0)] * 5
        with pytest.raises(RoundComplete):
            pol.next_pair(11)

    def test_lexicographic_pair_order_three_arms(self):
        pol = self.make(k=3, schedule=lambda m: 1)
        actions = [tuple(pol.next_pair(t)) for t in range(1, 7)]
        assert actions == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]

    def test_elimination_rule_boundary(self):
        pol = self.make(k=2, schedule=lambda m: 10)
        pol.gamma = 0.25
        pol.plays = {(0, 1): 10, (1, 0): 10}
        pol.convs = {(0, 1): 2.0, (1, 0): 6.0}  # means 0.2 and 0.6
        eliminated = pol.end_round()
        assert eliminated == {0}  # 0.2 + 0.25 < 0.5
        assert pol.active == [1]

    def test_surviving_boundary_not_eliminated(self):
        pol = self.make(k=2, schedule=lambda m: 10)
        pol.gamma = 0.25
        pol.plays = {(0, 1): 10, (1, 0): 10}
        pol.convs = {(0, 1): 3.0, (1, 0): 6.0}  # 0.3 + 0.25 >= 0.5 survives
        assert pol.end_round() == set()
        assert pol.active == [0, 1]

    def test_all_eliminated_rescue_keeps_strongest(self):
        pol = self.make(k=3, schedule=lambda m: 10)
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

    def test_all_eliminated_raises_without_rescue(self):
        pol = self.make(k=2, schedule=lambda m: 10)
        pol.gamma = 0.25
        pol.plays = {(0, 1): 10, (1, 0): 10}
        pol.convs = {(0, 1): 0.0, (1, 0): 0.0}
        with pytest.raises(EmptyActiveSet):
            pol.end_round(rescue=False)

    def test_gamma_halves_and_target_strictly_increases(self):
        pol = self.make(k=2, schedule=lambda m: 10 if m == 1 else 3)
        pol.plays = {(0, 1): 10, (1, 0): 10}
        pol.convs = {(0, 1): 6.0, (1, 0): 6.0}
        pol.end_round()
        assert pol.gamma == 0.25
        assert pol.m == 2
        assert pol.n_target == 11  # monotonicity guard beats the shrinking formula

    def test_carryover_counts_toward_next_round(self):
        pol = self.make(k=2, schedule=lambda m: 2 * m)
        for t in range(1, 5):
            pol.next_pair(t)
        pol.convs = {(0, 1): 2.0, (1, 0): 2.0}
        pol.end_round()
        # target 4: each ordered pair needs just 2 more plays
        more = [tuple(pol.next_pair(t)) for t in range(5, 9)]
        assert more == [(0, 1), (0, 1), (1, 0), (1, 0)]
        with pytest.raises(RoundComplete):
            pol.next_pair(9)

    def test_select_wraps_round_transition(self):
        pol = self.make(k=2, schedule=lambda m: m)
        first = tuple(pol.select(1))
        second = tuple(pol.select(2))
        third = tuple(pol.select(3))  # crosses the round boundary internally
        assert first == (0, 1) and second == (1, 0)
        assert third in ((0, 1), (1, 0))
        assert pol.m == 2

    def test_single_survivor_plays_itself(self):
        pol = self.make(k=2, schedule=lambda m: 1)
        pol.active = [1]
        assert tuple(pol.select(1)) == (1, 1)
        assert pol.declared_winner() == 1

    def test_never_plays_eliminated_arm(self):
        mu = np.full((3, 3), 0.5)
        mu[0, 1], mu[1, 0] = 0.9, 0.1
        mu[0, 2], mu[2, 0] = 0.9, 0.1
        mu[1, 2], mu[2, 1] = 0.6, 0.4
        matrix = validate_matrix(mu)
        pol = MrrDbDelay(3, horizon=4000, mean_delay=1.0, schedule=lambda m: 40 * m)
        env = DuelingEnvironment(matrix, deterministic(1), np.random.default_rng(23))
        for t in range(1, 4000):
            pol.observe(t, env.observe_new(t))
            a = pol.select(t)
            assert a.u in pol.active and a.v in pol.active
            env.step(a.u, a.v)
        assert pol.active == [0]

    def test_active_chain_shrinks_monotonically(self):
        pol = self.make(k=4, schedule=lambda m: 5 * m)
        sets = [set(pol.active)]
        pol.plays = {(i, j): 5 for i in range(4) for j in range(4) if i != j}
        pol.convs = {(i, j): (0.5 if i == 0 else 1.0) for i in range(4) for j in range(4) if i != j}
        pol.end_round()
        sets.append(set(pol.active))
        assert sets[1] <= sets[0]

    def test_declared_winner_mid_round_uses_worst_case_mean(self):
        # horizon cut before any elimination: winner = argmax_i min_j mean
        pol = self.make(k=3, schedule=lambda m: 4)
        pol.plays = {(i, j): 4 for i in range(3) for j in range(3) if i != j}
        pol.convs = {
            (0, 1): 3.0, (0, 2): 1.0,   # min 0.25
            (1, 0): 2.0, (1, 2): 3.0,   # min 0.50  <- best worst case
            (2, 0): 1.5, (2, 1): 1.0,   # min 0.25
        }
        assert pol.declared_winner() == 1

    def test_aggregated_counts_credit_previous_pair(self):
        pol = self.make(k=2, schedule=lambda m: 5, aggregated=True)
        first = tuple(pol.next_pair(1))
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
