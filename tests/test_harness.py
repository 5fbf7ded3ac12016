import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from duelsim import (
    DuelingEnvironment,
    ExperimentConfig,
    PolicyAction,
    builtin,
    geometric,
    make_policy,
    run_many,
    run_one,
    validate_matrix,
    write_results,
)
from duelsim.datasets import resolve
from duelsim.environment import DRAW_CHUNK
from duelsim.harness import repeated_sum


class ConstantPolicy:
    """Scripted policy playing one fixed pair every step."""

    def __init__(self, u, v):
        self.u, self.v = u, v

    def select(self, t):
        return PolicyAction(self.u, self.v)

    def observe(self, t, conversions):
        pass


def config(**kw):
    base = dict(
        dataset="arithmetic",
        policy="rucb-delay",
        delay="geometric:0.1",
        horizon=200,
        runs=2,
        base_seed=7,
        window=50,
        trace_stride=20,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestRunOne:
    def test_winner_self_play_has_zero_regret(self):
        trace = run_one(config(), 1, policy_factory=lambda m, rng: ConstantPolicy(0, 0))
        assert np.all(trace.regret == 0.0)

    def test_constant_pair_regret_is_linear(self):
        trace = run_one(config(), 1, policy_factory=lambda m, rng: ConstantPolicy(0, 9))
        assert trace.regret[-1] == pytest.approx(0.1125 * 200, rel=1e-12)
        assert np.allclose(trace.regret, 0.1125 * trace.times, rtol=1e-12)

    def test_same_seed_identical_trace(self):
        t1 = run_one(config(), 5)
        t2 = run_one(config(), 5)
        assert np.array_equal(t1.regret, t2.regret)
        assert np.array_equal(t1.times, t2.times)

    def test_different_seeds_differ(self):
        t1 = run_one(config(), 5)
        t2 = run_one(config(), 6)
        assert not np.array_equal(t1.regret, t2.regret)

    def test_trace_length_and_final_point(self):
        trace = run_one(config(horizon=105, trace_stride=10), 0)
        assert len(trace.times) == 11  # ceil(105 / 10)
        assert trace.times[-1] == 105
        trace2 = run_one(config(horizon=100, trace_stride=10), 0)
        assert len(trace2.times) == 10

    def test_trace_monotone(self):
        for policy in ("rucb-delay", "rucb-baseline", "mrr-delay", "rrdb-delay"):
            trace = run_one(config(policy=policy), 3)
            assert np.all(np.diff(trace.regret) >= 0)

    def test_mrr_reports_active_set(self):
        trace = run_one(config(policy="mrr-delay"), 2)
        assert trace.active is not None
        assert trace.winner in trace.active

    def test_validation(self):
        with pytest.raises(ValueError):
            config(horizon=0)
        with pytest.raises(ValueError):
            config(runs=0)
        with pytest.raises(ValueError):
            config(trace_stride=0)

    def test_delay_object_rejected(self):
        # run_many would fail on it with an AttributeError from the spec parser
        with pytest.raises(ValueError, match="delay must be a spec string .*det:<d>"):
            config(policy="mrr-delay", delay=geometric(0.1))

    def test_integer_dataset_is_not_read_as_a_file_descriptor(self):
        # open() takes an int as a descriptor: it would read the pipe, then close it
        r, w = os.pipe()
        os.close(w)
        try:
            with pytest.raises(ValueError, match=f"^dataset must be .*, got {r}$"):
                config(policy="rrdb-delay", dataset=r)
            with pytest.raises(ValueError, match=f"^unknown dataset {r}; built-ins are: "):
                resolve(r)
            os.fstat(r)  # still open
        finally:
            os.close(r)

    def test_policy_must_be_a_string(self):
        with pytest.raises(ValueError, match="^policy must be a policy name, got 1$"):
            config(policy=1)

    @pytest.mark.parametrize("aggregated", ["no", 0, 1, None])
    def test_aggregated_must_be_a_bool(self, aggregated):
        with pytest.raises(ValueError, match="^aggregated must be True or False, got "):
            config(policy="mrr-delay", aggregated=aggregated)

    @pytest.mark.parametrize(
        "policy, field, value, message",
        [
            # mrr-delay reads neither alpha nor delta: only the config refuses them
            *(
                (policy, "alpha", x, rf"alpha must be finite and > 1/2, got {x}")
                for policy in ("rucb-delay", "rucb-baseline", "mrr-delay")
                for x in ("2", True)
            ),
            *(
                (policy, "delta", x, rf"delta must be in \(0, 1\], got {x}")
                for policy in ("rrdb-delay", "mrr-delay")
                for x in ("0.1", True)
            ),
        ],
    )
    def test_non_real_alpha_or_delta_fails_with_one_line(self, policy, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_one(config(policy=policy, **{field: value}), 0)

    def test_aggregated_run_works_for_mrr_only(self):
        trace = run_one(config(policy="mrr-delay", aggregated=True), 1)
        assert np.all(np.diff(trace.regret) >= 0)
        with pytest.raises(ValueError):
            run_one(config(policy="rucb-delay", aggregated=True), 1)


def steep_rows(k):
    """Arm i beats arm j w.p. 0.5 + 0.1 (j - i), as in the golden cases."""
    return [[(5.0 + (j - i)) / 10.0 for j in range(k)] for i in range(k)]


@pytest.fixture(scope="module")
def table_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("delays") / "table.txt"
    path.write_text("0.2\n0\n0.3\n0.5\n")
    return f"table:{path}"


@st.composite
def mrr_cases(draw):
    """(rows, law, aggregated, horizon, window, stride, seed); arm 0 wins.

    Wide gaps and horizons up to 6000 cross round ends often and reach a
    sole survivor now and then; windows below the round quota cap runs."""
    k = draw(st.integers(2, 6))
    rows = [[0.5] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            rows[i][j] = draw(st.sampled_from([0.6, 0.7, 0.8, 0.9]))
            rows[j][i] = 1.0 - rows[i][j]
    law = draw(
        st.sampled_from(
            ["det:1", "det:3", "det:40", "geometric:0.3", "geometric:0.05",
             "uniform:1,6", "uniform:2,30", "table"]
        )
    )
    return (
        rows,
        law,
        draw(st.booleans()),
        draw(st.integers(200, 6000)),
        draw(st.integers(1, 60)),
        draw(st.integers(1, 60)),
        draw(st.integers(0, 2**16)),
    )


def per_step_reference(config, seed, matrix):
    """run_one for mrr-delay one play at a time: observe, select, step.

    The environment is always in standard mode, on run_one's seed: the draws
    and the T + 1 cut do not depend on the mode, so an aggregated policy is
    fed the count of the wins that land at t."""
    delay = config.delay_distribution()
    env_seq, _ = np.random.SeedSequence(seed).spawn(2)
    env = DuelingEnvironment(matrix, delay, np.random.default_rng(env_seq), horizon=config.horizon)
    policy = make_policy(
        "mrr-delay", k=matrix.k, horizon=config.horizon, delay=delay,
        aggregated=config.aggregated,
    )
    gaps = matrix.gaps().tolist()
    cumulative, times, regret = 0.0, [], []
    for t in range(1, config.horizon + 1):
        if config.aggregated:
            policy.observe_count(t, len(env.observe_new(t)))
        else:
            policy.observe(t, env.observe_new(t))
        u, v = policy.select(t)
        env.step(u, v)
        cumulative += (gaps[u] + gaps[v]) / 2.0
        if t % config.trace_stride == 0 or t == config.horizon:
            times.append(t)
            regret.append(cumulative)
    return times, regret, policy


class TestMrrRuns:
    """run_one plays mrr-delay in runs; every trace must equal the per-step loop."""

    @settings(max_examples=100, deadline=None)
    @given(mrr_cases())
    @example((steep_rows(5), "det:5", False, 20_000, 40, 50, 11))  # (0,) once round 4 ends
    @example((steep_rows(3), "det:40", True, 6000, 1000, 100, 2))  # uncapped runs
    @example((steep_rows(4), "det:3", True, 3000, 60, 1, 5))  # a point after every play
    @example((steep_rows(4), "geometric:0.3", False, 900, 60, 1000, 5))  # one point, at T
    @example((steep_rows(3), "det:40", True, 6050, 1000, 100, 2))  # last run ends at T
    @example((steep_rows(4), "det:3", False, 3000, 1, 50, 5))  # window 1: every run n = 1
    # aggregated runs are capped at DRAW_CHUNK, not M: all 6 runs exceed M,
    # the longest is 4096 plays and 2 cross a chunk boundary
    @example((steep_rows(2), "det:40", True, 12_000, 40, 100, 2))
    # 10 runs, all longer than M, 2 across a chunk boundary
    @example((steep_rows(3), "geometric:0.05", True, 10_000, 40, 100, 2))
    def test_matches_per_step_reference(self, table_spec, case):
        rows, law, aggregated, horizon, window, stride, seed = case
        matrix = validate_matrix(rows)
        config = ExperimentConfig(
            dataset="arithmetic",
            policy="mrr-delay",
            delay=table_spec if law == "table" else law,
            horizon=horizon,
            window=window,
            trace_stride=stride,
            aggregated=aggregated,
        )
        built = []

        def factory(matrix, rng):
            built.append(
                make_policy(
                    "mrr-delay", k=matrix.k, horizon=horizon,
                    delay=config.delay_distribution(), aggregated=aggregated,
                )
            )
            return built[0]

        trace = run_one(config, seed, matrix=matrix, policy_factory=factory)
        times, regret, ref = per_step_reference(config, seed, matrix)
        (policy,) = built
        assert trace.times.tolist() == times
        assert trace.regret.tolist() == regret
        assert trace.winner == ref.declared_winner()
        assert trace.active == ref.active_arms
        assert policy.rescued_rounds == ref.rescued_rounds
        assert (policy.m, policy.plays, policy.convs) == (ref.m, ref.plays, ref.convs)

    def test_sole_survivor_memory_stays_within_window(self):
        # one play per step peaked at 0.17 MiB on this configuration (CPython
        # 3.11, numpy 2.4); a sole survivor plays runs of at most `window`
        # plays, so the run path stays near it instead of growing with T
        config = ExperimentConfig(
            dataset="arithmetic", policy="mrr-delay", delay="det:5", horizon=200_000
        )
        matrix = validate_matrix(steep_rows(5))
        run_one(config, 11, matrix=matrix)  # one-time allocations out of the way
        tracemalloc.start()
        try:
            trace = run_one(config, 11, matrix=matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.active == (0,)
        assert peak <= 1.5 * 0.17 * 2**20

    def test_aggregated_sole_survivor_memory_stays_within_draw_chunk(self):
        # runs of up to DRAW_CHUNK plays peaked at 0.27 MiB on this
        # configuration (CPython 3.11, numpy 2.4); an aggregated run holds
        # numpy arrays of at most DRAW_CHUNK plays, so the peak does not grow with T
        config = ExperimentConfig(
            dataset="arithmetic", policy="mrr-delay", delay="det:5", horizon=200_000,
            aggregated=True,
        )
        matrix = validate_matrix(steep_rows(5))
        run_one(config, 11, matrix=matrix)  # one-time allocations out of the way
        tracemalloc.start()
        try:
            trace = run_one(config, 11, matrix=matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.active == (0,)
        assert peak <= 1.5 * 0.27 * 2**20

    @pytest.mark.parametrize("aggregated, det_100_peak", [(False, 0.25), (True, 0.19)])
    def test_wins_landing_after_the_horizon_are_not_queued(self, aggregated, det_100_peak):
        # under det:100 this configuration peaked at det_100_peak MiB (CPython
        # 3.11, numpy 2.4); under det:10**6 every win lands after T + 1, where
        # no call can observe it, so none is queued and the peak stays near
        # that (queueing them took 7.8 MiB standard and 2.8 MiB aggregated)
        config = ExperimentConfig(
            dataset="sushi", policy="mrr-delay", delay="det:1000000", horizon=50_000,
            aggregated=aggregated,
        )
        matrix = builtin("sushi")
        run_one(config, 0, matrix=matrix)  # one-time allocations out of the way
        tracemalloc.start()
        try:
            trace = run_one(config, 0, matrix=matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.active == tuple(range(matrix.k))  # no win is ever seen
        assert peak <= 2 * det_100_peak * 2**20

    def test_aggregated_queue_holds_one_int_per_pending_win(self):
        # this configuration peaked at 0.27 MiB (CPython 3.11, numpy 2.4) with
        # the landing steps in one int64 array; a dict of counts took 0.52 MiB
        config = ExperimentConfig(
            dataset="sushi", policy="mrr-delay", delay="geometric:0.00001", horizon=50_000,
            aggregated=True,
        )
        matrix = builtin("sushi")
        run_one(config, 0, matrix=matrix)  # one-time allocations out of the way
        tracemalloc.start()
        try:
            run_one(config, 0, matrix=matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 0.27 * 2**20

    @pytest.mark.parametrize("aggregated, cap", [(False, 50), (True, DRAW_CHUNK)])
    def test_run_limit_is_window_or_draw_chunk(self, aggregated, cap):
        config = ExperimentConfig(
            dataset="arithmetic", policy="mrr-delay", delay="det:5", horizon=20_000,
            window=50, aggregated=aggregated,
        )
        limits = []

        def factory(matrix, rng):
            policy = make_policy(
                "mrr-delay", k=matrix.k, horizon=config.horizon,
                delay=config.delay_distribution(), aggregated=aggregated,
            )
            select_run = policy.select_run

            def recording(t, limit):
                limits.append(limit)
                return select_run(t, limit)

            policy.select_run = recording
            return policy

        run_one(config, 11, matrix=validate_matrix(steep_rows(3)), policy_factory=factory)
        assert max(limits) == cap  # every run may use the whole cap, none more


SUSHI_TIE = 0.0005000000000000004  # a sushi gap sum; c / ulp is k + 1/2 all over [0.5, 1)


@st.composite
def repeated_sums(draw):
    """(x, c, n, first, stride) with x, c >= 0: tiny, huge and power-of-two x;
    zero, random, larger-than-x, tied (k + 1/2 ulps) and sushi increments."""
    x = draw(
        st.one_of(
            st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.5, 1e8]),
            st.floats(0.0, 1e8),
            st.integers(-1074, 26).map(lambda e: math.ldexp(1.0, e)),
        )
    )
    c = draw(
        st.one_of(
            st.just(0.0),
            st.floats(0.0, 1.0),
            st.floats(1.0, 4.0).map(lambda f: x * f),
            st.integers(0, 3000).map(lambda k: (k + 0.5) * math.ulp(x)),
            st.just(SUSHI_TIE),
        )
    )
    stride = draw(st.integers(1, 300))
    return x, c, draw(st.integers(1, 5000)), draw(st.integers(1, stride + 10)), stride


class TestRepeatedSum:
    @settings(max_examples=300, deadline=None)
    @given(repeated_sums())
    @example((0.5, SUSHI_TIE, 5000, 1, 1))  # a whole tied binade, then two edges
    @example((0.5 + 2**-53, SUSHI_TIE, 1000, 3, 7))  # odd x on a tie: one plain addition
    @example((0.99, 0.001, 100, 3, 7))  # across the edge at 1
    @example((0.0, 1e-310, 4000, 1, 1))  # subnormal steps into the normal range
    def test_matches_sequential_additions(self, case):
        x, c, n, first, stride = case
        sums = np.full(n + 1, c)
        sums[0] = x
        np.add.accumulate(sums, out=sums)  # adds left to right: the per-step chain
        out = [-1.0]
        final = repeated_sum(x, c, n, first, stride, out)
        assert out == [-1.0] + sums[first::stride].tolist()
        assert final == sums[n]
        assert type(final) is float and all(type(v) is float for v in out)


class TestRunMany:
    def test_single_run_zero_std(self):
        result = run_many(config(runs=1))
        assert np.all(result.std == 0.0)

    def test_constant_policy_mean_equals_common_trace(self):
        result = run_many(config(runs=3), policy_factory=lambda m, rng: ConstantPolicy(0, 9))
        assert np.allclose(result.mean, 0.1125 * result.times, rtol=1e-12)
        assert np.all(result.std == pytest.approx(0.0))

    def test_aggregates_match_recomputation(self):
        result = run_many(config(runs=4))
        stack = np.vstack([tr.regret for tr in result.runs])
        assert np.array_equal(result.mean, stack.mean(axis=0))
        assert np.allclose(result.std, stack.std(axis=0, ddof=1))

    def test_runs_independent_of_batch_composition(self):
        # a seed's trace is the same whether run alone or inside a batch
        batch = run_many(config(runs=3, base_seed=11))
        solo = run_one(config(), 12)
        assert np.array_equal(batch.runs[1].regret, solo.regret)

    def test_seed_sequence(self):
        result = run_many(config(runs=3, base_seed=100))
        assert [tr.seed for tr in result.runs] == [100, 101, 102]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_nonpositive_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            config(workers=workers)

    def test_policy_factory_with_workers_rejected(self):
        with pytest.raises(ValueError, match="workers=1"):
            run_many(config(workers=2), policy_factory=lambda m, rng: ConstantPolicy(0, 0))


class TestWriteResults:
    def test_file_shapes_and_headers(self, tmp_path):
        result = run_many(config(runs=2, horizon=100, trace_stride=10))
        write_results(result, tmp_path)
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        runs = (tmp_path / "runs.csv").read_text().splitlines()
        assert summary[0] == "t,mean_regret,std_regret"
        assert len(summary) == 11  # header + 10 sampled points
        assert runs[0] == "seed,t,regret"
        assert len(runs) == 1 + 2 * 10

    def test_rewrite_is_byte_identical(self, tmp_path):
        result = run_many(config(runs=2))
        write_results(result, tmp_path / "a")
        write_results(result, tmp_path / "b")
        assert (tmp_path / "a" / "summary.csv").read_bytes() == (
            tmp_path / "b" / "summary.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "runs.csv").read_bytes() == (
            tmp_path / "b" / "runs.csv"
        ).read_bytes()

    def test_summary_matches_runs_file(self, tmp_path):
        result = run_many(config(runs=3, horizon=60, trace_stride=20))
        write_results(result, tmp_path)
        rows = [line.split(",") for line in (tmp_path / "runs.csv").read_text().splitlines()[1:]]
        by_t: dict[int, list[float]] = {}
        for seed, t, regret in rows:
            by_t.setdefault(int(t), []).append(float(regret))
        summary = [
            line.split(",") for line in (tmp_path / "summary.csv").read_text().splitlines()[1:]
        ]
        for t_text, mean_text, std_text in summary:
            values = np.array(by_t[int(t_text)])
            assert float(mean_text) == pytest.approx(values.mean(), rel=1e-12)
            assert float(std_text) == pytest.approx(values.std(ddof=1), rel=1e-12)

    def test_parallel_workers_reproduce_serial(self):
        serial = run_many(config(runs=3))
        parallel = run_many(config(runs=3, workers=2))
        for a, b in zip(serial.runs, parallel.runs):
            assert a.seed == b.seed
            assert np.array_equal(a.regret, b.regret)

    def test_pool_path_matches_serial_path(self, tmp_path):
        # starts two worker processes
        serial = run_many(config(runs=3, policy="rrdb-delay"))
        pooled = run_many(config(runs=3, policy="rrdb-delay", workers=2))
        assert [tr.seed for tr in pooled.runs] == [tr.seed for tr in serial.runs]
        for a, b in zip(serial.runs, pooled.runs):
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.regret, b.regret)
            assert (a.winner, a.active) == (b.winner, b.active)
        assert np.array_equal(pooled.mean, serial.mean)
        assert np.array_equal(pooled.std, serial.std)
        write_results(serial, tmp_path / "serial")
        write_results(pooled, tmp_path / "pooled")
        for name in ("summary.csv", "runs.csv"):
            assert (tmp_path / "pooled" / name).read_bytes() == (
                tmp_path / "serial" / name
            ).read_bytes()
