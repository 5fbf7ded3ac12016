import numpy as np
import pytest

from duelsim import ExperimentConfig, PolicyAction, run_many, run_one, write_results


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

    def test_aggregated_run_works_for_mrr_only(self):
        trace = run_one(config(policy="mrr-delay", aggregated=True), 1)
        assert np.all(np.diff(trace.regret) >= 0)
        with pytest.raises(ValueError):
            run_one(config(policy="rucb-delay", aggregated=True), 1)

    def test_paper_scale_override(self):
        c = config().at_paper_scale()
        assert c.horizon == 200_000 and c.runs == 100


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
