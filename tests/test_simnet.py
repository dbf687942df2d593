import numpy as np
import pytest
from scipy import stats

from helpers import schedule_rng
from privfp import admm
from privfp.errors import ParameterError
from privfp.fixedpoint import SingleUniform
from privfp.operators import ZeroProx
from privfp.simnet import (
    ObservationLog, participation_counts, record_observation, sample_users, walk_next,
)


class TestSampleUsers:
    def test_full_population(self):
        got = sample_users(6, 6, np.random.default_rng(0))
        np.testing.assert_array_equal(got, np.arange(6))

    def test_single_draw_frequencies(self):
        gen = np.random.default_rng(123)
        n, draws = 10, 100_000
        counts = np.zeros(n)
        for _ in range(draws):
            counts[sample_users(n, 1, gen)[0]] += 1
        np.testing.assert_allclose(counts / draws, 0.1, atol=0.01)

    def test_no_duplicates(self):
        gen = np.random.default_rng(5)
        for _ in range(200):
            got = sample_users(20, 7, gen)
            assert len(set(got.tolist())) == 7

    def test_inclusion_probability(self):
        gen = np.random.default_rng(99)
        n, m, trials = 12, 4, 20_000
        incl = np.zeros(n)
        for _ in range(trials):
            incl[sample_users(n, m, gen)] += 1
        # binomial test per user at 1% significance
        p = m / n
        bound = stats.norm.ppf(0.995) * np.sqrt(p * (1 - p) / trials)
        assert np.all(np.abs(incl / trials - p) < bound * 1.5 + 0.005)

    def test_oversized_cohort_rejected(self):
        with pytest.raises(ParameterError):
            sample_users(5, 6, np.random.default_rng(0))


class TestWalkNext:
    def test_single_user(self):
        assert walk_next(1, np.random.default_rng(0)) == 0

    def test_uniformity_chi_square(self):
        gen = np.random.default_rng(7)
        n, draws = 10, 100_000
        counts = np.bincount([walk_next(n, gen) for _ in range(draws)], minlength=n)
        expected = draws / n
        stat = np.sum((counts - expected) ** 2 / expected)
        assert stat < stats.chi2.ppf(0.99, n - 1)

    def test_return_time_is_geometric(self):
        gen = np.random.default_rng(21)
        n, steps = 10, 100_000
        visits = [k for k in range(steps) if walk_next(n, gen) == 0]
        gaps = np.diff(visits)
        assert abs(np.mean(gaps) - n) / n < 0.05

    def test_memoryless_transition_matrix(self):
        gen = np.random.default_rng(3)
        n, steps = 5, 100_000
        seq = [walk_next(n, gen) for _ in range(steps)]
        M = np.zeros((n, n))
        for a, b in zip(seq, seq[1:]):
            M[a, b] += 1
        M /= M.sum(axis=1, keepdims=True)
        assert np.max(np.abs(M - 1.0 / n)) < 0.02


class TestScheduleDraws:
    """The engine's schedules and the ADMM drivers make the same participation draws."""

    @pytest.mark.parametrize("seed", [0, 5, 91])
    def test_federated_run_marks_the_sampled_cohort(self, seed):
        n, m, K = 12, 4, 20
        problem = admm.ConsensusProblem(prox_f=(ZeroProx(),) * n, prox_r=ZeroProx())
        _, trace = admm.federated_run(problem, 1, m, 0.5, 0.0, K, seed)
        assert len(trace.active) == K
        for k in range(K):
            want = np.zeros(n, dtype=bool)
            want[sample_users(n, m, schedule_rng(seed, k))] = True
            assert np.array_equal(trace.active[k], want)

    @pytest.mark.parametrize("seed", [0, 5, 91])
    def test_walk_starts_at_the_holder_drawn_on_schedule_tag_one(self, seed):
        # the first holder has its own substream, apart from step 0's hand-off
        n = 1000
        problem = admm.ConsensusProblem(prox_f=(ZeroProx(),) * n, prox_r=ZeroProx())
        _, trace, _ = admm.decentralized_run(problem, 1, 0.5, 0.0, 1, seed)
        assert trace.active_rows[0] == walk_next(n, schedule_rng(seed, 0, tag=1))

    @pytest.mark.parametrize("seed", [0, 5, 91])
    def test_walk_holder_follows_single_uniform_shifted_by_one(self, seed):
        n, K = 7, 40
        problem = admm.ConsensusProblem(prox_f=(ZeroProx(),) * n, prox_r=ZeroProx())
        _, trace, _ = admm.decentralized_run(problem, 1, 0.5, 0.0, K, seed)
        for k in range(K - 1):
            assert np.array_equal(trace.active[k + 1], SingleUniform().mask(n, seed, k))


class TestObservationLog:
    def test_single_event(self):
        log = ObservationLog(n=4)
        record_observation(log, 2, 5, np.array([1.0, 2.0]))
        assert len(log.sequence(2)) == 1
        k, z = log.sequence(2)[0]
        assert k == 5
        np.testing.assert_array_equal(z, [1.0, 2.0])

    def test_isolation_between_users(self):
        log = ObservationLog(n=3)
        record_observation(log, 0, 1, np.zeros(1))
        record_observation(log, 0, 2, np.ones(1))
        assert log.sequence(1) == [] and log.sequence(2) == []

    def test_snapshots_stored_by_value(self):
        log = ObservationLog(n=2)
        z = np.array([1.0])
        record_observation(log, 0, 0, z)
        z[0] = 99.0
        assert log.sequence(0)[0][1][0] == 1.0

    def test_out_of_range_user(self):
        with pytest.raises(ParameterError):
            record_observation(ObservationLog(n=2), 2, 0, np.zeros(1))

    def test_seeded_replay_reconstructs_identical_log(self):
        def simulate(seed):
            log = ObservationLog(n=6)
            current = 0
            for k in range(50):
                nxt = walk_next(6, schedule_rng(seed, k))
                record_observation(log, nxt, k + 1, np.array([float(k)]))
                current = nxt
            return log

        a, b = simulate(17), simulate(17)
        assert {u: [(k, z.tolist()) for k, z in seq] for u, seq in a.events.items()} == \
            {u: [(k, z.tolist()) for k, z in seq] for u, seq in b.events.items()}


class TestParticipationCounts:
    def test_round_robin(self):
        log = ObservationLog(n=5)
        for k in range(5):
            record_observation(log, k, k, np.zeros(1))
        counts = participation_counts(log)
        np.testing.assert_array_equal(counts, np.ones(5, dtype=int))

    def test_uniform_walk_average(self):
        gen = np.random.default_rng(2)
        n, K = 10, 100 * 10
        log = ObservationLog(n=n)
        for k in range(K):
            record_observation(log, walk_next(n, gen), k, np.zeros(1))
        counts = participation_counts(log)
        assert counts.sum() == K
        assert abs(counts.mean() - 100) / 100 < 0.10
        assert np.all(counts >= 0)
