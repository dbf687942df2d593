import tracemalloc

import numpy as np
import pytest
from scipy import stats

from helpers import schedule_rng
from privfp import admm
from privfp.errors import ParameterError, StructuralError
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


def _plain(events):
    return {user: [(k, z.tolist()) for k, z in seq] for user, seq in events.items()}


class TestObservationStore:
    """The log's block store reads back what a dict of per-user lists would hold."""

    @pytest.mark.parametrize("count", [0, 1, 511, 512, 513, 1025])
    def test_reads_match_a_dict_of_lists_across_block_edges(self, count):
        n, p = 7, 3
        gen = np.random.default_rng(count)
        log, oracle = ObservationLog(n=n), {}
        for k in range(count):
            user, z = int(gen.integers(n)), gen.normal(size=p)
            record_observation(log, user, k + 1, z)
            oracle.setdefault(user, []).append((k + 1, z.copy()))
        assert log.total_events() == count
        assert _plain(log.events) == _plain(oracle)
        assert list(log.events) == list(oracle)  # users in order of first event
        for user in range(n + 1):
            assert _plain({user: log.sequence(user)}) == _plain({user: oracle.get(user, [])})
        np.testing.assert_array_equal(participation_counts(log),
                                      [len(oracle.get(user, [])) for user in range(n)])

    def test_rows_are_read_only_copies(self):
        log, z = ObservationLog(n=2), np.arange(3.0)
        record_observation(log, 1, 4, z)
        z[:] = -1.0
        (k, row), = log.sequence(1)
        assert k == 4 and row.tolist() == [0.0, 1.0, 2.0]
        with pytest.raises(ValueError):
            row[0] = 9.0
        with pytest.raises(ValueError):
            log.events[1][0][1][0] = 9.0
        record_observation(log, 0, 5, z)  # appends still work after a read
        assert log.sequence(1)[0][1].tolist() == [0.0, 1.0, 2.0]
        assert log.sequence(0)[0][1].tolist() == [-1.0, -1.0, -1.0]

    @pytest.mark.parametrize("user, k", [
        (True, 0), (0, False), (1.0, 0), (0, 2.0), (np.float64(1.0), 0), (0, np.bool_(True)),
        ("1", 0), (None, 0),
    ])
    def test_user_and_step_must_be_integers(self, user, k):
        log = ObservationLog(n=3)
        with pytest.raises(ParameterError, match="must be integers"):
            record_observation(log, user, k, np.zeros(2))
        assert log.total_events() == 0

    @pytest.mark.parametrize("k", [2**63, -2**63 - 1])
    def test_step_beyond_64_bits_raises_and_leaves_the_log_usable(self, k):
        log = ObservationLog(n=3)
        with pytest.raises(ParameterError, match="64-bit"):
            record_observation(log, 1, k, np.zeros(2))
        record_observation(log, 1, 2**63 - 1, np.ones(2))
        assert _plain(log.events) == {1: [(2**63 - 1, [1.0, 1.0])]}

    def test_numpy_integers_and_integer_snapshots_are_accepted(self):
        log = ObservationLog(n=3)
        record_observation(log, np.int32(2), np.uint16(7), np.array([3, 4], dtype=np.int8))
        record_observation(log, 2, 8, [5, 6])
        (k, z), (_, z_list) = log.sequence(2)
        assert k == 7 and type(k) is int
        assert z.dtype == float and z.tolist() == [3.0, 4.0] and z_list.tolist() == [5.0, 6.0]

    @pytest.mark.parametrize("shape", [(1,), (3,), (2, 1), ()])
    def test_snapshot_of_another_shape_raises(self, shape):
        log = ObservationLog(n=3)
        record_observation(log, 0, 1, np.zeros(2))
        with pytest.raises(StructuralError, match="user 2 at step 5"):
            record_observation(log, 2, 5, np.ones(shape))
        assert log.total_events() == 1 and log.sequence(2) == []

    def test_walk_sized_log_holds_little_beyond_its_snapshots(self):
        events, p = 9000, 64
        z = np.ones(p)
        tracemalloc.start()
        try:
            log = ObservationLog(n=900)
            for k in range(events):
                record_observation(log, k % 900, k + 1, z)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert log.total_events() == events
        assert held <= 1.1 * events * p * 8


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
