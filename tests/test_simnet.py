import tracemalloc

import numpy as np
import pytest
from scipy import stats

from helpers import schedule_rng
from privfp import admm, fixedpoint
from privfp.errors import ParameterError, StructuralError
from privfp.fixedpoint import RunTrace, SingleUniform
from privfp.operators import ZeroProx
from privfp.simnet import participation_counts, record_observation, sample_users, walk_next


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

    # numpy (2.4) draws m of n without replacement by Floyd's algorithm, or for n > 10000
    # by a partial shuffle of arange(n); with its final shuffle on it takes the partial
    # shuffle from m > n // 50, without it only from m > n // 20. So skipping the
    # shuffle keeps the sorted cohort on (900, 90), (60, 7), (20000, 300) and
    # (20000, 9000), but picks another cohort for 20000 // 50 < m <= 20000 // 20.
    @pytest.mark.parametrize("n, m", [(900, 90), (900, 400), (60, 7), (20000, 300),
                                      (20000, 401), (20000, 1000), (20000, 9000)])
    def test_cohort_is_the_sorted_shuffled_choice(self, n, m):
        for seed in range(200 if n < 10000 else 20):
            want = np.sort(schedule_rng(seed, 0).choice(n, size=m, replace=False))
            assert sample_users(n, m, schedule_rng(seed, 0)).tobytes() == want.tobytes()


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


def _plain(events):
    return {user: [(k, z.tolist()) for k, z in seq] for user, seq in events.items()}


def _walk(n, K, seed=4, p=1):
    """A noisy K-step walk over n users with zero proxes: (trace, log)."""
    problem = admm.ConsensusProblem(prox_f=(ZeroProx(),) * n, prox_r=ZeroProx())
    return admm.decentralized_run(problem, p, 0.5, 0.3, K, seed)[1:]


class TestObservationLog:
    """The log is a view of a trace: event k hands z_k, the iterate of step k - 1, to the
    holder of step k, and the last event to the holder drawn after the last step."""

    ROWS = fixedpoint._BLOCK_BYTES // (8 * 1024)  # iterates of 1024 floats per block

    @pytest.mark.parametrize("count", [1, 2, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 1])
    def test_reads_match_a_dict_of_lists_across_block_edges(self, count):
        n, p = 7, 1024
        gen = np.random.default_rng(count)
        trace, oracle = RunTrace(n_blocks=n), {}
        holders = [int(h) for h in gen.integers(n, size=count + 1)]
        for k in range(count):
            z = gen.normal(size=p)
            trace.record(holders[k], iterate=z)
            oracle.setdefault(holders[k + 1], []).append((k + 1, z.copy()))
        log = record_observation(trace, holders[-1])
        assert log.n == n and log.total_events() == count
        assert _plain(log.events) == _plain(oracle)
        assert list(log.events) == list(oracle)  # users in order of first event
        for user in range(n + 1):
            assert _plain({user: log.sequence(user)}) == _plain({user: oracle.get(user, [])})
        np.testing.assert_array_equal(participation_counts(log),
                                      [len(oracle.get(user, [])) for user in range(n)])

    def test_rows_are_read_only_copies(self):
        trace, z = RunTrace(n_blocks=2), np.arange(3.0)
        trace.record(0, iterate=z)
        z[:] = -1.0
        trace.record(1, iterate=z)
        log = record_observation(trace, 0)
        (k, row), = log.sequence(1)
        assert k == 1 and row.tolist() == [0.0, 1.0, 2.0]
        with pytest.raises(ValueError):
            row[0] = 9.0
        with pytest.raises(ValueError):
            log.events[0][0][1][0] = 9.0
        assert log.sequence(0)[0][1].tolist() == [-1.0, -1.0, -1.0]
        with pytest.raises(AttributeError):
            log.last = 1  # a frozen view

    def test_single_event(self):
        trace = RunTrace(n_blocks=4)
        trace.record(0, iterate=np.array([1.0, 2.0]))
        log = record_observation(trace, 2)
        assert len(log.sequence(2)) == 1
        k, z = log.sequence(2)[0]
        assert k == 1
        np.testing.assert_array_equal(z, [1.0, 2.0])

    def test_isolation_between_users(self):
        trace = RunTrace(n_blocks=3)
        trace.record(1, iterate=np.zeros(1))
        trace.record(0, iterate=np.ones(1))
        log = record_observation(trace, 0)
        assert log.sequence(1) == [] and log.sequence(2) == []
        assert [k for k, _ in log.sequence(0)] == [1, 2]

    def test_snapshots_stored_by_value(self):
        trace, z = RunTrace(n_blocks=2), np.array([1.0])
        trace.record(0, iterate=z)
        z[0] = 99.0
        assert record_observation(trace, 0).sequence(0)[0][1][0] == 1.0

    def test_out_of_range_user(self):
        trace = RunTrace(n_blocks=2)
        trace.record(0, iterate=np.zeros(1))
        for last in (2, -1):
            with pytest.raises(ParameterError, match=f"last holder {last} out of range"):
                record_observation(trace, last)

    def test_seeded_replay_reconstructs_identical_log(self):
        a, b, other = (_walk(6, 50, seed=seed)[1] for seed in (17, 17, 18))
        assert _plain(a.events) == _plain(b.events)
        assert _plain(a.events) != _plain(other.events)

    @pytest.mark.parametrize("recorded", [0, 1, 2])
    def test_a_trace_without_an_iterate_per_round_is_rejected(self, recorded):
        trace = RunTrace(n_blocks=3)
        for k in range(3 if recorded else 0):
            trace.record(k, iterate=np.zeros(2) if k < recorded else None)
        with pytest.raises(StructuralError, match=f"got {recorded} for {3 if recorded else 0}"):
            record_observation(trace, 0)

    def test_walk_sized_log_holds_about_512_bytes_per_iterate(self):
        n, K, p = 50, 9000, 64
        _walk(n, 2, p=p)  # lazy imports outside the count
        tracemalloc.start()
        try:
            trace, log = _walk(n, K, p=p)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert log.total_events() == K
        # the (p,) rows, their blocks' unused tail and the holder list's pointers
        assert held <= 1.1 * K * p * 8


class TestObservationStore:
    """The trace's block store, read through the log."""

    def test_numpy_integers_and_integer_snapshots_are_accepted(self):
        trace = RunTrace(n_blocks=3)
        trace.record(np.int32(0), iterate=np.array([3, 4], dtype=np.int8))
        trace.record(np.int64(2), iterate=[5, 6])
        log = record_observation(trace, np.uint16(2))
        (k, z), (_, z_list) = log.sequence(2)
        assert k == 1 and type(k) is int
        assert z.dtype == float and z.tolist() == [3.0, 4.0] and z_list.tolist() == [5.0, 6.0]
        np.testing.assert_array_equal(participation_counts(log), [0, 0, 2])


class TestParticipationCounts:
    def test_round_robin(self):
        trace = RunTrace(n_blocks=5)
        for k in range(5):
            trace.record(k, iterate=np.zeros(1))
        counts = participation_counts(record_observation(trace, 0))
        np.testing.assert_array_equal(counts, np.ones(5, dtype=int))

    def test_uniform_walk_average(self):
        n, K = 10, 100 * 10
        _, log = _walk(n, K, seed=2)
        counts = participation_counts(log)
        assert counts.sum() == K
        assert abs(counts.mean() - 100) / 100 < 0.10
        assert np.all(counts >= 0)
