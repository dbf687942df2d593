import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from helpers import noise_rng, schedule_rng
from privfp import admm, rng
from privfp.blocks import BlockVector
from privfp.errors import StructuralError
from privfp.fixedpoint import (
    BernoulliPerBlock, FixedCohort, RandomWalk, SingleUniform, dpsgd_instance,
)
from privfp.operators import ZeroProx
from privfp.simnet import sample_users, walk_next


class TestBlockVector:
    def test_rectangular_layout_enforced(self):
        with pytest.raises(StructuralError):
            BlockVector(np.zeros(4))
        v = BlockVector.zeros(3, 2)
        assert v.n_blocks == 3 and v.block_dim == 2
        assert v.flat.shape == (6,)

    def test_copy_is_independent(self):
        v = BlockVector.zeros(2, 2)
        w = v.copy()
        w.data[0, 0] = 5.0
        assert v.data[0, 0] == 0.0


class TestSubstreams:
    def test_reproducible(self):
        a = rng.gaussian_block(42, 3, 7, 1.0, 5)
        b = rng.gaussian_block(42, 3, 7, 1.0, 5)
        assert np.array_equal(a, b)

    def test_distinct_across_iteration_block_domain_and_seed(self):
        base = rng.gaussian_block(42, 3, 7, 1.0, 5)
        for other in (rng.gaussian_block(42, 4, 7, 1.0, 5),
                      rng.gaussian_block(42, 3, 8, 1.0, 5),
                      rng.gaussian_block(43, 3, 7, 1.0, 5),
                      rng.substream(42, rng.SCHEDULE, 3, 7).normal(0.0, 1.0, 5)):
            assert not np.array_equal(base, other)

    def test_zero_sigma_short_circuits(self):
        np.testing.assert_array_equal(rng.gaussian_block(0, 0, 0, 0.0, 4), np.zeros(4))

    def test_draw_order_does_not_perturb_other_streams(self):
        # reading stream (k=1, b=0) before or after (k=0, b=0) is immaterial
        first = rng.gaussian_block(7, 0, 0, 1.0, 3)
        _ = rng.gaussian_block(7, 1, 0, 1.0, 3)
        again = rng.gaussian_block(7, 0, 0, 1.0, 3)
        assert np.array_equal(first, again)

    def test_scaling_matches_sigma(self):
        unit = noise_rng(5, 2, 1).normal(0.0, 1.0, 1000)
        scaled = noise_rng(5, 2, 1).normal(0.0, 2.5, 1000)
        np.testing.assert_allclose(scaled, 2.5 * unit, rtol=1e-12)


def fresh_draw(seed, k, b, sigma, size):
    """Oracle: a newly built generator for the (k, b) noise substream."""
    return noise_rng(seed, k, b).normal(0.0, sigma, size)


class TestGaussianRows:
    """gaussian_rows is the one multi-block draw: row j is gaussian_block at blocks[j]."""

    @pytest.mark.parametrize("sigma", [0.0, 0.7, float("nan"), -0.0, float("inf"), 5e-324, 1e-310,
                                       rng.MAX_SIGMA, 1075.8])
    @pytest.mark.parametrize("seed", [-3, 2**63 + 11, 2**64 - 1])
    def test_rows_equal_stacked_blocks_bit_for_bit(self, seed, sigma):
        # unsorted, with a repeat; and single blocks, which take the one-row path
        for blocks in (np.array([7, 2, 2**40, 0, 5, 2]), [2**40], np.array([3]), range(5, 6)):
            for k in (0, 3, 2**64 - 1):
                want = np.stack([rng.gaussian_block(seed, k, int(b), sigma, 9) for b in blocks])
                got = rng.gaussian_rows(seed, k, blocks, sigma, 9)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sigma", [0.0, 0.7, float("nan"), -0.0, float("inf"), 5e-324, 1e-310,
                                       rng.MAX_SIGMA, 1075.8])
    @pytest.mark.parametrize("seed", [-3, 2**63 + 11, 2**64 - 1])
    def test_per_row_addresses_equal_gaussian_block_bit_for_bit(self, seed, sigma):
        # one step per row, as the walk draws a block of steps: each row its own (k, b)
        addresses = [(0, 4), (3, 4), (2**64 - 1, 2**40), (3, 0), (7, 4), (0, 4)]
        for rows in (addresses, addresses[2:3]):  # a single row takes the one-row path
            steps, blocks = zip(*rows)
            want = np.stack([rng.gaussian_block(seed, k, b, sigma, 9) for k, b in rows])
            for k in (steps, np.array(steps, dtype=np.uint64)):
                got = rng.gaussian_rows(seed, k, np.array(blocks), sigma, 9)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [np.int64(3), np.uint64(3), np.int32(3), np.int64(2**63 - 1),
                                   np.uint64(2**64 - 1)], ids=repr)
    @pytest.mark.parametrize("blocks", [[4, 0, 4], [4]], ids=["rows", "one-row"])
    def test_numpy_integer_step_behaves_as_an_int(self, k, blocks):
        want = rng.gaussian_rows(6, int(k), blocks, 0.7, 5)
        assert rng.gaussian_rows(6, k, blocks, 0.7, 5).tobytes() == want.tobytes()
        assert want.tobytes() == np.stack(
            [rng.gaussian_block(6, int(k), b, 0.7, 5) for b in blocks]).tobytes()

    @pytest.mark.parametrize("blocks", [[], np.array([], dtype=int), range(0)])
    def test_empty_block_set(self, blocks):
        for sigma in (0.0, 1.5):
            assert rng.gaussian_rows(4, 1, blocks, sigma, 6).shape == (0, 6)

    @pytest.mark.parametrize("sigma", [-1.0, -5e-324, -float("inf")])
    def test_negative_sigma_raises_as_gaussian_block_does(self, sigma):
        with pytest.raises(ValueError) as block:
            rng.gaussian_block(2, 1, 3, sigma, 4)
        with pytest.raises(ValueError) as rows:
            rng.gaussian_rows(2, 1, [3, 0], sigma, 4)
        with pytest.raises(ValueError) as one_row:
            rng.gaussian_rows(2, 1, [3], sigma, 4)
        assert str(rows.value) == str(one_row.value) == str(block.value) == "scale < 0"

    def test_nan_sigma_gives_nan_rows(self):
        got = rng.gaussian_rows(2, 1, [3, 0, 3], float("nan"), 4)
        assert got.shape == (3, 4) and np.isnan(got).all()

    def test_held_generators_are_not_disturbed(self):
        held_noise, held_sub = noise_rng(11, 2, 3), rng.substream(11, rng.DATA, 0, 0)
        first = held_noise.normal(0.0, 1.0, 4)
        for k in range(50):
            rng.gaussian_rows(11, k, [3, 2, 3], 1.0, 17)
        np.testing.assert_array_equal(np.concatenate([first, held_noise.normal(0.0, 1.0, 5)]),
                                      fresh_draw(11, 2, 3, 1.0, 9))
        np.testing.assert_array_equal(held_sub.normal(0.0, 1.0, 9),
                                      rng.substream(11, rng.DATA, 0, 0).normal(0.0, 1.0, 9))

    def test_two_threads_match_sequential_loop(self):
        calls = [(seed, k, [k % 7, 3, (5 * k) % 11][:1 + k % 3])
                 for k in range(60) for seed in (8, -2, 2**64 - 5)]
        want = [rng.gaussian_rows(seed, k, blocks, 1.5, 33) for seed, k, blocks in calls]
        got = [None] * len(calls)
        start = threading.Barrier(2)

        def draw(parity):
            start.wait(timeout=10)
            for j in range(parity, len(calls), 2):
                seed, k, blocks = calls[j]
                got[j] = rng.gaussian_rows(seed, k, blocks, 1.5, 33)

        threads = [threading.Thread(target=draw, args=(parity,)) for parity in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads between a row's counter reset and its draw
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


class TestReusedGenerator:
    """gaussian_block reuses one generator per thread; its values must not show it."""

    def test_matches_fresh_generator_bit_for_bit(self):
        pick = np.random.default_rng(2024)
        cases = [(-3, 0, 0, 1), (2**63 + 11, 5, 9, 7), (2**64 - 1, 2**40, 3, 65)]
        for _ in range(300):
            cases.append((int(pick.integers(-2**62, 2**62)) * int(pick.integers(1, 5)),
                          int(pick.integers(0, 2**40)), int(pick.integers(0, 2**20)),
                          int(pick.integers(1, 130))))
        for seed, k, b, size in cases:
            sigma = 0.5 + 0.25 * (size % 7)
            np.testing.assert_array_equal(rng.gaussian_block(seed, k, b, sigma, size),
                                          fresh_draw(seed, k, b, sigma, size))

    def test_interleaved_seeds(self):
        for k in range(20):
            for seed in (-3, 2**63 + 11):
                np.testing.assert_array_equal(rng.gaussian_block(seed, k, k % 3, 1.5, 3),
                                              fresh_draw(seed, k, k % 3, 1.5, 3))

    def test_held_generators_are_not_disturbed(self):
        held_noise, held_sub = noise_rng(11, 2, 3), rng.substream(11, rng.DATA, 0, 0)
        for k in range(50):
            rng.gaussian_block(11, k, 3, 1.0, 17)
        np.testing.assert_array_equal(held_noise.normal(0.0, 1.0, 9), fresh_draw(11, 2, 3, 1.0, 9))
        np.testing.assert_array_equal(held_sub.normal(0.0, 1.0, 9),
                                      rng.substream(11, rng.DATA, 0, 0).normal(0.0, 1.0, 9))

    def test_two_threads_match_sequential_loop(self):
        addresses = [(k, b) for k in range(40) for b in range(5)]
        want = [fresh_draw(8, k, b, 1.0, 33) for k, b in addresses]
        got = [None] * len(addresses)
        start = threading.Barrier(2)

        def draw(parity):
            start.wait(timeout=10)
            for j in range(parity, len(addresses), 2):
                k, b = addresses[j]
                got[j] = rng.gaussian_block(8, k, b, 1.0, 33)

        threads = [threading.Thread(target=draw, args=(parity,)) for parity in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads between a state reset and its draw
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_draws_build_at_most_one_bit_generator(self, monkeypatch):
        built = []
        real = np.random.Philox

        def counting_philox(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting_philox)

        def draws():
            for k in range(100):
                rng.gaussian_block(3, k, k % 4, 1.0, 64)

        # a new thread has no generator yet, so its first draw builds one
        worker = threading.Thread(target=draws)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert len(built) <= 1
        before = len(built)
        noise_rng(3, 0, 0)
        assert len(built) == before + 1  # the wrapper sees every construction

    def test_import_builds_no_generator(self):
        # an eager per-thread generator loads numpy.random at import, ~6 MB more resident memory
        code = "import sys, privfp.cli; sys.exit('numpy.random' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def _one_hot(n, active):
    mask = np.zeros(n, dtype=bool)
    mask[active] = True
    return mask


def _uniform_item(seed, k):
    """The item dpsgd_instance's uniform order applies at step k (item i has gradient -i)."""
    grads = [lambda u, i=i: np.full(1, -float(i)) for i in range(50)]
    handle, _ = dpsgd_instance(grads, beta=2.0, gamma=0.5, sigma_grad=0.0, K=1, seed=seed,
                               order="uniform")
    return int(handle.apply(np.zeros(1), k)[0])


def _cohort(seed, k, n=1000, m=90):
    """The cohort mask federated_run and dpsgd_federated draw at round k."""
    return FixedCohort(m).mask(n, seed, k)


def _walk_holder_oracle(seed, k):
    """The walk's holder of step k: drawn at (0, 1) for step 0, then at (k - 1, 0)."""
    return walk_next(1000, schedule_rng(seed, 0, tag=1) if k == 0 else schedule_rng(seed, k - 1))


def _walk_holder(seed, k):
    problem = admm.ConsensusProblem(prox_f=(ZeroProx(),) * 1000, prox_r=ZeroProx())
    state = admm.AdmmState(u=BlockVector.zeros(1000, 1), z=np.zeros(1), k=k)
    return admm.decentralized_step(problem, state, 0, 0.5, 0.0, seed)[1]


# Each schedule site that draws from the reused generator, beside the same draw
# from a fresh schedule_rng oracle.
SCHEDULE_SITES = {
    "walk_next": (lambda seed, k: SingleUniform().mask(1000, seed, k),
                  lambda seed, k: _one_hot(1000, walk_next(1000, schedule_rng(seed, k)))),
    "walk_holder": (_walk_holder, lambda seed, k: walk_next(1000, schedule_rng(seed, k))),
    "sample_users": (_cohort,
                     lambda seed, k: _one_hot(1000, sample_users(1000, 90, schedule_rng(seed, k)))),
    "random_walk": (lambda seed, k: RandomWalk().mask(1000, seed, k),
                    lambda seed, k: _one_hot(1000, _walk_holder_oracle(seed, k))),
    "bernoulli": (lambda seed, k: BernoulliPerBlock(0.3).mask(1000, seed, k),
                  lambda seed, k: schedule_rng(seed, k).random(1000) < 0.3),
    "uniform_item_order": (_uniform_item,
                           lambda seed, k: walk_next(50, schedule_rng(seed, k, tag=2))),
}


class TestReusedScheduleGenerator:
    """Schedule draws reuse the per-thread generator too; their values must not show it."""

    @pytest.mark.parametrize("site", SCHEDULE_SITES)
    @pytest.mark.parametrize("seed", [-3, 2**63 + 11, 2**64 - 1])
    def test_matches_fresh_schedule_rng_bit_for_bit(self, site, seed):
        draw, oracle = SCHEDULE_SITES[site]
        for k in [*range(12), 2**40 + 3, 2**64 - 1]:
            np.testing.assert_array_equal(draw(seed, k), oracle(seed, k))

    def test_held_schedule_generator_is_not_disturbed(self):
        held = schedule_rng(11, 2)
        first = held.random(3)
        for k in range(50):
            for draw, _ in SCHEDULE_SITES.values():
                draw(11, k)
        np.testing.assert_array_equal(np.concatenate([first, held.random(3)]),
                                      schedule_rng(11, 2).random(6))

    def test_interleaved_with_noise_draws(self):
        for k in range(30):
            mask = _cohort(5, k)
            noise = rng.gaussian_block(5, k, 3, 1.0, 17)
            walk = SingleUniform().mask(1000, 5, k)
            np.testing.assert_array_equal(mask, SCHEDULE_SITES["sample_users"][1](5, k))
            np.testing.assert_array_equal(noise, fresh_draw(5, k, 3, 1.0, 17))
            np.testing.assert_array_equal(walk, SCHEDULE_SITES["walk_next"][1](5, k))

    def test_two_threads_match_sequential_loop(self):
        steps = range(200)
        want = [(SCHEDULE_SITES["sample_users"][1](8, k), fresh_draw(8, k, 1, 1.0, 33))
                for k in steps]
        got = [None] * len(steps)
        start = threading.Barrier(2)

        def draw(parity):
            start.wait(timeout=10)
            for k in range(parity, len(steps), 2):
                got[k] = (_cohort(8, k), rng.gaussian_block(8, k, 1, 1.0, 33))

        threads = [threading.Thread(target=draw, args=(parity,)) for parity in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads between a state reset and its draw
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for (mask, noise), (want_mask, want_noise) in zip(got, want):
            np.testing.assert_array_equal(mask, want_mask)
            np.testing.assert_array_equal(noise, want_noise)

    def test_draws_build_at_most_one_bit_generator(self, monkeypatch):
        built = []
        real = np.random.Philox

        def counting_philox(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        sites = [SCHEDULE_SITES[name][0] for name in ("walk_next", "sample_users", "bernoulli")]

        def draws():
            for k in range(100):
                sites[k % 3](3, k)

        # a new thread has no generator yet, so its first draw builds one
        worker = threading.Thread(target=draws)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert len(built) <= 1
        before = len(built)
        schedule_rng(3, 0)
        assert len(built) == before + 1  # the wrapper sees every construction


def _state_words(gen):
    """The bit generator's state as plain ints, for exact comparison."""
    state = gen.bit_generator.state
    return ([int(v) for v in state["state"]["key"]], [int(v) for v in state["state"]["counter"]],
            [int(v) for v in state["buffer"]], state["buffer_pos"], state["has_uint32"],
            state["uinteger"])


class TestResetStateReuse:
    """Each thread resets its generator from one reused state dict; no draw may see that."""

    def test_reset_after_partial_draws_equals_fresh_state(self):
        partial = [lambda g: g.integers(0, 10, dtype=np.uint32),  # caches a half word
                   lambda g: g.random(3),  # leaves the output buffer part used
                   lambda g: g.normal(0.0, 1.0, 5)]
        for j, (seed, domain, k, b) in enumerate([(-3, rng.NOISE, 0, 1), (2**64 - 1, rng.SCHEDULE, 2**40, 2),
                                                   (7, rng.DATA, 5, 0)]):
            partial[j](rng._reset_to(seed + 1, domain, k + 1, b))
            assert _state_words(rng._reset_to(seed, domain, k, b)) == \
                _state_words(rng.substream(seed, domain, k, b))

    def test_four_threads_interleaving_noise_and_schedule_draws(self):
        def draws(seed, k):
            return (rng.gaussian_block(seed, k, k % 5, 1.0, 9), _cohort(seed, k, 200, 30),
                    SingleUniform().mask(200, seed, k), BernoulliPerBlock(0.3).mask(50, seed, k))

        def oracle(seed, k):
            return (fresh_draw(seed, k, k % 5, 1.0, 9),
                    _one_hot(200, sample_users(200, 30, schedule_rng(seed, k))),
                    _one_hot(200, walk_next(200, schedule_rng(seed, k))),
                    schedule_rng(seed, k).random(50) < 0.3)

        seeds, steps = (11, -4, 2**63 + 1, 2**64 - 1), range(150)
        want = {seed: [oracle(seed, k) for k in steps] for seed in seeds}
        got = {seed: [None] * len(steps) for seed in seeds}
        start = threading.Barrier(len(seeds))

        def worker(seed):
            start.wait(timeout=10)
            for k in steps:
                got[seed][k] = draws(seed, k)

        # more threads than the two cores a small host has, switching between a reset and its draw
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for seed in seeds:
            for have, expect in zip(got[seed], want[seed]):
                for a, b in zip(have, expect):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
