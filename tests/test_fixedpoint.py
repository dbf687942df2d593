import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from privfp import admm, bench, fixedpoint, rng
from privfp.blocks import BlockVector
from privfp.errors import ModelError, ParameterError, StructuralError
from privfp.fixedpoint import (
    AllBlocks, BernoulliPerBlock, FixedCohort, IterationConfig, RandomWalk, SingleUniform,
    dpcd_instance, dpsgd_instance, iterate, run, step,
)
from privfp.operators import (
    L1Prox, NonExpansive, OperatorHandle, QuadraticProx, ZeroProx, reflect_compose,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def identity_op():
    return OperatorHandle(apply=lambda u, k=0: np.asarray(u, dtype=float),
                          kind=NonExpansive())


def affine_op(scale, offset):
    return OperatorHandle(apply=lambda u, k=0: scale * np.asarray(u, dtype=float) + offset,
                          kind=NonExpansive())


class FrozenSchedule(AllBlocks):
    """All blocks inactive; for the masking edge case."""

    def rows(self, n_blocks, seed, k):
        return np.empty(0, dtype=int)


class TestStep:
    def test_identity_fixed_point(self):
        u = BlockVector(np.array([[1.0, -2.0]]))
        cfg = IterationConfig(K=1, sigma=0.0, lam=1.0, seed=0)
        out = step(u, identity_op(), cfg, 0)
        np.testing.assert_array_equal(out.data, u.data)

    def test_half_step_towards_constant(self):
        u = BlockVector(np.array([[2.0]]))
        cfg = IterationConfig(K=1, sigma=0.0, lam=0.5, seed=0)
        out = step(u, affine_op(0.0, 0.0), cfg, 0)
        np.testing.assert_array_equal(out.data, [[1.0]])

    def test_all_inactive_ignores_noise(self):
        u = BlockVector(np.array([[2.0, 3.0], [4.0, 5.0]]))
        cfg = IterationConfig(K=1, sigma=1.0, lam=1.0, schedule=FrozenSchedule(), seed=9)
        out = step(u, identity_op(), cfg, 0)
        assert np.array_equal(out.data, u.data)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            IterationConfig(K=0)
        with pytest.raises(ParameterError):
            IterationConfig(K=1, sigma=-0.1)
        with pytest.raises(ParameterError):
            IterationConfig(K=1, lam=0.0)
        with pytest.raises(ParameterError):
            IterationConfig(K=2, lam=[0.5, 1.5])

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, 1e200])
    def test_non_finite_or_huge_sigma_rejected(self, sigma):
        with pytest.raises(ParameterError, match="noise std"):
            IterationConfig(K=1, sigma=sigma)
        with pytest.raises(ParameterError, match="noise std"):
            dpsgd_instance([lambda u: u], beta=1.0, gamma=0.5, sigma_grad=sigma, K=1, seed=0)

    def test_iteration_index_range(self):
        cfg = IterationConfig(K=3)
        with pytest.raises(ParameterError):
            step(BlockVector.zeros(1, 1), identity_op(), cfg, 3)

    def test_operator_shape_mismatch_rejected(self):
        bad = OperatorHandle(apply=lambda u, k=0: np.zeros(5), kind=NonExpansive())
        cfg = IterationConfig(K=1)
        with pytest.raises(StructuralError):
            step(BlockVector.zeros(2, 2), bad, cfg, 0)

    @pytest.mark.parametrize("lam", [[1.0, 0.5], (0.5,), np.array([0.5, 0.5]), "0.5", 1.5,
                                     math.nan],
                             ids=["list", "tuple", "array", "string", "above_one", "nan"])
    def test_step_size_must_be_one_number_in_range(self, lam):
        with pytest.raises(ParameterError, match="step size"):
            IterationConfig(K=2, lam=lam)


class TestRun:
    def test_contractive_decay_to_direct_solve_fixed_point(self):
        tau, offset = 0.6, np.array([0.8, -0.4])
        # independent oracle: fixed point solves (1 - tau) u = offset
        u_star = np.linalg.solve((1 - tau) * np.eye(2), offset)
        cfg = IterationConfig(K=80, sigma=0.0, lam=1.0, seed=1)
        u0 = BlockVector(np.array([[5.0, -3.0]]))
        _, trace = run(u0, affine_op(tau, offset), cfg, reference=u_star)
        d = np.array(trace.dist_sq)
        prev = np.sum((u0.flat - u_star) ** 2)
        chi_bound = 1.0 - (1.0 - tau) / 8.0
        # the solve-based reference differs from the iteration's own fixed
        # point at machine level, so check strict geometric decay only while
        # the distance dominates that contamination
        for dk in d:
            if dk < 1e-12:
                break
            assert dk <= tau ** 2 * prev * (1 + 1e-9)
            assert dk <= chi_bound * prev
            prev = dk
        assert d[-1] < 1e-24

    def test_same_seed_bit_identical(self):
        cfg = IterationConfig(K=25, sigma=0.7, lam=0.8,
                              schedule=BernoulliPerBlock(0.6), seed=123)
        u0 = BlockVector(np.arange(6, dtype=float).reshape(3, 2))
        op = affine_op(0.5, 0.1)
        u1, t1 = run(u0, op, cfg)
        u2, t2 = run(u0, op, cfg)
        assert np.array_equal(u1.data, u2.data)
        assert all(np.array_equal(a, b) for a, b in zip(t1.active, t2.active))

    def test_noise_floor_quadruples_when_sigma_doubles(self):
        tau, p, K = 0.5, 8, 300
        op = affine_op(tau, 0.0)

        def plateau(sigma):
            finals = []
            for seed in range(20):
                cfg = IterationConfig(K=K, sigma=sigma, lam=1.0, seed=seed)
                u, _ = run(BlockVector.zeros(1, p), op, cfg)
                finals.append(np.sum(u.flat ** 2))
            return np.mean(finals)

        lo, hi = plateau(0.1), plateau(0.2)
        # stationary second moment scales with sigma^2; allow factor-3 slack around 4x
        assert 4.0 / 3.0 <= hi / lo <= 12.0

    def test_frozen_blocks_bit_unchanged(self):
        cfg = IterationConfig(K=12, sigma=0.5, lam=1.0, schedule=SingleUniform(), seed=5)
        u = BlockVector(np.random.default_rng(0).normal(size=(4, 3)))
        op = affine_op(0.9, 0.0)
        for k in range(cfg.K):
            mask = cfg.schedule.mask(4, cfg.seed, k)
            new = step(u, op, cfg, k)
            for b in range(4):
                if not mask[b]:
                    assert np.array_equal(new.data[b], u.data[b])
            u = new

    def test_noise_replay(self):
        cfg = IterationConfig(K=10, sigma=0.3, lam=1.0,
                              schedule=BernoulliPerBlock(0.5), seed=77)
        u0 = BlockVector.zeros(3, 4)
        op = identity_op()
        _, trace = run(u0, op, cfg)
        # replay step 0 by re-reading the recorded mask and substreams
        mask = trace.active[0]
        manual = u0.data.copy()
        for b in np.flatnonzero(mask):
            manual[b] = u0.data[b] + rng.gaussian_block(cfg.seed, 0, int(b), cfg.sigma, 4)
        replayed = step(u0, op, cfg, 0)
        assert np.array_equal(replayed.data, manual)


class TestRunIsALoopOfStep:
    """``run`` goes through ``iterate``; the update it applies is ``step``'s."""

    def test_bit_identical_to_step_loop(self):
        cfg = IterationConfig(K=20, sigma=0.6, lam=0.6,
                              schedule=BernoulliPerBlock(0.5), seed=2**63 + 7)
        u0 = BlockVector(np.random.default_rng(6).normal(size=(5, 3)))
        op = affine_op(0.7, -0.2)
        u_run, trace = run(u0, op, cfg, record_iterates=True)
        masks = trace.active
        u = u0
        for k in range(cfg.K):
            u = step(u, op, cfg, k)
            assert masks[k].tobytes() == cfg.schedule.mask(5, cfg.seed, k).tobytes()
            assert trace.iterates[k].tobytes() == u.flat.tobytes()
        assert u_run.data.tobytes() == u.data.tobytes()
        assert any(0 < m.sum() < 5 for m in masks)

    def test_leaves_u0_unchanged(self):
        u0 = BlockVector(np.random.default_rng(7).normal(size=(3, 2)))
        before = u0.data.copy()
        run(u0, affine_op(0.5, 1.0), IterationConfig(K=4, sigma=0.3, lam=0.5, seed=1))
        assert u0.data.tobytes() == before.tobytes()

    def test_operator_returning_a_view_of_its_input(self):
        cfg = IterationConfig(K=6, sigma=0.4, lam=0.7, schedule=AllBlocks(), seed=3)
        u0 = BlockVector(np.arange(6, dtype=float).reshape(3, 2))
        view = OperatorHandle(apply=lambda u, k=0: u[::-1], kind=NonExpansive())
        copied = OperatorHandle(apply=lambda u, k=0: np.array(u[::-1]), kind=NonExpansive())
        u_view, _ = run(u0, view, cfg)
        u_copy, _ = run(u0, copied, cfg)
        assert u_view.data.tobytes() == u_copy.data.tobytes()
        assert step(u0, view, cfg, 0).data.tobytes() == step(u0, copied, cfg, 0).data.tobytes()

    @pytest.mark.parametrize("schedule, retyped", [
        (BernoulliPerBlock(0.5), lambda rows: rows.astype(np.int32)),
        (BernoulliPerBlock(0.5), lambda rows: rows.astype(np.uint64)),
        (FixedCohort(2), lambda rows: rows.astype(np.int16)),
        (SingleUniform(), np.int64),
        (RandomWalk(), np.uint8),
    ], ids=["int32", "uint64", "cohort-int16", "numpy-int", "walk-uint8"])
    def test_rows_of_any_integer_type_act_alike(self, schedule, retyped):
        class Retyped(type(schedule)):
            def rows(self, n_blocks, seed, k):
                return retyped(super().rows(n_blocks, seed, k))

        u0, op = BlockVector(np.ones((4, 2))), affine_op(0.5, 0.3)
        fields = dataclasses.asdict(schedule)
        u_int, t_int = run(u0, op, IterationConfig(K=8, sigma=0.2, schedule=Retyped(**fields), seed=4))
        u_own, t_own = run(u0, op, IterationConfig(K=8, sigma=0.2, schedule=schedule, seed=4))
        assert u_int.data.tobytes() == u_own.data.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(t_int.active, t_own.active))

    def test_non_finite_iterate_raises_naming_the_round(self):
        # u <- 1e100 u: 1 -> 1e100 -> 1e200 -> 1e300 -> inf at the fourth step (round 3)
        cfg = IterationConfig(K=10, sigma=0.0, lam=1.0, seed=0)
        with np.errstate(over="ignore"), pytest.raises(ModelError, match="round 3"):
            run(BlockVector(np.ones((2, 1))), affine_op(1e100, 0.0), cfg)


class TestSchedules:
    @pytest.mark.parametrize("schedule", [AllBlocks(), BernoulliPerBlock(0.3), SingleUniform(),
                                          FixedCohort(5), RandomWalk()],
                             ids=["all", "bernoulli", "single", "cohort", "walk"])
    def test_mask_is_the_set_of_rows_on_the_schedule_stream(self, schedule):
        """``mask`` is the bool view of ``rows``, and both read the (seed, k) schedule stream
        as a fresh substream does: all blocks, a uniform draw per block, one walk target, a
        sorted cohort drawn without replacement, and the walk's holder, which is step 0's
        draw at (0, 1) and then the walk target drawn at step k - 1."""
        n = 12
        for seed in range(5):
            for k in range(50):
                rows = schedule.rows(n, seed, k)
                from_rows = np.zeros(n, dtype=bool)
                from_rows[slice(None) if rows is None else rows] = True
                gen = rng.substream(seed, rng.SCHEDULE, k, 0)
                want = np.zeros(n, dtype=bool)
                if isinstance(schedule, AllBlocks):
                    want[:] = True
                elif isinstance(schedule, BernoulliPerBlock):
                    want = gen.random(n) < schedule.q
                elif isinstance(schedule, FixedCohort):
                    want[gen.choice(n, size=schedule.m, replace=False)] = True
                    assert rows.tolist() == sorted(rows.tolist())
                elif isinstance(schedule, RandomWalk):
                    tag = (0, 1) if k == 0 else (k - 1, 0)
                    want[int(rng.substream(seed, rng.SCHEDULE, *tag).integers(n))] = True
                else:
                    want[int(gen.integers(n))] = True
                assert schedule.mask(n, seed, k).tobytes() == from_rows.tobytes() == want.tobytes()

    def test_a_schedule_defines_rows(self):
        class Neither(fixedpoint.BlockSchedule):
            pass

        for method in (Neither().rows, Neither().mask):
            with pytest.raises(NotImplementedError, match="defines rows"):
                method(3, 0, 0)

    @pytest.mark.parametrize("m", [2.5, True, False, 0, -1, "3", None, np.float64(2.0)],
                             ids=repr)
    def test_cohort_size_must_be_an_integer_of_at_least_one(self, m):
        with pytest.raises(ParameterError, match=re.escape("cohort size must be ") + "(an integer )?"
                           + re.escape(f">= 1, got {m!r}")):
            FixedCohort(m)

    def test_cohort_larger_than_the_blocks_fails_at_its_first_draw(self):
        cohort = FixedCohort(np.int64(4))
        assert cohort.rows(4, 0, 0).tolist() == [0, 1, 2, 3]
        assert cohort.activation_probability(8) == 0.5
        with pytest.raises(ParameterError, match=re.escape("cohort size must lie in [1, n=3], got ")):
            cohort.rows(3, 0, 0)

    def test_all_blocks(self):
        assert AllBlocks().mask(5, 0, 0).all()
        assert AllBlocks().activation_probability(5) == 1.0

    def test_bernoulli_rate(self):
        sched = BernoulliPerBlock(0.3)
        hits = np.mean([sched.mask(50, 42, k).mean() for k in range(2000)])
        assert abs(hits - 0.3) < 0.01
        assert sched.activation_probability(50) == 0.3

    def test_single_uniform_counts(self):
        sched = SingleUniform()
        B = 8
        counts = np.zeros(B)
        for k in range(4000):
            m = sched.mask(B, 3, k)
            assert m.sum() == 1
            counts += m
        freq = counts / 4000
        assert np.all(np.abs(freq - 1 / B) < 0.02)


def quadratic_items(n_items, p, seed):
    gen = np.random.default_rng(seed)
    targets = [gen.normal(size=p) for _ in range(n_items)]
    grads = [lambda u, t=t: np.asarray(u) - t for t in targets]
    return targets, grads


class TestDpsgdInstance:
    def test_single_exact_gradient_step(self):
        # f(u) = u^2/2 (beta = 1), gamma = 1, u0 = 1: one step lands on 0.
        handle, cfg = dpsgd_instance([lambda u: u], beta=1.0, gamma=1.0,
                                     sigma_grad=0.0, K=1, seed=0)
        u, _ = run(BlockVector(np.array([[1.0]])), handle, cfg)
        np.testing.assert_allclose(u.flat, [0.0], atol=1e-15)

    def test_matches_plain_sgd_trajectory(self):
        p, gamma, beta = 3, 0.4, 1.0
        targets, grads = quadratic_items(2, p, 0)
        handle, cfg = dpsgd_instance(grads, beta=beta, gamma=gamma, sigma_grad=0.0,
                                     K=10, seed=0, order="cyclic")
        u, trace = run(BlockVector.zeros(1, p), handle, cfg, record_iterates=True)
        x = np.zeros(p)
        for k in range(10):
            x = x - gamma * (x - targets[k % 2])
            assert np.max(np.abs(trace.iterates[k] - x)) < 1e-12

    def test_matches_direct_noisy_loop_under_shared_streams(self):
        p, gamma, beta, sigma_grad = 4, 0.3, 2.0, 0.5
        targets, grads = quadratic_items(3, p, 1)
        K, seed = 100, 31
        handle, cfg = dpsgd_instance(grads, beta=beta, gamma=gamma,
                                     sigma_grad=sigma_grad, K=K, seed=seed, order="cyclic")
        _, trace = run(BlockVector.zeros(1, p), handle, cfg, record_iterates=True)
        # independent loop: u <- u - gamma*(grad_i(u) + eta') with
        # eta' = -(beta/2) * eta and eta read from the engine's substream
        x = np.zeros(p)
        sigma_engine = 2.0 * sigma_grad / beta
        for k in range(K):
            g = x - targets[k % 3]
            eta_prime = -(beta / 2.0) * rng.gaussian_block(seed, k, 0, sigma_engine, p)
            x = x - gamma * (g + eta_prime)
            assert np.max(np.abs(trace.iterates[k] - x)) < 1e-12

    def test_cyclic_order_visits_each_item_once_per_pass(self):
        # item i has gradient -i, so the operator maps 0 to i (2/beta = 1)
        grads = [lambda u, i=i: np.full(1, -float(i)) for i in range(6)]
        handle, _ = dpsgd_instance(grads, beta=2.0, gamma=0.5, sigma_grad=0.0, K=1, seed=0,
                                   order="cyclic")
        for cycle in range(5):
            seen = [int(handle.apply(np.zeros(1), 6 * cycle + pos)[0]) for pos in range(6)]
            assert seen == list(range(6))

    def test_uniform_order_deterministic(self):
        _, grads = quadratic_items(5, 2, 3)
        handle, cfg = dpsgd_instance(grads, beta=1.0, gamma=0.5, sigma_grad=0.1,
                                     K=20, seed=8, order="uniform")
        u1, _ = run(BlockVector.zeros(1, 2), handle, cfg)
        u2, _ = run(BlockVector.zeros(1, 2), handle, cfg)
        assert np.array_equal(u1.data, u2.data)

    def test_step_out_of_range(self):
        with pytest.raises(ParameterError):
            dpsgd_instance([lambda u: u], beta=1.0, gamma=2.0, sigma_grad=0.0, K=1, seed=0)

    @pytest.mark.parametrize("change, message", [
        ({"order": "bogus"}, "unknown item order 'bogus'"),
        ({"item_grads": []}, "need at least one item gradient"),
    ], ids=["unknown-order", "no-items"])
    def test_rejected_when_built_not_at_the_first_apply(self, change, message):
        kwargs = dict(item_grads=[lambda u: u], beta=1.0, gamma=0.5, sigma_grad=0.0, K=1, seed=0)
        with pytest.raises(ParameterError, match=message):
            dpsgd_instance(**{**kwargs, **change})


class TestDpcdInstance:
    def make(self, B, p, sigma, K, seed, schedule=None):
        # separable quadratic: block gradient of f = sum ||u_b||^2 / 2
        grads = [lambda u, b=b: np.asarray(u).reshape(B, p)[b] for b in range(B)]
        return dpcd_instance(grads, beta=1.0, n_blocks=B, block_dim=p, sigma=sigma,
                             K=K, seed=seed, schedule=schedule)

    def test_separable_quadratic_converges_per_coordinate(self):
        B, p = 3, 2
        handle, cfg = self.make(B, p, sigma=0.0, K=3 * 30, seed=0)
        u0 = BlockVector(np.random.default_rng(5).normal(size=(B, p)))
        u, _ = run(u0, handle, cfg)
        # step 2/beta = 2 overshoots symmetrically; use lam=0.5 for strict decay
        cfg_half = IterationConfig(K=cfg.K, sigma=0.0, lam=0.5, schedule=cfg.schedule, seed=0)
        u, _ = run(u0, handle, cfg_half)
        assert np.max(np.abs(u.data)) < 1e-12

    def test_matches_direct_coordinate_descent(self):
        B, p, K, seed = 4, 2, 40, 13
        handle, cfg = self.make(B, p, sigma=0.0, K=K, seed=seed)
        u0 = BlockVector(np.random.default_rng(2).normal(size=(B, p)))
        _, trace = run(u0, handle, cfg, record_iterates=True)
        x = u0.data.copy()
        for k in range(K):
            mask = cfg.schedule.mask(B, seed, k)
            for b in np.flatnonzero(mask):
                # grad_b(u) = u_b and beta = 1, so the block update is u_b - 2 u_b
                x[b] = x[b] - 2.0 * x[b]
            assert np.max(np.abs(trace.iterates[k].reshape(B, p) - x)) < 1e-12

    def test_noisy_matches_direct_loop(self):
        B, p, K, seed = 3, 2, 60, 19
        handle, cfg = self.make(B, p, sigma=0.25, K=K, seed=seed)
        u0 = BlockVector(np.random.default_rng(4).normal(size=(B, p)))
        _, trace = run(u0, handle, cfg, record_iterates=True)
        x = u0.data.copy()
        for k in range(K):
            mask = cfg.schedule.mask(B, seed, k)
            for b in np.flatnonzero(mask):
                # the engine's update at lam = 1: u_b + ((T_b(u) - u_b) + eta), T_b(u) = u_b - 2 u_b
                eta = rng.gaussian_block(seed, k, int(b), 0.25, p)
                x[b] = x[b] + 1.0 * (((x[b] - 2.0 * x[b]) - x[b]) + eta)
            assert trace.iterates[k].tobytes() == x.tobytes()

    def test_inactive_coordinates_bit_frozen(self):
        B, p = 5, 3
        handle, cfg = self.make(B, p, sigma=0.4, K=10, seed=7)
        u = BlockVector(np.random.default_rng(8).normal(size=(B, p)))
        for k in range(10):
            mask = cfg.schedule.mask(B, cfg.seed, k)
            new = step(u, handle, cfg, k)
            frozen = ~mask
            assert np.array_equal(new.data[frozen], u.data[frozen])
            u = new

    def test_requires_multiple_blocks(self):
        with pytest.raises(ParameterError):
            dpcd_instance([lambda u: u], beta=1.0, n_blocks=1, block_dim=2,
                          sigma=0.0, K=1, seed=0)


class TestDouglasRachford:
    @pytest.mark.parametrize("lam", [1.0, 0.6])
    def test_run_matches_a_plain_loop_bit_for_bit(self, lam):
        # reflect_compose(QuadraticProx, L1Prox) under AllBlocks, sigma = 0, against
        # the splitting written out with its own inverse of I + gamma Q
        p, gamma, t, K = 6, 0.7, 0.2, 60
        gen = np.random.default_rng(21)
        M = gen.normal(size=(p, p))
        Q, c = M @ M.T / p + 0.1 * np.eye(p), gen.normal(size=p)
        op = reflect_compose(QuadraticProx(Q=Q, c=c, gamma=gamma), L1Prox(t), 0.5)
        u0 = BlockVector(gen.normal(size=(1, p)))
        cfg = IterationConfig(K=K, lam=lam, seed=3)
        _, trace = run(u0, op, cfg, record_iterates=True)
        inverse, shift = np.linalg.inv(np.eye(p) + gamma * Q), gamma * c
        u = u0.flat.copy()
        for k in range(K):
            r2 = 2.0 * (np.sign(u) * np.maximum(np.abs(u) - t, 0.0)) - u
            r1 = 2.0 * (inverse @ (r2 - shift)) - r2
            u = u + lam * (0.5 * r1 + (1.0 - 0.5) * u - u)
            assert trace.iterates[k].tobytes() == u.tobytes(), k


class TestBlockEvaluation:
    """A handle with ``apply_blocks`` is evaluated on the active blocks only."""

    B, p = 5, 3

    def coupled_grads(self, calls=None):
        # gradients of the coupled quadratic u^T H u / 2 - c^T u, one block at a time
        gen = np.random.default_rng(21)
        M = gen.normal(size=(self.B * self.p, self.B * self.p))
        H, c = M @ M.T / (self.B * self.p), gen.normal(size=self.B * self.p)

        def grad(u, b):
            if calls is not None:
                calls.append(b)
            return (H @ u - c).reshape(self.B, self.p)[b]

        return [lambda u, b=b: grad(u, b) for b in range(self.B)], float(np.linalg.eigvalsh(H)[-1])

    def test_block_rows_equal_rows_of_apply(self):
        grads, beta = self.coupled_grads()
        handle, _ = dpcd_instance(grads, beta=beta, n_blocks=self.B, block_dim=self.p,
                                  sigma=0.0, K=1, seed=0)
        u = np.random.default_rng(3).normal(size=self.B * self.p)
        full = handle.apply(u, 0).reshape(self.B, self.p)
        for rows in ([2], [4, 0, 3], list(range(self.B)), []):
            got = handle.apply_blocks(u, 0, np.array(rows, dtype=int))
            assert got.shape == (len(rows), self.p)
            assert got.tobytes() == full[rows].tobytes()

    @pytest.mark.parametrize("schedule", [SingleUniform(), BernoulliPerBlock(0.5), AllBlocks(),
                                          FixedCohort(2), RandomWalk()])
    def test_one_gradient_per_active_block(self, schedule):
        calls = []
        grads, beta = self.coupled_grads(calls)
        handle, cfg = dpcd_instance(grads, beta=beta, n_blocks=self.B, block_dim=self.p,
                                    sigma=0.1, K=30, seed=5, schedule=schedule)
        _, trace = run(BlockVector.zeros(self.B, self.p), handle, cfg)
        assert calls == [b for m in trace.active for b in np.flatnonzero(m)]

    def test_run_with_and_without_block_map_bit_identical(self):
        grads, beta = self.coupled_grads()
        handle, _ = dpcd_instance(grads, beta=beta, n_blocks=self.B, block_dim=self.p,
                                  sigma=0.0, K=1, seed=0)
        cfg = IterationConfig(K=40, sigma=0.3, lam=0.7, schedule=BernoulliPerBlock(0.5), seed=12)
        u0 = BlockVector(np.random.default_rng(9).normal(size=(self.B, self.p)))
        u_blocks, t_blocks = run(u0, handle, cfg, record_iterates=True)
        u_full, t_full = run(u0, dataclasses.replace(handle, apply_blocks=None), cfg,
                             record_iterates=True)
        assert u_blocks.data.tobytes() == u_full.data.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(t_blocks.iterates, t_full.iterates))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(t_blocks.active, t_full.active))
        assert any(0 < m.sum() < self.B for m in t_blocks.active)

    @pytest.mark.parametrize("shape", [lambda n, p: (n + 1, p), lambda n, p: (n * p,)],
                             ids=["extra_row", "flat"])
    def test_block_map_shape_mismatch_rejected(self, shape):
        bad = OperatorHandle(apply=lambda u, k=0: np.asarray(u, dtype=float), kind=NonExpansive(),
                             apply_blocks=lambda u, k, rows: np.zeros(shape(len(rows), 2)))
        cfg = IterationConfig(K=1, schedule=AllBlocks())
        with pytest.raises(StructuralError, match="operator returned shape"):
            step(BlockVector.zeros(3, 2), bad, cfg, 0)


def spy_on_iterate(monkeypatch, module):
    """Route ``module.iterate`` through a wrapper that also builds, for each run, the
    (n,) bool mask of every step's active indices at the moment the step returns them."""
    runs, real = [], fixedpoint.iterate

    def spy(K, n, advance, *args, **kwargs):
        masks = []

        def recorded(k):
            active, x = advance(k)
            mask = np.zeros(n, dtype=bool)
            mask[active] = True
            masks.append(mask)
            return active, x

        x, trace = real(K, n, recorded, *args, **kwargs)
        runs.append((trace, masks))
        return x, trace

    monkeypatch.setattr(module, "iterate", spy)
    return runs


def consensus(n, p):
    targets = np.random.default_rng(n).normal(size=(n, p))
    return admm.ConsensusProblem(
        prox_f=tuple(QuadraticProx(Q=np.eye(p), c=-t, gamma=1.0) for t in targets),
        prox_r=L1Prox(0.05), clip_threshold=0.8)


LASSO = bench.gen_lasso(n=30, p=4, support_size=2, noise_std=0.05, seed=8)
DRIVERS = {  # every driver, run for K rounds
    "centralized": lambda K: admm.centralized_run(consensus(6, 3), BlockVector.zeros(6, 3), 0.5,
                                                  0.4, K, 3),
    "federated": lambda K: admm.federated_run(consensus(9, 3), 3, 4, 0.5, 0.4, K, 3),
    "decentralized": lambda K: admm.decentralized_run(consensus(9, 3), 3, 0.5, 0.4, K, 3),
    "engine": lambda K: run(BlockVector(np.ones((5, 3))), affine_op(0.5, 0.2), IterationConfig(K=K)),
    "dpsgd_baseline": lambda K: bench.dpsgd_baseline(LASSO, 0.01, 0.1, 1.0, 0.4, K, 5),
    "dpsgd_federated": lambda K: bench.dpsgd_federated(LASSO, 0.01, 0.1, 1.0, 0.4, K, 7, 5),
}
EVERY_DRIVER = pytest.mark.parametrize("driver", list(DRIVERS.values()), ids=list(DRIVERS))
# Not an iteration count: floats (integral ones too), bools, strings, None and numpy floats.
NOT_AN_ITERATION_COUNT = [2.5, 3.0, True, False, "3", None, np.float64(3.0), np.bool_(True)]

# Each run that goes through ``iterate``: the module whose ``iterate`` it calls, and the call.
TRACED_RUNS = {
    "centralized": (admm, lambda: admm.centralized_run(consensus(6, 3), BlockVector.zeros(6, 3),
                                                       0.5, 0.4, 12, 3)),
    "federated": (admm, lambda: admm.federated_run(consensus(9, 3), 3, 4, 0.5, 0.4, 12, 3)),
    "decentralized": (admm, lambda: admm.decentralized_run(consensus(9, 3), 3, 0.5, 0.4, 40, 3)),
    "engine": (fixedpoint, lambda: run(BlockVector(np.ones((5, 3))), affine_op(0.5, 0.2),
                                       IterationConfig(K=30, sigma=0.3,
                                                       schedule=BernoulliPerBlock(0.3), seed=6))),
    "dpsgd_baseline": (bench, lambda: bench.dpsgd_baseline(LASSO, 0.01, 0.1, 1.0, 0.4, 20, 5)),
    "dpsgd_federated": (bench, lambda: bench.dpsgd_federated(LASSO, 0.01, 0.1, 1.0, 0.4, 20, 7, 5)),
}


class TestTraceKeepsIndices:
    """The trace keeps each step's active indices; its masks are built when read."""

    @pytest.mark.parametrize("name", TRACED_RUNS)
    def test_masks_and_length_equal_masks_built_per_step(self, monkeypatch, name):
        module, call = TRACED_RUNS[name]
        runs = spy_on_iterate(monkeypatch, module)
        call()
        [(trace, masks)] = runs
        got = list(trace.active)
        assert len(trace) == len(trace.active) == len(got) == len(masks)
        assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(got, masks))
        assert trace.active[-1].tobytes() == masks[-1].tobytes()
        assert [m.tobytes() for m in trace.active[1:3]] == [m.tobytes() for m in masks[1:3]]

    def test_centralized_rounds_share_one_index_array(self, monkeypatch):
        runs = spy_on_iterate(monkeypatch, admm)
        TRACED_RUNS["centralized"][1]()
        rows = runs[0][0].active_rows
        assert all(r is rows[0] for r in rows)

    def test_index_views_are_kept_as_copies_without_their_base(self):
        base = np.arange(1000)
        _, trace = iterate(3, 1000, lambda k: (base[k:k + 2], np.zeros(2)))
        assert all(r.base is None and r.tolist() == [k, k + 1]
                   for k, r in enumerate(trace.active_rows))

    def test_walk_trace_bytes_grow_with_steps_not_with_users(self):
        n, K = 1000, 3000
        problem = admm.ConsensusProblem(prox_f=(ZeroProx(),) * n, prox_r=ZeroProx())
        admm.decentralized_run(problem, 2, 0.5, 0.3, 2, seed=4)  # lazy imports outside the count
        tracemalloc.start()
        try:
            _, trace, _ = admm.decentralized_run(problem, 2, 0.5, 0.3, K, seed=4)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert all(type(r) is int for r in trace.active_rows)
        # about 40 B a step, a 16 B iterate row and the interpreter's tuple free list;
        # (n,) masks would be n * K
        assert held < 200 * K

    def test_trace_csv_has_one_row_per_step(self, tmp_path):
        u0 = BlockVector(np.ones((3, 2)))
        cfg = IterationConfig(K=3, sigma=0.0, schedule=SingleUniform(), seed=1)
        _, trace = run(u0, identity_op(), cfg, reference=np.zeros(6))
        bench.emit_trace_csv(trace, tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == b"iter,objective,dist_sq\n" + b"".join(
            b"%d,,6\n" % k for k in range(3))

    @pytest.mark.parametrize("active", [-1, 4, 1.5, np.int64(-2), np.array([0, 4]),
                                        [2, -1], np.array([0.0, 1.0]), np.array([[0, 1]]),
                                        np.ones(4, dtype=bool), True, range(2, 5)],
                                 ids=["minus_one", "n", "float", "numpy_negative", "array_n",
                                      "list_negative", "float_array", "two_dim", "bool_mask",
                                      "bool", "range_past_n"])
    def test_bad_active_indices_raise_naming_the_round(self, active):
        def advance(k):
            return (active if k == 2 else k), np.zeros(2)

        with pytest.raises(StructuralError, match="at round 2"):
            iterate(3, 4, advance)


# A released iterate as a 1-D array, one block row, B block rows or a Python list.
RELEASE_FORMS = pytest.mark.parametrize("form", [np.asarray, lambda v: np.asarray(v)[None],
                                                 lambda v: np.tile(v, (3, 1)), list],
                                        ids=["1-D", "(1, p)", "(B, p)", "list"])


class TestRunTrace:
    """``iterate`` builds one frozen trace after its last round; recorded iterates are
    float copies in one read-only (K, ...) array."""

    @pytest.mark.parametrize("shape", [(1,), (3,), (2, 1), (), (1, 2)])
    def test_shape_change_raises_naming_the_round(self, shape):
        def advance(k):
            return 0, np.ones(shape) if k == 2 else np.zeros(2)

        with pytest.raises(StructuralError, match=re.escape(f"iterate of round 2 has shape {shape}")):
            iterate(4, 1, advance, record_iterates=True)

    @pytest.mark.parametrize("release", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], 1.0], ids=repr)
    def test_a_list_of_another_shape_raises_naming_the_round(self, release):
        def advance(k):
            return 0, release if k == 2 else [0.0, 0.0]

        with pytest.raises(StructuralError, match=re.escape(f"iterate of round 2 has shape "
                                                            f"{np.shape(release)}")):
            iterate(4, 1, advance, record_iterates=True)

    @RELEASE_FORMS
    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("bad", [[0.0, math.nan], [math.inf, 1.0], [1.0, -math.inf],
                                     [-math.inf, math.inf]], ids=["nan", "inf", "-inf", "both-inf"])
    def test_non_finite_release_raises_naming_the_round(self, bad, record, form):
        def advance(k):
            return 0, form(bad if k == 2 else [1.0, 2.0])

        with pytest.raises(ModelError, match="not finite at round 2$"):
            iterate(4, 1, advance, record_iterates=record)

    @RELEASE_FORMS
    def test_entries_near_the_float_max_pass(self, form):
        x, trace = iterate(3, 1, lambda k: (0, form([1e308, 1e308])), record_iterates=True)
        assert np.array_equal(x, form([1e308, 1e308])) and np.all(trace.iterates == 1e308)

    # a store past any address space (numpy's MemoryError), and one it cannot shape (ValueError)
    @pytest.mark.parametrize("K, p", [(10**12, 4096), (2**63, 4)])
    def test_store_too_large_is_a_parameter_error_at_round_0(self, K, p):
        rounds = []

        def advance(k):
            rounds.append(k)
            return 0, np.zeros(p)

        with pytest.raises(ParameterError, match=re.escape(f"K={K} iterates need a store of "
                                                           f"shape ({K}, {p})")):
            iterate(K, 1, advance, record_iterates=True)
        assert rounds == [0]

    def test_K_above_the_bound_is_a_parameter_error_before_round_0(self):
        rounds = []
        with pytest.raises(ParameterError, match=re.escape(f"<= 2**63 - 1, got K={2**63}")):
            iterate(2**63, 1, lambda k: rounds.append(k) or (0, np.zeros(1)))
        assert rounds == []

    # Every driver: a run that records no iterates fails before its first round, the walk
    # (which records them) when its store is allocated at round 0; both name K.
    @EVERY_DRIVER
    def test_every_driver_rejects_K_of_2_to_the_63(self, driver):
        with pytest.raises(ParameterError, match=f"K={2**63}"):
            driver(2**63)

    @EVERY_DRIVER
    @pytest.mark.parametrize("K", NOT_AN_ITERATION_COUNT, ids=repr)
    def test_every_driver_rejects_a_K_that_is_not_an_integer(self, driver, K):
        with pytest.raises(ParameterError, match=re.escape(f"must be an integer >= 1, got K={K!r}")):
            driver(K)

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("K", NOT_AN_ITERATION_COUNT, ids=repr)
    def test_K_that_is_not_an_integer_is_a_parameter_error_before_round_0(self, K, record):
        rounds = []
        with pytest.raises(ParameterError, match=re.escape(f"iteration count must be an integer "
                                                           f">= 1, got K={K!r}")):
            iterate(K, 1, lambda k: rounds.append(k) or (0, np.zeros(1)), record_iterates=record)
        assert rounds == []

    @pytest.mark.parametrize("K", [np.int64(3), np.uint64(3), np.int8(3)], ids=repr)
    def test_a_numpy_integer_K_runs_K_rounds_as_the_int_does(self, K):
        for driver in DRIVERS.values():
            want, got = driver(3), driver(K)
            if isinstance(want, tuple):  # a run's result, its trace and (the walk) its log
                assert len(got[1]) == len(want[1]) == 3
                want, got = want[0], got[0]
            want, got = (np.asarray(getattr(x, "data", x)) for x in (want, got))
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", [64, 512])  # the walk's rows and the engine's
    def test_rows_are_copies_of_a_reused_buffer(self, p):
        gen = np.random.default_rng(p)
        xs = [gen.normal(size=p) for _ in range(300)]
        buf = np.empty(p)

        def advance(k):  # one buffer, overwritten each round, as ``run`` releases its data
            buf[:] = xs[k]
            return 0, buf

        x, trace = iterate(len(xs), 1, advance, record_iterates=True)
        x[:] = np.nan  # a write to the returned iterate leaves the trace alone
        assert trace.iterates.shape == (len(xs), p)
        assert [row.tobytes() for row in trace.iterates] == [v.tobytes() for v in xs]

    def test_iterates_are_read_only_floats(self):
        x = np.array([1, 2], dtype=np.int8)

        def advance(k):
            return 0, (x, [3, 4])[k]

        _, trace = iterate(2, 1, advance, record_iterates=True)
        x[0] = 7
        assert trace.iterates.dtype == float and trace.iterates.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        with pytest.raises(ValueError):
            trace.iterates[0][0] = 9.0
        with pytest.raises(ValueError):
            trace.iterates[1] = 0.0

    def test_a_run_that_records_nothing_has_an_empty_array(self):
        _, trace = iterate(3, 2, lambda k: (k % 2, np.ones(2)), objective=np.sum)
        assert len(trace) == 3 and trace.objective == (2.0,) * 3 and trace.dist_sq == ()
        assert trace.iterates.size == 0 and not trace.iterates.flags.writeable

    def test_fields_are_frozen(self):
        _, trace = iterate(2, 1, lambda k: (0, np.zeros(1)), objective=np.sum,
                           reference=np.zeros(1), record_iterates=True)
        assert all(type(seq) is tuple and len(seq) == 2
                   for seq in (trace.active_rows, trace.objective, trace.dist_sq))
        for f in dataclasses.fields(fixedpoint.RunTrace):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(trace, f.name, getattr(trace, f.name))
        assert not hasattr(trace, "record")

    def test_constructor_holds_a_read_only_view(self):
        data = np.zeros((2, 3))
        trace = fixedpoint.RunTrace(n_blocks=1, active_rows=(0, 0), iterates=data)
        assert np.shares_memory(trace.iterates, data) and data.flags.writeable
        with pytest.raises(ValueError):
            trace.iterates[0, 0] = 1.0
