import dataclasses
import inspect
import math
import re

import numpy as np
import pytest
from scipy import stats

from helpers import (
    consensus_displacement_audit, one_round_u, reference_deviations, reference_local_solves,
    reference_round_deltas, schedule_rng, u_update, x_update, z_update,
)
from privfp import admm, rng, simnet
from privfp.admm import (
    AdmmState, ConsensusProblem, GeneralAdmmProblem, GeneralAdmmState, _advance,
    _walk_draws, _walk_step,
    centralized_run, consensus_as_general, decentralized_run, decentralized_step,
    federated_round, federated_run, general_admm_step,
    initial_state,
)
from privfp.blocks import BlockVector
from privfp.errors import ModelError, ParameterError, StructuralError
from privfp.fixedpoint import FixedCohort, IterationConfig, RandomWalk, RunTrace
from privfp.operators import (
    L1Prox, QuadraticProx, QuadraticRankOneProx, RowQuadraticProx, ZeroProx,
)
from privfp.privacy import sensitivity_consensus
from privfp import bench

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def simple_problem(n, p, prox_r=None, clip=None):
    """n identical quadratic pulls towards distinct targets."""
    gen = np.random.default_rng(1000 + n)
    targets = gen.normal(size=(n, p))
    proxes = tuple(QuadraticProx(Q=np.eye(p), c=-targets[i], gamma=1.0) for i in range(n))
    return ConsensusProblem(prox_f=proxes, prox_r=prox_r or ZeroProx(),
                            clip_threshold=clip), targets


class TestElementaryUpdates:
    def state(self, u_rows):
        u = BlockVector(np.asarray(u_rows, dtype=float))
        return AdmmState(u=u, z=np.zeros(u.block_dim))

    def test_z_is_mean_without_regularizer(self):
        problem = ConsensusProblem(prox_f=(ZeroProx(), ZeroProx()), prox_r=ZeroProx())
        np.testing.assert_array_equal(
            z_update(self.state([[1.0], [3.0]]), problem), [2.0])

    def test_z_soft_thresholds_the_mean(self):
        problem = ConsensusProblem(prox_f=(ZeroProx(), ZeroProx()),
                                   prox_r=L1Prox(2.0))
        np.testing.assert_array_equal(
            z_update(self.state([[1.0], [3.0]]), problem), [0.0])

    def test_single_user_z_is_its_block(self):
        problem = ConsensusProblem(prox_f=(ZeroProx(),), prox_r=ZeroProx())
        np.testing.assert_array_equal(z_update(self.state([[4.0]]), problem), [4.0])

    def test_x_identity_prox(self):
        problem = ConsensusProblem(prox_f=(ZeroProx(),), prox_r=ZeroProx())
        state = self.state([[1.0]])
        np.testing.assert_array_equal(
            x_update(0, np.array([2.0]), state, problem), [3.0])

    def test_x_soft_threshold(self):
        problem = ConsensusProblem(prox_f=(L1Prox(0.5),), prox_r=ZeroProx())
        state = AdmmState(u=BlockVector(np.array([[0.8]])), z=np.array([1.0]))
        # 2z - u = 1.2, soft threshold at 0.5
        np.testing.assert_allclose(x_update(0, np.array([1.0]), state, problem), [0.7])

    def test_x_lasso_row_matches_dense_solve(self):
        gen = np.random.default_rng(0)
        p, n_weight = 5, 7
        a, b_val, gamma = gen.normal(size=p), 0.4, 1.3
        problem = ConsensusProblem(
            prox_f=(QuadraticRankOneProx(a=a, b=b_val, gamma=gamma, n=n_weight),),
            prox_r=ZeroProx())
        u = gen.normal(size=p)
        z = gen.normal(size=p)
        state = AdmmState(u=BlockVector(u[None, :]), z=z)
        v = 2 * z - u
        c = 2.0 * n_weight / gamma
        want = np.linalg.solve(np.outer(a, a) + c * np.eye(p), b_val * a + c * v)
        np.testing.assert_allclose(x_update(0, z, state, problem), want, rtol=1e-10)

    def test_x_index_range(self):
        problem = ConsensusProblem(prox_f=(ZeroProx(),), prox_r=ZeroProx())
        with pytest.raises(StructuralError):
            x_update(1, np.zeros(1), self.state([[0.0]]), problem)

    def test_u_plain_step(self):
        problem = ConsensusProblem(prox_f=(ZeroProx(),), prox_r=ZeroProx())
        state = AdmmState(u=BlockVector(np.array([[1.0]])), z=np.array([0.6]))
        got = u_update(0, np.array([1.0]), state.z, state, 0.5, np.zeros(1), problem)
        np.testing.assert_allclose(got, [1.4])

    def test_u_clipped_step(self):
        problem = ConsensusProblem(prox_f=(ZeroProx(),), prox_r=ZeroProx(), clip_threshold=0.1)
        state = AdmmState(u=BlockVector(np.array([[1.0]])), z=np.array([0.6]))
        got = u_update(0, np.array([1.0]), state.z, state, 0.5, np.zeros(1), problem)
        np.testing.assert_allclose(got, [1.1])

    def test_u_noise_enters_with_unit_weight_at_full_step(self):
        problem = ConsensusProblem(prox_f=(ZeroProx(),), prox_r=ZeroProx())
        state = AdmmState(u=BlockVector(np.array([[0.0]])), z=np.array([0.0]))
        eta = np.array([0.37])
        got = u_update(0, np.array([0.2]), state.z, state, 1.0, eta, problem)
        np.testing.assert_allclose(got, 2 * 0.2 + eta)

    def test_u_noise_variance_scales_with_lam_squared(self):
        problem = ConsensusProblem(prox_f=(ZeroProx(),), prox_r=ZeroProx())
        state = AdmmState(u=BlockVector(np.array([[0.0]])), z=np.array([0.0]))
        lam, sigma, draws = 0.6, 1.3, 20_000
        gen = np.random.default_rng(5)
        incs = np.array([u_update(0, state.z, state.z, state, lam,
                                  gen.normal(0, sigma, 1), problem)[0]
                         for _ in range(draws)])
        assert np.var(incs) == pytest.approx(lam ** 2 * sigma ** 2, rel=0.05)


class TestCentralizedRun:
    def test_single_quadratic_reaches_minimizer(self):
        problem = ConsensusProblem(
            prox_f=(QuadraticProx(Q=np.eye(1), c=np.array([-3.0]), gamma=1.0),),
            prox_r=ZeroProx())
        z, _ = centralized_run(problem, BlockVector.zeros(1, 1), lam=0.5,
                               sigma=0.0, K=200, seed=0)
        np.testing.assert_allclose(z, [3.0], atol=1e-10)

    def test_small_lasso_matches_reference(self):
        data = bench.gen_lasso(n=60, p=8, support_size=3, noise_std=0.05, seed=4)
        kappa = bench.default_kappa(data)
        problem = bench.lasso_consensus_problem(data, kappa, gamma=2.0 * data.n)
        z, _ = centralized_run(problem, BlockVector.zeros(data.n, data.p),
                               lam=1.0, sigma=0.0, K=3000, seed=0)
        ref = bench.reference_lasso(data, kappa)
        f_ref = bench.lasso_objective(data, ref, kappa)
        f_z = bench.lasso_objective(data, z, kappa)
        assert abs(f_z - f_ref) / abs(f_ref) < 1e-6

    def test_deterministic_and_variance_grows_with_sigma(self):
        problem, _ = simple_problem(5, 2)
        u0 = BlockVector.zeros(5, 2)
        z1, _ = centralized_run(problem, u0, 0.5, 0.4, 30, seed=7)
        z2, _ = centralized_run(problem, u0, 0.5, 0.4, 30, seed=7)
        assert np.array_equal(z1, z2)

        def spread(sigma):
            finals = np.stack([centralized_run(problem, u0, 0.5, sigma, 30, seed=s)[0]
                               for s in range(12)])
            return float(np.mean(np.var(finals, axis=0)))

        assert spread(0.2) > 0.0
        assert spread(0.4) > 2.0 * spread(0.2)

    def test_returns_only_public_iterate(self):
        problem, _ = simple_problem(3, 2)
        out = centralized_run(problem, BlockVector.zeros(3, 2), 0.5, 0.1, 5, seed=1)
        z, trace = out
        assert isinstance(z, np.ndarray) and isinstance(trace, RunTrace)
        assert "x" not in {f.name for f in dataclasses.fields(RunTrace)}
        assert "x" not in {f.name for f in dataclasses.fields(AdmmState)}
        # the same shape constraint holds for every driver's return value
        zf, trf = federated_run(problem, 2, m=2, lam=0.5, sigma=0.1, K=3, seed=1)
        assert isinstance(zf, np.ndarray) and isinstance(trf, RunTrace)
        zd, trd, log = decentralized_run(problem, 2, 0.5, 0.1, K=3, seed=1)
        assert isinstance(zd, np.ndarray)
        assert all(not hasattr(obj, "x") for obj in (trf, trd, log))

    def test_dual_distance_nonincreasing_noiseless(self):
        problem, _ = simple_problem(4, 2)
        state = initial_state(problem, 2)
        for _ in range(4000):
            state = federated_round(problem, state, range(4), 0.5, 0.0, seed=0)
        u_star = state.u.data.copy()
        state = initial_state(problem, 2)
        dist = [float(np.linalg.norm(state.u.data - u_star))]
        for _ in range(60):
            state = federated_round(problem, state, range(4), 0.5, 0.0, seed=0)
            dist.append(float(np.linalg.norm(state.u.data - u_star)))
        for a, b in zip(dist[1:], dist[2:]):
            assert b <= a * (1 + 1e-12)


_DRIVERS = {
    "centralized_run": lambda problem, sigma: centralized_run(
        problem, BlockVector.zeros(3, 2), 0.5, sigma, K=2, seed=0),
    "federated_run": lambda problem, sigma: federated_run(
        problem, 2, m=2, lam=0.5, sigma=sigma, K=2, seed=0),
    "decentralized_run": lambda problem, sigma: decentralized_run(
        problem, 2, 0.5, sigma, K=2, seed=0),
    "federated_round": lambda problem, sigma: federated_round(
        problem, initial_state(problem, 2), [0, 1], 0.5, sigma, seed=0),
    "decentralized_step": lambda problem, sigma: decentralized_step(
        problem, initial_state(problem, 2), 0, 0.5, sigma, seed=0),
    "general_admm_step": lambda problem, sigma: general_admm_step(
        consensus_as_general(problem, 2), GeneralAdmmState(u=np.zeros(6), z=np.zeros(2)), 0.5,
        sigma, seed=0, noise_blocks=3),
}


# sigma = -1 runs under the bare driver id; NaN, inf and 1e200 (whose square overflows) get a suffix.
@pytest.mark.parametrize("driver, sigma", [
    pytest.param(driver, sigma, id=name if sigma == -1.0 else f"{name}-{sigma:g}")
    for name, driver in _DRIVERS.items() for sigma in (-1.0, math.nan, math.inf, 1e200)])
def test_negative_sigma_rejected_by_every_driver(driver, sigma):
    problem, _ = simple_problem(3, 2)
    with pytest.raises(ParameterError, match="noise std"):
        driver(problem, sigma)


@pytest.mark.parametrize("threshold", [0.0, math.nan])
def test_clip_threshold_must_be_positive(threshold):
    with pytest.raises(ParameterError, match="clipping threshold"):
        simple_problem(3, 2, clip=threshold)


class TestProblemSize:
    @pytest.mark.parametrize("form", ["specs", "rows"])
    def test_n_is_the_number_of_item_proxes(self, form):
        problem = (_lasso_specs_problem if form == "specs" else _lasso_rows_problem)(None)
        assert problem.n == len(problem.prox_f) == 30

    def test_n_follows_a_replaced_prox_tuple(self):
        problem, _ = simple_problem(3, 2)
        assert dataclasses.replace(problem, prox_f=problem.prox_f[:2]).n == 2

    def test_n_cannot_be_passed_in_or_set(self):
        with pytest.raises(TypeError):
            ConsensusProblem(prox_f=(ZeroProx(),), prox_r=ZeroProx(), n=5)
        problem, _ = simple_problem(3, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            problem.n = 4


@pytest.mark.parametrize("driver", [
    lambda problem, n, p: centralized_run(problem, BlockVector.zeros(n, p), 0.7, 0.3, 25, seed=4),
    lambda problem, n, p: federated_run(problem, p, 5, 0.7, 0.3, 25, seed=4),
    lambda problem, n, p: decentralized_run(problem, p, 0.7, 0.3, 60, seed=4),
], ids=["centralized_run", "federated_run", "decentralized_run"])
def test_batched_lasso_rows_match_per_user_specs(driver):
    data = bench.gen_lasso(n=30, p=6, support_size=2, noise_std=0.05, seed=8)
    kappa, gamma = bench.default_kappa(data, 0.01), 2.0 * data.n  # every z entry nonzero
    batched = bench.lasso_consensus_problem(data, kappa, gamma, clip_threshold=0.5)
    per_user = dataclasses.replace(batched, prox_f=tuple(
        QuadraticRankOneProx(a=data.A[i], b=float(data.b[i]), gamma=gamma, n=data.n)
        for i in range(data.n)))
    z_batched, z_per_user = driver(batched, data.n, data.p)[0], driver(per_user, data.n, data.p)[0]
    assert np.all(z_batched != 0.0)
    np.testing.assert_allclose(z_batched, z_per_user, rtol=0, atol=1e-12)


class TestFederated:
    @pytest.mark.parametrize("prox_r", [ZeroProx(), L1Prox(0.05)], ids=["zero", "l1"])
    def test_full_participation_tracks_centralized_with_shift(self, prox_r):
        problem, _ = simple_problem(6, 3, prox_r=prox_r)
        u0 = BlockVector.zeros(6, 3)
        K, lam, sigma, seed = 12, 0.7, 0.3, 42

        cen_z = []
        centralized_run(problem, u0, lam, sigma, K + 1, seed,
                        objective=lambda z: cen_z.append(z.copy()) or 0.0)

        state = initial_state(problem, 3, u0)
        np.testing.assert_allclose(state.z, cen_z[0], atol=1e-12)
        for k in range(K):
            state = federated_round(problem, state, range(6), lam, sigma, seed)
            np.testing.assert_allclose(state.z, cen_z[k + 1], atol=1e-12)

    def test_zero_delta_round_applies_regularizer_only(self):
        # identity per-item proxes with u_i = z make every delta vanish
        problem = ConsensusProblem(prox_f=(ZeroProx(), ZeroProx()), prox_r=L1Prox(0.05))
        z0 = np.array([0.4])
        state = AdmmState(u=BlockVector(np.tile(z0, (2, 1))), z=z0)
        new = federated_round(problem, state, [0], 1.0, 0.0, seed=0)
        np.testing.assert_allclose(new.z, [0.35])
        np.testing.assert_array_equal(new.u.data, state.u.data)

    def test_unsampled_blocks_bit_unchanged(self):
        problem, _ = simple_problem(8, 2)
        state = initial_state(problem, 2, BlockVector(np.random.default_rng(3).normal(size=(8, 2))))
        new = federated_round(problem, state, [1, 4], 0.5, 0.7, seed=11)
        for j in range(8):
            if j in (1, 4):
                continue
            assert np.array_equal(new.u.data[j], state.u.data[j])

    def test_empty_cohort_rejected(self):
        problem, _ = simple_problem(3, 1)
        with pytest.raises(ParameterError):
            federated_round(problem, initial_state(problem, 1), [], 0.5, 0.0, seed=0)

    @pytest.mark.parametrize("m", [-1, 0, 4])
    def test_run_rejects_a_cohort_size_outside_1_to_n(self, m):
        problem, _ = simple_problem(3, 1)
        with pytest.raises(ParameterError, match="cohort size"):
            federated_run(problem, 1, m, 0.5, 0.0, 2, seed=0)

    @pytest.mark.parametrize("m", [2.5, True, "2"], ids=repr)
    def test_run_rejects_a_cohort_size_that_is_not_an_integer(self, m):
        problem, _ = simple_problem(3, 1)
        with pytest.raises(ParameterError, match="cohort size must be an integer >= 1"):
            federated_run(problem, 1, m, 0.5, 0.0, 2, seed=0)

    def test_run_is_deterministic(self):
        problem, _ = simple_problem(10, 2)
        a, _ = federated_run(problem, 2, m=3, lam=0.5, sigma=0.5, K=20, seed=9)
        b, _ = federated_run(problem, 2, m=3, lam=0.5, sigma=0.5, K=20, seed=9)
        assert np.array_equal(a, b)


class TestDecentralized:
    def test_zero_delta_keeps_model(self):
        problem = ConsensusProblem(prox_f=(ZeroProx(), ZeroProx()), prox_r=ZeroProx())
        z0 = np.array([0.8])
        state = AdmmState(u=BlockVector(np.tile(z0, (2, 1))), z=z0)
        new, _ = decentralized_step(problem, state, 0, 1.0, 0.0, seed=3)
        np.testing.assert_array_equal(new.z, z0)

    def test_next_user_uniform(self):
        problem, _ = simple_problem(8, 1)
        state = initial_state(problem, 1)
        counts = np.zeros(8)
        for k in range(20_000):
            state_k = AdmmState(u=state.u, z=state.z, k=k)
            _, nxt = decentralized_step(problem, state_k, 0, 0.5, 0.0, seed=77)
            counts[nxt] += 1
        stat = np.sum((counts - 2500.0) ** 2 / 2500.0)
        assert stat < stats.chi2.ppf(0.99, 7)

    @pytest.mark.parametrize("prox_r", [ZeroProx(), L1Prox(0.05)], ids=["zero", "l1"])
    def test_single_user_matches_centralized_with_shift(self, prox_r):
        gen = np.random.default_rng(12)
        problem = ConsensusProblem(
            prox_f=(QuadraticProx(Q=np.eye(2), c=gen.normal(size=2), gamma=1.0),),
            prox_r=prox_r)
        u0 = BlockVector(gen.normal(size=(1, 2)))
        K, lam, sigma, seed = 10, 0.6, 0.2, 5
        cen_z = []
        centralized_run(problem, u0, lam, sigma, K + 1, seed,
                        objective=lambda z: cen_z.append(z.copy()) or 0.0)
        state = initial_state(problem, 2, u0)
        for k in range(K):
            state, _ = decentralized_step(problem, state, 0, lam, sigma, seed)
            np.testing.assert_allclose(state.z, cen_z[k + 1], atol=1e-12)

    def test_only_active_block_changes_and_log_records_handoff(self):
        problem, _ = simple_problem(5, 2)
        gen = np.random.default_rng(8)
        state = initial_state(problem, 2, BlockVector(gen.normal(size=(5, 2))))
        z, trace, log = decentralized_run(problem, 2, 0.5, 0.3, K=40, seed=21)
        assert log.total_events() == 40
        counts = np.array([len(log.sequence(u)) for u in range(5)])
        assert counts.sum() == 40

    def test_replay_reconstructs_identical_logs(self):
        problem, _ = simple_problem(6, 2)
        _, _, log1 = decentralized_run(problem, 2, 0.5, 0.4, K=30, seed=13)
        _, _, log2 = decentralized_run(problem, 2, 0.5, 0.4, K=30, seed=13)
        for u in range(6):
            s1, s2 = log1.sequence(u), log2.sequence(u)
            assert len(s1) == len(s2)
            for (k1, z1), (k2, z2) in zip(s1, s2):
                assert k1 == k2 and np.array_equal(z1, z2)


class TestRunsDrawThroughSchedules:
    """A run's participants are its schedule's rows, round for round."""

    @pytest.mark.parametrize("seed", [0, 2**63 + 5])
    def test_federated_rounds_are_the_cohorts_rows(self, seed):
        problem, _ = simple_problem(10, 2)
        _, trace = federated_run(problem, 2, 4, 0.5, 0.3, 20, seed)
        cohort = FixedCohort(4)
        for k, rows in enumerate(trace.active_rows):
            assert rows.tolist() == cohort.rows(10, seed, k).tolist()

    @pytest.mark.parametrize("K", [1, 128, 130])
    def test_walk_holders_and_last_are_the_walks_rows(self, K):
        problem, _ = simple_problem(7, 2)
        _, trace, log = decentralized_run(problem, 2, 0.5, 0.3, K, 2**63 + 5)
        walk = RandomWalk()
        assert trace.active_rows == tuple(walk.rows(7, 2**63 + 5, k) for k in range(K))
        assert log.last == walk.rows(7, 2**63 + 5, K)


class TestStepIndexRule:
    """The public steps check user indices by the rule ``fixedpoint.iterate`` applies."""

    STEPS = {
        "federated_round": lambda problem, state, users: federated_round(
            problem, state, users, 0.5, 0.3, seed=2),
        "decentralized_step": lambda problem, state, users: decentralized_step(
            problem, state, users, 0.5, 0.3, seed=2)[0],
    }

    @pytest.mark.parametrize("step, users", [
        pytest.param("federated_round", [1.5, 2], id="federated_round-float"),
        pytest.param("federated_round", [0.9], id="federated_round-fraction"),
        pytest.param("federated_round", ["1"], id="federated_round-string"),
        pytest.param("federated_round", [True], id="federated_round-bool"),
        pytest.param("federated_round", [0, 4], id="federated_round-n"),
        pytest.param("federated_round", [-1], id="federated_round-negative"),
        pytest.param("decentralized_step", 1.5, id="decentralized_step-float"),
        pytest.param("decentralized_step", True, id="decentralized_step-bool"),
        pytest.param("decentralized_step", "1", id="decentralized_step-string"),
        pytest.param("decentralized_step", [1], id="decentralized_step-list"),
        pytest.param("decentralized_step", 4, id="decentralized_step-n"),
        pytest.param("decentralized_step", -1, id="decentralized_step-negative")])
    def test_bad_index_raises_naming_the_round(self, step, users):
        problem, _ = simple_problem(4, 2)
        state = dataclasses.replace(initial_state(problem, 2), k=3)
        with pytest.raises(StructuralError, match="at round 3"):
            self.STEPS[step](problem, state, users)

    @pytest.mark.parametrize("step, users, same", [
        ("federated_round", np.array([3, 1, 3], dtype=np.int32), [1, 3]),
        ("decentralized_step", np.int64(2), 2)], ids=["federated_round", "decentralized_step"])
    def test_numpy_integers_and_repeats_act_as_plain_ints(self, step, users, same):
        problem, _ = simple_problem(4, 2)
        state = initial_state(problem, 2, BlockVector(np.random.default_rng(5).normal(size=(4, 2))))
        got, want = self.STEPS[step](problem, state, users), self.STEPS[step](problem, state, same)
        assert got.u.data.tobytes() == want.u.data.tobytes()
        assert got.z.tobytes() == want.z.tobytes()


class TestDualMean:
    """The federated and walk runs set z = prox_r(mean of u), as the centralized run does."""

    @pytest.mark.parametrize("run", [
        lambda problem, p: federated_run(problem, p, problem.n, 0.5, 0.0, 1000, seed=0)[0],
        lambda problem, p: decentralized_run(problem, p, 0.5, 0.0, 4000, seed=0)[0],
    ], ids=["federated", "decentralized"])
    def test_noiseless_run_reaches_the_lasso_reference(self, run):
        data = bench.gen_lasso(n=20, p=4, support_size=3, noise_std=0.05, seed=4)
        kappa = bench.default_kappa(data)
        problem = bench.lasso_consensus_problem(data, kappa, gamma=2.0 * data.n)
        f_ref = bench.lasso_objective(data, bench.reference_lasso(data, kappa), kappa)
        f_z = bench.lasso_objective(data, run(problem, data.p), kappa)
        assert abs(f_z - f_ref) / abs(f_ref) < 1e-6

    @pytest.mark.parametrize("step", [
        lambda problem, state: federated_round(problem, state, [1, 4], 0.5, 0.7, seed=11),
        lambda problem, state: decentralized_step(problem, state, 3, 0.5, 0.7, seed=11)[0],
    ], ids=["federated_round", "decentralized_step"])
    def test_step_carries_the_mean_and_leaves_the_input_mean_unchanged(self, step):
        problem, _ = simple_problem(8, 2, prox_r=L1Prox(0.05), clip=0.5)
        state = initial_state(problem, 2, BlockVector(np.random.default_rng(3).normal(size=(8, 2))))
        ubar_before = state.ubar.copy()
        new = step(problem, state)
        assert np.array_equal(state.ubar, ubar_before)
        np.testing.assert_allclose(new.ubar, new.u.mean_block(), rtol=0, atol=1e-15)
        np.testing.assert_array_equal(new.z, problem.prox_r(new.ubar))


class TestRunsEqualLoopsOfTheirSteps:
    """The runs update their own duals in place; the public steps work on copies."""

    def test_federated_run_is_a_loop_of_federated_round(self):
        problem, _ = simple_problem(10, 3, prox_r=L1Prox(0.05), clip=0.8)
        u0 = BlockVector(np.random.default_rng(4).normal(size=(10, 3)))
        u0_before = u0.data.copy()
        K, m, lam, sigma, seed = 15, 4, 0.6, 0.4, 31
        zs = []
        z_run, trace = federated_run(problem, 3, m, lam, sigma, K, seed, u0=u0,
                                     objective=lambda z: zs.append(z.copy()) or 0.0)
        assert np.array_equal(u0.data, u0_before)
        state = initial_state(problem, 3, u0)
        for k in range(K):
            rows = simnet.sample_users(10, m, schedule_rng(seed, k))
            state = federated_round(problem, state, rows, lam, sigma, seed)
            assert np.array_equal(trace.active[k], np.isin(np.arange(10), rows))
            assert np.array_equal(zs[k], state.z)
        assert np.array_equal(z_run, state.z)

    def test_decentralized_run_is_a_loop_of_decentralized_step(self):
        problem, _ = simple_problem(7, 3, prox_r=L1Prox(0.05), clip=0.8)
        u0 = BlockVector(np.random.default_rng(5).normal(size=(7, 3)))
        u0_before = u0.data.copy()
        K, lam, sigma, seed = 40, 0.6, 0.4, 2**63 + 5
        zs = []
        z_run, trace, log_run = decentralized_run(
            problem, 3, lam, sigma, K, seed, u0=u0,
            objective=lambda z: zs.append(z.copy()) or 0.0)
        assert np.array_equal(u0.data, u0_before)
        state = initial_state(problem, 3, u0)
        holder = simnet.walk_next(7, schedule_rng(seed, 0, tag=1))
        for k in range(K):
            assert np.array_equal(trace.active[k], np.arange(7) == holder)
            state, holder = decentralized_step(problem, state, holder, lam, sigma, seed)
            assert np.array_equal(zs[k], state.z)
        assert np.array_equal(z_run, state.z)
        assert log_run.last == holder
        events = _walk_replay(problem, u0.data, lam, sigma, K, seed)[3]
        assert sorted(log_run.events) == sorted(events)
        for user, seq in events.items():
            assert [(k, z.tobytes()) for k, z in log_run.sequence(user)] == \
                [(k, z.tobytes()) for k, z in seq]

    @pytest.mark.parametrize("step", [
        lambda problem, state: federated_round(problem, state, [1, 4], 0.5, 0.7, seed=11),
        lambda problem, state: decentralized_step(problem, state, 3, 0.5, 0.7, seed=11)[0],
    ], ids=["federated_round", "decentralized_step"])
    def test_step_leaves_its_input_state_bit_unchanged(self, step):
        problem, _ = simple_problem(8, 2, clip=0.5)
        state = initial_state(problem, 2, BlockVector(np.random.default_rng(3).normal(size=(8, 2))))
        u_before, z_before = state.u.data.copy(), state.z.copy()
        new = step(problem, state)
        assert np.array_equal(state.u.data, u_before) and np.array_equal(state.z, z_before)
        assert not np.array_equal(new.u.data, u_before) and new.k == state.k + 1


def _lasso_rows_problem(clip):
    data = bench.gen_lasso(n=30, p=6, support_size=2, noise_std=0.05, seed=8)
    return bench.lasso_consensus_problem(data, bench.default_kappa(data, 0.01), 2.0 * data.n,
                                         clip_threshold=clip)


def _lasso_specs_problem(clip):
    data = bench.gen_lasso(n=30, p=6, support_size=2, noise_std=0.05, seed=8)
    gamma = 2.0 * data.n
    return ConsensusProblem(
        prox_f=tuple(QuadraticRankOneProx(a=data.A[i], b=float(data.b[i]), gamma=gamma, n=data.n)
                     for i in range(data.n)),
        prox_r=L1Prox(gamma * bench.default_kappa(data, 0.01)), clip_threshold=clip)


def _replay(problem, setting, u0, lam, sigma, K, seed, m=None):
    """The z of every round of a run, rebuilt from ``reference_round_deltas``."""
    n = problem.n
    U = u0.copy()
    ubar = U.mean(axis=0)
    z = np.asarray(problem.prox_r(ubar), dtype=float)
    holder = simnet.walk_next(n, schedule_rng(seed, 0, tag=1))
    zs = []
    for k in range(K):
        if setting == "centralized":
            z = np.asarray(problem.prox_r(U.mean(axis=0)), dtype=float)
            U = U + reference_round_deltas(problem, U, np.arange(n), z, lam, sigma, seed, k)
            zs.append(z)
            continue
        if setting == "federated":
            rows = simnet.sample_users(n, m, schedule_rng(seed, k))
        else:
            rows = np.array([holder])
            holder = simnet.walk_next(n, schedule_rng(seed, k))
        deltas = reference_round_deltas(problem, U, rows, z, lam, sigma, seed, k)
        U[rows] += deltas
        ubar = ubar + deltas.sum(axis=0) / n
        z = np.asarray(problem.prox_r(ubar), dtype=float)
        zs.append(z)
    return zs


_RUNS = {
    "centralized": lambda problem, u0, lam, sigma, K, seed, m, objective: centralized_run(
        problem, BlockVector(u0), lam, sigma, K, seed, objective=objective)[0],
    "federated": lambda problem, u0, lam, sigma, K, seed, m, objective: federated_run(
        problem, u0.shape[1], m, lam, sigma, K, seed, u0=BlockVector(u0), objective=objective)[0],
    "decentralized": lambda problem, u0, lam, sigma, K, seed, m, objective: decentralized_run(
        problem, u0.shape[1], lam, sigma, K, seed, u0=BlockVector(u0), objective=objective)[0],
}


class TestRoundKernelWorkspace:
    """Each run computes its rounds in place in one workspace; the bits are those of a
    reference round that builds every step in a fresh array."""

    PROBLEMS = {
        "rows-clipped-noisy": (lambda: _lasso_rows_problem(0.02), 0.3),
        "rows-noiseless": (lambda: _lasso_rows_problem(None), 0.0),
        "specs-clipped-noisy": (lambda: _lasso_specs_problem(0.02), 0.3),
        "quadratic-specs-clipped-noisy": (
            lambda: simple_problem(30, 6, prox_r=L1Prox(0.05), clip=0.5)[0], 0.4),
    }

    @pytest.mark.parametrize("setting", list(_RUNS))
    @pytest.mark.parametrize("case", list(PROBLEMS))
    def test_run_equals_replayed_reference_rounds(self, case, setting):
        make, sigma = self.PROBLEMS[case]
        problem = make()
        u0 = np.random.default_rng(6).normal(size=(30, 6))
        K, lam, seed, m = 40, 0.7, 5, 7
        if problem.clip_threshold is not None:  # the clip binds in the first round
            dev = reference_deviations(problem, u0, np.arange(30),
                                       problem.prox_r(u0.mean(axis=0)))
            assert np.any(np.linalg.norm(dev, axis=1) > problem.clip_threshold)
        zs = []
        z = _RUNS[setting](problem, u0, lam, sigma, K, seed, m,
                           lambda z: zs.append(z.copy()) or 0.0)
        want = _replay(problem, setting, u0, lam, sigma, K, seed, m)
        assert len(zs) == K
        for got, ref in zip(zs, want):
            assert got.tobytes() == ref.tobytes()
        assert z.tobytes() == want[-1].tobytes()

    @pytest.mark.parametrize("setting", list(_RUNS))
    def test_back_to_back_runs_agree_and_leave_u0_unchanged(self, setting):
        problem = _lasso_rows_problem(0.02)
        u0 = np.random.default_rng(7).normal(size=(30, 6))
        u0_before = u0.copy()
        run = lambda: _RUNS[setting](problem, u0, 0.7, 0.3, 25, 9, 7, None)
        first = run()
        _RUNS[setting](_lasso_specs_problem(None), u0, 0.5, 0.0, 5, 1, 3, None)
        assert run().tobytes() == first.tobytes()
        assert u0.tobytes() == u0_before.tobytes()

    @pytest.mark.parametrize("case", ["rows-clipped-noisy", "specs-clipped-noisy"])
    def test_consensus_as_general_local_solves_equal_the_reference(self, case):
        problem = self.PROBLEMS[case][0]()
        gen = np.random.default_rng(8)
        z, u = gen.normal(size=6), gen.normal(size=30 * 6)
        x = consensus_as_general(problem, 6).f_argmin(z, u)
        want = reference_local_solves(problem, 2.0 * z - u.reshape(30, 6), np.arange(30))
        assert x.tobytes() == want.ravel().tobytes()


def _walk_problem(form, p, clip=None):
    """Five squared-residual rows of width p, as one ``RowQuadraticProx`` or as per-user specs."""
    gen = np.random.default_rng(p)
    A, b, gamma = gen.normal(size=(5, p)), gen.normal(size=5), 0.7
    prox_f = RowQuadraticProx(A, b, gamma) if form == "rows" else tuple(
        QuadraticRankOneProx(a=A[i], b=float(b[i]), gamma=gamma, n=5) for i in range(5))
    return ConsensusProblem(prox_f=prox_f, prox_r=L1Prox(0.05), clip_threshold=clip)


def _walk_noise(seed, k, i, sigma, p, n=5):
    """Holder i's halved noise row at walk step k as the walk draws it (None at sigma = 0)."""
    return _walk_draws(n, sigma, seed, k, i, 1, p)[1][0]


class TestWalkKernel:
    """The walk's one-row kernel computes the batched kernel's round over one row, byte for byte."""

    @pytest.mark.parametrize("sigma", [0.0, 0.6])
    @pytest.mark.parametrize("clip", ["off", "binds", "at-threshold", "nan-entry"])
    @pytest.mark.parametrize("form", ["rows", "specs"])
    @pytest.mark.parametrize("p", [1, 2, 6, 63, 64, 65, 1000])
    def test_walk_delta_equals_the_batched_delta(self, monkeypatch, p, form, clip, sigma):
        gen = np.random.default_rng(10 * p + 1)
        U, z, i, lam = 3.0 * gen.normal(size=(5, p)), gen.normal(size=p), 3, 0.7
        if clip == "nan-entry":
            U[i, p // 2] = np.nan
        problem = _walk_problem(form, p)
        (dev,) = reference_deviations(problem, U, [i], z)
        norm = math.sqrt(np.add.reduce(dev * dev))
        if clip != "off":
            threshold = {"binds": 0.5 * norm, "at-threshold": norm, "nan-entry": 1.0}[clip]
            problem = dataclasses.replace(problem, clip_threshold=threshold)
        deltas, update = [], admm.noisy_update

        def recorded(*args):
            deltas.append(update(*args).copy())
            return deltas[-1]

        monkeypatch.setattr(admm, "noisy_update", recorded)
        U_walk, U_batched, ubar = U.copy(), U.copy(), U.mean(axis=0)
        walk = _walk_step(problem, U_walk, ubar, z, i, lam, _walk_noise(9, 4, i, sigma, p))
        batched = _advance(problem, U_batched, ubar, z, np.array([i]), lam, sigma, 9, 4)
        got, want = deltas[0], deltas[1][0]
        assert got.tobytes() == want.tobytes()
        assert U_walk.tobytes() == U_batched.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(walk, batched))
        assert np.delete(U_walk, i, axis=0).tobytes() == np.delete(U, i, axis=0).tobytes()
        assert np.isnan(got).any() == (clip == "nan-entry")
        if sigma == 0.0 and clip in ("off", "at-threshold"):  # a norm at the threshold is not clipped
            assert got.tobytes() == (dev * (2.0 * lam)).tobytes()
        if sigma == 0.0 and clip == "binds":
            assert np.linalg.norm(got) == pytest.approx(lam * norm, rel=1e-12)

    @pytest.mark.parametrize("form", ["rows", "specs"])
    def test_walk_step_equals_the_batched_advance(self, form):
        problem = _walk_problem(form, 6, clip=0.3)
        U = np.random.default_rng(2).normal(size=(5, 6))
        ubar = U.mean(axis=0)
        z = problem.prox_r(ubar)
        U_batched = U.copy()
        want = _advance(problem, U_batched, ubar, z, np.array([2]), 0.7, 0.5, 9, 4)
        got = _walk_step(problem, U, ubar, z, 2, 0.7, _walk_noise(9, 4, 2, 0.5, 6))[:2]
        assert U.tobytes() == U_batched.tobytes()
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_walk_leaves_an_array_a_spec_returns_unchanged(self):
        target = np.array([1.0, -2.0])
        problem = ConsensusProblem(prox_f=(lambda v: target,) * 3, prox_r=ZeroProx(),
                                   clip_threshold=0.5)
        decentralized_run(problem, 2, 0.5, 0.3, 20, seed=3)
        assert target.tolist() == [1.0, -2.0]


# Each entry point that takes the splitting step size, called with lam; each checks it
# through the one step-size rule of errors.real before it reads lam.
_STEP_SIZE_READERS = {
    "centralized_run": lambda lam: centralized_run(
        simple_problem(3, 2)[0], BlockVector.zeros(3, 2), lam, 0.3, 4, 1),
    "federated_run": lambda lam: federated_run(simple_problem(3, 2)[0], 2, 2, lam, 0.3, 4, 1),
    "decentralized_run": lambda lam: decentralized_run(simple_problem(3, 2)[0], 2, lam, 0.3, 4, 1),
    "federated_round": lambda lam: federated_round(
        simple_problem(3, 2)[0], initial_state(simple_problem(3, 2)[0], 2), [0, 2], lam, 0.3, 1),
    "decentralized_step": lambda lam: decentralized_step(
        simple_problem(3, 2)[0], initial_state(simple_problem(3, 2)[0], 2), 1, lam, 0.3, 1),
    "general_admm_step": lambda lam: general_admm_step(
        consensus_as_general(simple_problem(3, 2)[0], 2),
        GeneralAdmmState(u=np.zeros(6), z=np.zeros(2)), lam, 0.3, 1),
    "sensitivity_consensus": lambda lam: sensitivity_consensus(1.0, 0.1, lam, 10),
    "IterationConfig": lambda lam: IterationConfig(K=2, lam=lam),
}


@pytest.mark.parametrize("reader", list(_STEP_SIZE_READERS))
@pytest.mark.parametrize("lam", ["0.5", None, [0.5], np.array(0.5), 1.5, 0.0, math.nan],
                         ids=repr)
def test_every_reader_of_the_step_size_applies_one_rule(reader, lam):
    kind = "lie in (0, 1]" if isinstance(lam, float) else "be a real number"
    with pytest.raises(ParameterError, match=re.escape(f"step size must {kind}, got {lam!r}")):
        _STEP_SIZE_READERS[reader](lam)
    for ok in (0.5, np.float64(1.0), 1):  # the rule's members run (sigma > 0 draws noise)
        _STEP_SIZE_READERS[reader](ok)


class TestWalkStepChecks:
    """An invalid step size or noise std raises before the walk's first prox or dual update."""

    BAD = {"lam-0": (0.0, 0.3), "lam-negative": (-0.5, 0.3), "lam-above-1": (1.5, 0.3),
           "lam-nan": (math.nan, 0.3), "sigma-negative": (0.5, -1.0),
           "sigma-nan": (0.5, math.nan)}

    @staticmethod
    def counting_problem(calls):
        def prox(v):
            calls.append(v)
            return v
        return ConsensusProblem(prox_f=(prox,) * 3, prox_r=ZeroProx())

    @pytest.mark.parametrize("case", list(BAD))
    def test_decentralized_run_raises_parameter_error(self, case):
        lam, sigma = self.BAD[case]
        calls = []
        with pytest.raises(ParameterError):
            decentralized_run(self.counting_problem(calls), 2, lam, sigma, 5, seed=1)
        assert calls == []

    @pytest.mark.parametrize("case", list(BAD))
    def test_decentralized_step_raises_parameter_error(self, case):
        lam, sigma = self.BAD[case]
        calls = []
        problem = self.counting_problem(calls)
        state = initial_state(problem, 2, BlockVector(np.arange(6, dtype=float).reshape(3, 2)))
        u_before = state.u.data.copy()
        with pytest.raises(ParameterError):
            decentralized_step(problem, state, 1, lam, sigma, seed=1)
        assert calls == []
        assert state.u.data.tobytes() == u_before.tobytes()

    @pytest.mark.parametrize("case", list(BAD))
    def test_walk_step_leaves_the_duals_unchanged(self, case):
        # the walk's kernel checks nothing: the run checks lam and sigma before its first step
        lam, sigma = self.BAD[case]
        problem = _walk_problem("rows", 4, clip=0.3)
        u0 = BlockVector(np.random.default_rng(3).normal(size=(5, 4)))
        U_before = u0.data.copy()
        with pytest.raises(ParameterError):
            decentralized_run(problem, 4, lam, sigma, 5, seed=1, u0=u0)
        assert u0.data.tobytes() == U_before.tobytes()


def _walk_replay(problem, u0, lam, sigma, K, seed):
    """A walk rebuilt one step at a time from the public draws: the first holder from
    ``simnet.walk_next`` at SCHEDULE (0, 1), the next one after step k at (k, 0), and the
    noise inside ``reference_round_deltas`` from ``rng.gaussian_block`` at (k, holder).
    Returns every z, the final duals, the holders and the log's events per user."""
    n = problem.n
    U = u0.copy()
    ubar = U.mean(axis=0)
    z = np.asarray(problem.prox_r(ubar), dtype=float)
    holder = simnet.walk_next(n, schedule_rng(seed, 0, tag=1))
    zs, holders, events = [], [], {}
    for k in range(K):
        holders.append(holder)
        deltas = reference_round_deltas(problem, U, np.array([holder]), z, lam, sigma, seed, k)
        U[holder] += deltas[0]
        ubar = ubar + deltas.sum(axis=0) / n
        z = np.asarray(problem.prox_r(ubar), dtype=float)
        zs.append(z)
        holder = simnet.walk_next(n, schedule_rng(seed, k))
        events.setdefault(holder, []).append((k + 1, z))
    return zs, U, holders, events


class TestBlockAheadWalk:
    """The walk draws each block's holders and noise ahead of its steps; nothing else moves."""

    @pytest.mark.parametrize("sigma", [0.0, 0.6])
    @pytest.mark.parametrize("clip", [None, 0.3], ids=["clip-off", "clip-on"])
    @pytest.mark.parametrize("form", ["rows", "specs"])
    @pytest.mark.parametrize("K", [1, 127, 128, 129, 300])
    def test_run_equals_a_per_step_replay(self, monkeypatch, K, form, clip, sigma):
        problem = _walk_problem(form, 6, clip=clip)
        u0 = np.random.default_rng(K).normal(size=(5, 6))
        lam, seed = 0.6, 2**63 + 5
        states = []
        monkeypatch.setattr(admm, "initial_state",
                            lambda *args: states.append(initial_state(*args)) or states[-1])
        zs = []
        z, trace, log = decentralized_run(problem, 6, lam, sigma, K, seed, u0=BlockVector(u0),
                                          objective=lambda z: zs.append(z.copy()) or 0.0)
        want_zs, want_U, holders, events = _walk_replay(problem, u0, lam, sigma, K, seed)
        assert z.tobytes() == want_zs[-1].tobytes()
        assert [a.tobytes() for a in zs] == [a.tobytes() for a in want_zs]
        assert states[0].u.data.tobytes() == want_U.tobytes()
        assert trace.active_rows == tuple(holders) and all(type(h) is int for h in holders)
        got = log.events
        assert list(got) == list(events)  # users in order of their first event
        for user, seq in events.items():
            assert [k for k, _ in got[user]] == [k for k, _ in seq]
            assert [a.tobytes() for _, a in got[user]] == [a.tobytes() for _, a in seq]
        if clip is not None:  # the clip binds in the first step
            dev = reference_deviations(problem, u0, np.arange(5), problem.prox_r(u0.mean(axis=0)))
            assert np.any(np.linalg.norm(dev, axis=1) > clip)

    @pytest.mark.parametrize("K", [1, 128, 300])
    def test_noise_is_drawn_once_per_block_and_never_at_sigma_zero(self, monkeypatch, K):
        draws = []
        gaussian_rows = rng.gaussian_rows
        monkeypatch.setattr(rng, "gaussian_rows",
                            lambda seed, k, blocks, sigma, size: draws.append(len(blocks))
                            or gaussian_rows(seed, k, blocks, sigma, size))
        monkeypatch.setattr(rng, "gaussian_block", lambda *args: pytest.fail("walk drew gaussian_block"))
        problem = _walk_problem("rows", 6, clip=0.3)
        decentralized_run(problem, 6, 0.5, 0.0, K, seed=3)
        decentralized_step(problem, initial_state(problem, 6), 2, 0.5, 0.0, seed=3)
        assert draws == []
        decentralized_run(problem, 6, 0.5, 0.4, K, seed=3)
        assert draws == [128] * (K // 128) + [K % 128] * (K % 128 > 0)

    @pytest.mark.parametrize("sigma", [0.0, 0.4])
    def test_a_u0_sizes_the_noise_rows_whatever_p_says(self, sigma):
        problem, u0 = _walk_problem("rows", 6), np.random.default_rng(5).normal(size=(5, 6))
        want = decentralized_run(problem, 6, 0.5, sigma, 130, 3, u0=BlockVector(u0))
        for p in (1, 7, 10**15):
            got = decentralized_run(problem, p, 0.5, sigma, 130, 3, u0=BlockVector(u0))
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].iterates.tobytes() == want[1].iterates.tobytes()

    @pytest.mark.parametrize("K", [1, 300])
    def test_run_builds_its_log_once_and_calls_only_walk_next_per_step(self, monkeypatch, K):
        calls = []
        for name, fn in list(vars(simnet).items()):
            if inspect.isfunction(fn) and fn.__module__ == simnet.__name__:
                monkeypatch.setattr(simnet, name, lambda *args, name=name, fn=fn:
                                    calls.append(name) or fn(*args))
        decentralized_run(_walk_problem("rows", 6), 6, 0.5, 0.4, K, seed=3)
        assert calls == ["walk_next"] * (K + 1) + ["record_observation"]

    @pytest.mark.parametrize("k", [0, 3, 127, 128, 200])
    @pytest.mark.parametrize("sigma", [0.0, 0.4])
    def test_non_finite_iterate_leaves_only_the_finite_hand_offs(self, monkeypatch, k, sigma):
        # the run stops with no log: the caller has seen only the k finite z it released
        calls, logs, seen = [], [], []

        def prox_r(v):  # one call in initial_state, then one per step
            calls.append(None)
            return v * np.nan if len(calls) > 1 + k else v

        record = simnet.record_observation
        monkeypatch.setattr(simnet, "record_observation",
                            lambda *args: logs.append(args) or record(*args))
        problem = dataclasses.replace(_walk_problem("rows", 6), prox_r=prox_r)
        with pytest.raises(ModelError, match=f"round {k}$"):
            decentralized_run(problem, 6, 0.5, sigma, 300, seed=8,
                              objective=lambda z: seen.append(z.copy()) or 0.0)
        assert logs == []
        clean = decentralized_run(dataclasses.replace(problem, prox_r=lambda v: v), 6, 0.5,
                                  sigma, 300, seed=8)[1]
        assert len(logs) == 1 and len(seen) == k
        assert [z.tobytes() for z in seen] == [z.tobytes() for z in clean.iterates[:k]]


class TestWrongShapeUserProx:
    """A spec whose output is not one row of width p raises naming the user."""

    @pytest.mark.parametrize("bad", [lambda v: float(v.sum()), lambda v: v[:2],
                                     lambda v: v[:, None]], ids=["scalar", "short", "column"])
    @pytest.mark.parametrize("setting", list(_RUNS))
    def test_run_raises_structural_error_naming_the_user(self, setting, bad):
        proxes = [ZeroProx()] * 3
        proxes[1] = bad
        problem = ConsensusProblem(prox_f=tuple(proxes), prox_r=ZeroProx())
        u0 = np.arange(9, dtype=float).reshape(3, 3)
        with pytest.raises(StructuralError, match="prox of user 1 returned shape"):
            _RUNS[setting](problem, u0, 0.5, 0.0, 200, 0, 3, None)


class TestNonFiniteIterate:
    """A run stops with ModelError at the first round whose released z is not finite."""

    @pytest.mark.parametrize("run, initial_calls", [
        (lambda problem: centralized_run(problem, BlockVector.zeros(4, 2), 0.5, 0.2, 10, 1), 0),
        (lambda problem: federated_run(problem, 2, 2, 0.5, 0.2, 10, 1), 1),
        (lambda problem: decentralized_run(problem, 2, 0.5, 0.2, 10, 1), 1),
    ], ids=["centralized", "federated", "decentralized"])
    def test_nan_prox_from_round_3_raises_naming_it(self, run, initial_calls):
        calls = []

        def prox_r(v):
            # the runs without a given z call prox_r once before round 0, then once per round
            calls.append(None)
            return v * np.nan if len(calls) > initial_calls + 3 else v

        problem, _ = simple_problem(4, 2, prox_r=prox_r)
        with pytest.raises(ModelError, match="round 3"):
            run(problem)


class TestNoiseBlocks:
    """The step checks ``noise_blocks`` whatever sigma is."""

    CALLS = {
        "step": lambda general, sigma, blocks: general_admm_step(
            general, GeneralAdmmState(u=np.zeros(300), z=np.zeros(3)), 0.5, sigma, 0,
            noise_blocks=blocks),
    }

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS)
    @pytest.mark.parametrize("blocks, sigma, error", [
        (0, 0.1, ParameterError), (0, 0.0, ParameterError), (-1, 0.1, ParameterError),
        (-1, 0.0, ParameterError), (7, 0.0, StructuralError)])
    def test_bad_block_count_rejected(self, call, blocks, sigma, error):
        problem, _ = simple_problem(100, 3)
        with pytest.raises(error, match="noise block"):
            call(consensus_as_general(problem, 3), sigma, blocks)


class TestGeneralSplitting:
    def test_consensus_instantiation_matches_specialized_path(self):
        gen = np.random.default_rng(31)
        n, p = 4, 2
        proxes = tuple(QuadraticRankOneProx(a=gen.normal(size=p), b=float(gen.normal()),
                                            gamma=1.5, n=n) for _ in range(n))
        problem = ConsensusProblem(prox_f=proxes, prox_r=L1Prox(0.02))
        K, lam, sigma, seed = 15, 0.8, 0.25, 3

        cen_z = []
        centralized_run(problem, BlockVector.zeros(n, p), lam, sigma, K, seed,
                        objective=lambda z: cen_z.append(z.copy()) or 0.0)

        general = consensus_as_general(problem, p)
        state = GeneralAdmmState(u=np.zeros(n * p), z=np.zeros(p))
        for k in range(K):
            state = general_admm_step(general, state, lam, sigma, seed, noise_blocks=n)
            np.testing.assert_allclose(state.z, cen_z[k], atol=1e-12)

    def test_tiny_qp_satisfies_constraint_and_kkt(self):
        p, gamma = 2, 1.0
        a = np.array([1.0, -2.0])
        b = np.array([0.5, 1.0])

        def f_argmin(z, u):
            return (gamma * a - 2 * z - u) / (gamma + 1.0)

        def g_argmin(u):
            return (gamma * b - u) / (gamma + 1.0)

        problem = GeneralAdmmProblem(f_argmin=f_argmin, g_argmin=g_argmin,
                                     A=np.eye(p), B=np.eye(p), c=np.zeros(p),
                                     omega_A=1.0)
        state = GeneralAdmmState(u=np.zeros(p), z=np.zeros(p))
        for _ in range(400):
            state = general_admm_step(problem, state, lam=0.5, sigma=0.0, seed=0)
        z = state.z
        x = f_argmin(z, state.u)
        # direct solve oracle: min ||x-a||^2/2 + ||z-b||^2/2 s.t. x + z = 0
        x_star = (a - b) / 2.0
        np.testing.assert_allclose(x, x_star, atol=1e-8)
        assert np.linalg.norm(x + z) < 1e-8

    def test_step_size_precondition(self):
        problem = GeneralAdmmProblem(f_argmin=lambda z, u: u, g_argmin=lambda u: u,
                                     A=np.eye(1), B=np.eye(1), c=np.zeros(1),
                                     omega_A=1.0)
        state = GeneralAdmmState(u=np.zeros(1), z=np.zeros(1))
        with pytest.raises(ParameterError):
            general_admm_step(problem, state, lam=0.0, sigma=0.0, seed=0)

    def test_rank_deficiency_rejected(self):
        with pytest.raises(ModelError):
            GeneralAdmmProblem(f_argmin=lambda z, u: u, g_argmin=lambda u: u,
                               A=np.zeros((1, 1)), B=np.eye(1), c=np.zeros(1),
                               omega_A=0.0)


class TestSensitivityAudit:
    def test_one_step_displacement_within_bound(self):
        L, gamma, lam, n = 1.3, 0.7, 0.8, 6
        worst = consensus_displacement_audit(n, L, gamma, lam, trials=300, seed=0)
        assert worst <= sensitivity_consensus(L, gamma, lam, n) + 1e-12

    def test_local_level_bound(self):
        L, gamma, lam = 0.9, 1.1, 1.0
        worst = consensus_displacement_audit(1, L, gamma, lam, trials=200, seed=1)
        assert worst <= sensitivity_consensus(L, gamma, lam, 1) + 1e-12

    def test_general_bound_on_random_full_rank_systems(self):
        # p = 3, A with singular values >= 1 (where the stated scaling is valid);
        # the data enters through an L-Lipschitz absolute-value term whose
        # coupled argmin has an exact closed form (scalar soft-threshold logic):
        # argmin_x (L/n)|dir.x - d| + (1/2 gamma)||A x + w||^2
        #   = x0 - clamp(r0 / beta, -1, 1) * h
        # with x0 = -A^{-1} w, h = (gamma L / n) (A^T A)^{-1} dir,
        # r0 = dir.x0 - d, beta = dir.h.
        gen = np.random.default_rng(7)
        p, L, gamma, lam, n = 3, 0.8, 0.9, 0.7, 4
        from privfp.privacy import sensitivity_general

        for _ in range(60):
            Q1, _ = np.linalg.qr(gen.normal(size=(p, p)))
            Q2, _ = np.linalg.qr(gen.normal(size=(p, p)))
            svals = gen.uniform(1.0, 3.0, size=p)
            A = Q1 @ np.diag(svals) @ Q2.T
            w = gen.normal(size=p)
            direction = gen.normal(size=p)
            direction /= np.linalg.norm(direction)
            x0 = np.linalg.solve(A, -w)
            h = gamma * L / n * np.linalg.solve(A.T @ A, direction)
            beta = direction @ h

            def x_argmin(d):
                mu = np.clip((direction @ x0 - d) / beta, -1.0, 1.0)
                return x0 - mu * h

            d, d_prime = float(gen.normal()), float(gen.normal())
            displacement = 2 * lam * np.linalg.norm(A @ (x_argmin(d) - x_argmin(d_prime)))
            bound = sensitivity_general(L, gamma, lam, n, float(svals.max()),
                                        float(svals.min()))
            assert displacement <= bound + 1e-12
