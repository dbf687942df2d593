import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import empirical_lipschitz
from privfp.errors import ParameterError, StructuralError
from privfp.operators import (
    Averaged, Contractive, L1Prox, NonExpansive, QuadraticProx,
    QuadraticRankOneProx, RowQuadraticProx, ZeroProx, clip, clip_rows,
    gradient_step_operator, prox_l1, reflect, reflect_compose,
)


def dense_rank_one_solve(a, b, gamma, n, v):
    """Independent oracle: dense solve of (a a^T + (2n/gamma) I) x = b a + (2n/gamma) v."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    c = 2.0 * n / gamma
    return np.linalg.solve(np.outer(a, a) + c * np.eye(len(a)), b * a + c * v)


class TestProxL1:
    def test_basic_shrink(self):
        np.testing.assert_allclose(prox_l1(np.array([1.2]), 0.5), [0.7])

    def test_exact_kill_zone(self):
        np.testing.assert_array_equal(prox_l1(np.array([-0.3, 0.3]), 0.3), [0.0, 0.0])

    def test_identity_at_zero_threshold(self):
        np.testing.assert_array_equal(prox_l1(np.array([2.0, -2.0]), 0.0), [2.0, -2.0])

    def test_negative_threshold_rejected(self):
        with pytest.raises(ParameterError):
            prox_l1(np.array([1.0]), -0.1)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
           st.floats(0.0, 1e6))
    def test_componentwise_shrink_property(self, values, t):
        out = prox_l1(np.array(values), t)
        assert np.all(np.abs(out) <= np.maximum(np.abs(values) - t, 0.0) + 1e-9)
        assert np.all(out * np.sign(values) >= 0.0)


class TestRankOneProx:
    def test_zero_row_is_identity(self):
        np.testing.assert_array_equal(
            QuadraticRankOneProx(np.zeros(1), 5.0, 1.0, 1)(np.array([3.0])), [3.0])

    def test_one_dimensional_value_vs_dense_oracle(self):
        # (a=[1], b=1, gamma=2, n=1, v=[0]): (1 + 1) x = 1  =>  x = 0.5
        expected = dense_rank_one_solve([1.0], 1.0, 2.0, 1, [0.0])
        np.testing.assert_allclose(expected, [0.5], atol=1e-15)
        np.testing.assert_allclose(
            QuadraticRankOneProx(np.array([1.0]), 1.0, 2.0, 1)(np.array([0.0])),
            expected, rtol=1e-14)

    @pytest.mark.parametrize("trial", range(10))
    def test_matches_dense_solve(self, trial):
        gen = np.random.default_rng(100 + trial)
        p = 8
        a = gen.normal(size=p)
        b = gen.normal()
        v = gen.normal(size=p)
        gamma = gen.uniform(0.1, 10.0)
        n = int(gen.integers(1, 50))
        got = QuadraticRankOneProx(a, b, gamma, n)(v)
        want = dense_rank_one_solve(a, b, gamma, n, v)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-10

    def test_larger_dims_against_oracle(self):
        for p in (16, 64):
            gen = np.random.default_rng(p)
            a, v = gen.normal(size=p), gen.normal(size=p)
            got = QuadraticRankOneProx(a, 0.7, 3.0, 5)(v)
            want = dense_rank_one_solve(a, 0.7, 3.0, 5, v)
            assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-10

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            QuadraticRankOneProx(np.ones(2), 1.0, 0.0, 1)(np.ones(2))
        with pytest.raises(ParameterError):
            QuadraticRankOneProx(np.ones(2), 1.0, 1.0, 0)(np.ones(2))
        with pytest.raises(ParameterError):
            QuadraticRankOneProx(np.ones(2), 1.0, 1.0, 1)(np.ones(3))


def random_quadratic_prox(gen, p, gamma=1.0):
    M = gen.normal(size=(p, p))
    Q = M @ M.T / p + 0.1 * np.eye(p)
    return QuadraticProx(Q=Q, c=gen.normal(size=p), gamma=gamma)


class TestQuadraticProx:
    def test_repeated_calls_equal_the_direct_solve_bit_for_bit(self):
        # I + gamma Q and gamma c are built once; each call must solve the same system
        gen = np.random.default_rng(4)
        spec = random_quadratic_prox(gen, 6, gamma=0.7)
        for _ in range(3):
            v = gen.normal(size=6)
            want = np.linalg.solve(np.eye(6) + 0.7 * spec.Q, v - 0.7 * spec.c)
            assert spec(v).tobytes() == want.tobytes()


class TestFirmNonexpansiveness:
    """Every prox of a convex function contracts probe pairs (tolerance 1e-9)."""

    @pytest.mark.parametrize("spec_name", ["zero", "l1", "rank_one", "quadratic"])
    def test_probe_audit(self, spec_name):
        gen = np.random.default_rng(7)
        p = 6
        spec = {
            "zero": ZeroProx(),
            "l1": L1Prox(0.3),
            "rank_one": QuadraticRankOneProx(a=gen.normal(size=p), b=0.5, gamma=2.0, n=3),
            "quadratic": random_quadratic_prox(gen, p),
        }[spec_name]
        lip = empirical_lipschitz(lambda u: spec(u), p, seed=11)
        assert lip <= 1.0 + 1e-9


class TestReflect:
    def test_zero_prox_reflects_to_identity(self):
        op = reflect(ZeroProx())
        u = np.array([0.3, -2.0])
        np.testing.assert_array_equal(op.apply(u, 0), u)
        assert isinstance(op.kind, NonExpansive)

    def test_l1_reflection_value(self):
        op = reflect(L1Prox(0.5))
        np.testing.assert_allclose(op.apply(np.array([1.2]), 0), [0.2])

    def test_reflection_preserves_nonexpansiveness(self):
        gen = np.random.default_rng(3)
        spec = random_quadratic_prox(gen, 5)
        op = reflect(spec)
        assert empirical_lipschitz(lambda u: op.apply(u, 0), 5, seed=5) <= 1.0 + 1e-9


class TestReflectCompose:
    def test_identity_when_both_zero(self):
        op = reflect_compose(ZeroProx(), ZeroProx(), 0.5)
        u = np.random.default_rng(0).normal(size=4)
        np.testing.assert_allclose(op.apply(u, 0), u, atol=1e-15)
        assert op.kind == Averaged(0.5)

    def test_averaging_identity_exact(self):
        # T(u) agrees with lam*R1(R2(u)) + (1-lam)*u evaluated independently.
        gen = np.random.default_rng(9)
        p1 = random_quadratic_prox(gen, 4)
        p2 = L1Prox(0.15)
        lam = 0.37
        op = reflect_compose(p1, p2, lam)
        r1, r2 = reflect(p1), reflect(p2)
        for _ in range(20):
            u = gen.normal(size=4)
            lhs = op.apply(u, 0)
            rhs = lam * r1.apply(r2.apply(u, 0), 0) + (1 - lam) * u
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_converges_to_quadratic_minimizer(self):
        # p1 = (x-3)^2/2, p2 = 0: fixed point maps to the minimizer x = 3.
        p1 = QuadraticProx(Q=np.eye(1), c=np.array([-3.0]), gamma=1.0)
        op = reflect_compose(p1, ZeroProx(), 0.5)
        u = np.zeros(1)
        for _ in range(200):
            u = op.apply(u, 0)
        x = ZeroProx()(u)
        np.testing.assert_allclose(x, [3.0], atol=1e-10)

    def test_large_shrinkage_maps_to_zero(self):
        # p1 = x^2/2, p2 = kappa|x| with kappa large: minimizer is 0.
        p1 = QuadraticProx(Q=np.eye(1), c=np.zeros(1), gamma=1.0)
        p2 = L1Prox(5.0)
        op = reflect_compose(p1, p2, 0.5)
        u = np.array([1.7])
        for _ in range(300):
            u = op.apply(u, 0)
        x = p2(u)
        # subgradient check: 0 is optimal iff |grad quad(0)| <= kappa
        np.testing.assert_allclose(x, [0.0], atol=1e-10)

    def test_invalid_weight(self):
        with pytest.raises(ParameterError):
            reflect_compose(ZeroProx(), ZeroProx(), 1.0)


class TestGradientStep:
    def test_plain_smooth_step(self):
        op = gradient_step_operator(lambda u: u, beta=1.0)
        np.testing.assert_allclose(op.apply(np.array([1.0]), 0), [-1.0])
        assert isinstance(op.kind, NonExpansive)

    def test_strongly_convex_step_contracts_to_zero(self):
        op = gradient_step_operator(lambda u: u, beta=1.0, mu=1.0)
        np.testing.assert_allclose(op.apply(np.array([1.0]), 0), [0.0])
        assert op.kind == Contractive(0.0)

    def test_probe_contraction_matches_declared_tau(self):
        gen = np.random.default_rng(21)
        p = 4
        M = gen.normal(size=(p, p))
        H = M @ M.T / p
        evals = np.linalg.eigvalsh(H)
        mu, beta = float(evals.min()), float(evals.max())
        op = gradient_step_operator(lambda u: H @ u, beta=beta, mu=mu)
        assert isinstance(op.kind, Contractive)
        lip = empirical_lipschitz(lambda u: op.apply(u, 0), p, seed=4)
        assert lip <= op.kind.tau + 1e-9

    def test_invalid_beta(self):
        with pytest.raises(ParameterError):
            gradient_step_operator(lambda u: u, beta=0.0)


class TestClip:
    def test_inside_ball_untouched(self):
        np.testing.assert_array_equal(clip(np.array([3.0, 4.0]), 10.0), [3.0, 4.0])

    def test_boundary_untouched(self):
        np.testing.assert_array_equal(clip(np.array([3.0, 4.0]), 5.0), [3.0, 4.0])

    def test_radial_projection(self):
        np.testing.assert_allclose(clip(np.array([6.0, 8.0]), 5.0), [3.0, 4.0])

    def test_idempotent_bit_for_bit(self):
        gen = np.random.default_rng(17)
        for _ in range(50):
            v = gen.normal(size=5) * gen.uniform(0.1, 10)
            once = clip(v, 2.0)
            twice = clip(once, 2.0)
            assert np.array_equal(once, twice)

    def test_output_norm_bounded(self):
        gen = np.random.default_rng(18)
        for _ in range(50):
            v = gen.normal(size=3) * 100
            assert np.linalg.norm(clip(v, 1.5)) <= 1.5 + 1e-12

    def test_invalid_threshold(self):
        with pytest.raises(ParameterError):
            clip(np.ones(2), 0.0)

    def test_nan_threshold_rejected(self):
        with pytest.raises(ParameterError):
            clip(np.ones(2), math.nan)


class TestClipRows:
    def test_clips_in_place_and_rows_inside_ball_bit_unchanged(self):
        X = np.array([[3.0, 4.0], [6.0, 8.0], [0.1, -0.2], [3.0, -4.0]])
        before = X.copy()
        assert clip_rows(X, 5.0) is X
        assert np.array_equal(X[[0, 2, 3]], before[[0, 2, 3]])
        np.testing.assert_allclose(X[1], [3.0, 4.0])

    def test_matches_clip_row_by_row(self):
        gen = np.random.default_rng(19)
        X = gen.normal(size=(200, 7)) * gen.uniform(0.1, 5.0, size=(200, 1))
        out = clip_rows(X.copy(), 2.0)
        want = np.stack([clip(x, 2.0) for x in X])
        inside = np.linalg.norm(X, axis=1) <= 2.0
        assert 0 < inside.sum() < len(X)
        assert np.array_equal(out[inside], want[inside])
        # the row norms are summed in a different order than clip's, so the
        # scale factors of clipped rows agree up to rounding
        np.testing.assert_allclose(out, want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("threshold", [2.0, 100.0], ids=["some-clipped", "none-clipped"])
    def test_in_place_keeps_zero_rows_and_rows_inside_the_ball(self, threshold):
        gen = np.random.default_rng(20)
        X = gen.normal(size=(50, 7)) * gen.uniform(0.1, 5.0, size=(50, 1))
        X[3] = 0.0  # a zero row is inside every ball
        before = X.copy()
        inside = np.linalg.norm(before, axis=1) <= threshold
        assert inside.all() == (threshold == 100.0)
        assert clip_rows(X, threshold) is X
        assert X[inside].tobytes() == before[inside].tobytes()
        assert not np.isnan(X).any()
        want = np.stack([clip(x, threshold) for x in before])
        np.testing.assert_allclose(X, want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan])
    def test_invalid_threshold(self, threshold):
        with pytest.raises(ParameterError):
            clip_rows(np.ones((2, 2)), threshold)

    def test_matches_the_linalg_norm_formula_byte_for_byte(self):
        gen = np.random.default_rng(21)
        X = gen.normal(size=(90, 64)) * gen.uniform(0.01, 0.5, size=(90, 1))
        X[5, 3], X[6, 2] = math.nan, math.inf  # a NaN row stays as it is; inf * 0 is NaN
        norms = np.linalg.norm(X, axis=1)
        over = norms > 1.0
        assert 0 < over.sum() < len(X)
        want = X.copy()
        with np.errstate(invalid="ignore"):
            want[over] *= (1.0 / norms[over])[:, None]
            got = clip_rows(X.copy(), 1.0)
        assert got.tobytes() == want.tobytes()


class TestRowQuadraticProx:
    @pytest.mark.parametrize("rows", [np.arange(9), np.array([4]), np.array([0, 3, 7])],
                             ids=["all", "one", "subset"])
    def test_matches_rank_one_prox_row_by_row(self, rows):
        gen = np.random.default_rng(23)
        A, b, V = gen.normal(size=(9, 5)), gen.normal(size=9), gen.normal(size=(len(rows), 5))
        got = RowQuadraticProx(A, b, gamma=1.7).rows(V, rows)
        want = np.stack([QuadraticRankOneProx(A[i], b[i], 1.7, 9)(v) for i, v in zip(rows, V)])
        assert got.shape == (len(rows), 5)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rows", [np.arange(9), np.array([4]), np.array([7, 0, 3, 7])],
                             ids=["all", "one", "repeated"])
    def test_out_equals_the_call_without_it_byte_for_byte(self, rows):
        gen = np.random.default_rng(24)
        A, b, V = gen.normal(size=(9, 5)), gen.normal(size=9), gen.normal(size=(len(rows), 5))
        prox = RowQuadraticProx(A, b, gamma=1.7)
        V_before = V.copy()
        want = prox.rows(V, rows)
        buf = np.full_like(V, np.nan)
        assert prox.rows(V, rows, out=buf) is buf
        assert buf.tobytes() == want.tobytes()
        assert V.tobytes() == V_before.tobytes()

    @pytest.mark.parametrize("rows", [np.array([9]), np.array([0, -10])])
    def test_out_of_range_row_raises_with_out(self, rows):
        prox = RowQuadraticProx(np.ones((9, 2)), np.ones(9), 1.0)
        with pytest.raises(IndexError):
            prox.rows(np.ones((len(rows), 2)), rows, out=np.empty((len(rows), 2)))

    def test_length_is_row_count(self):
        assert len(RowQuadraticProx(np.ones((4, 2)), np.ones(4), 1.0)) == 4

    @pytest.mark.parametrize("A, b", [(np.ones((4, 2)), np.ones(3)), (np.ones(4), np.ones(4)),
                                      (np.ones((4, 2)), np.ones((4, 1)))])
    def test_shape_mismatch_rejected(self, A, b):
        with pytest.raises(StructuralError):
            RowQuadraticProx(A, b, 1.0)

    @pytest.mark.parametrize("gamma", [0.0, -1.0])
    def test_invalid_gamma(self, gamma):
        with pytest.raises(ParameterError):
            RowQuadraticProx(np.ones((4, 2)), np.ones(4), gamma)
