import math

import numpy as np
import pytest

from helpers import contractive_block_operator
from privfp.blocks import BlockVector
from privfp.errors import ConditionNotMet, ParameterError
from privfp.fixedpoint import AllBlocks, BernoulliPerBlock, IterationConfig, SingleUniform, run
from privfp.utility import UtilityParams, excess_noise_ratio, noiseless_decay, utility_bound


class TestUtilityBound:
    def test_noiseless_case_rejected_by_guard(self):
        with pytest.raises(ConditionNotMet):
            utility_bound(UtilityParams(tau=0.5, q=1.0, sigma=0.0, zeta=0.0))

    def test_noiseless_transient_evaluator(self):
        assert noiseless_decay(0.5, 1.0, 0, 3.0) == 3.0
        assert noiseless_decay(0.5, 1.0, 10, 1.0) == pytest.approx((1 - 1 / 16) ** 10, rel=1e-15)

    def test_reference_value(self):
        bound = utility_bound(UtilityParams(tau=0.5, q=1.0, sigma=1.0, zeta=0.0,
                                            p=1, D=1.0, k=0))
        assert bound.transient == pytest.approx(1.0, abs=0)
        assert bound.floor == pytest.approx(80.0, rel=1e-12)
        assert bound.total == pytest.approx(81.0, rel=1e-12)

    def test_transient_at_zero_iterations_is_initial_distance(self):
        params = UtilityParams(tau=0.3, q=0.5, sigma=2.0, zeta=0.1, p=4, D=7.5, k=0)
        assert utility_bound(params).transient == 7.5

    def test_floor_quadruples_at_dominating_noise(self):
        big = 1e6
        f1 = utility_bound(UtilityParams(tau=0.5, q=1.0, sigma=big, p=2)).floor
        f2 = utility_bound(UtilityParams(tau=0.5, q=1.0, sigma=2 * big, p=2)).floor
        assert f2 / f1 == pytest.approx(4.0, rel=1e-3)

    @pytest.mark.parametrize("q, sigma", [(1e-110, 1.0), (1e-300, 1.0), (1e-200, 1e-100)])
    def test_floor_is_infinite_when_the_cube_of_q_underflows(self, q, sigma):
        # q^3 (1 - tau)^3 rounds to 0: the bound is vacuous, not a ZeroDivisionError
        bound = utility_bound(UtilityParams(tau=0.5, q=q, sigma=sigma, D=2.0, k=5))
        assert bound.floor == math.inf and bound.total == math.inf
        assert bound.transient == noiseless_decay(0.5, q, 5, 2.0)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            UtilityParams(tau=1.0, q=1.0, sigma=1.0)
        with pytest.raises(ParameterError):
            UtilityParams(tau=0.5, q=0.0, sigma=1.0)


@pytest.mark.parametrize("fn", [excess_noise_ratio], ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("bad", [dict(sigma=-1.0, zeta=5.0), dict(q=0.0), dict(q=-0.1),
                                 dict(p=-1), dict(tau=1.5), dict(sigma=math.nan),
                                 dict(zeta=math.nan)],
                         ids=["negative_sigma", "zero_q", "negative_q", "negative_p", "tau_above_1",
                              "nan_sigma", "nan_zeta"])
def test_out_of_range_inputs_rejected_as_utility_params_rejects_them(fn, bad):
    with pytest.raises(ParameterError):
        fn(**dict(dict(tau=0.5, q=0.5, sigma=1.0, zeta=0.0, p=4), **bad))


def test_nan_initial_distance_rejected():
    with pytest.raises(ParameterError):
        UtilityParams(tau=0.5, q=0.5, sigma=1.0, D=math.nan)


class TestAuditAgainstRealizedError:
    """The bound against the realized ||u_K - u*||^2 of engine runs on criterion 6's
    contractive operator (tau = 0.6, fixed point 0), B = 4 blocks of p = 3, lam = 1."""

    B, P, K, SEEDS = 4, 3, 300, 40
    OPERATOR, TAU = contractive_block_operator(B, P, 0.5, 2.0, seed=0)
    U0 = BlockVector(np.random.default_rng(3).normal(size=(B, P)) * 2.0)

    def params(self, q, sigma):
        return UtilityParams(tau=self.TAU, q=q, sigma=sigma, p=self.P,
                             D=float(np.sum(self.U0.flat ** 2)), k=self.K)

    @pytest.mark.parametrize("sigma", [0.5, 3.0])
    @pytest.mark.parametrize("q, schedule", [(1.0, AllBlocks()), (0.5, BernoulliPerBlock(0.5)),
                                             (0.25, SingleUniform())],
                             ids=["AllBlocks", "BernoulliPerBlock", "SingleUniform"])
    def test_mean_error_plus_three_standard_errors_lies_within_the_bound(self, q, schedule,
                                                                         sigma):
        finals = []
        for seed in range(self.SEEDS):
            cfg = IterationConfig(K=self.K, sigma=sigma, lam=1.0, schedule=schedule, seed=seed)
            u, _ = run(self.U0, self.OPERATOR, cfg)
            finals.append(float(np.sum(u.flat ** 2)))
        mean = float(np.mean(finals))
        upper = mean + 3.0 * float(np.std(finals, ddof=1)) / math.sqrt(self.SEEDS)
        bound = utility_bound(self.params(q, sigma)).total
        print(f"utility audit q={q:g} sigma={sigma:g}: realized {mean:.4g}, bound {bound:.4g}, "
              f"bound/realized {bound / mean:.1f}")
        assert upper <= bound

    @pytest.mark.parametrize("q", [1.0, 0.5, 0.25])
    def test_low_noise_is_out_of_regime(self, q):
        # sigma sqrt(p) = 0.17 does not exceed sqrt(q)(1 - tau) = 0.4, 0.28 and 0.2
        with pytest.raises(ConditionNotMet):
            utility_bound(self.params(q, 0.1))
