import math

import numpy as np
import pytest

from privfp.errors import ConditionNotMet, ParameterError
from privfp.utility import (
    ErrorBound, UtilityParams, excess_noise_ratio, noiseless_decay, recommended_step_size,
    step_size_range, utility_bound,
)


def draw_valid_params(gen):
    """Random parameters satisfying the noisy-regime guard."""
    tau = float(gen.uniform(0.0, 0.98))
    q = float(gen.uniform(0.05, 1.0))
    p = int(gen.integers(1, 16))
    # force sigma*sqrt(p) > sqrt(q)*(1-tau) with margin
    sigma = float(gen.uniform(1.01, 20.0)) * math.sqrt(q) * (1 - tau) / math.sqrt(p)
    zeta = float(gen.uniform(0.0, 1.0))
    return tau, q, sigma, zeta, p


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

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            UtilityParams(tau=1.0, q=1.0, sigma=1.0)
        with pytest.raises(ParameterError):
            UtilityParams(tau=0.5, q=0.0, sigma=1.0)


class TestStepSize:
    def test_reference_recommended_value(self):
        # sigma_1 = 2 (1 - tau) means c = 1; at tau = 0.75, q = 1
        got = recommended_step_size(tau=0.75, q=1.0, sigma=0.5, zeta=0.0, p=1)
        b = math.sqrt(0.75)
        assert got.raw == pytest.approx((1 / (1 - b)) * 0.75, rel=1e-12)
        assert got.raw == pytest.approx(5.5981, rel=1e-4)
        assert got.was_clamped and got.clamped == 1.0

    def test_unclamped_when_strongly_contractive(self):
        # tau = 0, q = 1: b = 0 and the recommended step drops below 1
        got = recommended_step_size(tau=0.0, q=1.0, sigma=4.0, zeta=0.0, p=1)
        assert got.raw < 1.0 and not got.was_clamped
        assert got.clamped == got.raw

    def test_recommended_lies_in_open_interval(self):
        gen = np.random.default_rng(42)
        checked = 0
        while checked < 1000:
            tau, q, sigma, zeta, p = draw_valid_params(gen)
            try:
                lo, hi = step_size_range(tau, q, sigma, zeta, p)
                star = recommended_step_size(tau, q, sigma, zeta, p).raw
            except ConditionNotMet:
                continue
            assert lo < star < hi
            assert lo < hi
            checked += 1

    def test_limit_large_excess_noise(self):
        # q -> 1 with c -> infinity: the lower endpoint approaches 1/(1-b)
        tau, q = 0.6, 1.0
        b = math.sqrt(1 - q * (1 - tau))
        lo, _ = step_size_range(tau, q, sigma=1e9, zeta=0.0, p=1)
        assert lo == pytest.approx(1 / (1 - b), rel=1e-6)

    def test_guard(self):
        with pytest.raises(ConditionNotMet):
            step_size_range(0.5, 1.0, sigma=0.0, zeta=0.0, p=1)


@pytest.mark.parametrize("fn", [excess_noise_ratio, step_size_range, recommended_step_size],
                         ids=lambda fn: fn.__name__)
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
