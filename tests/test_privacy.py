import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from privfp import privacy
from privfp.errors import ConditionNotMet, ParameterError, StructuralError
from privfp.privacy import (
    DEFAULT_ALPHAS, RdpCurve, calibrate_sigma,
    centralized_epsilon, estimated_participations, federated_central_epsilon,
    gaussian_rdp, local_epsilon, network_rdp_epsilon, rdp_to_dp,
    sensitivity_consensus, sensitivity_general, setting_curve, subsampled_rdp,
)


class TestGaussianRdp:
    def test_unit_case(self):
        assert gaussian_rdp(1.0, 1.0, 2.0) == 1.0

    def test_zero_sensitivity(self):
        assert gaussian_rdp(0.0, 3.7, 5.0) == 0.0

    def test_substitution(self):
        assert gaussian_rdp(2.0, 2.0, 3.0) == pytest.approx(1.5, abs=0)

    def test_guards(self):
        with pytest.raises(ParameterError):
            gaussian_rdp(1.0, 0.0, 2.0)
        with pytest.raises(ParameterError):
            gaussian_rdp(1.0, 1.0, 1.0)


@pytest.mark.parametrize("sigma", [0.0, math.nan, math.inf, 1e200, 1e-170])
@pytest.mark.parametrize("formula", [
    lambda sigma: gaussian_rdp(1.0, sigma, 2.0),
    lambda sigma: subsampled_rdp(2.0, 0.1, 1.0, sigma),
    lambda sigma: federated_central_epsilon(2.0, 10, 1.0, 1.0, sigma, 10, 100),
    lambda sigma: network_rdp_epsilon(2.0, 1, 1.0, 1.0, sigma, 10),
    lambda sigma: centralized_epsilon(2.0, 10, 1.0, 1.0, sigma, 100),
    lambda sigma: local_epsilon(2.0, 10, 1.0, 1.0, sigma),
    # zero rounds must not skip the sigma check
    lambda sigma: centralized_epsilon(2.0, 0, 1.0, 1.0, sigma, 100),
    lambda sigma: local_epsilon(2.0, 0, 1.0, 1.0, sigma),
], ids=["gaussian", "subsampled", "federated_central", "network", "centralized", "local",
        "centralized_K0", "local_K0"])
def test_sigma_outside_finite_positive_range_rejected(formula, sigma):
    with pytest.raises(ParameterError, match="noise std"):
        formula(sigma)


@pytest.mark.parametrize("call", [
    lambda nan: RdpCurve((nan, 2.0), (0.1, 0.2)),
    lambda nan: RdpCurve((1.5, 2.0), (nan, 0.2)),
    lambda nan: gaussian_rdp(1.0, 1.0, nan),
    lambda nan: gaussian_rdp(nan, 1.0, 2.0),
    lambda nan: subsampled_rdp(nan, 0.1, 1.0, 8.0),
    lambda nan: subsampled_rdp(2.0, 0.1, nan, 8.0),
    lambda nan: federated_central_epsilon(nan, 10, 1.0, 1.0, 8.0, 10, 100),
    lambda nan: network_rdp_epsilon(nan, 1, 1.0, 1.0, 8.0, 10),
], ids=["curve_order", "curve_value", "gaussian_order", "gaussian_sensitivity",
        "subsampled_order", "subsampled_sensitivity", "federated_central_order", "network_order"])
def test_nan_order_sensitivity_or_value_rejected(call):
    with pytest.raises(ParameterError):
        call(math.nan)


@pytest.mark.parametrize("setting", privacy.SETTINGS)
@pytest.mark.parametrize("L, gamma, what", [
    (1e200, 1.0, "Lipschitz constant L"), (1e-100, 1e160, "prox step gamma"),
    (1e150, 1e150, "L\\*gamma")])
def test_every_formula_rejects_L_gamma_or_their_product_with_an_overflowing_square(
        setting, L, gamma, what):
    with pytest.raises(ParameterError, match=f"{what} must have a finite square"):
        setting_curve(setting, 8.0, K=5, L=L, gamma=gamma, n=100, m=5)


@pytest.mark.parametrize("call", [
    lambda: centralized_epsilon(2.0, 1, 1e154, 1.0, 1.0, 1),  # 4 L gamma / n = 4e154
    lambda: subsampled_rdp(2.0, 0.1, 1e200, 8.0)])
def test_sensitivity_with_an_overflowing_square_rejected(call):
    with pytest.raises(ParameterError, match="sensitivity must be >= 0 with a finite square"):
        call()


class TestRdpToDp:
    def test_single_point(self):
        curve = RdpCurve((2.0,), (1.0,))
        assert rdp_to_dp(curve, math.exp(-1.0)) == pytest.approx(2.0, rel=1e-12)

    def test_picks_minimizing_order(self):
        curve = RdpCurve((2.0, 11.0), (1.0, 1.0))
        assert rdp_to_dp(curve, math.exp(-1.0)) == pytest.approx(1.1, rel=1e-12)

    def test_delta_near_one_limit(self):
        curve = RdpCurve((2.0,), (0.0,))
        assert rdp_to_dp(curve, 1 - 1e-12) == pytest.approx(0.0, abs=1e-9)

    def test_dominated_grid_points_ignored(self):
        base = RdpCurve((2.0, 11.0), (1.0, 1.0))
        padded = RdpCurve((2.0, 11.0, 3.0), (1.0, 1.0, 50.0))
        assert rdp_to_dp(base, 1e-5) == rdp_to_dp(padded, 1e-5)

    def test_delta_range(self):
        with pytest.raises(ParameterError):
            rdp_to_dp(RdpCurve((2.0,), (1.0,)), 1.0)


@pytest.mark.parametrize("setting", privacy.SETTINGS)
@pytest.mark.parametrize("name", ["L", "gamma"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("K", [0, 5])
def test_every_formula_rejects_L_or_gamma_not_above_zero(setting, name, value, K):
    # a negative L*gamma made the network threshold negative, so every order passed it
    params = dict(K=K, L=1.0, gamma=0.1, n=100, m=5)
    params[name] = value
    with pytest.raises(ParameterError, match=f"{name} must be > 0"):
        setting_curve(setting, 8.0, **params)


class TestSensitivities:
    def test_consensus_value(self):
        assert sensitivity_consensus(1.0, 0.1, 1.0, 10) == pytest.approx(0.04, rel=1e-15)

    def test_consensus_local_level(self):
        assert sensitivity_consensus(1.0, 0.1, 1.0, 1) == pytest.approx(0.4, rel=1e-15)

    def test_general_reduces_to_consensus_for_identity(self):
        assert sensitivity_general(2.0, 0.3, 0.7, 5, 1.0, 1.0) == \
            sensitivity_consensus(2.0, 0.3, 0.7, 5)

    def test_general_value(self):
        assert sensitivity_general(1.0, 1.0, 1.0, 1, 2.0, 0.5) == pytest.approx(16.0, rel=1e-15)

    def test_rank_deficient_rejected(self):
        with pytest.raises(ParameterError):
            sensitivity_general(1.0, 1.0, 1.0, 1, 2.0, 0.0)


class TestCentralizedEpsilon:
    def test_value(self):
        assert centralized_epsilon(2.0, 100, 1.0, 0.1, 1.0, 100) == pytest.approx(0.0016, rel=1e-12)

    def test_zero_rounds(self):
        assert centralized_epsilon(2.0, 0, 1.0, 0.1, 1.0, 100) == 0.0

    def test_equals_composed_per_step_curve(self):
        alpha, K, L, gamma, sigma, n = 3.0, 12, 0.8, 0.25, 1.3, 40
        per_step = gaussian_rdp(sensitivity_consensus(L, gamma, 1.0, n), sigma, alpha)
        composed = sum([per_step] * K)
        assert centralized_epsilon(alpha, K, L, gamma, sigma, n) == pytest.approx(
            composed, rel=1e-15)


class TestSubsampledRdp:
    def test_in_regime_value(self):
        assert subsampled_rdp(2.0, 0.1, 1.0, 4.0) == pytest.approx(0.0025, rel=1e-12)

    def test_large_q_rejected(self):
        with pytest.raises(ConditionNotMet) as err:
            subsampled_rdp(2.0, 0.5, 1.0, 4.0)
        assert "1/5" in err.value.condition

    def test_small_sigma_rejected(self):
        with pytest.raises(ConditionNotMet) as err:
            subsampled_rdp(2.0, 0.1, 1.0, 1.0)
        assert "sigma" in err.value.condition

    def test_alpha_cap_rejected(self):
        with pytest.raises(ConditionNotMet) as err:
            subsampled_rdp(4096.0, 0.1, 1.0, 4.0)
        assert "alpha" in err.value.condition


class TestFederatedCentral:
    def test_formula_value(self):
        # literal recomputation: 16*2*10*1*0.01 / (16 * 100^2) = 2e-5
        got = federated_central_epsilon(2.0, 10, 1.0, 0.1, 4.0, 10, 100)
        assert got == pytest.approx(16 * 2 * 10 * 1 * 0.1 ** 2 / (4.0 ** 2 * 100 ** 2), rel=1e-15)
        assert got == pytest.approx(2e-5, rel=1e-12)

    def test_cohort_too_large(self):
        with pytest.raises(ConditionNotMet):
            federated_central_epsilon(2.0, 10, 1.0, 0.1, 4.0, 20, 100)

    def test_twice_centralized(self):
        args = dict(alpha=2.0, K=10, L=1.0, gamma=0.1, sigma=4.0, n=100)
        fed = federated_central_epsilon(m=10, **args)
        cen = centralized_epsilon(**args)
        assert fed == pytest.approx(2.0 * cen, rel=1e-15)


class TestLocalEpsilon:
    def test_unit_value(self):
        assert local_epsilon(2.0, 1, 1.0, 1.0, 4.0) == pytest.approx(1.0, rel=1e-15)

    def test_zero_participations(self):
        assert local_epsilon(2.0, 0, 1.0, 1.0, 4.0) == 0.0

    def test_population_size_has_no_effect(self):
        # the formula has no n: phrased as invariance under unrelated scaling
        vals = {local_epsilon(2.0, 3, 1.0, 0.5, 4.0) for _ in range(3)}
        assert len(vals) == 1


class TestNetworkRdp:
    def test_value(self):
        got = network_rdp_epsilon(2.0, 1, 1.0, 1.0, 4.0, 10)
        assert got == pytest.approx(16 * math.log(10) / 160.0, rel=1e-12)

    def test_strict_noise_condition(self):
        threshold = 2.0 * 1.0 * 1.0 * math.sqrt(2.0 * 1.0)
        with pytest.raises(ConditionNotMet):
            network_rdp_epsilon(2.0, 1, 1.0, 1.0, threshold, 10)

    def test_small_population_rejected(self):
        with pytest.raises(ParameterError):
            network_rdp_epsilon(2.0, 1, 1.0, 1.0, 4.0, 1)

    @pytest.mark.parametrize("n", [5, 10, 100])
    def test_walk_length_series_bound(self, n):
        # direct summation oracle: (1/n) sum_{k>=1} (1-1/n)^k / k <= ln(n)/n
        N = int(10 * n * math.log(n)) + 1
        k = np.arange(1, N + 1)
        partial = np.sum((1 - 1 / n) ** k / k) / n
        assert partial <= math.log(n) / n + 1e-12

    def test_participation_estimate(self):
        assert estimated_participations(100, 30) == 4
        assert estimated_participations(90, 30) == 3
        assert estimated_participations(0, 5) == 0


class TestMonotonicity:
    """Every formula is monotone the right way across parameter sweeps."""

    def test_centralized_sweeps(self):
        base = dict(alpha=2.0, K=10, L=1.0, gamma=0.5, sigma=2.0, n=50)
        f = lambda **kw: centralized_epsilon(**{**base, **kw})
        assert all(f(K=k1) <= f(K=k2) for k1, k2 in zip(range(1, 20), range(2, 21)))
        ls = np.linspace(0.1, 4, 15)
        assert all(f(L=a) <= f(L=b) for a, b in zip(ls, ls[1:]))
        gs = np.linspace(0.05, 2, 15)
        assert all(f(gamma=a) <= f(gamma=b) for a, b in zip(gs, gs[1:]))
        als = np.linspace(1.5, 64, 15)
        assert all(f(alpha=a) <= f(alpha=b) for a, b in zip(als, als[1:]))
        ss = np.linspace(0.5, 8, 15)
        assert all(f(sigma=a) >= f(sigma=b) for a, b in zip(ss, ss[1:]))
        ns = range(10, 200, 10)
        assert all(f(n=a) >= f(n=b) for a, b in zip(ns, list(ns)[1:]))

    def test_network_sweeps(self):
        base = dict(alpha=2.0, K_i=4, L=0.5, gamma=0.5, sigma=6.0, n=20)
        f = lambda **kw: network_rdp_epsilon(**{**base, **kw})
        assert all(f(K_i=a) <= f(K_i=b) for a, b in zip(range(0, 10), range(1, 11)))
        ss = np.linspace(4, 16, 12)
        assert all(f(sigma=a) >= f(sigma=b) for a, b in zip(ss, ss[1:]))
        ns = range(10, 300, 20)
        assert all(f(n=a) >= f(n=b) for a, b in zip(ns, list(ns)[1:]))


class TestSettingCurve:
    def test_federated_curve_drops_out_of_regime_orders(self):
        curve = setting_curve("federated_central", 4.0, K=10, L=1.0, gamma=0.1,
                              n=100, m=10)
        assert set(curve.alphas).issubset(set(DEFAULT_ALPHAS))
        assert len(curve.alphas) < len(DEFAULT_ALPHAS)  # large orders fall out at sigma=4

    def test_all_out_of_regime_raises(self):
        with pytest.raises(ConditionNotMet):
            setting_curve("federated_central", 4.0, K=10, L=1.0, gamma=0.1,
                          n=100, m=50)


class TestCalibrate:
    def test_centralized_rdp_target_closed_form(self):
        sigma = calibrate_sigma("centralized", epsilon=0.0016, alpha=2.0, K=100,
                                L=1.0, gamma=0.1, n=100)
        assert sigma == pytest.approx(1.0, rel=1e-9)

    def test_round_trip_random_draws(self):
        gen = np.random.default_rng(0)
        for _ in range(25):
            setting = gen.choice(["centralized", "local", "federated_central", "network"])
            K = int(gen.integers(1, 500))
            L = float(gen.uniform(0.05, 2.0))
            gamma = float(gen.uniform(0.01, 1.0))
            n = int(gen.integers(20, 2000))
            m = max(1, int(0.1 * n))
            target = float(gen.uniform(0.05, 5.0))
            sigma = calibrate_sigma(setting, epsilon=target, delta=1e-6, K=K, L=L,
                                    gamma=gamma, n=n, m=m)
            curve = setting_curve(setting, sigma, K=K, L=L, gamma=gamma, n=n, m=m)
            assert rdp_to_dp(curve, 1e-6) <= target

    def test_rdp_round_trip_with_regime_floor(self):
        sigma = calibrate_sigma("federated_central", epsilon=1.0, alpha=2.0, K=5,
                                L=0.1, gamma=0.1, n=100, m=10)
        assert sigma >= 4.0
        assert federated_central_epsilon(2.0, 5, 0.1, 0.1, sigma, 10, 100) <= 1.0

    def test_bisection_tightness(self):
        target = 0.5
        sigma = calibrate_sigma("centralized", epsilon=target, delta=1e-6, K=50,
                                L=1.0, gamma=0.5, n=100)
        curve = setting_curve("centralized", sigma, K=50, L=1.0, gamma=0.5, n=100)
        assert rdp_to_dp(curve, 1e-6) <= target
        looser = setting_curve("centralized", sigma * 0.98, K=50, L=1.0, gamma=0.5, n=100)
        assert rdp_to_dp(looser, 1e-6) > target

    def test_rdp_target_out_of_regime_grows_sigma(self):
        # the closed-form sigma breaks the subsampling cap at order 32, so sigma is
        # bisected upward from it; these bits predate the one bisect_sigma call
        sigma = calibrate_sigma("federated_central", epsilon=1.0, alpha=32.0, K=10, L=0.1,
                                gamma=1.0, n=900, m=45)
        assert sigma.hex() == "0x1.19a8000000000p+4"
        assert federated_central_epsilon(32.0, 10, 0.1, 1.0, sigma, 45, 900) <= 1.0

    def test_rdp_target_closed_form_below_bisection_start(self):
        # bisection starts at 1e-6; a smaller closed-form sigma that meets the target is kept
        sigma = calibrate_sigma("centralized", epsilon=1000.0, alpha=2.0, K=1, L=1e-9,
                                gamma=1.0, n=1000)
        assert sigma == 1.2649110640686168e-13

    def test_zero_budget_infeasible(self):
        with pytest.raises(ConditionNotMet):
            calibrate_sigma("centralized", epsilon=0.0, alpha=2.0, K=1, L=1.0,
                            gamma=1.0, n=10)

    @pytest.mark.parametrize("target", [{"delta": 1e-6}, {"alpha": 4.0}], ids=["delta", "alpha"])
    def test_nan_budget_is_a_parameter_error_naming_it(self, target):
        with pytest.raises(ParameterError, match="privacy budget epsilon"):
            calibrate_sigma("centralized", epsilon=math.nan, K=200, L=0.1, gamma=1.0, n=900,
                            **target)

    @pytest.mark.parametrize("delta", [1.5, 1.0, 0.0, math.nan])
    def test_delta_outside_unit_interval_is_checked_before_bisecting(self, delta):
        # q = 1/2 is out of the subsampling regime at every sigma; that failure
        # used to hide the bad delta
        with pytest.raises(ParameterError, match=r"delta must lie in \(0, 1\)"):
            calibrate_sigma("federated_central", epsilon=1.0, delta=delta, K=10, L=1.0,
                            gamma=1.0, n=100, m=50)

    @pytest.mark.parametrize("target", [{"delta": 1e-6}, {"alpha": 4.0}], ids=["delta", "alpha"])
    def test_infinite_budget_is_a_parameter_error_naming_it(self, target):
        with pytest.raises(ParameterError, match="privacy budget epsilon must be finite, got inf"):
            calibrate_sigma("centralized", epsilon=math.inf, K=200, L=0.1, gamma=1.0, n=900,
                            **target)

    def test_negative_infinite_budget_is_out_of_regime(self):
        with pytest.raises(ConditionNotMet):
            privacy.check_budget(-math.inf)

    def test_network_target_respects_noise_floor(self):
        sigma = calibrate_sigma("network", epsilon=10.0, alpha=2.0, K=10, L=1.0,
                                gamma=1.0, n=20, K_i=1)
        assert sigma > 2.0 * math.sqrt(2.0)
        assert network_rdp_epsilon(2.0, 1, 1.0, 1.0, sigma, 20) <= 10.0


BENCH_ALPHAS = DEFAULT_ALPHAS + (512.0, 1024.0, 2048.0, 4096.0)


def _per_order(setting, alpha, sigma, K, L, gamma, n, m, K_i):
    """The public per-order formula of a setting, with setting_curve's K_i defaults."""
    if setting == "centralized":
        return centralized_epsilon(alpha, K, L, gamma, sigma, n)
    if setting == "federated_central":
        return federated_central_epsilon(alpha, K, L, gamma, sigma, m, n)
    if setting == "local":
        return local_epsilon(alpha, K if K_i is None else K_i, L, gamma, sigma)
    return network_rdp_epsilon(alpha, estimated_participations(K, n) if K_i is None else K_i,
                               L, gamma, sigma, n)


def _order_by_order(per_order, alphas, regime, sigma, provenance):
    """The curve the per-order loop built: drop each order that raises ConditionNotMet."""
    kept = []
    for a in alphas:
        try:
            kept.append((a, per_order(a)))
        except ConditionNotMet:
            continue
    if not kept:
        raise ConditionNotMet("no valid Rényi order",
                              f"no grid order satisfies the {regime} regime at sigma={sigma:g}")
    return RdpCurve(*map(tuple, zip(*kept)), provenance=provenance)


def _outcome(build):
    """A curve as exact bits, or the error it raises (type, condition, message)."""
    try:
        curve = build()
    except (ConditionNotMet, ParameterError) as exc:
        return type(exc), getattr(exc, "condition", None), str(exc)
    return ([a.hex() for a in curve.alphas], [e.hex() for e in curve.epsilons],
            curve.provenance)


def _draws(seed, count):
    """Seeded (setting, sigma, params, grid) draws: sigma below 4, at 4 and at the
    network threshold of an order, and large; default, bench and unsorted grids."""
    gen = np.random.default_rng(seed)
    grids = [DEFAULT_ALPHAS, BENCH_ALPHAS, (64.0, 2.0, 1.5, 700.0, 3.0), (4096.0, 1.01, 33.3)]
    for _ in range(count):
        setting = str(gen.choice(privacy.SETTINGS))
        n = int(gen.integers(2, 3000))
        params = dict(K=int(gen.integers(0, 3000)), L=float(gen.uniform(0.01, 2.0)),
                      gamma=float(gen.choice([gen.uniform(0.001, 1.0), gen.uniform(1, 2000)])),
                      n=n, m=max(1, int(gen.uniform(0.0, 0.25) * n)),  # q around 1/5
                      K_i=None if gen.random() < 0.5 else int(gen.integers(0, 50)))
        alphas = grids[int(gen.integers(len(grids)))]
        threshold = 2.0 * params["L"] * params["gamma"] * math.sqrt(2.0)  # order 2's cap
        sigma = float(gen.choice([gen.uniform(0.1, 4.0), 4.0, threshold,
                                  gen.uniform(4.0, 50.0), 10 ** gen.uniform(2, 6)]))
        yield setting, sigma, params, alphas


class TestOnePassCurve:
    """setting_curve equals the per-order formulas with out-of-regime orders dropped."""

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_per_order_formulas(self, seed):
        outcomes = set()
        for setting, sigma, params, alphas in _draws(seed, 150):
            want = _outcome(lambda: _order_by_order(
                lambda a: _per_order(setting, a, sigma, **params), alphas, setting, sigma,
                f"{setting}(K={params['K']},sigma={sigma:g})"))
            got = _outcome(lambda: setting_curve(setting, sigma, alphas=alphas, **params))
            assert got == want, (setting, sigma, params, alphas)
            outcomes.add(got[0] if isinstance(got[0], type) else len(got[0]))
        assert ConditionNotMet in outcomes and len(outcomes) > 3  # empty, partial and full curves

    @pytest.mark.parametrize("seed", range(2))
    def test_subsampled_curve_equals_the_per_order_formula(self, seed):
        gen = np.random.default_rng(100 + seed)
        for _ in range(150):
            K, n = int(gen.integers(0, 5000)), int(gen.integers(2, 5000))
            q, sensitivity = 1.0 / n, float(gen.uniform(0.0, 20.0))
            sigma = float(gen.choice([gen.uniform(0.5, 4.0), 4.0, 10 ** gen.uniform(0.6, 5)]))
            alphas = BENCH_ALPHAS if gen.random() < 0.5 else (9.0, 1.5, 300.0)
            want = _outcome(lambda: _order_by_order(
                lambda a: K * subsampled_rdp(a, q, sensitivity, sigma), alphas, "subsampled",
                sigma, f"subsampled(K={K},q={q:g},sigma={sigma:g})"))
            got = _outcome(lambda: privacy.subsampled_accountant(
                K=K, q=q, sensitivity=sensitivity, alphas=alphas).curve(sigma))
            assert got == want, (K, q, sensitivity, sigma, alphas)

    @pytest.mark.parametrize("setting", privacy.SETTINGS)
    @pytest.mark.parametrize("bad", [{"alphas": (2.0, 0.5)}, {"alphas": (math.nan,)},
                                     {"L": math.nan}], ids=["order-0.5", "order-nan", "L-nan"])
    def test_parameter_error_outranks_an_empty_regime(self, setting, bad):
        # sigma = 0.01 leaves no order in the federated and network regimes
        params = dict(K=10, L=1.0, gamma=1.0, n=100, m=50, alphas=DEFAULT_ALPHAS)
        params.update(bad)
        with pytest.raises(ParameterError):
            setting_curve(setting, 0.01, **params)

    @pytest.mark.parametrize("setting", privacy.SETTINGS)
    def test_empty_grid_is_a_structural_error(self, setting):
        # the per-order loop found no valid order and raised ConditionNotMet
        with pytest.raises(StructuralError, match="empty alpha grid"):
            setting_curve(setting, 8.0, K=10, L=1.0, gamma=1.0, n=100, m=5, alphas=())

    def test_empty_grid_of_the_subsampled_curve_is_a_structural_error(self):
        with pytest.raises(StructuralError, match="empty alpha grid"):
            privacy.subsampled_accountant(K=10, q=0.01, sensitivity=1.0, alphas=()).curve(8.0)

    @pytest.mark.parametrize("K", [-1, -5000])
    def test_negative_round_count_of_the_subsampled_curve_is_a_parameter_error(self, K):
        # as the centralized formula does; before the check, K = -1 gave a curve of -0.0
        with pytest.raises(ParameterError, match=f"^round count must be >= 0, got {K}$"):
            privacy.subsampled_accountant(K=K, q=0.01, sensitivity=0.0)
        with pytest.raises(ParameterError, match=f"^round count must be >= 0, got {K}$"):
            setting_curve("centralized", 8.0, K=K, L=1.0, gamma=1.0, n=100)

    @pytest.mark.parametrize("call, condition", [
        (lambda: federated_central_epsilon(2.0, 5, 1.0, 0.1, 8.0, 30, 100), "q < 1/5"),
        (lambda: federated_central_epsilon(2.0, 5, 1.0, 0.1, 3.9, 10, 100), "sigma >= 4"),
        (lambda: federated_central_epsilon(4096.0, 5, 1.0, 0.1, 4.0, 10, 100), "alpha <= ("),
        (lambda: network_rdp_epsilon(3.0, 1, 1.0, 1.0, 2.0 * math.sqrt(6.0), 10),
         "sigma > 2*L*gamma*sqrt(alpha*(alpha-1))"),
    ], ids=["q", "sigma", "cap", "network"])
    def test_per_order_formula_names_the_clause(self, call, condition):
        with pytest.raises(ConditionNotMet) as info:
            call()
        assert info.value.condition.startswith(condition)

    def test_federated_cap_message(self):
        with pytest.raises(ConditionNotMet,
                           match=r"^order 4096.0 exceeds the regime cap \S+ at q=0.1, sigma=4.0$"):
            federated_central_epsilon(4096.0, 5, 1.0, 0.1, 4.0, 10, 100)


def _check_floor(acct, sigma, skipped):
    """The DP calibration skips sigma exactly when expected, and a skipped sigma has no curve."""
    assert acct._below_floor(sigma) == skipped
    if skipped:
        with pytest.raises(ConditionNotMet) as info:
            acct.curve(sigma)
        assert info.value.condition == "no valid Rényi order"


GRIDS = st.sampled_from([DEFAULT_ALPHAS, BENCH_ALPHAS, (64.0, 2.0, 1.5, 700.0, 3.0),
                         (4096.0, 1.01, 33.3), (2.0,)])
SIGMAS = st.one_of(st.floats(1e-6, 4.0), st.floats(1e-6, 1e8))


class TestRegimeFloor:
    """Calibration skips exactly the sigmas below an accountant's floor, and none has a curve."""

    @given(K=st.integers(0, 5000), n=st.integers(2, 5000), fraction=st.floats(0.0, 1.0),
           L=st.floats(0.01, 2.0), gamma=st.floats(0.001, 2000.0), alphas=GRIDS, sigma=SIGMAS)
    def test_subsampling_floor(self, K, n, fraction, L, gamma, alphas, sigma):
        m = min(n, max(1, int(fraction * n)))
        acct = privacy.accountant("federated_central", K=K, L=L, gamma=gamma, n=n, m=m,
                                  alphas=alphas)
        # q >= 1/5 puts no order in regime at any sigma; zero rounds have no regime
        _check_floor(acct, sigma, K > 0 and (m / n >= 0.2 or sigma < 4.0))

    @given(K=st.integers(0, 5000), n=st.integers(2, 5000), sensitivity=st.floats(0.0, 20.0),
           alphas=GRIDS, sigma=SIGMAS)
    def test_subsampled_dpsgd_floor(self, K, n, sensitivity, alphas, sigma):
        acct = privacy.subsampled_accountant(K=K, q=1.0 / n, sensitivity=sensitivity,
                                             alphas=alphas)
        _check_floor(acct, sigma, 1.0 / n >= 0.2 or sigma < 4.0)

    @given(K=st.integers(0, 5000), n=st.integers(2, 5000), L=st.floats(0.01, 2.0),
           gamma=st.floats(0.001, 2000.0), alphas=GRIDS, fraction=st.floats(1e-6, 1.0))
    def test_network_floor(self, K, n, L, gamma, alphas, fraction):
        acct = privacy.accountant("network", K=K, L=L, gamma=gamma, n=n, alphas=alphas)
        low = min(alphas)
        threshold = 2.0 * L * gamma * math.sqrt(low * (low - 1.0))
        _check_floor(acct, fraction * threshold, True)
        _check_floor(acct, threshold, True)
        just_above = math.nextafter(threshold, math.inf)
        _check_floor(acct, just_above, False)
        assert acct.curve(just_above).alphas == (low,)
