"""Rényi-DP accountant for the private consensus-splitting algorithms.

Closed-form per-order Rényi bounds for the centralized, federated (local
and central view), and random-walk decentralized settings, each composing
its rounds by multiplying a per-round bound by their count, plus the
generic building blocks: the Gaussian mechanism, conversion to
(epsilon, delta)-DP, sensitivity bounds for the splitting update,
amplification by subsampling (with its literal validity regime), and
noise calibration. Every function is pure. A per-order formula raises
ConditionNotMet naming the clause an out-of-regime order fails; a curve
checks its arguments once and skips such an order without raising (a
default bench cell calibrates in ~0.6 ms on a 2-vCPU Xeon). The formulas
share one rule for L and gamma (both > 0); calibration has one for the
budget (NaN is a ParameterError) and one for delta (it lies in (0, 1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import ConditionNotMet, ParameterError, StructuralError
from .rng import check_sigma

# Default Rényi order grid; callers may extend it (conversion minimizes over it).
DEFAULT_ALPHAS: tuple[float, ...] = (1.5, 2.0, 3.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


@dataclass(frozen=True)
class RdpCurve:
    """epsilon(alpha) on a finite grid of Rényi orders, with a provenance tag."""

    alphas: tuple[float, ...]
    epsilons: tuple[float, ...]
    provenance: str = ""

    def __post_init__(self):
        if len(self.alphas) != len(self.epsilons):
            raise StructuralError("alpha grid and epsilon values differ in length")
        _check_orders(self.alphas)
        for e in self.epsilons:
            if not e >= 0:
                raise ParameterError(f"epsilon values must be >= 0, got {e}")


def check_delta(delta: float):
    """The one rule for delta: it lies in (0, 1), so a NaN fails too."""
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must lie in (0, 1), got {delta}")


def rdp_to_dp(curve: RdpCurve, delta: float) -> float:
    """Best (epsilon, delta)-DP implied by the curve: min over alpha of eps + ln(1/delta)/(alpha-1)."""
    check_delta(delta)
    log_inv_delta = math.log(1.0 / delta)
    return min(e + log_inv_delta / (a - 1.0) for a, e in zip(curve.alphas, curve.epsilons))


# ---------------------------------------------------------------------------
# Elementary mechanisms and sensitivities


def _check_sigma(sigma: float):
    check_sigma(sigma)
    if sigma == 0.0:
        raise ParameterError(f"noise std sigma must be > 0 to be accounted, got {sigma}")


def _check_orders(alphas: tuple[float, ...]):
    if len(alphas) == 0:
        raise StructuralError("empty alpha grid")
    for a in alphas:
        if not a > 1:
            raise ParameterError(f"Rényi order must be > 1, got {a}")


def _gaussian_orders(alphas, count: int, what: str, sensitivity: float,
                     sigma: float) -> tuple[tuple, tuple]:
    if count < 0:
        raise ParameterError(f"{what} count must be >= 0, got {count}")
    _check_sigma(sigma)
    _check_orders(alphas)
    if not sensitivity >= 0:
        raise ParameterError(f"sensitivity must be >= 0, got {sensitivity}")
    return tuple(alphas), tuple(count * (a * sensitivity ** 2 / (2.0 * sigma ** 2)) for a in alphas)


def gaussian_rdp(sensitivity: float, sigma: float, alpha: float) -> float:
    """Rényi DP of the Gaussian mechanism: alpha * Delta^2 / (2 sigma^2)."""
    return _gaussian_orders((alpha,), 1, "release", sensitivity, sigma)[1][0]


def _check_lipschitz_step(L: float, gamma: float):
    """The rule of every formula for L and gamma: both > 0 (so not NaN)."""
    if not L > 0:
        raise ParameterError(f"Lipschitz constant L must be > 0, got {L}")
    if not gamma > 0:
        raise ParameterError(f"prox step gamma must be > 0, got {gamma}")


def sensitivity_consensus(L: float, gamma: float, lam: float, n: int) -> float:
    """One-step output displacement bound 4*lam*L*gamma/n of the consensus update."""
    _check_lipschitz_step(L, gamma)
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    if not 0.0 < lam <= 1.0:
        raise ParameterError(f"step size must lie in (0, 1], got {lam}")
    return 4.0 * lam * L * gamma / n


def sensitivity_general(L: float, gamma: float, lam: float, n: int,
                        A_norm: float, omega_A: float) -> float:
    """Displacement bound 4*lam*L*gamma*||A||_2 / (n * omega_A) for the matrix-constrained update."""
    if omega_A <= 0:
        raise ParameterError("constraint matrix must be full rank (omega_A > 0)")
    if A_norm <= 0:
        raise ParameterError(f"spectral norm must be > 0, got {A_norm}")
    return sensitivity_consensus(L, gamma, lam, n) * A_norm / omega_A


# ---------------------------------------------------------------------------
# Setting-specific epsilon formulas
#
# Each _*_orders checks its arguments (the whole grid included) once and
# returns (orders, epsilons) at the grid's in-regime orders. A per-order
# formula calls it with strict=True on a one-order grid, so a dropped order
# raises ConditionNotMet naming the clause it fails.


def _subsampling_orders(alphas, q: float, sigma: float, strict: bool) -> tuple[float, ...]:
    if not q < 0.2:
        if strict:
            raise ConditionNotMet("q < 1/5", f"sampling probability {q} is not below 1/5")
        return ()
    if not sigma >= 4.0:
        if strict:
            raise ConditionNotMet("sigma >= 4", f"noise std {sigma} is below 4")
        return ()
    kept = []
    for a in alphas:
        M = math.log(1.0 + 1.0 / (q * (a - 1.0)))
        alpha_cap = (M ** 2 * sigma ** 2 / 2.0 - math.log(5.0 * sigma ** 2)) \
            / (M + math.log(q * a) + 1.0 / (2.0 * sigma ** 2))
        if a <= alpha_cap:
            kept.append(a)
        elif strict:
            raise ConditionNotMet(
                "alpha <= (M^2 sigma^2/2 - log(5 sigma^2)) / (M + log(q alpha) + 1/(2 sigma^2))",
                f"order {a} exceeds the regime cap {alpha_cap:.4g} at q={q}, sigma={sigma}")
    return tuple(kept)


def centralized_epsilon(alpha: float, K: int, L: float, gamma: float,
                        sigma: float, n: int) -> float:
    """Record-level Rényi DP of K centralized rounds: 8*alpha*K*L^2*gamma^2/(sigma^2 n^2)."""
    return _gaussian_orders((alpha,), K, "round", sensitivity_consensus(L, gamma, 1.0, n),
                            sigma)[1][0]


def _subsampled_orders(alphas, q: float, sensitivity: float, sigma: float, strict: bool,
                       K: int = 1) -> tuple[tuple, tuple]:
    _check_orders(alphas)
    if not 0.0 < q < 1.0:
        raise ParameterError(f"sampling probability must lie in (0, 1), got {q}")
    _check_sigma(sigma)
    if not sensitivity >= 0:
        raise ParameterError(f"sensitivity must be >= 0, got {sensitivity}")
    grid = _subsampling_orders(alphas, q, sigma, strict)
    return grid, tuple(K * (2.0 * a * q ** 2 * sensitivity ** 2 / sigma ** 2) for a in grid)


def subsampled_rdp(alpha: float, q: float, sensitivity: float, sigma: float) -> float:
    """Rényi DP of the q-subsampled Gaussian mechanism: 2*alpha*q^2*Delta^2/sigma^2.

    The closed form is an upper bound valid only in a restricted regime;
    each clause is checked literally and a violation raises ConditionNotMet
    naming it. Tighter numerically-integrated bounds are out of scope.
    """
    return _subsampled_orders((alpha,), q, sensitivity, sigma, strict=True)[1][0]


def local_epsilon(alpha: float, K_i: int, L: float, gamma: float, sigma: float) -> float:
    """Per-user local Rényi DP over K_i participations: 8*alpha*K_i*L^2*gamma^2/sigma^2."""
    return _gaussian_orders((alpha,), K_i, "participation",
                            sensitivity_consensus(L, gamma, 1.0, 1), sigma)[1][0]


def _federated_orders(alphas, K: int, L: float, gamma: float, sigma: float, m: int, n: int,
                      strict: bool) -> tuple[tuple, tuple]:
    _check_lipschitz_step(L, gamma)
    if m < 1 or n < 1 or m > n:
        raise ParameterError(f"need 1 <= m <= n, got m={m}, n={n}")
    if K < 0:
        raise ParameterError(f"round count must be >= 0, got {K}")
    _check_sigma(sigma)
    _check_orders(alphas)
    if K == 0:
        return tuple(alphas), (0.0,) * len(alphas)
    grid = _subsampling_orders(alphas, m / n, sigma, strict)
    return grid, tuple(16.0 * a * K * L ** 2 * gamma ** 2 / (sigma ** 2 * n ** 2) for a in grid)


def federated_central_epsilon(alpha: float, K: int, L: float, gamma: float,
                              sigma: float, m: int, n: int) -> float:
    """Central-view Rényi DP of K federated rounds with m-of-n user sampling.

    Value: 16*alpha*K*L^2*gamma^2/(sigma^2 n^2), i.e. twice the centralized
    bound; valid only in the subsampling regime with q = m/n.
    """
    return _federated_orders((alpha,), K, L, gamma, sigma, m, n, strict=True)[1][0]


def _network_threshold(alpha: float, L: float, gamma: float) -> float:
    return 2.0 * L * gamma * math.sqrt(alpha * (alpha - 1.0))


def _network_orders(alphas, K_i: int, L: float, gamma: float, sigma: float, n: int,
                    strict: bool) -> tuple[tuple, tuple]:
    _check_orders(alphas)
    _check_lipschitz_step(L, gamma)
    if n < 2:
        raise ParameterError(f"walk needs n >= 2 users, got {n}")
    if K_i < 0:
        raise ParameterError(f"participation count must be >= 0, got {K_i}")
    _check_sigma(sigma)
    kept = [a for a in alphas if sigma > _network_threshold(a, L, gamma)]
    if strict and not kept:
        threshold = _network_threshold(alphas[0], L, gamma)
        raise ConditionNotMet("sigma > 2*L*gamma*sqrt(alpha*(alpha-1))",
                              f"noise std {sigma} does not strictly exceed {threshold:.6g}")
    if K_i == 0:
        return tuple(kept), (0.0,) * len(kept)
    return tuple(kept), tuple(8.0 * a * K_i * L ** 2 * gamma ** 2 * math.log(n) / (sigma ** 2 * n)
                              for a in kept)


def network_rdp_epsilon(alpha: float, K_i: int, L: float, gamma: float,
                        sigma: float, n: int) -> float:
    """Per-user Rényi DP against other users' random-walk views.

    Value: 8*alpha*K_i*L^2*gamma^2*ln(n)/(sigma^2 n). Requires the strict
    noise condition sigma > 2*L*gamma*sqrt(alpha*(alpha-1)) (from the weak
    convexity step) and n >= 2.
    """
    return _network_orders((alpha,), K_i, L, gamma, sigma, n, strict=True)[1][0]


def estimated_participations(K: int, n: int) -> int:
    """ceil(K/n): upper estimate of per-user participations in a K-step uniform walk."""
    if K < 0 or n < 1:
        raise ParameterError("need K >= 0 and n >= 1")
    return -(-K // n)


# ---------------------------------------------------------------------------
# Curves per setting and calibration

SETTINGS = ("centralized", "federated_central", "local", "network")


def _setting_orders(setting: str, sigma: float, alphas, strict: bool, K: int, L: float,
                    gamma: float, n: int, m: int | None, K_i: int | None) -> tuple[tuple, tuple]:
    """The per-setting formula over the grid (K_i defaults to ceil(K/n) where needed)."""
    if setting == "centralized":
        return _gaussian_orders(alphas, K, "round", sensitivity_consensus(L, gamma, 1.0, n),
                                sigma)
    if setting == "federated_central":
        if m is None:
            raise ParameterError("federated accounting needs the cohort size m")
        return _federated_orders(alphas, K, L, gamma, sigma, m, n, strict)
    if setting == "local":
        return _gaussian_orders(alphas, K_i if K_i is not None else K, "participation",
                                sensitivity_consensus(L, gamma, 1.0, 1), sigma)
    if setting == "network":
        return _network_orders(alphas, K_i if K_i is not None else estimated_participations(K, n),
                               L, gamma, sigma, n, strict)
    raise ParameterError(f"unknown setting {setting!r}; expected one of {SETTINGS}")


def _kept_curve(orders: tuple[tuple, tuple], regime: str, sigma: float,
                provenance: str) -> RdpCurve:
    if not orders[0]:
        raise ConditionNotMet("no valid Rényi order",
                              f"no grid order satisfies the {regime} regime at sigma={sigma:g}")
    return RdpCurve(*orders, provenance=provenance)


def setting_curve(setting: str, sigma: float, *, K: int, L: float, gamma: float,
                  n: int, m: int | None = None, K_i: int | None = None,
                  alphas: tuple[float, ...] = DEFAULT_ALPHAS) -> RdpCurve:
    """A setting's formula over the grid in one pass, keeping only in-regime orders."""
    return _kept_curve(_setting_orders(setting, sigma, alphas, False, K, L, gamma, n, m, K_i),
                       setting, sigma, f"{setting}(K={K},sigma={sigma:g})")


def subsampled_curve(sigma: float, *, K: int, q: float, sensitivity: float,
                     alphas: tuple[float, ...] = DEFAULT_ALPHAS) -> RdpCurve:
    """K compositions of the q-subsampled Gaussian mechanism over the grid, in one pass."""
    return _kept_curve(_subsampled_orders(alphas, q, sensitivity, sigma, False, K),
                       "subsampled", sigma, f"subsampled(K={K},q={q:g},sigma={sigma:g})")


def check_budget(epsilon: float):
    """The one budget rule of noise calibration: a NaN or infinite budget is a
    ParameterError, one <= 0 is out of regime (ConditionNotMet)."""
    if math.isnan(epsilon):
        raise ParameterError(f"privacy budget epsilon must be a number, got {epsilon}")
    if epsilon == math.inf:
        raise ParameterError(f"privacy budget epsilon must be finite, got {epsilon}")
    if epsilon <= 0:
        raise ConditionNotMet("epsilon > 0", "privacy budget must be strictly positive")


_LARGE_SIGMA = 1e8
# Relative width at which noise calibration stops bisecting.
SIGMA_REL_TOL = 1e-3


def calibrate_sigma(setting: str, *, epsilon: float, delta: float | None = None,
                    alpha: float | None = None, K: int, L: float, gamma: float,
                    n: int, m: int | None = None, K_i: int | None = None,
                    alphas: tuple[float, ...] = DEFAULT_ALPHAS) -> float:
    """Smallest noise std meeting a privacy target, within ``SIGMA_REL_TOL``.

    Two target forms: ``(alpha, epsilon)`` fixes a single Rényi order and
    inverts the formula in closed form (then bumps sigma up to the regime
    boundary if needed); ``(epsilon, delta)`` bisects sigma so the
    grid-converted DP epsilon meets the budget. The returned sigma always
    satisfies account(sigma) <= target; infeasible targets raise
    ConditionNotMet.
    """
    check_budget(epsilon)
    if (delta is None) == (alpha is None):
        raise ParameterError("specify exactly one of delta (DP target) or alpha (Rényi target)")
    if delta is not None:
        check_delta(delta)

    def account(sig: float) -> float:
        if delta is None:  # the formula at one order, raising the clause it fails
            return _setting_orders(setting, sig, (alpha,), True, K, L, gamma, n, m, K_i)[1][0]
        curve = setting_curve(setting, sig, K=K, L=L, gamma=gamma, n=n, m=m,
                              K_i=K_i, alphas=alphas)
        return rdp_to_dp(curve, delta)

    if delta is None:
        # All formulas scale as 1/sigma^2: invert exactly, then honor regime floors.
        base = account(_LARGE_SIGMA)
        floor = 4.0 if setting == "federated_central" else \
            _network_threshold(alpha, L, gamma) * (1 + 1e-12) if setting == "network" else 0.0
        if base > 0:
            sigma = max(_LARGE_SIGMA * math.sqrt(base / epsilon) * (1.0 + 1e-12), floor)
        else:
            sigma = floor if floor > 0 else 1e-6
        try:
            if account(sigma) <= epsilon:
                return sigma
        except ConditionNotMet:
            pass
        # The closed-form inverse landed out of regime; grow sigma until valid.
        return bisect_sigma(account, epsilon, max(sigma, 1e-6))

    return bisect_sigma(account, epsilon, 1e-6)


def bisect_sigma(account: Callable[[float], float], epsilon: float, lo: float) -> float:
    """Smallest noise std >= lo, within ``SIGMA_REL_TOL``, with account(sigma) <= epsilon.

    An account raising ConditionNotMet fails the target; raises ConditionNotMet
    when 200 doublings of the upper end from max(lo, 1e-6) meet no target.
    """
    def ok(sig):
        try:
            return account(sig) <= epsilon
        except ConditionNotMet:
            return False

    hi = max(lo, 1e-6)
    for _ in range(200):
        if ok(hi):
            break
        hi *= 2.0
    else:
        raise ConditionNotMet("feasible sigma", "no noise level meets the target in regime")
    if ok(lo):
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo <= SIGMA_REL_TOL * hi:
            break
    return hi
