"""Rényi-DP accountant for the private consensus-splitting algorithms.

Closed-form per-order Rényi bounds for the centralized, federated (local
and central view), and random-walk decentralized settings, each composing
its rounds by multiplying a per-round bound by their count, plus the
generic building blocks: the Gaussian mechanism, conversion to
(epsilon, delta)-DP, sensitivity bounds for the splitting update,
amplification by subsampling (with its literal validity regime), and
noise calibration. Every function is pure; out-of-regime inputs raise
ConditionNotMet naming the failing clause, never silently fall back. The
four formulas share one rule for L and gamma (both > 0) and calibration
one rule for the budget (a NaN budget is a ParameterError).
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
        if len(self.alphas) == 0:
            raise StructuralError("empty alpha grid")
        for a in self.alphas:
            if not a > 1:
                raise ParameterError(f"Rényi orders must be > 1, got {a}")
        for e in self.epsilons:
            if not e >= 0:
                raise ParameterError(f"epsilon values must be >= 0, got {e}")


def rdp_to_dp(curve: RdpCurve, delta: float) -> float:
    """Best (epsilon, delta)-DP implied by the curve: min over alpha of eps + ln(1/delta)/(alpha-1)."""
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must lie in (0, 1), got {delta}")
    return min(e + math.log(1.0 / delta) / (a - 1.0)
               for a, e in zip(curve.alphas, curve.epsilons))


# ---------------------------------------------------------------------------
# Elementary mechanisms and sensitivities


def _check_sigma(sigma: float):
    check_sigma(sigma)
    if sigma == 0.0:
        raise ParameterError(f"noise std sigma must be > 0 to be accounted, got {sigma}")


def gaussian_rdp(sensitivity: float, sigma: float, alpha: float) -> float:
    """Rényi DP of the Gaussian mechanism: alpha * Delta^2 / (2 sigma^2)."""
    _check_sigma(sigma)
    if not alpha > 1:
        raise ParameterError(f"Rényi order must be > 1, got {alpha}")
    if not sensitivity >= 0:
        raise ParameterError(f"sensitivity must be >= 0, got {sensitivity}")
    return alpha * sensitivity ** 2 / (2.0 * sigma ** 2)


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


def centralized_epsilon(alpha: float, K: int, L: float, gamma: float,
                        sigma: float, n: int) -> float:
    """Record-level Rényi DP of K centralized rounds: 8*alpha*K*L^2*gamma^2/(sigma^2 n^2)."""
    if K < 0:
        raise ParameterError(f"round count must be >= 0, got {K}")
    _check_sigma(sigma)
    return K * gaussian_rdp(sensitivity_consensus(L, gamma, 1.0, n), sigma, alpha)


def subsampled_rdp(alpha: float, q: float, sensitivity: float, sigma: float) -> float:
    """Rényi DP of the q-subsampled Gaussian mechanism: 2*alpha*q^2*Delta^2/sigma^2.

    The closed form is an upper bound valid only in a restricted regime;
    each clause is checked literally and a violation raises ConditionNotMet
    naming it. Tighter numerically-integrated bounds are out of scope.
    """
    if not alpha > 1:
        raise ParameterError(f"Rényi order must be > 1, got {alpha}")
    if not 0.0 < q < 1.0:
        raise ParameterError(f"sampling probability must lie in (0, 1), got {q}")
    _check_sigma(sigma)
    if not sensitivity >= 0:
        raise ParameterError(f"sensitivity must be >= 0, got {sensitivity}")
    _check_subsampling_regime(alpha, q, sigma)
    return 2.0 * alpha * q ** 2 * sensitivity ** 2 / sigma ** 2


def _check_subsampling_regime(alpha: float, q: float, sigma: float):
    if not q < 0.2:
        raise ConditionNotMet("q < 1/5", f"sampling probability {q} is not below 1/5")
    if not sigma >= 4.0:
        raise ConditionNotMet("sigma >= 4", f"noise std {sigma} is below 4")
    M = math.log(1.0 + 1.0 / (q * (alpha - 1.0)))
    alpha_cap = (M ** 2 * sigma ** 2 / 2.0 - math.log(5.0 * sigma ** 2)) \
        / (M + math.log(q * alpha) + 1.0 / (2.0 * sigma ** 2))
    if not alpha <= alpha_cap:
        raise ConditionNotMet(
            "alpha <= (M^2 sigma^2/2 - log(5 sigma^2)) / (M + log(q alpha) + 1/(2 sigma^2))",
            f"order {alpha} exceeds the regime cap {alpha_cap:.4g} at q={q}, sigma={sigma}")


def local_epsilon(alpha: float, K_i: int, L: float, gamma: float, sigma: float) -> float:
    """Per-user local Rényi DP over K_i participations: 8*alpha*K_i*L^2*gamma^2/sigma^2."""
    if K_i < 0:
        raise ParameterError(f"participation count must be >= 0, got {K_i}")
    _check_sigma(sigma)
    return K_i * gaussian_rdp(sensitivity_consensus(L, gamma, 1.0, 1), sigma, alpha)


def federated_central_epsilon(alpha: float, K: int, L: float, gamma: float,
                              sigma: float, m: int, n: int) -> float:
    """Central-view Rényi DP of K federated rounds with m-of-n user sampling.

    Value: 16*alpha*K*L^2*gamma^2/(sigma^2 n^2), i.e. twice the centralized
    bound; valid only in the subsampling regime with q = m/n.
    """
    _check_lipschitz_step(L, gamma)
    if m < 1 or n < 1 or m > n:
        raise ParameterError(f"need 1 <= m <= n, got m={m}, n={n}")
    if K < 0:
        raise ParameterError(f"round count must be >= 0, got {K}")
    _check_sigma(sigma)
    if not alpha > 1:
        raise ParameterError(f"Rényi order must be > 1, got {alpha}")
    if K == 0:
        return 0.0
    _check_subsampling_regime(alpha, m / n, sigma)
    return 16.0 * alpha * K * L ** 2 * gamma ** 2 / (sigma ** 2 * n ** 2)


def network_rdp_epsilon(alpha: float, K_i: int, L: float, gamma: float,
                        sigma: float, n: int) -> float:
    """Per-user Rényi DP against other users' random-walk views.

    Value: 8*alpha*K_i*L^2*gamma^2*ln(n)/(sigma^2 n). Requires the strict
    noise condition sigma > 2*L*gamma*sqrt(alpha*(alpha-1)) (from the weak
    convexity step) and n >= 2.
    """
    if not alpha > 1:
        raise ParameterError(f"Rényi order must be > 1, got {alpha}")
    _check_lipschitz_step(L, gamma)
    if n < 2:
        raise ParameterError(f"walk needs n >= 2 users, got {n}")
    if K_i < 0:
        raise ParameterError(f"participation count must be >= 0, got {K_i}")
    _check_sigma(sigma)
    threshold = 2.0 * L * gamma * math.sqrt(alpha * (alpha - 1.0))
    if not sigma > threshold:
        raise ConditionNotMet(
            "sigma > 2*L*gamma*sqrt(alpha*(alpha-1))",
            f"noise std {sigma} does not strictly exceed {threshold:.6g}")
    if K_i == 0:
        return 0.0
    return 8.0 * alpha * K_i * L ** 2 * gamma ** 2 * math.log(n) / (sigma ** 2 * n)


def estimated_participations(K: int, n: int) -> int:
    """ceil(K/n): upper estimate of per-user participations in a K-step uniform walk."""
    if K < 0 or n < 1:
        raise ParameterError("need K >= 0 and n >= 1")
    return -(-K // n)


# ---------------------------------------------------------------------------
# Curves per setting and calibration

SETTINGS = ("centralized", "federated_central", "local", "network")


def setting_epsilon(setting: str, alpha: float, sigma: float, *, K: int,
                    L: float, gamma: float, n: int, m: int | None = None,
                    K_i: int | None = None) -> float:
    """Dispatch to the per-setting formula (K_i defaults to ceil(K/n) where needed)."""
    if setting == "centralized":
        return centralized_epsilon(alpha, K, L, gamma, sigma, n)
    if setting == "federated_central":
        if m is None:
            raise ParameterError("federated accounting needs the cohort size m")
        return federated_central_epsilon(alpha, K, L, gamma, sigma, m, n)
    if setting == "local":
        return local_epsilon(alpha, K_i if K_i is not None else K, L, gamma, sigma)
    if setting == "network":
        return network_rdp_epsilon(
            alpha, K_i if K_i is not None else estimated_participations(K, n),
            L, gamma, sigma, n)
    raise ParameterError(f"unknown setting {setting!r}; expected one of {SETTINGS}")


def setting_curve(setting: str, sigma: float, *, K: int, L: float, gamma: float,
                  n: int, m: int | None = None, K_i: int | None = None,
                  alphas: tuple[float, ...] = DEFAULT_ALPHAS) -> RdpCurve:
    """Evaluate a setting's formula over the grid, keeping only in-regime orders."""
    return grid_curve(
        lambda a: setting_epsilon(setting, a, sigma, K=K, L=L, gamma=gamma, n=n, m=m, K_i=K_i),
        alphas, f"no grid order satisfies the {setting} regime at sigma={sigma:g}",
        provenance=f"{setting}(K={K},sigma={sigma:g})")


def grid_curve(epsilon_at: Callable[[float], float], alphas: tuple[float, ...],
               empty_message: str, provenance: str) -> RdpCurve:
    """epsilon_at(alpha) over the grid, dropping orders where it raises ConditionNotMet."""
    grid, eps = [], []
    for a in alphas:
        try:
            eps.append(epsilon_at(a))
            grid.append(a)
        except ConditionNotMet:
            continue
    if not grid:
        raise ConditionNotMet("no valid Rényi order", empty_message)
    return RdpCurve(tuple(grid), tuple(eps), provenance=provenance)


def check_budget(epsilon: float):
    """The one budget rule of noise calibration: a NaN budget is a ParameterError,
    one <= 0 is out of regime (ConditionNotMet)."""
    if math.isnan(epsilon):
        raise ParameterError(f"privacy budget epsilon must be a number, got {epsilon}")
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

    def account(sig: float) -> float:
        if delta is None:
            return setting_epsilon(setting, alpha, sig, K=K, L=L, gamma=gamma,
                                   n=n, m=m, K_i=K_i)
        curve = setting_curve(setting, sig, K=K, L=L, gamma=gamma, n=n, m=m,
                              K_i=K_i, alphas=alphas)
        return rdp_to_dp(curve, delta)

    if delta is None:
        # All formulas scale as 1/sigma^2: invert exactly, then honor regime floors.
        base = setting_epsilon(setting, alpha, _LARGE_SIGMA, K=K, L=L, gamma=gamma,
                               n=n, m=m, K_i=K_i)
        floor = _regime_floor(setting, L, gamma, alpha)
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


def _regime_floor(setting: str, L: float, gamma: float, alpha: float | None) -> float:
    if setting == "federated_central":
        return 4.0
    if setting == "network" and alpha is not None:
        return 2.0 * L * gamma * math.sqrt(alpha * (alpha - 1.0)) * (1 + 1e-12)
    return 0.0


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
