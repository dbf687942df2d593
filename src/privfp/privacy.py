"""Rényi-DP accountant for the private consensus-splitting algorithms.

Closed-form per-order Rényi bounds for the centralized, federated (local
and central view), and random-walk decentralized settings, each composing
its rounds by multiplying a per-round bound by their count, plus the
generic building blocks: the Gaussian mechanism, conversion to
(epsilon, delta)-DP, sensitivity bounds for the splitting update,
amplification by subsampling (with its literal validity regime), and
noise calibration. Every function is pure. A per-order formula raises
ConditionNotMet naming the clause an out-of-regime order fails; a cell's
``Accountant`` checks its arguments once, skips such an order without
raising, and calibrates without evaluating the formula below the regime
floor (a default bench cell in ~0.3 ms on a 2-vCPU Xeon). Each per-order
formula is its setting's ``accountant`` at a one-order grid, so the
arguments of every formula pass the rules of ``errors`` in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from . import errors
from .errors import ConditionNotMet, ModelError, ParameterError, StructuralError

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
        errors.reals(self.alphas, "Rényi order", "> 1")
        errors.reals(self.epsilons, "epsilon value", ">= 0")


def rdp_to_dp(curve: RdpCurve, delta: float) -> float:
    """Best (epsilon, delta)-DP implied by the curve: min over alpha of eps + ln(1/delta)/(alpha-1)."""
    log_inv_delta = math.log(1.0 / errors.real(delta, "delta", "(0, 1)"))
    return min(e + log_inv_delta / (a - 1.0) for a, e in zip(curve.alphas, curve.epsilons))


# ---------------------------------------------------------------------------
# Elementary mechanisms and sensitivities


def _gaussian(alphas, count: int, sensitivity: float):
    errors.real(sensitivity, "sensitivity", "square >= 0")

    def orders(sigma: float, strict: bool = False) -> tuple[tuple, tuple]:
        return alphas, tuple(count * (a * sensitivity ** 2 / (2.0 * sigma ** 2)) for a in alphas)
    return Accountant(orders, alphas)


def gaussian_rdp(sensitivity: float, sigma: float, alpha: float) -> float:
    """Rényi DP of the Gaussian mechanism: alpha * Delta^2 / (2 sigma^2)."""
    return _gaussian((alpha,), 1, sensitivity).epsilon(sigma)


def sensitivity_consensus(L: float, gamma: float, lam: float, n: int) -> float:
    """One-step output displacement bound 4*lam*L*gamma/n of the consensus update."""
    errors.real(L, "Lipschitz constant L", "square > 0")
    errors.real(gamma, "prox step gamma", "square > 0")
    errors.real(L * gamma, "L*gamma", "square > 0")
    errors.count(n, "population n", 1)
    errors.real(lam, "step size", "(0, 1]")
    return 4.0 * lam * L * gamma / n


def sensitivity_general(L: float, gamma: float, lam: float, n: int,
                        A_norm: float, omega_A: float) -> float:
    """Displacement bound 4*lam*L*gamma*||A||_2 / (n * omega_A) for the matrix-constrained update."""
    if not errors.real(omega_A, "smallest singular value omega_A") > 0:
        raise ModelError("constraint matrix must be full rank (omega_A > 0)")
    errors.real(A_norm, "spectral norm", "> 0")
    return sensitivity_consensus(L, gamma, lam, n) * A_norm / omega_A


# ---------------------------------------------------------------------------
# Setting-specific epsilon formulas
#
# Each _<formula> returns an Accountant whose orders(sigma, strict) is the
# formula at the grid's in-regime orders; ``accountant`` has checked its
# arguments, and the Accountant checks the grid. A per-order formula is its
# setting's epsilon on a one-order grid, evaluated strictly, so a dropped order
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
    return accountant("centralized", K=K, L=L, gamma=gamma, n=n, alphas=(alpha,)).epsilon(sigma)


def subsampled_accountant(*, K: int, q: float, sensitivity: float,
                          alphas: tuple[float, ...] = DEFAULT_ALPHAS,
                          delta: float | None = None) -> Accountant:
    """K compositions of the q-subsampled Gaussian mechanism (record-level DP-SGD)."""
    errors.count(K, "round count", 0)
    errors.real(q, "sampling probability q", "(0, 1)")
    errors.real(sensitivity, "sensitivity", "square >= 0")

    def orders(sigma: float, strict: bool = False) -> tuple[tuple, tuple]:
        grid = _subsampling_orders(alphas, q, sigma, strict)
        return grid, tuple(K * (2.0 * a * q ** 2 * sensitivity ** 2 / sigma ** 2) for a in grid)
    return Accountant(orders, alphas, floor=4.0 if q < 0.2 else math.inf, delta=delta,
                      regime="subsampled", params=f"K={K},q={q:g}")


def subsampled_rdp(alpha: float, q: float, sensitivity: float, sigma: float) -> float:
    """Rényi DP of the q-subsampled Gaussian mechanism: 2*alpha*q^2*Delta^2/sigma^2.

    The closed form is an upper bound valid only in a restricted regime;
    each clause is checked literally and a violation raises ConditionNotMet
    naming it. Tighter numerically-integrated bounds are out of scope.
    """
    return subsampled_accountant(K=1, q=q, sensitivity=sensitivity, alphas=(alpha,)).epsilon(sigma)


def local_epsilon(alpha: float, K_i: int, L: float, gamma: float, sigma: float) -> float:
    """Per-user local Rényi DP over K_i participations: 8*alpha*K_i*L^2*gamma^2/sigma^2."""
    return accountant("local", K=0, K_i=errors.count(K_i, "participation count", 0),
                      L=L, gamma=gamma, n=1, alphas=(alpha,)).epsilon(sigma)


def _federated(alphas, K: int, L: float, gamma: float, m: int | None, n: int):
    errors.count(m, "cohort size", 1, ("n", n))
    if K == 0:  # no round released: zero at every order and no regime
        return _gaussian(alphas, K, 0.0)

    def orders(sigma: float, strict: bool = False) -> tuple[tuple, tuple]:
        grid = _subsampling_orders(alphas, m / n, sigma, strict)
        return grid, tuple(16.0 * a * K * L ** 2 * gamma ** 2 / (sigma ** 2 * n ** 2)
                           for a in grid)
    return Accountant(orders, alphas, floor=4.0 if m / n < 0.2 else math.inf)


def federated_central_epsilon(alpha: float, K: int, L: float, gamma: float,
                              sigma: float, m: int, n: int) -> float:
    """Central-view Rényi DP of K federated rounds with m-of-n user sampling.

    Value: 16*alpha*K*L^2*gamma^2/(sigma^2 n^2), i.e. twice the centralized
    bound; valid only in the subsampling regime with q = m/n.
    """
    return accountant("federated_central", K=K, L=L, gamma=gamma, n=n, m=m,
                      alphas=(alpha,)).epsilon(sigma)


def _network_threshold(alpha: float, L: float, gamma: float) -> float:
    return 2.0 * L * gamma * math.sqrt(alpha * (alpha - 1.0))


def _network(alphas, K_i: int, L: float, gamma: float, n: int):
    def orders(sigma: float, strict: bool = False) -> tuple[tuple, tuple]:
        kept = tuple(a for a in alphas if sigma > _network_threshold(a, L, gamma))
        if strict and not kept:
            threshold = _network_threshold(alphas[0], L, gamma)
            raise ConditionNotMet("sigma > 2*L*gamma*sqrt(alpha*(alpha-1))",
                                  f"noise std {sigma} does not strictly exceed {threshold:.6g}")
        if K_i == 0:
            return kept, (0.0,) * len(kept)
        return kept, tuple(8.0 * a * K_i * L ** 2 * gamma ** 2 * math.log(n) / (sigma ** 2 * n)
                           for a in kept)
    cell = Accountant(orders, alphas, strict_floor=True)  # checks the grid that min reads
    return replace(cell, floor=_network_threshold(min(alphas), L, gamma))


def network_rdp_epsilon(alpha: float, K_i: int, L: float, gamma: float,
                        sigma: float, n: int) -> float:
    """Per-user Rényi DP against other users' random-walk views.

    Value: 8*alpha*K_i*L^2*gamma^2*ln(n)/(sigma^2 n). Requires the strict
    noise condition sigma > 2*L*gamma*sqrt(alpha*(alpha-1)) (from the weak
    convexity step) and n >= 2.
    """
    return accountant("network", K=0, K_i=errors.count(K_i, "participation count", 0),
                      L=L, gamma=gamma, n=n, alphas=(alpha,)).epsilon(sigma)


def estimated_participations(K: int, n: int) -> int:
    """ceil(K/n): upper estimate of per-user participations in a K-step uniform walk."""
    return -(-errors.count(K, "round count", 0) // errors.count(n, "population n", 1))


# ---------------------------------------------------------------------------
# One accountant per cell, and calibration

SETTINGS = ("centralized", "federated_central", "local", "network")


_LARGE_SIGMA = 1e8
# Relative width at which noise calibration stops bisecting.
SIGMA_REL_TOL = 1e-3


@dataclass(frozen=True)
class Accountant:
    """A cell's sigma -> epsilon map, built once by ``accountant`` or ``subsampled_accountant``:
    ``orders(sigma, strict)`` is its formula at the grid's in-regime orders, and no order
    is in regime at sigma < ``floor`` (nor at ``floor`` if ``strict_floor``). A ``delta``
    of None makes the target Rényi, at a one-order grid."""

    orders: Callable[[float, bool], tuple[tuple, tuple]]
    alphas: tuple[float, ...]
    floor: float = 0.0
    strict_floor: bool = False
    delta: float | None = None
    regime: str = ""
    params: str = ""  # a curve's provenance is regime(params,sigma=...)

    def __post_init__(self):
        if len(self.alphas) == 0:
            raise StructuralError("empty alpha grid")
        errors.reals(self.alphas, "Rényi order", "> 1")
        if self.delta is not None:
            errors.real(self.delta, "delta", "(0, 1)")

    def curve(self, sigma: float) -> RdpCurve:
        """The formula over the grid in one pass, keeping only in-regime orders."""
        errors.real(sigma, "noise std sigma", "accountable")
        alphas, epsilons = self.orders(sigma, False)
        if not alphas:
            raise ConditionNotMet("no valid Rényi order", f"no grid order satisfies the "
                                  f"{self.regime} regime at sigma={sigma:g}")
        return RdpCurve(tuple(alphas), epsilons, f"{self.regime}({self.params},sigma={sigma:g})")

    def epsilon(self, sigma: float) -> float:
        """The DP epsilon at delta; with delta None, the formula at the one order."""
        if self.delta is not None:
            return rdp_to_dp(self.curve(sigma), self.delta)
        if len(self.alphas) != 1:
            raise StructuralError(f"a Rényi target needs one order, got {len(self.alphas)}")
        errors.real(sigma, "noise std sigma", "accountable")
        return self.orders(sigma, True)[1][0]

    def _below_floor(self, sigma: float) -> bool:
        return sigma <= self.floor if self.strict_floor else sigma < self.floor

    def calibrate(self, epsilon: float) -> float:
        """Smallest noise std meeting the budget, within ``SIGMA_REL_TOL``, or ConditionNotMet;
        a NaN or infinite budget is a ParameterError, one <= 0 out of regime."""
        if errors.real(epsilon, "privacy budget epsilon", "budget") <= 0:
            raise ConditionNotMet("epsilon > 0", "privacy budget must be strictly positive")
        if self.delta is not None:  # a sigma below the floor fails without evaluating the formula
            return bisect_sigma(lambda sig: math.inf if self._below_floor(sig) else
                                self.epsilon(sig), epsilon, 1e-6)
        # All formulas scale as 1/sigma^2: invert exactly, then honor the regime floor.
        base = self.epsilon(_LARGE_SIGMA)
        floor = self.floor * (1 + 1e-12) if self.strict_floor else self.floor
        if base > 0:
            sigma = max(_LARGE_SIGMA * math.sqrt(base / epsilon) * (1.0 + 1e-12), floor)
        else:
            sigma = floor if floor > 0 else 1e-6
        if not sigma * sigma < math.inf:  # the formula overflowed, or no accountable sigma is enough
            raise ConditionNotMet("feasible sigma", "no noise level meets the target in regime")
        # returned as is when it meets the target, even below bisection's 1e-6 start
        return bisect_sigma(self.epsilon, epsilon, sigma)


def accountant(setting: str, *, K: int, L: float, gamma: float, n: int,
               m: int | None = None, K_i: int | None = None,
               alphas: tuple[float, ...] = DEFAULT_ALPHAS,
               delta: float | None = None) -> Accountant:
    """A setting's accountant; K_i defaults to K (local) or ceil(K/n) (network).
    Every per-order formula is one at a one-order grid, so its arguments are checked here."""
    if setting not in SETTINGS:
        raise ParameterError(f"unknown setting {setting!r}; expected one of {SETTINGS}")
    errors.count(K, "round count", 0)
    errors.count(n, "population n", 2 if setting == "network" else 1)
    local = sensitivity_consensus(L, gamma, 1.0, 1)  # checks L, gamma and L*gamma
    if setting == "centralized":
        cell = _gaussian(alphas, K, sensitivity_consensus(L, gamma, 1.0, n))
    elif setting == "federated_central":
        cell = _federated(alphas, K, L, gamma, m, n)
    elif setting == "local":
        cell = _gaussian(alphas, errors.count(K if K_i is None else K_i, "participation count", 0),
                         local)
    else:
        cell = _network(alphas, errors.count(estimated_participations(K, n) if K_i is None
                                             else K_i, "participation count", 0), L, gamma, n)
    return replace(cell, delta=delta, regime=setting, params=f"K={K}")


def setting_curve(setting: str, sigma: float, *, K: int, L: float, gamma: float,
                  n: int, m: int | None = None, K_i: int | None = None,
                  alphas: tuple[float, ...] = DEFAULT_ALPHAS) -> RdpCurve:
    """A setting's formula over the grid in one pass, keeping only in-regime orders."""
    return accountant(setting, K=K, L=L, gamma=gamma, n=n, m=m, K_i=K_i, alphas=alphas).curve(sigma)


def calibrate_sigma(setting: str, *, epsilon: float, delta: float | None = None,
                    alpha: float | None = None, K: int, L: float, gamma: float,
                    n: int, m: int | None = None, K_i: int | None = None,
                    alphas: tuple[float, ...] = DEFAULT_ALPHAS) -> float:
    """Smallest noise std meeting an ``(epsilon, delta)`` target over the grid, or an
    ``(alpha, epsilon)`` target at the one Rényi order alpha (``Accountant.calibrate``)."""
    if (delta is None) == (alpha is None):
        raise ParameterError("specify exactly one of delta (DP target) or alpha (Rényi target)")
    return accountant(setting, K=K, L=L, gamma=gamma, n=n, m=m, K_i=K_i, delta=delta,
                      alphas=alphas if alpha is None else (alpha,)).calibrate(epsilon)


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
