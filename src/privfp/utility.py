"""Mean-square error bounds for the noisy block-coordinate iteration.

Evaluates the linear-convergence-plus-noise-floor bound for contractive
operators. All quantities are derived from the contraction factor tau,
the block activation probability q, and the combined noise scale
(sigma * sqrt(p) + zeta) / sqrt(q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import errors
from .errors import ConditionNotMet


@dataclass(frozen=True)
class UtilityParams:
    """Inputs of the error bound.

    tau: contraction factor of the operator, in [0, 1).
    q: per-block activation probability, in (0, 1].
    sigma: privacy noise std (>= 0).
    zeta: bound on the root mean-square operator error (>= 0).
    p: block dimension.
    D: initial squared distance to the fixed point.
    k: iteration count.
    """

    tau: float
    q: float
    sigma: float
    zeta: float = 0.0
    p: int = 1
    D: float = 1.0
    k: int = 0

    def __post_init__(self):
        errors.real(self.tau, "contraction factor tau", "[0, 1)")
        errors.real(self.q, "activation probability q", "(0, 1]")
        errors.real(self.sigma, "noise std sigma", "square >= 0")
        errors.real(self.zeta, "operator error zeta", "square >= 0")
        errors.real(self.D, "initial distance D", ">= 0")
        errors.count(self.p, "block dimension p", 1)
        errors.count(self.k, "iteration count k", 0)


def excess_noise_ratio(tau: float, q: float, sigma: float, zeta: float, p: int) -> float:
    """c > 0 such that sigma_1 = (sigma*sqrt(p) + zeta)/sqrt(q) = (1+c)(1-tau).

    The guard for the noisy-regime bound. Raises ConditionNotMet when
    sigma*sqrt(p) + zeta <= sqrt(q)*(1 - tau), i.e. when the noise is too
    small for the closed-form analysis (the noiseless transient is then the
    right tool, see ``noiseless_decay``); inputs outside ``UtilityParams``'
    ranges raise ParameterError.
    """
    UtilityParams(tau=tau, q=q, sigma=sigma, zeta=zeta, p=p)
    s1 = (sigma * math.sqrt(p) + zeta) / math.sqrt(q)
    c = s1 / (1.0 - tau) - 1.0
    if c <= 0:
        raise ConditionNotMet(
            "sigma*sqrt(p) + zeta > sqrt(q)*(1 - tau)",
            f"noise scale {s1:.6g} does not exceed 1 - tau = {1 - tau:.6g}")
    return c


def noiseless_decay(tau: float, q: float, k: int, D: float) -> float:
    """Transient-only bound (1 - q^2 (1-tau)/8)^k * D for sigma = zeta = 0."""
    UtilityParams(tau=tau, q=q, sigma=0.0, k=k, D=D)
    return (1.0 - q ** 2 * (1.0 - tau) / 8.0) ** k * D


@dataclass(frozen=True)
class ErrorBound:
    transient: float
    floor: float

    @property
    def total(self) -> float:
        return self.transient + self.floor


def utility_bound(params: UtilityParams) -> ErrorBound:
    """Expected squared distance bound after k iterations, split as (transient, floor).

    transient = (1 - q^2 (1-tau)/8)^k * D
    floor     = 8 * ((sqrt(p) sigma + zeta) / (sqrt(q) (1-tau))
                     + (p sigma^2 + zeta^2) / (q^3 (1-tau)^3))

    When q^3 (1-tau)^3 underflows to 0 the floor is ``math.inf``: the bound
    is then vacuous, not wrong.
    """
    excess_noise_ratio(params.tau, params.q, params.sigma, params.zeta, params.p)
    one_minus_tau = 1.0 - params.tau
    cubed = params.q ** 3 * one_minus_tau ** 3
    floor = 8.0 * (
        (math.sqrt(params.p) * params.sigma + params.zeta) / (math.sqrt(params.q) * one_minus_tau)
        + ((params.p * params.sigma ** 2 + params.zeta ** 2) / cubed if cubed else math.inf))
    return ErrorBound(transient=noiseless_decay(params.tau, params.q, params.k, params.D),
                      floor=floor)
