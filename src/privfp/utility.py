"""Mean-square error bounds for the noisy block-coordinate iteration.

Evaluates the linear-convergence-plus-noise-floor bound for contractive
operators and the admissible step-size interval with its recommended
value. All quantities are derived from the contraction factor tau, the
block activation probability q, and the combined noise scale
(sigma * sqrt(p) + zeta) / sqrt(q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConditionNotMet, ParameterError


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
        if not 0.0 <= self.tau < 1.0:
            raise ParameterError(f"contraction factor must be in [0, 1), got {self.tau}")
        if not 0.0 < self.q <= 1.0:
            raise ParameterError(f"activation probability must be in (0, 1], got {self.q}")
        if not self.sigma >= 0 or not self.zeta >= 0:
            raise ParameterError("noise and error scales must be >= 0")
        if self.p < 1 or not self.D >= 0 or self.k < 0:
            raise ParameterError("need p >= 1, D >= 0, k >= 0")


def _noise_scale(q, sigma, zeta, p):
    """sigma_1 = (sigma*sqrt(p) + zeta)/sqrt(q), the per-activation noise magnitude."""
    return (sigma * math.sqrt(p) + zeta) / math.sqrt(q)


def excess_noise_ratio(tau: float, q: float, sigma: float, zeta: float, p: int) -> float:
    """c > 0 such that sigma_1 = (1+c)(1-tau); the guard for every noisy-regime formula.

    Raises ConditionNotMet when sigma*sqrt(p) + zeta <= sqrt(q)*(1 - tau),
    i.e. when the noise is too small for the closed-form analysis (the
    noiseless transient is then the right tool, see ``noiseless_decay``);
    inputs outside ``UtilityParams``' ranges raise ParameterError.
    """
    UtilityParams(tau=tau, q=q, sigma=sigma, zeta=zeta, p=p)
    s1 = _noise_scale(q, sigma, zeta, p)
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
    """
    excess_noise_ratio(params.tau, params.q, params.sigma, params.zeta, params.p)
    one_minus_tau = 1.0 - params.tau
    transient = noiseless_decay(params.tau, params.q, params.k, params.D)
    floor = 8.0 * (
        (math.sqrt(params.p) * params.sigma + params.zeta) / (math.sqrt(params.q) * one_minus_tau)
        + (params.p * params.sigma ** 2 + params.zeta ** 2) / (params.q ** 3 * one_minus_tau ** 3)
    )
    return ErrorBound(transient=transient, floor=floor)


# ---------------------------------------------------------------------------
# Step size selection


def step_size_range(tau: float, q: float, sigma: float, zeta: float, p: int) -> tuple[float, float]:
    """Open interval of step sizes for which the averaged update contracts in mean square."""
    c = excess_noise_ratio(tau, q, sigma, zeta, p)
    b = math.sqrt(1.0 - q * (1.0 - tau))
    lo = (1.0 + c - q) / ((1.0 + c) * (1.0 - b))
    hi = lo * (0.5 + 0.5 * math.sqrt(
        1.0 + 4.0 * (1.0 + c) * (1.0 - b) / ((1.0 - tau) * (1.0 + c - q) ** 2)))
    return lo, hi


@dataclass(frozen=True)
class StepSize:
    """Recommended step size; ``clamped`` caps the raw value at 1 for the engine."""

    raw: float
    clamped: float
    was_clamped: bool


def recommended_step_size(tau: float, q: float, sigma: float, zeta: float, p: int) -> StepSize:
    """The analyzed step size lam* = (1/(1-b)) * (1 - q/(2(1+c))).

    The raw value can exceed 1 while iteration configs only accept (0, 1];
    both the raw value and its clamp are reported rather than silently
    altering either.
    """
    c = excess_noise_ratio(tau, q, sigma, zeta, p)
    b = math.sqrt(1.0 - q * (1.0 - tau))
    raw = (1.0 / (1.0 - b)) * (1.0 - q / (2.0 * (1.0 + c)))
    return StepSize(raw=raw, clamped=min(raw, 1.0), was_clamped=raw > 1.0)
