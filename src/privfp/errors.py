"""Exception taxonomy shared across the package, and the rules of its scalar arguments.

Four categories, mirrored by the CLI exit codes: parameter errors (bad
scalar arguments), structural errors (shape/grid mismatches), model errors
(an assumption on the problem data fails, e.g. a rank-deficient constraint
matrix), and out-of-regime conditions (a closed-form guarantee does not
apply for the given parameters and no silent fallback is taken).

Every public entry point checks its scalar arguments through the rules
below, and no other module compares one against its range. A rule returns
the value it accepts, or raises ``ParameterError`` naming the argument and
the value. An integer is an ``int`` or numpy integer, never a ``bool``; a
real is an integer, ``float`` or numpy float, never a ``bool`` or ``str``.

- ``count(v, what, lo=0, hi=(name, bound))``: an integer >= lo (0 for a
  round or participation count, 1 for a population, cohort, width or block
  count, 2 for a walk's population) and <= a named bound if one is given
  (support size <= p, cohort size <= n, a step index <= K - 1).
- ``rounds(K, bounded=True)``: a run's K, an integer >= 1 and, unless the
  run's (K, ...) store bounds it, <= 2**63 - 1.
- ``seed(v)``: a seed a user gives a run, an integer in [0, 2**64) (``rng``
  keys it mod 2**64, so others would alias).
- ``real(v, what, domain)``: a real in a domain of ``_DOMAINS`` (any real
  without one). The ``square`` domains are those of the reals the
  accountant squares: sigma and a sensitivity (``square >= 0``), L, gamma
  and L*gamma (``square > 0``); ``accountable`` is a sigma it divides by,
  and ``budget`` an epsilon (one <= 0 is out of regime, for ``privacy``).
- ``reals(values, what, domain)``: ``real`` over a grid, such as the Rényi
  orders of an accountant and the epsilons of its curves.
- ``noisy_run(lam, sigma, seed)``: a noisy run's step size in (0, 1], noise
  std with a finite square, and seed."""

import math
import numbers
import sys


class ParameterError(ValueError):
    """A scalar argument violates its documented range."""


class StructuralError(ValueError):
    """Dimensions, block layouts, or grids do not line up."""


class ModelError(ValueError):
    """The problem data violates a model assumption."""


class ConditionNotMet(Exception):
    """A validity condition of a closed-form guarantee fails.

    Carries the failing clause in ``condition`` so callers can report
    exactly which requirement was violated.
    """

    def __init__(self, condition: str, message: str | None = None):
        self.condition = condition
        super().__init__(message or condition)


# The largest real whose square is a finite float.
_MAX_ROOT = sys.float_info.max ** 0.5

# domain: the tests a real must pass, in turn, each with the message of its failure.
# The messages of the CLI contract's rows are kept as the rows print them.
_DOMAINS = {
    "> 0": ((lambda v: v > 0, "{} must be > 0"),),
    "finite > 0": ((lambda v: 0 < v < math.inf, "{} must be finite and > 0"),),
    ">= 0": ((lambda v: v >= 0, "need {} >= 0"),),
    "finite >= 0": ((lambda v: 0 <= v < math.inf, "{} must be finite and >= 0"),),
    "> 1": ((lambda v: v > 1, "{} must be > 1"),),
    "(0, 1)": ((lambda v: 0 < v < 1, "{} must lie in (0, 1)"),),
    "(0, 1]": ((lambda v: 0 < v <= 1, "{} must lie in (0, 1]"),),
    "[0, 1)": ((lambda v: 0 <= v < 1, "{} must lie in [0, 1)"),),
    "square >= 0": ((lambda v: 0 <= v <= _MAX_ROOT, "{} must be >= 0 with a finite square"),),
    "square > 0": ((lambda v: v > 0, "{} must be > 0"),
                   (lambda v: v <= _MAX_ROOT, "{} must have a finite square")),
    "accountable": ((lambda v: 0 <= v <= _MAX_ROOT, "{} must be >= 0 with a finite square"),
                    (lambda v: v * v > 0, "{} must have a square > 0 to be accounted")),
    "budget": ((lambda v: v == v, "{} must be a number"),
               (lambda v: v != math.inf, "{} must be finite")),
}


def _integer(v) -> bool:
    return type(v) is int or (isinstance(v, numbers.Integral) and not isinstance(v, bool))


def count(value, what: str, lo: int = 0, hi: tuple = ("", math.inf)):
    """An integer >= lo and <= the bound of ``hi``, a (name, bound) pair."""
    name, bound = hi
    integer = _integer(value)
    if integer and lo <= value <= bound:
        return value
    where = f"in [{lo}, {name}={bound}]" if name else f">= {lo}"
    verb = ("lie" if name else "be") if integer else "be an integer"
    raise ParameterError(f"{what} must {verb} {where}, got {value!r}")


def rounds(K, bounded: bool = True):
    """A run's round count K: an integer >= 1 and, if ``bounded``, <= 2**63 - 1."""
    if not _integer(K) or K < 1:
        raise ParameterError(f"iteration count must be an integer >= 1, got K={K!r}")
    if bounded and K > 2**63 - 1:
        raise ParameterError(f"iteration count must be <= 2**63 - 1, got K={K!r}")
    return K


def seed(value):
    """A seed a user gives: an integer in [0, 2**64)."""
    if not _integer(value) or not 0 <= value < 2**64:
        raise ParameterError(f"a seed must be an integer in [0, 2**64), got {value!r}")
    return value


def real(value, what: str, domain: str | None = None):
    """A real in ``domain``, a key of the table above (any real without one)."""
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise ParameterError(f"{what} must be a real number, got {value!r}")
    for test, message in _DOMAINS[domain] if domain else ():
        if not test(value):
            raise ParameterError(f"{message.format(what)}, got {value!r}")
    return value


def reals(values, what: str, domain: str):
    """``real`` over a grid of values; a float in a one-test domain is tested inline."""
    (test, _), *more = _DOMAINS[domain]
    for value in values:
        if more or type(value) is not float or not test(value):
            real(value, what, domain)
    return values


def noisy_run(lam, sigma, run_seed):
    """A noisy run's step size lam in (0, 1], noise std sigma and seed."""
    real(lam, "step size", "(0, 1]")
    real(sigma, "noise std sigma", "square >= 0")
    seed(run_seed)
