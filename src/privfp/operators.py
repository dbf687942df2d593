"""Proximal, reflection, gradient-step, and reflect-compose operators.

Operators act on flat numpy vectors and carry a declared expansiveness
class (never inferred at runtime; tests audit the declarations with seeded
probe pairs). Proximal maps are represented as small spec objects that
evaluate ``prox(v)`` for their function at a fixed step; any callable
``v -> prox(v)`` can stand in for a spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ModelError, ParameterError, StructuralError

# ---------------------------------------------------------------------------
# Expansiveness classes


@dataclass(frozen=True)
class NonExpansive:
    """1-Lipschitz."""


@dataclass(frozen=True)
class Contractive:
    """tau-Lipschitz with tau < 1."""

    tau: float

    def __post_init__(self):
        if not 0.0 <= self.tau < 1.0:
            raise ParameterError(f"contraction factor must be in [0, 1), got {self.tau}")


@dataclass(frozen=True)
class Averaged:
    """lam * R + (1 - lam) * I for a non-expansive R, lam in (0, 1)."""

    lam: float

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ParameterError(f"averaging weight must be in (0, 1), got {self.lam}")


OperatorClass = NonExpansive | Contractive | Averaged


@dataclass(frozen=True)
class OperatorHandle:
    """A map on vectors with declared expansiveness metadata.

    ``apply(u, k)`` takes the current point and the iteration index;
    data-independent operators ignore ``k``. Iteration dependence exists so
    stochastic instantiations can evaluate themselves on the item scheduled
    for step k.

    ``apply_blocks(u, k, rows)``, when given, returns only the operator rows
    of the blocks ``rows`` (an int array) as a ``(len(rows), block_dim)``
    array; row j must equal block ``rows[j]`` of ``apply(u, k)`` bit for bit.
    The fixed-point engine calls it in place of ``apply``, so a step costs
    the active blocks only.
    """

    apply: Callable[[np.ndarray, int], np.ndarray]
    kind: OperatorClass
    apply_blocks: Callable[[np.ndarray, int, np.ndarray], np.ndarray] | None = None


# ---------------------------------------------------------------------------
# Elementary proximal maps


def prox_l1(v: np.ndarray, threshold: float) -> np.ndarray:
    """Soft thresholding: sign(v) * max(|v| - threshold, 0), componentwise."""
    if not threshold >= 0:
        raise ParameterError(f"soft-threshold level must be >= 0, got {threshold}")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - threshold, 0.0)


def clip(v: np.ndarray, threshold: float) -> np.ndarray:
    """Radial projection onto the Euclidean ball of radius threshold."""
    if not threshold > 0:
        raise ParameterError(f"clipping threshold must be > 0, got {threshold}")
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    if norm <= threshold:
        return v
    return v * (threshold / norm)


def clip_rows(X: np.ndarray, threshold: float) -> np.ndarray:
    """``clip`` applied to each row of the float array X, in place; returns X.

    Rows inside the ball keep their bits.
    """
    if not threshold > 0:
        raise ParameterError(f"clipping threshold must be > 0, got {threshold}")
    # what np.linalg.norm(X, axis=1) evaluates, without its argument handling
    norms = np.sqrt(np.add.reduce(X * X, axis=1))
    if (norms > threshold).any():
        # inside the ball the factor is threshold / threshold = 1.0 exactly, and
        # fmax gives a row with a NaN norm that factor too, so those rows keep their bits
        X *= (threshold / np.fmax(norms, threshold))[:, None]
    return X


# ---------------------------------------------------------------------------
# Prox specs: a proximal map packaged with its parameters


class ProxSpec:
    """Base class; subclasses evaluate prox(v) for their function."""

    def __call__(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroProx(ProxSpec):
    """Prox of the zero function: the identity."""

    def __call__(self, v):
        return np.asarray(v, dtype=float)


@dataclass(frozen=True)
class L1Prox(ProxSpec):
    """Prox of t*||.||_1, i.e. soft threshold at level t (t = gamma*kappa)."""

    threshold: float

    def __post_init__(self):
        if not self.threshold >= 0:
            raise ParameterError(f"L1 threshold must be >= 0, got {self.threshold}")

    def __call__(self, v):
        return prox_l1(v, self.threshold)


@dataclass(frozen=True)
class QuadraticRankOneProx(ProxSpec):
    """Prox for one squared residual row: solve (a a^T + (2n/gamma) I) x = b a + (2n/gamma) v.

    The returned x minimizes (1/2n)(a^T x - b)^2 + (1/gamma)||x - v||^2. The
    matrix is a rank-one perturbation of a scaled identity, so Sherman-Morrison
    makes the solve a dot product instead of a dense factorization:

        x = v + (b - a^T v) / (2n/gamma + ||a||^2) * a
    """

    a: np.ndarray
    b: float
    gamma: float
    n: int

    def __post_init__(self):
        if not self.gamma > 0:
            raise ParameterError(f"prox step gamma must be > 0, got {self.gamma}")
        if not self.n >= 1:
            raise ParameterError(f"row weight n must be >= 1, got {self.n}")

    def __call__(self, v):
        a = np.asarray(self.a, dtype=float)
        v = np.asarray(v, dtype=float)
        if a.shape != v.shape:
            raise ParameterError(f"dimension mismatch: a has shape {a.shape}, v has {v.shape}")
        c = 2.0 * self.n / self.gamma
        return v + ((self.b - a @ v) / (c + a @ a)) * a


class RowQuadraticProx:
    """The proxes of every squared-residual row of a design, solved in batches.

    Row i's prox is ``QuadraticRankOneProx(A[i], b[i], gamma, n)`` with row
    weight n = len(A), the design's row count; ``rows`` evaluates any set of
    rows with one vectorized Sherman-Morrison.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, gamma: float):
        if not gamma > 0:
            raise ParameterError(f"prox step gamma must be > 0, got {gamma}")
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        if self.A.ndim != 2 or self.b.shape != self.A.shape[:1]:
            raise StructuralError(f"targets of shape {self.b.shape} do not match "
                                  f"a design of shape {self.A.shape}")
        self.gamma, self.n = gamma, len(self.A)
        self._sq_norms = np.einsum("ij,ij->i", self.A, self.A)

    def __len__(self) -> int:
        return len(self.A)

    def rows(self, V: np.ndarray, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Row j of the result is the prox of row ``rows[j]`` at ``V[j]``.

        With ``out``, a float array of V's shape that does not overlap V, the
        result is computed in ``out`` and returned. V is never modified.
        """
        targets = self.b[rows]  # raises for an out-of-range row, so the take below may wrap
        A = np.take(self.A, rows, axis=0, out=out, mode="wrap")
        A *= ((targets - np.einsum("ij,ij->i", A, V))
              / (2.0 * self.n / self.gamma + self._sq_norms[rows]))[:, None]
        A += V
        return A

    def row(self, v: np.ndarray, i: int) -> np.ndarray:
        """The prox of row i at the 1-D v, in a new array: ``rows(v[None], [i])[0]``
        bit for bit, without the batch's gathers."""
        a = self.A[i]
        x = a * ((self.b[i] - np.einsum("j,j->", a, v))
                 / (2.0 * self.n / self.gamma + self._sq_norms[i]))
        x += v
        return x


@dataclass(frozen=True)
class QuadraticProx(ProxSpec):
    """Prox of gamma * (x^T Q x / 2 + c^T x): x = (I + gamma Q)^{-1} (v - gamma c).

    The inverse of I + gamma Q and gamma c are computed on the first call and
    reused, so each call is one matrix-vector product; Q and c must not be
    modified afterwards. A singular I + gamma Q raises ``ModelError`` there.
    """

    Q: np.ndarray
    c: np.ndarray
    gamma: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ParameterError(f"prox step gamma must be > 0, got {self.gamma}")
        shape = np.shape(self.Q)
        if len(shape) != 2 or shape[0] != shape[1] or np.shape(self.c) != shape[:1]:
            raise StructuralError(f"Q of shape {shape} and c of shape {np.shape(self.c)} "
                                  "do not form a p x p matrix and a p-vector")

    @cached_property
    def _system(self) -> tuple[np.ndarray, np.ndarray]:
        Q = np.asarray(self.Q)
        try:
            inverse = np.linalg.inv(np.eye(len(Q)) + self.gamma * Q)
        except np.linalg.LinAlgError as exc:
            raise ModelError(f"I + gamma Q is singular at gamma = {self.gamma}") from exc
        return inverse, self.gamma * np.asarray(self.c)

    def __call__(self, v):
        inverse, shift = self._system
        v = np.asarray(v, dtype=float)
        if v.shape != shift.shape:
            raise ParameterError(f"dimension mismatch: Q is {inverse.shape}, v has shape {v.shape}")
        return inverse @ (v - shift)


# ---------------------------------------------------------------------------
# Operator constructors


def reflect(prox: ProxSpec) -> OperatorHandle:
    """Reflection through a prox: v -> 2*prox(v) - v. Non-expansive for convex functions."""
    def apply(u, k=0):
        return 2.0 * prox(u) - u
    return OperatorHandle(apply=apply, kind=NonExpansive())


def reflect_compose(prox1: ProxSpec, prox2: ProxSpec, lam: float) -> OperatorHandle:
    """Averaged composition of two reflections: lam*R1(R2(u)) + (1-lam)*u.

    Iterating this operator is the Douglas-Rachford splitting for
    minimizing the sum of the two underlying functions; its fixed points u*
    map to minimizers through the second prox, x* = prox2(u*).
    """
    if not 0.0 < lam < 1.0:
        raise ParameterError(f"averaging weight must be in (0, 1), got {lam}")
    r1 = reflect(prox1)
    r2 = reflect(prox2)

    def apply(u, k=0):
        u = np.asarray(u, dtype=float)
        return lam * r1.apply(r2.apply(u, k), k) + (1.0 - lam) * u

    return OperatorHandle(apply=apply, kind=Averaged(lam))


def gradient_step_operator(grad: Callable[[np.ndarray], np.ndarray], beta: float,
                           mu: float = 0.0) -> OperatorHandle:
    """Gradient-step operator u -> u - (2/(beta+mu)) * grad(u).

    For a convex beta-smooth function the step 2/beta makes this
    non-expansive; declaring strong convexity mu > 0 shortens the step to
    2/(beta+mu) and the operator becomes (beta-mu)/(beta+mu)-contractive.
    """
    if not beta > 0:
        raise ParameterError(f"smoothness beta must be > 0, got {beta}")
    if not mu >= 0:
        raise ParameterError(f"strong convexity mu must be >= 0, got {mu}")
    step = 2.0 / (beta + mu)

    def apply(u, k=0):
        u = np.asarray(u, dtype=float)
        return u - step * np.asarray(grad(u), dtype=float)

    kind: OperatorClass
    if mu > 0:
        kind = Contractive((beta - mu) / (beta + mu))
    else:
        kind = NonExpansive()
    return OperatorHandle(apply=apply, kind=kind)
