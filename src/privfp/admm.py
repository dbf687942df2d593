"""Private consensus splitting: centralized, federated, and decentralized runs.

The consensus problem min (1/n) sum_i f(x_i; d_i) + r(z) s.t. x_i = z is
solved by iterating, with fresh per-user Gaussian noise eta:

    z  <- prox_r(mean_i u_i)
    x_i <- prox_f_i(2 z - u_i)
    u_i <- u_i + 2 lam (clip(x_i - z) + eta_i / 2)

Three drivers share these updates: a centralized loop over all users per
round, a federated loop where a sampled cohort computes local deltas that
the server aggregates, and a sequential random walk where one user at a
time updates and forwards the model. A matrix-constrained generalization
(arbitrary A x + B z = c coupling) is provided with a consensus
instantiation that reproduces the specialized path bit-for-bit under a
shared seed. Every run returns only the public variable z (and a trace);
the data-adjacent x iterates never leave a round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import rng, simnet
from .blocks import BlockVector
from .errors import ModelError, ParameterError, StructuralError
from .fixedpoint import RunTrace
from .operators import ProxSpec, QuadraticRankOneProx, clip, clip_rows

# ---------------------------------------------------------------------------
# Problems and state


@dataclass(frozen=True)
class ConsensusProblem:
    """Per-item proximal maps, a regularizer prox, and the shared constants.

    ``prox_f[i]`` evaluates the prox of the i-th loss at step gamma;
    ``prox_r`` the regularizer's. ``lipschitz`` is the Lipschitz constant
    of the per-item losses (feeds the accountant). ``clip_threshold``
    caps ||x_i - z|| in the dual update when set.
    """

    prox_f: tuple[ProxSpec, ...]
    prox_r: ProxSpec
    gamma: float
    lipschitz: float
    clip_threshold: float | None = None

    def __post_init__(self):
        if len(self.prox_f) < 1:
            raise ParameterError("need at least one per-item prox")
        if self.gamma <= 0:
            raise ParameterError(f"prox step gamma must be > 0, got {self.gamma}")
        if self.lipschitz <= 0:
            raise ParameterError(f"Lipschitz constant must be > 0, got {self.lipschitz}")
        if self.clip_threshold is not None and self.clip_threshold <= 0:
            raise ParameterError(f"clipping threshold must be > 0, got {self.clip_threshold}")

    @property
    def n(self) -> int:
        return len(self.prox_f)

    def deviation(self, x_i: np.ndarray, z: np.ndarray) -> np.ndarray:
        d = x_i - z
        return clip(d, self.clip_threshold) if self.clip_threshold is not None else d


@dataclass(frozen=True)
class AdmmState:
    """Dual blocks u (one per user), public iterate z, and the round counter."""

    u: BlockVector
    z: np.ndarray
    k: int = 0


def initial_state(problem: ConsensusProblem, p: int,
                  u0: BlockVector | None = None) -> AdmmState:
    """Zero duals by default; z0 = prox_r(mean of u0)."""
    u = BlockVector.zeros(problem.n, p) if u0 is None else u0.copy()
    if u.n_blocks != problem.n:
        raise StructuralError(f"u0 has {u.n_blocks} blocks for {problem.n} users")
    return AdmmState(u=u, z=np.asarray(problem.prox_r(u.mean_block()), dtype=float), k=0)


# ---------------------------------------------------------------------------
# Elementary updates


def z_update(state: AdmmState, problem: ConsensusProblem) -> np.ndarray:
    """prox_r of the mean of the dual blocks."""
    return np.asarray(problem.prox_r(state.u.mean_block()), dtype=float)


def x_update(i: int, z: np.ndarray, state: AdmmState, problem: ConsensusProblem) -> np.ndarray:
    """prox of the i-th loss at 2z - u_i."""
    if not 0 <= i < problem.n:
        raise StructuralError(f"user index {i} out of range [0, {problem.n})")
    return np.asarray(problem.prox_f[i](2.0 * z - state.u.block(i)), dtype=float)


def u_update(i: int, x_i: np.ndarray, z: np.ndarray, state: AdmmState,
             lam: float, eta_i: np.ndarray, problem: ConsensusProblem) -> np.ndarray:
    """u_i + 2 lam (clipped deviation + eta_i / 2); noise enters with weight lam."""
    _check_lam(lam)
    return state.u.block(i) + 2.0 * lam * (problem.deviation(x_i, z) + 0.5 * np.asarray(eta_i))


def _check_lam(lam: float):
    if not 0.0 < lam <= 1.0:
        raise ParameterError(f"step size must lie in (0, 1], got {lam}")


# ---------------------------------------------------------------------------
# Vectorized per-round kernel (all users in `rows` against a fixed z_ref)


def _round_deltas(problem, U, rows, z_ref, lam, sigma, seed, k):
    """2*lam*(clip(x_i - z_ref) + eta_i/2) for each i in rows, stacked."""
    if sigma < 0:
        raise ParameterError(f"noise std must be >= 0, got {sigma}")
    specs = [problem.prox_f[i] for i in rows]
    V = 2.0 * z_ref - U[rows]
    if specs and all(isinstance(s, QuadraticRankOneProx) for s in specs) \
            and len({(s.gamma, s.n) for s in specs}) == 1:
        A = np.stack([np.asarray(s.a, dtype=float) for s in specs])
        b = np.array([s.b for s in specs], dtype=float)
        c = 2.0 * specs[0].n / specs[0].gamma
        X = V + ((b - np.einsum("ij,ij->i", A, V)) / (c + np.einsum("ij,ij->i", A, A)))[:, None] * A
    else:
        X = np.stack([np.asarray(s(v), dtype=float) for s, v in zip(specs, V)])
    dev = X - z_ref
    if problem.clip_threshold is not None:
        dev = clip_rows(dev, problem.clip_threshold)
    if sigma > 0:
        eta = np.stack([rng.gaussian_block(seed, k, int(i), sigma, U.shape[1]) for i in rows])
        return 2.0 * lam * (dev + 0.5 * eta)
    return 2.0 * lam * dev


def _record(trace, k, mask, z, objective, reference):
    trace.record(k, mask, obj=None if objective is None else objective(z),
                 dist=None if reference is None else float(np.sum((z - reference) ** 2)))


# ---------------------------------------------------------------------------
# Centralized driver


def centralized_run(problem: ConsensusProblem, u0: BlockVector, lam: float,
                    sigma: float, K: int, seed: int,
                    objective: Callable[[np.ndarray], float] | None = None,
                    reference: np.ndarray | None = None) -> tuple[np.ndarray, RunTrace]:
    """K rounds over all users; returns only the final public iterate z_K.

    Each round computes z from the current duals, then refreshes every
    user's x and u with fresh per-(round, user) noise. Deterministic for a
    fixed seed. The trace records per-round objective / squared distance
    of z when callbacks are given.
    """
    _check_lam(lam)
    if K < 1:
        raise ParameterError(f"round count must be >= 1, got {K}")
    if u0.n_blocks != problem.n:
        raise StructuralError(f"u0 has {u0.n_blocks} blocks for {problem.n} users")
    U = u0.data.copy()
    all_rows = np.arange(problem.n)
    trace = RunTrace(seed=seed)
    z = None
    for k in range(K):
        z = np.asarray(problem.prox_r(U.mean(axis=0)), dtype=float)
        U += _round_deltas(problem, U, all_rows, z, lam, sigma, seed, k)
        _record(trace, k, np.ones(problem.n, dtype=bool), z, objective, reference)
    return z, trace


# ---------------------------------------------------------------------------
# Federated driver


def federated_round(problem: ConsensusProblem, state: AdmmState,
                    sampled: Iterable[int], lam: float, sigma: float,
                    seed: int) -> AdmmState:
    """One server round: sampled users push deltas, the server refreshes z.

    Local step for user i (against the current public z): x_i from the
    prox, delta_i = 2 lam (clip(x_i - z) + eta_i/2). The server adds
    (1/n) * sum of deltas — divided by the population size n, not the
    cohort size — and applies the regularizer prox. Unsampled users'
    blocks are bit-unchanged.
    """
    _check_lam(lam)
    rows = np.asarray(sorted(int(i) for i in set(sampled)), dtype=int)
    if rows.size == 0:
        raise ParameterError("sampled user set must not be empty")
    if rows[0] < 0 or rows[-1] >= problem.n:
        raise StructuralError(f"sampled users {rows} out of range [0, {problem.n})")
    U = state.u.data.copy()
    deltas = _round_deltas(problem, U, rows, state.z, lam, sigma, seed, state.k)
    U[rows] += deltas
    z_hat = state.z + deltas.sum(axis=0) / problem.n
    return AdmmState(u=BlockVector(U), z=np.asarray(problem.prox_r(z_hat), dtype=float),
                     k=state.k + 1)


def federated_run(problem: ConsensusProblem, p: int, m: int, lam: float,
                  sigma: float, K: int, seed: int,
                  u0: BlockVector | None = None,
                  objective: Callable[[np.ndarray], float] | None = None,
                  reference: np.ndarray | None = None) -> tuple[np.ndarray, RunTrace]:
    """K federated rounds with uniform m-of-n user sampling; returns z_K."""
    if K < 1:
        raise ParameterError(f"round count must be >= 1, got {K}")
    state = initial_state(problem, p, u0)
    trace = RunTrace(seed=seed)
    for k in range(K):
        rows = simnet.sample_users(problem.n, m, rng.schedule_rng(seed, k))
        state = federated_round(problem, state, rows, lam, sigma, seed)
        mask = np.zeros(problem.n, dtype=bool)
        mask[rows] = True
        _record(trace, k, mask, state.z, objective, reference)
    return state.z, trace


# ---------------------------------------------------------------------------
# Decentralized driver (uniform random walk)


def decentralized_step(problem: ConsensusProblem, state: AdmmState, i: int,
                       lam: float, sigma: float, seed: int,
                       log: simnet.ObservationLog | None = None) -> tuple[AdmmState, int]:
    """The user currently holding z updates locally, then forwards it.

    Only block i changes; z absorbs (1/n) of the delta and passes through
    the regularizer prox; the next holder is uniform over all users. When
    a log is given, the hand-off (k+1, next_user, z_{k+1}) is recorded as
    the receiving user's observation.
    """
    _check_lam(lam)
    if not 0 <= i < problem.n:
        raise StructuralError(f"user index {i} out of range [0, {problem.n})")
    U = state.u.data.copy()
    delta = _round_deltas(problem, U, np.array([i]), state.z, lam, sigma, seed, state.k)[0]
    U[i] += delta
    z_next = np.asarray(problem.prox_r(state.z + delta / problem.n), dtype=float)
    next_user = simnet.walk_next(problem.n, rng.schedule_rng(seed, state.k))
    new_state = AdmmState(u=BlockVector(U), z=z_next, k=state.k + 1)
    if log is not None:
        simnet.record_observation(log, next_user, state.k + 1, z_next)
    return new_state, next_user


def decentralized_run(problem: ConsensusProblem, p: int, lam: float, sigma: float,
                      K: int, seed: int, u0: BlockVector | None = None,
                      initial_user: int | None = None,
                      objective: Callable[[np.ndarray], float] | None = None,
                      reference: np.ndarray | None = None,
                      ) -> tuple[np.ndarray, RunTrace, simnet.ObservationLog]:
    """K random-walk steps; returns z_K, the trace, and the observation log."""
    if K < 1:
        raise ParameterError(f"step count must be >= 1, got {K}")
    state = initial_state(problem, p, u0)
    log = simnet.ObservationLog(n=problem.n)
    current = initial_user if initial_user is not None \
        else simnet.walk_next(problem.n, rng.schedule_rng(seed, 0, tag=1))
    trace = RunTrace(seed=seed)
    for k in range(K):
        mask = np.zeros(problem.n, dtype=bool)
        mask[current] = True
        state, current = decentralized_step(problem, state, current, lam, sigma, seed, log)
        _record(trace, k, mask, state.z, objective, reference)
    return state.z, trace, log


# ---------------------------------------------------------------------------
# Matrix-constrained generalization


@dataclass(frozen=True)
class GeneralAdmmProblem:
    """Splitting data for min f(x) + g(z) s.t. A x + B z = c.

    The two argmin maps carry the quadratic coupling:
    ``f_argmin(z, u)`` solves argmin_x f(x) + (1/2 gamma)||A x + 2 B z + u - c||^2,
    ``g_argmin(u)``   solves argmin_z g(z) + (1/2 gamma)||B z + u||^2.
    ``omega_A`` is the smallest singular value of A (must be positive:
    the privacy analysis needs A full rank) and ``A_norm`` its spectral
    norm.
    """

    f_argmin: Callable[[np.ndarray, np.ndarray], np.ndarray]
    g_argmin: Callable[[np.ndarray], np.ndarray]
    A: np.ndarray
    B: np.ndarray
    c: np.ndarray
    omega_A: float
    A_norm: float

    def __post_init__(self):
        if self.omega_A <= 0:
            raise ModelError("constraint matrix A must be full rank (omega_A > 0)")


@dataclass(frozen=True)
class GeneralAdmmState:
    u: np.ndarray
    z: np.ndarray
    k: int = 0


def general_admm_step(problem: GeneralAdmmProblem, state: GeneralAdmmState,
                      lam: float, sigma: float, seed: int,
                      noise_blocks: int = 1) -> GeneralAdmmState:
    """One step of the matrix-constrained splitting.

    z from g_argmin, x from f_argmin, then
    u <- u + 2 lam (A x + B z - c + eta/2). Noise is drawn as
    ``noise_blocks`` stacked per-(step, block) substreams so that the
    consensus instantiation (one block per user) shares draws with the
    specialized drivers under the same seed.
    """
    _check_lam(lam)
    u = np.asarray(state.u, dtype=float)
    z = np.asarray(problem.g_argmin(u), dtype=float)
    x = np.asarray(problem.f_argmin(z, u), dtype=float)
    residual = problem.A @ x + problem.B @ z - problem.c
    if sigma > 0:
        if u.size % noise_blocks != 0:
            raise StructuralError(
                f"u of size {u.size} does not split into {noise_blocks} noise blocks")
        width = u.size // noise_blocks
        eta = np.concatenate([rng.gaussian_block(seed, state.k, b, sigma, width)
                              for b in range(noise_blocks)])
    else:
        eta = np.zeros(u.size)
    new_u = u + 2.0 * lam * (residual + 0.5 * eta)
    return GeneralAdmmState(u=new_u, z=z, k=state.k + 1)


def general_admm_run(problem: GeneralAdmmProblem, u0: np.ndarray, lam: float,
                     sigma: float, K: int, seed: int,
                     noise_blocks: int = 1) -> tuple[np.ndarray, GeneralAdmmState]:
    """K steps of the general splitting; returns the final public z and state."""
    if K < 1:
        raise ParameterError(f"step count must be >= 1, got {K}")
    state = GeneralAdmmState(u=np.asarray(u0, dtype=float), z=np.zeros(problem.B.shape[1]))
    for _ in range(K):
        state = general_admm_step(problem, state, lam, sigma, seed, noise_blocks)
    return state.z, state


def recover_x_from_z(problem: GeneralAdmmProblem, z: np.ndarray) -> np.ndarray:
    """The unique x with A x + B z = c (A must be square and invertible)."""
    A = np.asarray(problem.A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ModelError(f"A must be square to invert, got shape {A.shape}")
    rhs = np.asarray(problem.c, dtype=float) - np.asarray(problem.B, dtype=float) @ np.asarray(z, dtype=float)
    try:
        return np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise ModelError(f"A is singular: {exc}") from exc


def consensus_as_general(problem: ConsensusProblem, p: int) -> GeneralAdmmProblem:
    """Instantiate the general splitting so it reproduces the consensus path.

    A is the (n p x n p) identity, B the negated stack of n p x p
    identities, c = 0; the argmin maps delegate to the consensus proxes.
    With ``noise_blocks = n`` in the step, states match the specialized
    drivers' centralized round bit-for-bit under a shared seed.
    """
    n = problem.n
    B = -np.tile(np.eye(p), (n, 1))

    def g_argmin(u):
        return np.asarray(problem.prox_r(u.reshape(n, p).mean(axis=0)), dtype=float)

    def f_argmin(z, u):
        V = 2.0 * z - u.reshape(n, p)
        return np.concatenate([np.asarray(problem.prox_f[i](V[i]), dtype=float)
                               for i in range(n)])

    return GeneralAdmmProblem(f_argmin=f_argmin, g_argmin=g_argmin,
                              A=np.eye(n * p), B=B, c=np.zeros(n * p),
                              omega_A=1.0, A_norm=1.0)
