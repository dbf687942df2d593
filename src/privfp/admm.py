"""Private consensus splitting: centralized, federated, and decentralized runs.

The consensus problem min (1/n) sum_i f(x_i; d_i) + r(z) s.t. x_i = z is
solved by iterating, with fresh per-user Gaussian noise eta:

    z  <- prox_r(mean_i u_i)
    x_i <- prox_f_i(2 z - u_i)
    u_i <- u_i + 2 lam (clip(x_i - z) + eta_i / 2)

The last line is the engine's ``fixedpoint.noisy_update`` with s = 2 lam,
Delta = clip(x_i - z) and e = eta_i / 2. Three drivers share it and the
traced loop ``fixedpoint.iterate``, and differ only in who takes part: every
user in each round (centralized), a sampled cohort whose local deltas the
server aggregates (federated), or one user at a time, who updates and
forwards the model (a random walk). The federated and walk runs carry the
dual mean ubar = mean_i u_i, add each round's deltas / n to it and set
z = prox_r(ubar), so a walk token carries ubar with z. Each run updates only
the participants' rows of its own duals in place (a full round with one
in-place add); the public steps ``federated_round`` and
``decentralized_step`` return a new state over a copy. The centralized and
federated runs share one batched round kernel, computed in a workspace of
two (rows per round, p) arrays allocated once; only clipping and noise take
a fresh array of that size each. The walk's one-row kernel works on a 1-D
view of the holder's dual row, so a step costs O(p), with the bits of the
batched kernel over that row. Users are drawn by the engine's schedules
(``FixedCohort(m)``, the ``RandomWalk``), noise rows by ``rng.gaussian_rows``;
a walk draws both, which depend only on the seed and step, 128 steps at a time,
its holders through one address loop (``RandomWalk.block``).
``general_admm_step``, one step of the splitting under a matrix constraint
A x + B z = c, updates through ``noisy_update`` with Delta = A x + B z - c;
its consensus instantiation reproduces the centralized round bit for bit
under a shared seed. Every run returns only the public variable z (and a
trace or state); the data-adjacent x iterates never leave a round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from . import errors, rng, simnet
from .blocks import BlockVector
from .errors import ModelError, ParameterError, StructuralError
from .fixedpoint import FixedCohort, RandomWalk, RunTrace, _checked_rows, iterate, noisy_update
from .operators import ProxSpec, RowQuadraticProx, clip_rows

_WALK_BLOCK = 128  # walk steps whose holders and noise are drawn in one pass
_WALK = RandomWalk()

# ---------------------------------------------------------------------------
# Problems and state


@dataclass(frozen=True)
class ConsensusProblem:
    """Per-item proximal maps, a regularizer prox, and an optional clipping threshold.

    ``prox_f`` holds the n per-item proxes in one of two forms: a tuple of
    specs or other callables, where ``prox_f[i]`` evaluates the i-th, or a
    ``RowQuadraticProx`` that solves the squared-residual rows of a design
    in batches. ``local_solves`` evaluates either. ``n`` is ``len(prox_f)``,
    computed once at construction and not an argument. ``prox_r`` is the
    regularizer's prox. ``clip_threshold`` caps ||x_i - z|| in the dual
    update when set. The prox step gamma lives in the specs, and the
    problem carries no Lipschitz constant: the accountant takes both as
    arguments, and ``bench`` derives the effective constant of a clipped
    release from the clipping threshold.
    """

    prox_f: tuple[ProxSpec, ...] | RowQuadraticProx
    prox_r: ProxSpec
    clip_threshold: float | None = None
    n: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", len(self.prox_f))
        if self.n < 1:
            raise ParameterError("need at least one per-item prox")
        if self.clip_threshold is not None:
            errors.real(self.clip_threshold, "clipping threshold", "> 0")

    def local_solves(self, V: np.ndarray, rows: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
        """Row j of the result is prox_f[rows[j]] evaluated at V[j].

        The result is written to ``out`` when given (a float array of V's
        shape that does not overlap V) and returned. A spec that returns
        anything but one row of V's width raises ``StructuralError``.
        """
        if isinstance(self.prox_f, RowQuadraticProx):
            return self.prox_f.rows(V, rows, out)
        if out is None:
            out = np.empty(V.shape)
        for j, (i, v) in enumerate(zip(rows, V, strict=True)):
            out[j] = self.local_solve(v, i)
        return out

    def local_solve(self, v: np.ndarray, i: int) -> np.ndarray:
        """prox_f[i] at the 1-D v: ``local_solves(v[None], [i])[0]`` bit for bit, but
        not copied, so a spec's result may be an array the spec keeps."""
        if isinstance(self.prox_f, RowQuadraticProx):
            return self.prox_f.row(v, i)
        x = np.asarray(self.prox_f[i](v), dtype=float)
        if x.shape != v.shape:
            raise StructuralError(f"prox of user {i} returned shape {x.shape}, "
                                  f"expected {v.shape}")
        return x


@dataclass(frozen=True)
class AdmmState:
    """Dual blocks u (one per user), public iterate z, the round counter, and the dual mean.

    ``ubar`` must equal the mean of u; left out, it is computed from u.
    """

    u: BlockVector
    z: np.ndarray
    k: int = 0
    ubar: np.ndarray | None = None

    def __post_init__(self):
        if self.ubar is None:
            object.__setattr__(self, "ubar", self.u.mean_block())


def initial_state(problem: ConsensusProblem, p: int,
                  u0: BlockVector | None = None) -> AdmmState:
    """Zero (n, p) duals, or a copy of u0, whose width overrides p; z0 = prox_r(mean of u0)."""
    u = BlockVector.zeros(problem.n, p) if u0 is None else u0.copy()
    if u.n_blocks != problem.n:
        raise StructuralError(f"u0 has {u.n_blocks} blocks for {problem.n} users")
    return AdmmState(u=u, z=np.asarray(problem.prox_r(u.mean_block()), dtype=float), k=0)


# ---------------------------------------------------------------------------
# The round kernels: batched for the centralized and federated runs, one row for the walk


def _round_deltas(problem, U, rows, z_ref, sigma, seed, k, work=None):
    """clip(x_i - z_ref) for each i in rows, stacked, and round k's noise on those rows
    halved (None at sigma = 0): the displacement and noise of the round's ``noisy_update``.

    Computed in place in ``work``, a (2, len(rows), p) array that a run reuses every
    round (the call allocates its own without it), and returned as its second half. U
    is not modified. Each in-place step does the arithmetic of the expression above in
    the same order, up to swapped operands of + and *, so the bits do not depend on work.
    """
    V, D = np.empty((2, len(rows), U.shape[1])) if work is None else work
    np.take(U, rows, axis=0, out=V, mode="wrap")  # rows are in range; "raise" would buffer
    np.subtract(2.0 * z_ref, V, out=V)
    problem.local_solves(V, rows, out=D)
    D -= z_ref
    if problem.clip_threshold is not None:
        clip_rows(D, problem.clip_threshold)
    eta = rng.gaussian_rows(seed, k, rows, sigma, U.shape[1]) if sigma > 0 else None
    if eta is not None:
        eta *= 0.5
    return D, eta


def _advance(problem, U, ubar, z, rows, lam, sigma, seed, k, work=None):
    """Round k in place: rows of U update against z; returns the new dual mean
    ubar + sum of deltas / n and z = prox_r of it (ubar is not modified)."""
    deltas = noisy_update(U, rows, *_round_deltas(problem, U, rows, z, sigma, seed, k, work),
                          2.0 * lam)
    ubar = ubar + deltas.sum(axis=0) / problem.n
    return ubar, np.asarray(problem.prox_r(ubar), dtype=float)


def _walk_draws(n, sigma, seed, k, holder, m, size):
    """The holders of walk steps k, ..., k + m: the given one, then ``RandomWalk.block``'s,
    and the m halved noise rows (size wide) of steps k, ..., k + m - 1, one
    ``rng.gaussian_rows`` draw at (step, holder) (None each at sigma = 0); a run draws ahead."""
    holders = [holder, *_WALK.block(n, seed, k, m)]
    if sigma == 0.0:
        return holders, [None] * m
    eta = rng.gaussian_rows(seed, range(k, k + m), holders[:-1], sigma, size)
    eta *= 0.5
    return holders, list(eta)


def _walk_step(problem, U, ubar, z, i, lam, eta):
    """Walk step in place, ``_advance`` over rows [i] bit for bit: holder i (an int in
    range) updates the 1-D view of its dual row with the batched kernel's arithmetic, in
    the same order, and its halved noise row eta; returns (ubar, z)."""
    u = U[i]
    d = problem.local_solve(2.0 * z - u, i) - z  # a spec may return an array it keeps
    thr = problem.clip_threshold
    if thr is not None:
        nrm = math.sqrt(np.add.reduce(d * d))
        if nrm > thr:  # a NaN norm leaves d as it is, as in clip_rows
            d *= thr / nrm
    d = noisy_update(u, None, d, eta, 2.0 * lam)
    ubar = ubar + d / problem.n
    return ubar, np.asarray(problem.prox_r(ubar), dtype=float)


# ---------------------------------------------------------------------------
# Centralized driver


def centralized_run(problem: ConsensusProblem, u0: BlockVector, lam: float,
                    sigma: float, K: int, seed: int,
                    objective: Callable[[np.ndarray], float] | None = None,
                    ) -> tuple[np.ndarray, RunTrace]:
    """K rounds over all users; returns only the final public iterate z_K.

    Each round computes z from the current duals, then refreshes every
    user's x and u with fresh per-(round, user) noise. Deterministic for a
    fixed seed. The trace records the per-round objective of z when
    ``objective`` is given.
    """
    if u0.n_blocks != problem.n:
        raise StructuralError(f"u0 has {u0.n_blocks} blocks for {problem.n} users")
    errors.noisy_run(lam, sigma, seed)
    U = u0.data.copy()
    all_rows = np.arange(problem.n)
    work = np.empty((2, problem.n, U.shape[1]))

    def advance(k):
        z = np.asarray(problem.prox_r(U.mean(axis=0)), dtype=float)
        noisy_update(U, None, *_round_deltas(problem, U, all_rows, z, sigma, seed, k, work),
                     2.0 * lam)
        return all_rows, z

    return iterate(K, problem.n, advance, objective)


# ---------------------------------------------------------------------------
# Federated driver


def federated_round(problem: ConsensusProblem, state: AdmmState,
                    sampled: Iterable[int], lam: float, sigma: float,
                    seed: int) -> AdmmState:
    """One server round: sampled users push deltas, the server refreshes z.

    Local step for user i (against the current public z): x_i from the
    prox, delta_i = 2 lam (clip(x_i - z) + eta_i/2). The server adds
    (1/n) * sum of deltas — divided by the population size n, not the
    cohort size — to the dual mean ubar and sets z = prox_r(ubar).
    Unsampled users' blocks are bit-unchanged. ``state`` is left
    unchanged: the round updates a copy. Each sampled user must be an
    integer in [0, n), as ``fixedpoint.iterate`` requires of a step's
    active indices; repeats count once.
    """
    errors.noisy_run(lam, sigma, seed)
    rows = np.unique(_checked_rows(list(sampled), problem.n, state.k))
    if rows.size == 0:
        raise ParameterError("sampled user set must not be empty")
    U = state.u.data.copy()
    ubar, z = _advance(problem, U, state.ubar, state.z, rows, lam, sigma, seed, state.k)
    return AdmmState(u=BlockVector(U), z=z, k=state.k + 1, ubar=ubar)


def federated_run(problem: ConsensusProblem, p: int, m: int, lam: float,
                  sigma: float, K: int, seed: int,
                  u0: BlockVector | None = None,
                  objective: Callable[[np.ndarray], float] | None = None,
                  ) -> tuple[np.ndarray, RunTrace]:
    """K federated rounds, each over a ``FixedCohort(m)`` of the n users; returns z_K."""
    errors.noisy_run(lam, sigma, seed)
    state = initial_state(problem, p, u0)
    U, ubar, z = state.u.data, state.ubar, state.z
    cohort, work = FixedCohort(m), None

    def advance(k):
        nonlocal ubar, z, work
        rows = cohort.rows(problem.n, seed, k)
        if work is None:  # allocated once the cohort has checked m <= n
            work = np.empty((2, m, U.shape[1]))
        ubar, z = _advance(problem, U, ubar, z, rows, lam, sigma, seed, k, work)
        return rows, z

    return iterate(K, problem.n, advance, objective)


# ---------------------------------------------------------------------------
# Decentralized driver (uniform random walk)


def decentralized_step(problem: ConsensusProblem, state: AdmmState, i: int,
                       lam: float, sigma: float, seed: int) -> tuple[AdmmState, int]:
    """The user currently holding z updates locally, then forwards it.

    Only block i changes; the dual mean ubar absorbs (1/n) of the delta and
    z = prox_r(ubar); the next holder, ``RandomWalk``'s for step k + 1 (uniform over
    all users), is returned with the new state. The step is a one-step block of
    ``decentralized_run``'s draw and kernel. ``state`` is left unchanged:
    the step updates a copy. The holder i must be an integer in [0, n), as
    ``fixedpoint.iterate`` requires of a step's active indices.
    """
    errors.noisy_run(lam, sigma, seed)
    _checked_rows([i], problem.n, state.k)
    U = state.u.data.copy()
    (_, next_user), (eta,) = _walk_draws(problem.n, sigma, seed, state.k, int(i), 1, U.shape[1])
    ubar, z = _walk_step(problem, U, state.ubar, state.z, int(i), lam, eta)
    return AdmmState(u=BlockVector(U), z=z, k=state.k + 1, ubar=ubar), next_user


def decentralized_run(problem: ConsensusProblem, p: int, lam: float, sigma: float,
                      K: int, seed: int, u0: BlockVector | None = None,
                      objective: Callable[[np.ndarray], float] | None = None,
                      ) -> tuple[np.ndarray, RunTrace, simnet.ObservationLog]:
    """K random-walk steps; returns z_K, the trace, and the observation log.

    Step k's holder is ``RandomWalk().rows(n, seed, k)``: the first is drawn here, the rest
    and the noise by one ``_walk_draws`` per _WALK_BLOCK steps, rows as wide as the duals. The
    trace records every released z; the log, a view of it and the holder of step K, is built
    once the run has ended, so a run stopped by an error returns none."""
    errors.noisy_run(lam, sigma, seed)
    state = initial_state(problem, p, u0)
    U, ubar, z = state.u.data, state.ubar, state.z
    holders, noise = [_WALK.rows(problem.n, seed, 0)], []

    def advance(k):
        nonlocal ubar, z, holders, noise
        j = k % _WALK_BLOCK
        if j == 0:  # a block starts at the last one's final holder
            holders, noise = _walk_draws(problem.n, sigma, seed, k, holders[-1],
                                         min(_WALK_BLOCK, K - k), U.shape[1])
        ubar, z = _walk_step(problem, U, ubar, z, holders[j], lam, noise[j])
        return holders[j], z

    z, trace = iterate(K, problem.n, advance, objective, record_iterates=True)
    return z, trace, simnet.record_observation(trace, holders[-1])


# ---------------------------------------------------------------------------
# Matrix-constrained generalization


@dataclass(frozen=True)
class GeneralAdmmProblem:
    """Splitting data for min f(x) + g(z) s.t. A x + B z = c.

    The two argmin maps carry the quadratic coupling:
    ``f_argmin(z, u)`` solves argmin_x f(x) + (1/2 gamma)||A x + 2 B z + u - c||^2,
    ``g_argmin(u)``   solves argmin_z g(z) + (1/2 gamma)||B z + u||^2.
    ``omega_A`` is the smallest singular value of A (must be positive:
    the privacy analysis needs A full rank).
    """

    f_argmin: Callable[[np.ndarray, np.ndarray], np.ndarray]
    g_argmin: Callable[[np.ndarray], np.ndarray]
    A: np.ndarray
    B: np.ndarray
    c: np.ndarray
    omega_A: float

    def __post_init__(self):
        if not errors.real(self.omega_A, "smallest singular value omega_A") > 0:
            raise ModelError("constraint matrix A must be full rank (omega_A > 0)")


@dataclass(frozen=True)
class GeneralAdmmState:
    u: np.ndarray
    z: np.ndarray
    k: int = 0


def general_admm_step(problem: GeneralAdmmProblem, state: GeneralAdmmState,
                      lam: float, sigma: float, seed: int,
                      noise_blocks: int = 1) -> GeneralAdmmState:
    """One step of the matrix-constrained splitting: z from g_argmin, x from f_argmin, then
    u <- u + 2 lam (A x + B z - c + eta/2) through ``fixedpoint.noisy_update`` (no noise
    at sigma = 0), on a copy of state.u. Noise is drawn as ``noise_blocks`` stacked
    per-(step, block) substreams so that the consensus instantiation (one block per user)
    shares draws with the specialized drivers under the same seed. ``noise_blocks`` must
    be >= 1 and divide the size of u, whatever sigma is."""
    errors.noisy_run(lam, sigma, seed)
    errors.count(noise_blocks, "noise block count", 1)
    u = np.asarray(state.u, dtype=float)
    if u.size % noise_blocks != 0:
        raise StructuralError(f"u of size {u.size} does not split into {noise_blocks} noise blocks")
    z = np.asarray(problem.g_argmin(u), dtype=float)
    x = np.asarray(problem.f_argmin(z, u), dtype=float)
    residual = problem.A @ x + problem.B @ z - problem.c
    eta = None if sigma == 0.0 else 0.5 * rng.gaussian_rows(
        seed, state.k, range(noise_blocks), sigma, u.size // noise_blocks).ravel()
    u = u.copy()  # the argmin maps may keep u or return views of it
    noisy_update(u, None, residual, eta, 2.0 * lam)
    return GeneralAdmmState(u=u, z=z, k=state.k + 1)


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
        return problem.local_solves(2.0 * z - u.reshape(n, p), np.arange(n)).ravel()

    return GeneralAdmmProblem(f_argmin=f_argmin, g_argmin=g_argmin,
                              A=np.eye(n * p), B=B, c=np.zeros(n * p),
                              omega_A=1.0)
