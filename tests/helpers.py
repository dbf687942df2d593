"""Shared independent oracles for the test suite."""

import numpy as np

from privfp import rng
from privfp.admm import AdmmState, ConsensusProblem
from privfp.blocks import BlockVector
from privfp.errors import ParameterError, StructuralError
from privfp.operators import RowQuadraticProx, ZeroProx, clip, prox_l1


def noise_rng(seed: int, k: int, b: int) -> np.random.Generator:
    """A freshly built generator for the (k, b) noise substream of seed."""
    return rng.substream(seed, rng.NOISE, k, b)


def schedule_rng(seed: int, k: int, tag: int = 0) -> np.random.Generator:
    """A freshly built generator for the (k, tag) schedule substream of seed."""
    return rng.substream(seed, rng.SCHEDULE, k, tag)


def empirical_lipschitz(apply, dim: int, seed: int = 0) -> float:
    """Largest ||T(u)-T(v)|| / ||u-v|| over 256 seeded random pairs from the unit ball."""
    gen = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(256):
        u = gen.normal(size=dim)
        u *= gen.uniform() ** (1.0 / dim) / np.linalg.norm(u)
        v = gen.normal(size=dim)
        v *= gen.uniform() ** (1.0 / dim) / np.linalg.norm(v)
        gap = np.linalg.norm(u - v)
        if gap < 1e-12:
            continue
        worst = max(worst, np.linalg.norm(np.asarray(apply(u)) - np.asarray(apply(v))) / gap)
    return worst


def z_update(state: AdmmState, problem: ConsensusProblem) -> np.ndarray:
    """prox_r of the mean of the dual blocks."""
    return np.asarray(problem.prox_r(state.u.mean_block()), dtype=float)


def x_update(i: int, z: np.ndarray, state: AdmmState, problem: ConsensusProblem) -> np.ndarray:
    """prox of the i-th loss at 2z - u_i (``problem.prox_f`` a tuple of specs)."""
    if not 0 <= i < problem.n:
        raise StructuralError(f"user index {i} out of range [0, {problem.n})")
    return np.asarray(problem.prox_f[i](2.0 * z - state.u.block(i)), dtype=float)


def u_update(i: int, x_i: np.ndarray, z: np.ndarray, state: AdmmState,
             lam: float, eta_i: np.ndarray, problem: ConsensusProblem) -> np.ndarray:
    """u_i + 2 lam (clipped deviation + eta_i / 2); noise enters with weight lam."""
    if not 0.0 < lam <= 1.0:
        raise ParameterError(f"step size must lie in (0, 1], got {lam}")
    dev = x_i - z
    if problem.clip_threshold is not None:
        dev = clip(dev, problem.clip_threshold)
    return state.u.block(i) + 2.0 * lam * (dev + 0.5 * np.asarray(eta_i))


def one_round_u(problem: ConsensusProblem, U: np.ndarray, lam: float) -> np.ndarray:
    """One noiseless centralized round built from the elementary updates."""
    state = AdmmState(u=BlockVector(U.copy()), z=np.zeros(U.shape[1]))
    z = z_update(state, problem)
    out = np.empty_like(U)
    for i in range(problem.n):
        x_i = x_update(i, z, state, problem)
        out[i] = u_update(i, x_i, z, state, lam, np.zeros(U.shape[1]), problem)
    return out


def reference_local_solves(problem: ConsensusProblem, V: np.ndarray, rows) -> np.ndarray:
    """Row j is prox_f[rows[j]] at V[j], built from fresh arrays."""
    if isinstance(problem.prox_f, RowQuadraticProx):
        f = problem.prox_f
        A = f.A[rows]
        sq_norms = np.einsum("ij,ij->i", f.A, f.A)[rows]
        return V + ((f.b[rows] - np.einsum("ij,ij->i", A, V))
                    / (2.0 * f.n / f.gamma + sq_norms))[:, None] * A
    return np.stack([np.asarray(problem.prox_f[i](v), dtype=float) for i, v in zip(rows, V)])


def reference_deviations(problem: ConsensusProblem, U: np.ndarray, rows,
                         z: np.ndarray) -> np.ndarray:
    """x_i - z for each i in rows, before clipping."""
    return reference_local_solves(problem, 2.0 * z - U[rows], rows) - z


def reference_round_deltas(problem: ConsensusProblem, U: np.ndarray, rows, z: np.ndarray,
                           lam: float, sigma: float, seed: int, k: int) -> np.ndarray:
    """2 lam (clip(x_i - z) + eta_i / 2) for each i in rows, one expression per
    step, each into a fresh array: the oracle for the runs' in-place round kernel."""
    dev = reference_deviations(problem, U, rows, z)
    if problem.clip_threshold is not None:
        norms = np.linalg.norm(dev, axis=1)
        over = norms > problem.clip_threshold
        dev = dev.copy()
        dev[over] *= (problem.clip_threshold / norms[over])[:, None]
    if sigma > 0:
        eta = np.stack([rng.gaussian_block(seed, k, int(i), sigma, U.shape[1]) for i in rows])
        return 2.0 * lam * (dev + 0.5 * eta)
    return 2.0 * lam * dev


def absolute_loss_prox(d: float, level: float):
    """Prox of level * |x - d| (translation of the soft threshold)."""
    return lambda v, d=d, t=level: d + prox_l1(v - d, t)


def consensus_displacement_audit(n: int, L: float, gamma: float, lam: float,
                                 trials: int, seed: int) -> float:
    """Worst one-round displacement between neighboring datasets, 1-D losses.

    Per-item losses are the record-level (1/n)-weighted L-Lipschitz
    absolute losses, so each per-item prox soft-thresholds at
    gamma * L / n. Returns the largest measured ||T(u) - T'(u)|| over
    random states and neighboring item values.
    """
    gen = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        data = gen.normal(size=n) * gen.uniform(0.5, 3.0)
        j = int(gen.integers(n))
        data_prime = data.copy()
        data_prime[j] = gen.normal() * gen.uniform(0.5, 3.0)
        level = gamma * L / n
        make = lambda vals: ConsensusProblem(
            prox_f=tuple(absolute_loss_prox(float(d), level) for d in vals),
            prox_r=ZeroProx())
        U = gen.normal(size=(n, 1)) * gen.uniform(0.2, 5.0)
        out = one_round_u(make(data), U, lam)
        out_prime = one_round_u(make(data_prime), U, lam)
        worst = max(worst, float(np.linalg.norm(out - out_prime)))
    return worst
