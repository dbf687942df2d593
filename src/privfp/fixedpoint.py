"""Noisy block-coordinate fixed-point engine.

The engine iterates

    u[k+1, b] = u[k, b] + rho[k, b] * lam * (R_b(u_k) + eta[k+1, b] - u[k, b])

with one step size lam for the whole run, where rho is a random
block-activation mask and eta fresh Gaussian noise drawn from a
per-(iteration, block) substream so that schedules and evaluation order
cannot perturb noise assignment. The schedules are
``AllBlocks``, ``BernoulliPerBlock`` and ``SingleUniform``. Only the active
rows of R(u_k) are used: when the operator handle has an ``apply_blocks``
map the engine evaluates those rows alone, otherwise it applies the full
``apply`` and keeps them. ``iterate`` is the one traced loop: ``run``, the
three ``admm`` runs and both ``bench`` DP-SGD baselines call it with a step
that returns the indices of its active blocks and the released iterate.
The returned ``RunTrace`` keeps those indices as returned (an int per walk
step, one shared array per centralized run), so a trace costs O(K)
bookkeeping plus the indices themselves, and builds the (n,) activation
masks only when they are read. Stochastic gradient and coordinate-descent
instantiations are provided.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import rng, simnet
from .blocks import BlockVector
from .errors import ModelError, ParameterError, StructuralError
from .operators import NonExpansive, OperatorHandle

# ---------------------------------------------------------------------------
# Block schedules


class BlockSchedule:
    """Distribution over activation masks rho_k in {0,1}^B."""

    def mask(self, n_blocks: int, seed: int, k: int) -> np.ndarray:
        raise NotImplementedError

    def activation_probability(self, n_blocks: int) -> float:
        """Per-step marginal probability that any given block is active."""
        raise NotImplementedError


@dataclass(frozen=True)
class AllBlocks(BlockSchedule):
    def mask(self, n_blocks, seed, k):
        return np.ones(n_blocks, dtype=bool)

    def activation_probability(self, n_blocks):
        return 1.0


@dataclass(frozen=True)
class BernoulliPerBlock(BlockSchedule):
    """Each block active independently with probability q."""

    q: float

    def __post_init__(self):
        if not 0.0 < self.q <= 1.0:
            raise ParameterError(f"activation probability must be in (0, 1], got {self.q}")

    def mask(self, n_blocks, seed, k):
        return rng._reset_to(seed, rng.SCHEDULE, k, 0).random(n_blocks) < self.q

    def activation_probability(self, n_blocks):
        return self.q


@dataclass(frozen=True)
class SingleUniform(BlockSchedule):
    """Exactly one block, uniform over {1..B}."""

    def mask(self, n_blocks, seed, k):
        m = np.zeros(n_blocks, dtype=bool)
        m[simnet.walk_next(n_blocks, rng._reset_to(seed, rng.SCHEDULE, k, 0))] = True
        return m

    def activation_probability(self, n_blocks):
        return 1.0 / n_blocks


# ---------------------------------------------------------------------------
# Configuration and trace


@dataclass(frozen=True)
class IterationConfig:
    """Parameters of one noisy fixed-point run.

    ``lam`` is the step size in (0, 1] of every iteration; ``sigma`` the
    privacy noise standard deviation; ``K`` the iteration count; ``seed``
    drives every random draw through counter-based substreams.
    """

    K: int
    sigma: float = 0.0
    lam: float = 1.0
    schedule: BlockSchedule = AllBlocks()
    seed: int = 0

    def __post_init__(self):
        if self.K < 1:
            raise ParameterError(f"iteration count must be >= 1, got {self.K}")
        rng.check_sigma(self.sigma)
        if not isinstance(self.lam, numbers.Real) or not 0.0 < self.lam <= 1.0:
            raise ParameterError(f"step size must be a number in (0, 1], got {self.lam}")


@dataclass
class RunTrace:
    """Per-iteration record of a run over ``n_blocks`` blocks (append-only while running).

    ``active_rows[k]`` holds the active block indices of iteration k as the
    step returned them: an int or an integer array, kept by reference, so a
    step must not modify an index array after returning it (``iterate``
    copies a view, so that the trace never keeps a larger base alive).
    ``active`` builds the same sets as a list of (n,) bool masks each time
    it is read. With the run's seed, ``active[k]`` pins every noise
    substream used (block b at iteration k reads stream (seed, k, b)), so a
    trace is sufficient to replay draws.
    """

    n_blocks: int = 0
    active_rows: list = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    dist_sq: list[float] = field(default_factory=list)
    iterates: list[np.ndarray] = field(default_factory=list)

    @property
    def active(self) -> list[np.ndarray]:
        masks = [np.zeros(self.n_blocks, dtype=bool) for _ in self.active_rows]
        for mask, rows in zip(masks, self.active_rows):
            mask[rows] = True
        return masks

    def record(self, rows, obj=None, dist=None, iterate=None):
        self.active_rows.append(rows)
        if obj is not None:
            self.objective.append(float(obj))
        if dist is not None:
            self.dist_sq.append(float(dist))
        if iterate is not None:
            self.iterates.append(np.array(iterate, copy=True))

    def __len__(self):
        return len(self.active_rows)


# ---------------------------------------------------------------------------
# Engine


def step(u: BlockVector, operator: OperatorHandle, cfg: IterationConfig, k: int) -> BlockVector:
    """One noisy block-coordinate update; inactive blocks are returned bit-unchanged."""
    if k < 0 or k >= cfg.K:
        raise ParameterError(f"iteration index {k} out of range for K={cfg.K}")
    return BlockVector(_update(u, operator, cfg, k)[0])


def _update(u, operator, cfg, k):
    """The data after step k and its active rows, all computed from u; u is not modified."""
    rows = np.flatnonzero(cfg.schedule.mask(u.n_blocks, cfg.seed, k))
    target = _active_targets(u, operator, k, rows)
    old, new = u.data.take(rows, axis=0), u.data.copy()
    eta = rng.gaussian_rows(cfg.seed, k, rows, cfg.sigma, u.block_dim)
    new[rows] = old + cfg.lam * (target + eta - old)
    return new, rows


def _active_targets(u, operator, k, rows):
    """The operator rows of the active blocks: ``apply_blocks`` when the handle has
    one, else the rows of the full ``apply``."""
    full = operator.apply_blocks is None
    if full:
        target, expected = np.asarray(operator.apply(u.flat, k), dtype=float), u.flat.shape
    else:
        target = np.asarray(operator.apply_blocks(u.flat, k, rows), dtype=float)
        expected = (len(rows), u.block_dim)
    if target.shape != expected:
        raise StructuralError(f"operator returned shape {target.shape}, expected {expected}")
    return target.reshape(u.data.shape).take(rows, axis=0) if full else target


_NO_ROWS = np.empty(0, dtype=int)


def _checked_rows(active, n, k):
    """Step k's active indices as the trace keeps them; ``StructuralError`` naming
    the round unless each is an integer in [0, n)."""
    if isinstance(active, (int, np.integer)) and not isinstance(active, bool):
        rows, ends = active, (active,)  # plain comparisons: a walk step stays O(1)
    else:
        rows = np.asarray(active)
        if rows.size == 0:
            return _NO_ROWS
        if rows.ndim != 1 or rows.dtype.kind not in "iu":
            raise StructuralError(f"active indices must be an int or a 1-D integer array, "
                                  f"got {rows.dtype} of shape {rows.shape} at round {k}")
        # A step's few indices compare fastest as Python ints; larger arrays reduce in numpy.
        ends = rows.tolist() if rows.size <= 16 else (np.minimum.reduce(rows),
                                                      np.maximum.reduce(rows))
        if rows.base is not None:
            rows = rows.copy()  # a view would keep its base alive in the trace
    for i in ends:
        if not 0 <= i < n:
            raise StructuralError(f"active index {i} out of range [0, {n}) at round {k}")
    return rows


def iterate(K: int, n: int, advance: Callable[[int], tuple],
            objective: Callable[[np.ndarray], float] | None = None,
            reference: np.ndarray | None = None,
            record_iterates: bool = False) -> tuple[np.ndarray, RunTrace]:
    """The traced loop of every run; returns the last released iterate and the trace.

    ``advance(k)`` performs step k and returns its active block indices (an int,
    a sequence or an int array, distinct and in [0, n)) and the released
    iterate, which must be finite. The trace keeps an int or an integer array
    by reference (a view as a copy), so ``advance`` must not modify an index
    array after returning it."""
    if K < 1:
        raise ParameterError(f"iteration count must be >= 1, got {K}")
    trace = RunTrace(n_blocks=n)
    for k in range(K):
        active, x = advance(k)
        if not np.isfinite(x).all():
            raise ModelError(f"released iterate is not finite at round {k}")
        trace.record(_checked_rows(active, n, k), obj=None if objective is None else objective(x),
                     dist=None if reference is None else float(np.sum((x - np.ravel(reference)) ** 2)),
                     iterate=x if record_iterates else None)
    return x, trace


def run(u0: BlockVector, operator: OperatorHandle, cfg: IterationConfig,
        reference: np.ndarray | None = None,
        record_iterates: bool = False) -> tuple[BlockVector, RunTrace]:
    """Apply ``step`` K times through ``iterate``; bit-identical traces for identical seeds.

    Parameters
    ----------
    u0 : BlockVector
        Initial point (left unchanged).
    operator : OperatorHandle
        The (possibly iteration-dependent) map applied at every step.
    cfg : IterationConfig
        Step size, noise level, schedule, and seed.
    reference : array, optional
        Squared distance to this point is recorded after each step.
    record_iterates : bool
        Store full iterate snapshots (off by default; memory).
    """
    u = u0

    def advance(k):
        nonlocal u
        data, rows = _update(u, operator, cfg, k)
        u = BlockVector(data)
        return rows, u.flat

    trace = iterate(cfg.K, u0.n_blocks, advance, reference=reference,
                    record_iterates=record_iterates)[1]
    return u, trace


# ---------------------------------------------------------------------------
# Gradient-method instantiations


def dpsgd_instance(item_grads: Sequence[Callable[[np.ndarray], np.ndarray]],
                   beta: float, gamma: float, sigma_grad: float, K: int, seed: int,
                   order: str = "cyclic") -> tuple[OperatorHandle, IterationConfig]:
    """Single-block instantiation reproducing noisy proximal-free SGD.

    Running the engine with the returned pair performs
    ``u <- u - gamma * (grad_i(u) + eta')`` with one item gradient per step
    and gradient noise eta' of standard deviation ``sigma_grad``. The
    engine realizes this with step size ``lam = gamma*beta/2`` and internal
    noise std ``2*sigma_grad/beta``; the stochastic-gradient error term is
    folded into the operator by evaluating it on the scheduled item.

    ``order`` selects items: "cyclic" passes or "uniform" draws.
    """
    if beta <= 0:
        raise ParameterError(f"smoothness beta must be > 0, got {beta}")
    if not 0.0 < gamma < 2.0 / beta:
        raise ParameterError(f"step gamma must lie in (0, 2/beta), got {gamma}")
    rng.check_sigma(sigma_grad)
    n_items = len(item_grads)

    def item_at(k: int) -> int:
        if order == "cyclic":
            return k % n_items
        if order == "uniform":
            return simnet.walk_next(n_items, rng._reset_to(seed, rng.SCHEDULE, k, 2))
        raise ParameterError(f"unknown item order {order!r}")

    def apply(u, k=0):
        u = np.asarray(u, dtype=float)
        return u - (2.0 / beta) * np.asarray(item_grads[item_at(k)](u), dtype=float)

    handle = OperatorHandle(apply=apply, kind=NonExpansive())
    cfg = IterationConfig(K=K, sigma=2.0 * sigma_grad / beta, lam=gamma * beta / 2.0,
                          schedule=AllBlocks(), seed=seed)
    return handle, cfg


def dpcd_instance(coord_grads: Sequence[Callable[[np.ndarray], np.ndarray]],
                  beta: float, n_blocks: int, block_dim: int, sigma: float, K: int,
                  seed: int, schedule: BlockSchedule | None = None
                  ) -> tuple[OperatorHandle, IterationConfig]:
    """Block-coordinate instantiation: block b applies u_b - (2/beta) * grad_b(u).

    ``coord_grads[b]`` maps the full flat iterate to the gradient of block b.
    The handle is declared non-expansive; its ``apply_blocks`` evaluates the
    gradients of the requested blocks only, so an engine step calls one
    gradient per active block. The default schedule activates a single
    uniform block per step.
    """
    if beta <= 0:
        raise ParameterError(f"smoothness beta must be > 0, got {beta}")
    if n_blocks <= 1:
        raise ParameterError(f"coordinate instantiation needs more than one block, got {n_blocks}")
    if len(coord_grads) != n_blocks:
        raise StructuralError(
            f"{len(coord_grads)} block gradients supplied for {n_blocks} blocks")

    def apply_blocks(u, k, rows):
        blocks = np.asarray(u, dtype=float).reshape(n_blocks, block_dim)
        out = np.empty((len(rows), block_dim))
        for j, b in enumerate(rows):
            out[j] = blocks[b] - (2.0 / beta) * np.asarray(coord_grads[b](blocks.ravel()), dtype=float)
        return out

    def apply(u, k=0):
        return apply_blocks(u, k, range(n_blocks)).ravel()

    handle = OperatorHandle(apply=apply, kind=NonExpansive(), apply_blocks=apply_blocks)
    cfg = IterationConfig(K=K, sigma=sigma, lam=1.0,
                          schedule=schedule or SingleUniform(), seed=seed)
    return handle, cfg
