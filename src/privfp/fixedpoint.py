"""Noisy block-coordinate fixed-point engine and the one noisy update of every run.

The engine iterates

    u[k+1, b] = u[k, b] + rho[k, b] * lam * ((R_b(u_k) - u[k, b]) + eta[k+1, b])

with one step size lam, a random block-activation mask rho from a schedule
(``AllBlocks``, ``BernoulliPerBlock``, ``SingleUniform``) and fresh Gaussian
noise eta from a per-(iteration, block) substream, so that schedules and
evaluation order cannot perturb noise assignment. Only the active rows of
R(u_k) are used: ``apply_blocks`` evaluates them alone when the operator
handle has it, otherwise the full ``apply`` runs and they are kept.

``noisy_update`` is every noisy run's update u <- u + s (Delta + e) on its
active rows, with e None at sigma = 0: the engine's (s = lam,
Delta = R(u)_b - u_b, e = eta), the consensus runs' of ``admm``, batched and
walk (s = 2 lam, Delta = clip(x_i - z), e = eta_i / 2),
``admm.general_admm_step``'s (s = 2 lam, Delta = A x + B z - c, e = eta / 2),
and ``bench``'s DP-SGD steps before the soft threshold (s = -step; one item's
Delta = clipped g_i, e = eta; a cohort's Delta = mean_i (clipped g_i + eta_i), e = None).
``iterate`` is the one traced loop of ``run``, the three ``admm`` runs and
both ``bench`` DP-SGD baselines. Its ``RunTrace`` keeps each step's active
indices as returned, builds (n,) masks only when they are read and, asked
to, holds the library's only store of iterate snapshots. Stochastic gradient
and coordinate-descent instantiations are provided.
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


_BLOCK_BYTES = 120 * 1024  # per block of recorded iterates: under glibc's 128 KiB mmap threshold
_FLOAT = np.dtype(float)


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

    ``record`` copies an iterate, as floats, into a row of a block of at most
    ``_BLOCK_BYTES`` (or one row); a shape other than the first's raises
    ``StructuralError`` naming the round. ``iterates`` is one list of
    read-only row views, extended when read (O(1) indexing; do not modify it).
    """

    n_blocks: int = 0
    active_rows: list = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    dist_sq: list[float] = field(default_factory=list)
    _blocks: list[np.ndarray] = field(default_factory=list, init=False, repr=False)
    _views: list[np.ndarray] = field(default_factory=list, init=False, repr=False)
    _count: int = field(default=0, init=False, repr=False)

    @property
    def active(self) -> list[np.ndarray]:
        masks = [np.zeros(self.n_blocks, dtype=bool) for _ in self.active_rows]
        for mask, rows in zip(masks, self.active_rows):
            mask[rows] = True
        return masks

    @property
    def iterates(self) -> list[np.ndarray]:
        views = self._views
        while len(views) < self._count:
            b, r = divmod(len(views), len(self._blocks[0]))
            block = self._blocks[b].view()
            block.flags.writeable = False
            views.extend(block[r:r + self._count - len(views)])
        return views

    def record(self, rows, obj=None, dist=None, iterate=None):
        if iterate is not None:  # stored first, so that a wrong shape records nothing
            x, blocks, j = iterate, self._blocks, self._count
            if type(x) is not np.ndarray or x.dtype is not _FLOAT:
                x = np.asarray(x, dtype=float)  # so that copying into the row cannot fail
            if blocks and x.shape != blocks[0].shape[1:]:
                raise StructuralError(f"iterate of round {len(self.active_rows)} has shape "
                                      f"{x.shape}, expected {blocks[0].shape[1:]}")
            per = len(blocks[0]) if blocks else max(1, _BLOCK_BYTES // max(1, x.nbytes))
            if j % per == 0:
                blocks.append(np.empty((per, *x.shape)))
            blocks[-1][j % per] = x
            self._count = j + 1
        self.active_rows.append(rows)
        if obj is not None:
            self.objective.append(float(obj))
        if dist is not None:
            self.dist_sq.append(float(dist))

    def __len__(self):
        return len(self.active_rows)


# ---------------------------------------------------------------------------
# Engine


def noisy_update(u: np.ndarray, rows, delta: np.ndarray, eta: np.ndarray | None,
                 s: float) -> np.ndarray:
    """Adds D = s (delta + eta) in place to the active rows of u, an array the run owns,
    and returns D, formed in delta's buffer (a float array the caller owns).

    ``rows`` None adds D to all of u (every row of an (n, p) array with one in-place add,
    or the walk's 1-D view of one row); an index array adds row j of D to row ``rows[j]``.
    ``eta`` is None at sigma = 0: no noise pass. Each form runs ``delta += eta``,
    ``delta *= s``, ``u[rows] += delta``."""
    if eta is not None:
        delta += eta
    delta *= s
    if rows is None:
        u += delta
    else:
        u[rows] += delta
    return delta


def step(u: BlockVector, operator: OperatorHandle, cfg: IterationConfig, k: int) -> BlockVector:
    """One noisy block-coordinate update of a copy of u; inactive blocks are returned bit-unchanged."""
    if k < 0 or k >= cfg.K:
        raise ParameterError(f"iteration index {k} out of range for K={cfg.K}")
    out = u.copy()
    _update(out.data, operator, cfg, k)
    return out


def _update(data, operator, cfg, k):
    """Step k in place on the run-owned (B, p) float array data; returns the active rows."""
    rows = np.flatnonzero(cfg.schedule.mask(len(data), cfg.seed, k))
    delta = data.take(rows, axis=0)
    np.subtract(_active_targets(data, operator, k, rows), delta, out=delta)
    eta = rng.gaussian_rows(cfg.seed, k, rows, cfg.sigma, data.shape[1]) if cfg.sigma > 0 else None
    noisy_update(data, rows, delta, eta, cfg.lam)
    return rows


def _active_targets(data, operator, k, rows):
    """The operator rows of the active blocks: ``apply_blocks`` when the handle has
    one, else the rows of the full ``apply``."""
    full = operator.apply_blocks is None
    if full:
        target, expected = np.asarray(operator.apply(data.ravel(), k), dtype=float), (data.size,)
    else:
        target = np.asarray(operator.apply_blocks(data.ravel(), k, rows), dtype=float)
        expected = (len(rows), data.shape[1])
    if target.shape != expected:
        raise StructuralError(f"operator returned shape {target.shape}, expected {expected}")
    return target.reshape(data.shape).take(rows, axis=0) if full else target


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
    array after returning it. With ``record_iterates`` the trace keeps a copy
    of each released iterate (``RunTrace.iterates``), all of one shape."""
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
    """Apply ``step`` K times through ``iterate`` to one copy of u0 (left unchanged),
    updated in place; bit-identical traces for identical seeds. The trace records the
    squared distance to ``reference`` after each step when given, and with
    ``record_iterates`` a copy of every iterate (memory)."""
    data = u0.data.copy()

    def advance(k):
        return _update(data, operator, cfg, k), data.ravel()

    trace = iterate(cfg.K, len(data), advance, reference=reference,
                    record_iterates=record_iterates)[1]
    return BlockVector(data), trace


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
    if not beta > 0:
        raise ParameterError(f"smoothness beta must be > 0, got {beta}")
    if not 0.0 < gamma < 2.0 / beta:
        raise ParameterError(f"step gamma must lie in (0, 2/beta), got {gamma}")
    rng.check_sigma(sigma_grad)
    if order not in ("cyclic", "uniform"):
        raise ParameterError(f"unknown item order {order!r}")
    n_items = len(item_grads)
    if n_items == 0:
        raise ParameterError("need at least one item gradient")

    def item_at(k: int) -> int:
        if order == "cyclic":
            return k % n_items
        return simnet.walk_next(n_items, rng._reset_to(seed, rng.SCHEDULE, k, 2))

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
    if not beta > 0:
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
