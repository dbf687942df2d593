"""Noisy block-coordinate fixed-point engine and the one noisy update of every run.

The engine iterates

    u[k+1, b] = u[k, b] + rho[k, b] * lam * ((R_b(u_k) - u[k, b]) + eta[k+1, b])

with one step size lam, the active blocks (rho[k, b] = 1) of a schedule's ``rows``
and fresh Gaussian noise eta from a per-(iteration, block) substream, so that
schedules and evaluation order cannot perturb noise assignment. The five schedules
are the library's only draw of a round's participants; ``admm`` and ``bench``
draw through them too, a walk a block's holders at a time through one address
loop (``RandomWalk.block``). A step touches only its active blocks, and uses
only those rows of R(u_k): ``apply_blocks`` evaluates them alone when the
operator handle has it, otherwise the full ``apply`` runs and they are kept.

``noisy_update`` is every noisy run's update u <- u + s (Delta + e) on its
active rows, with e None at sigma = 0: the engine's (s = lam,
Delta = R(u)_b - u_b, e = eta), the consensus runs' of ``admm``, batched and
walk (s = 2 lam, Delta = clip(x_i - z), e = eta_i / 2),
``admm.general_admm_step``'s (s = 2 lam, Delta = A x + B z - c, e = eta / 2),
and ``bench``'s DP-SGD steps before the soft threshold (s = -step; one item's
Delta = clipped g_i, e = eta; a cohort's Delta = mean_i (clipped g_i + eta_i), e = None).
``iterate`` is the one traced loop of ``run``, the three ``admm`` runs and
both ``bench`` DP-SGD baselines. It builds one frozen ``RunTrace`` after its
last round, which holds, asked to, the library's only store of iterate
snapshots. Stochastic gradient and coordinate-descent instantiations are provided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import errors, rng, simnet
from .blocks import BlockVector
from .errors import ModelError, ParameterError, StructuralError
from .operators import NonExpansive, OperatorHandle

# ---------------------------------------------------------------------------
# Block schedules


class BlockSchedule:
    """Each step's active blocks: ``rows``, the one method a schedule defines, gives None
    (all), an int or an int array of distinct indices; ``mask`` is its bool view rho_k."""

    def rows(self, n_blocks: int, seed: int, k: int):
        raise NotImplementedError("a block schedule defines rows")

    def mask(self, n_blocks: int, seed: int, k: int) -> np.ndarray:
        rows = self.rows(n_blocks, seed, k)
        m = np.zeros(n_blocks, dtype=bool)
        m[slice(None) if rows is None else rows] = True
        return m

    def activation_probability(self, n_blocks: int) -> float:
        """Per-step marginal probability that any given block is active."""
        raise NotImplementedError


@dataclass(frozen=True)
class AllBlocks(BlockSchedule):
    def rows(self, n_blocks, seed, k):
        return None

    mask = BlockSchedule.mask  # in the class dict, where the benchmark tracer wraps it

    def activation_probability(self, n_blocks):
        return 1.0


@dataclass(frozen=True)
class BernoulliPerBlock(BlockSchedule):
    """Each block active independently with probability q."""

    q: float

    def __post_init__(self):
        errors.real(self.q, "activation probability q", "(0, 1]")

    def rows(self, n_blocks, seed, k):
        return np.flatnonzero(rng._reset_to(seed, rng.SCHEDULE, k, 0).random(n_blocks) < self.q)

    def activation_probability(self, n_blocks):
        return self.q


@dataclass(frozen=True)
class FixedCohort(BlockSchedule):
    """m distinct blocks, uniform without replacement (sorted): a federated round's cohort."""

    m: int

    def __post_init__(self):
        errors.count(self.m, "cohort size", 1)

    def rows(self, n_blocks, seed, k):
        return simnet.sample_users(n_blocks, self.m, rng._reset_to(seed, rng.SCHEDULE, k, 0))

    def activation_probability(self, n_blocks):
        return self.m / n_blocks


@dataclass(frozen=True)
class SingleUniform(BlockSchedule):
    """Exactly one block, uniform over {1..B}."""

    def rows(self, n_blocks, seed, k):
        return simnet.walk_next(n_blocks, rng._reset_to(seed, rng.SCHEDULE, k, 0))

    mask = BlockSchedule.mask  # in the class dict, where the benchmark tracer wraps it

    def activation_probability(self, n_blocks):
        return 1.0 / n_blocks


@dataclass(frozen=True)
class RandomWalk(SingleUniform):
    """A walk's holder: step 0's uniform at SCHEDULE (0, 1), step k's SingleUniform's at k - 1."""

    def rows(self, n_blocks, seed, k):
        return (super().rows(n_blocks, seed, k - 1) if k else
                simnet.walk_next(n_blocks, rng._reset_to(seed, rng.SCHEDULE, 0, 1)))

    def block(self, n_blocks, seed, k, m):
        """The holders of steps k + 1, ..., k + m: ``rows(n_blocks, seed, j)`` for each j,
        drawn through one ``rng.schedule_steps`` loop."""
        return [simnet.walk_next(n_blocks, gen)
                for gen in rng.schedule_steps(seed, range(int(k), int(k) + m))]


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
        errors.rounds(self.K)
        errors.noisy_run(self.lam, self.sigma, self.seed)


@dataclass(frozen=True, eq=False)
class RunTrace:
    """Per-iteration record of a finished run over ``n_blocks`` blocks.

    ``active_rows[k]`` holds the active block indices of iteration k as the
    step returned them: an int or an integer array, kept by reference, so a
    step must not modify an index array after returning it (``iterate``
    copies a view, so that the trace never keeps a larger base alive).
    ``active`` builds the same sets as a list of (n,) bool masks each time
    it is read. With the run's seed, ``active[k]`` pins every noise
    substream used (block b at iteration k reads stream (seed, k, b)), so a
    trace is sufficient to replay draws.

    ``objective`` and ``dist_sq`` hold one float per round when the run
    tracked them. Every field is immutable: the sequences are tuples, and
    ``iterates`` is one read-only float array whose row k is iteration k's
    released iterate, or an empty array when the run recorded none.
    """

    n_blocks: int = 0
    active_rows: tuple = ()
    objective: tuple[float, ...] = ()
    dist_sq: tuple[float, ...] = ()
    iterates: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        iterates = self.iterates.view()  # a view: the caller's flags stay
        iterates.flags.writeable = False
        object.__setattr__(self, "iterates", iterates)

    @property
    def active(self) -> list[np.ndarray]:
        masks = [np.zeros(self.n_blocks, dtype=bool) for _ in self.active_rows]
        for mask, rows in zip(masks, self.active_rows):
            mask[rows] = True
        return masks

    def __len__(self):
        return len(self.active_rows)


# ---------------------------------------------------------------------------
# Engine


def noisy_update(u: np.ndarray, rows, delta: np.ndarray, eta: np.ndarray | None,
                 s: float) -> np.ndarray:
    """Adds D = s (delta + eta) in place to the active rows of u, an array the run owns,
    and returns D, formed in delta's buffer (a float array the caller owns).

    ``rows`` None adds D to all of u: every row of an (n, p) array with one in-place add, or
    one block's view (the walk's 1-D row, the engine's (1, p) rows for a schedule's int);
    an index array adds row j of D to row ``rows[j]``.
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
    k = int(errors.count(k, "iteration index k", 0, ("K - 1", cfg.K - 1)))  # rng masks an int
    out = u.copy()
    _update(out.data, operator, cfg, k)
    return out


def _update(data, operator, cfg, k):
    """Step k in place on the run-owned (B, p) float array data; returns the active rows
    (``arange(B)`` for all). All blocks and one block step on a view of data; an index
    array's rows are gathered and added back."""
    rows = cfg.schedule.rows(len(data), cfg.seed, k)
    if rows is None:
        rows = ids = np.arange(len(data))
        sel = slice(None)
    elif isinstance(rows, (int, np.integer)):
        ids, sel = np.array([rows]), slice(rows, rows + 1)
    else:
        ids = sel = rows
    view, u = isinstance(sel, slice), data[sel]
    delta = _active_targets(data, operator, k, ids, sel) - u
    eta = rng.gaussian_rows(cfg.seed, k, ids, cfg.sigma, data.shape[1]) if cfg.sigma > 0 else None
    noisy_update(u if view else data, None if view else sel, delta, eta, cfg.lam)
    return rows


def _active_targets(data, operator, k, ids, sel):
    """The operator rows of the blocks ``ids``: ``apply_blocks`` when the handle has
    one, else rows ``sel`` of the full ``apply``."""
    full = operator.apply_blocks is None
    if full:
        target, expected = np.asarray(operator.apply(data.ravel(), k), dtype=float), (data.size,)
    else:
        target = np.asarray(operator.apply_blocks(data.ravel(), k, ids), dtype=float)
        expected = (len(ids), data.shape[1])
    if target.shape != expected:
        raise StructuralError(f"operator returned shape {target.shape}, expected {expected}")
    return target.reshape(data.shape)[sel] if full else target


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

    ``advance(k)`` performs step k < K, K an integer in [1, 2**63 - 1] (else ``ParameterError``),
    and returns its active block indices (an int, a sequence or an int array, distinct, in
    [0, n)) and the released iterate, which must be finite. The trace keeps an index array
    by reference (a view as a copy): ``advance`` must not modify it after returning it. With
    ``record_iterates`` each released iterate is copied, as floats, into row k of one (K, ...)
    array allocated at round 0; another shape raises ``StructuralError`` naming the round."""
    errors.rounds(K, bounded=not record_iterates)  # a recording run's store bounds K at round 0
    rows, objs, dists, store = [], [], [], np.empty(0)
    for k in range(K):
        active, x = advance(k)
        if not np.logical_and.reduce(np.isfinite(x), axis=None):
            raise ModelError(f"released iterate is not finite at round {k}")
        rows.append(_checked_rows(active, n, k))
        if objective is not None:
            objs.append(float(objective(x)))
        if reference is not None:
            dists.append(float(np.sum((x - np.ravel(reference)) ** 2)))
        if record_iterates:
            if k == 0:
                try:
                    store = np.empty((K, *np.shape(x)))
                except (ValueError, MemoryError) as exc:  # a shape numpy rejects or cannot allocate
                    raise ParameterError(f"K={K} iterates need a store of shape {(K, *np.shape(x))}, "
                                         "which cannot be allocated") from exc
            elif (shape := x.shape if type(x) is np.ndarray else np.shape(x)) != store.shape[1:]:
                raise StructuralError(f"iterate of round {k} has shape {shape}, "
                                      f"expected {store.shape[1:]}")
            store[k] = x
    return x, RunTrace(n_blocks=n, active_rows=tuple(rows), objective=tuple(objs),
                       dist_sq=tuple(dists), iterates=store)


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
    errors.real(beta, "smoothness beta", "> 0")
    errors.real(gamma, "step gamma", "> 0")
    errors.real(gamma * beta / 2.0, "engine step size gamma*beta/2", "(0, 1)")
    errors.real(sigma_grad, "gradient noise std sigma_grad", "square >= 0")
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
    errors.real(beta, "smoothness beta", "> 0")
    errors.count(n_blocks, "block count n_blocks", 2)
    errors.count(block_dim, "block width block_dim", 1)
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
