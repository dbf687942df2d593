"""Synthetic sparse-regression benchmark and experiment runner.

Generates unit-row-design Lasso data, solves it privately with the
consensus splitting or a proximal DP-SGD baseline in the centralized,
federated, or decentralized setting, calibrates noise through the
accountant for a grid of (epsilon, delta) budgets, and exports results as
CSV. Both DP-SGD baselines draw through ``SingleUniform`` or ``FixedCohort(m)``, run
through ``fixedpoint.iterate`` (a non-finite iterate raises ModelError naming the round)
and step by ``noisy_update`` with s = -step, then soft-threshold: one item's Delta =
clipped gradient, e = eta; a cohort's Delta = mean(clipped gradients + noise), e = None. An
in-repo proximal-gradient solver gives the high-precision non-private reference.

Accounting under clipping: clipping the shared quantity replaces the
theoretical per-contribution displacement bound, so the accountant is fed
an effective Lipschitz constant. For the splitting, the user-level
release has sensitivity 4*lam*C against noise lam*sigma, matching the
formulas at L*gamma = C (and at L*gamma = n*C for the record-level
centralized bound, whose theoretical per-record displacement carries a
1/n). The DP-SGD baseline releases a clipped gradient of sensitivity 2C
against noise sigma, matching the same formulas at L*gamma = C/2.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import numbers
import os
import shutil
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import admm, privacy, rng
from .blocks import BlockVector
from .errors import ModelError, ParameterError, StructuralError
from .fixedpoint import FixedCohort, SingleUniform, iterate, noisy_update
from .operators import L1Prox, RowQuadraticProx, clip, clip_rows, prox_l1

# Rényi grid for the bench: the default grid extended upward so budgets
# down to epsilon ~ 0.05 at delta = 1e-6 stay reachable after conversion.
BENCH_ALPHAS: tuple[float, ...] = privacy.DEFAULT_ALPHAS + (512.0, 1024.0, 2048.0, 4096.0)


# ---------------------------------------------------------------------------
# Data


@dataclass(frozen=True)
class LassoDataset:
    """Design matrix with unit-norm rows, targets, and the planted model."""

    A: np.ndarray
    b: np.ndarray
    x_true: np.ndarray

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.A.shape[1]


def gen_lasso(n: int = 1000, p: int = 64, support_size: int = 8,
              noise_std: float = 0.1, seed: int = 0) -> LassoDataset:
    """Rows uniform on the unit sphere; sparse uniform ground truth; Gaussian label noise."""
    if not 0 <= support_size <= p:
        raise ParameterError(f"support size must lie in [0, p={p}], got {support_size}")
    if n < 1 or p < 1 or not noise_std >= 0:
        raise ParameterError("need n >= 1, p >= 1, noise_std >= 0")
    gen = rng.substream(seed, rng.DATA, 0, 0)
    try:
        A = gen.normal(size=(n, p))
    except (ValueError, MemoryError) as exc:  # a shape numpy rejects or cannot allocate
        raise ParameterError(f"an n={n} by p={p} design cannot be allocated") from exc
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    x_true = np.zeros(p)
    support = gen.choice(p, size=support_size, replace=False)
    x_true[support] = gen.uniform(size=support_size)
    b = A @ x_true + (noise_std * gen.normal(size=n) if noise_std > 0 else 0.0)
    return LassoDataset(A=A, b=np.asarray(b, dtype=float), x_true=x_true)


def train_test_split(dataset: LassoDataset, test_fraction: float = 0.1,
                     seed: int = 0) -> tuple[LassoDataset, LassoDataset]:
    """Disjoint, seeded row split (train first); both parts keep at least one row."""
    if not 0.0 < test_fraction < 1.0:
        raise ParameterError(f"test fraction must lie in (0, 1), got {test_fraction}")
    n_test = max(1, int(round(dataset.n * test_fraction)))
    if n_test >= dataset.n:
        raise ParameterError(f"test fraction {test_fraction} of n={dataset.n} rows leaves "
                             "no training row")
    perm = rng.substream(seed, rng.DATA, 1, 0).permutation(dataset.n)
    test_rows, train_rows = perm[:n_test], perm[n_test:]
    make = lambda rows: LassoDataset(A=dataset.A[rows], b=dataset.b[rows], x_true=dataset.x_true)
    return make(np.sort(train_rows)), make(np.sort(test_rows))


def lasso_objective(dataset: LassoDataset, x: np.ndarray, kappa: float) -> float:
    """(1/2n)||A x - b||^2 + kappa * ||x||_1."""
    x = np.asarray(x, dtype=float)
    if x.shape != (dataset.p,):
        raise StructuralError(f"x has shape {x.shape}, expected ({dataset.p},)")
    residual = dataset.A @ x - dataset.b
    return float(0.5 / dataset.n * residual @ residual + kappa * np.sum(np.abs(x)))


def default_kappa(dataset: LassoDataset, fraction: float = 0.1) -> float:
    """A fraction of ||A^T b||_inf / n, the critical level at which 0 becomes optimal."""
    return float(fraction * np.max(np.abs(dataset.A.T @ dataset.b)) / dataset.n)


# ---------------------------------------------------------------------------
# Non-private reference (proximal gradient)


def reference_lasso(dataset: LassoDataset, kappa: float, max_iters: int = 100_000) -> np.ndarray:
    """Proximal-gradient solution, iterated until the gradient-map norm falls below 1e-10.

    Raises ModelError if ``max_iters`` iterations end above it.
    """
    tol = 1e-10
    G = dataset.A.T @ dataset.A / dataset.n
    h = dataset.A.T @ dataset.b / dataset.n
    step = 1.0 / float(np.linalg.eigvalsh(G).max())
    x = np.zeros(dataset.p)
    grad_map = math.inf
    for _ in range(max_iters):
        x_next = prox_l1(x - step * (G @ x - h), step * kappa)
        grad_map = float(np.linalg.norm(x_next - x) / step)
        if grad_map < tol:
            return x_next
        x = x_next
    raise ModelError(f"reference solve did not reach tol={tol:g} within max_iters={max_iters}; "
                     f"final gradient-map norm {grad_map:.6g}")


def optimality_gap(dataset: LassoDataset, x: np.ndarray, kappa: float) -> np.ndarray:
    """Componentwise violation of 0 in the subdifferential of the objective at x."""
    g = dataset.A.T @ (dataset.A @ x - dataset.b) / dataset.n
    gap = np.empty(dataset.p)
    on = np.abs(x) > 0
    gap[on] = np.abs(g[on] + kappa * np.sign(x[on]))
    gap[~on] = np.maximum(np.abs(g[~on]) - kappa, 0.0)
    return gap


# ---------------------------------------------------------------------------
# Consensus instantiation

# The per-row solve (a a^T + (2n/gamma) I) x = b a + (2n/gamma) v paired with a
# regularizer threshold of gamma*kappa/(2n) makes the splitting's fixed point
# minimize exactly (1/2n)||A x - b||^2 + kappa ||x||_1 (the threshold carries
# the same 1/(2n) weight the row solve puts on each squared residual).


def lasso_consensus_problem(dataset: LassoDataset, kappa: float, gamma: float,
                            clip_threshold: float | None = None) -> admm.ConsensusProblem:
    """Consensus-splitting formulation of the Lasso on this dataset."""
    return admm.ConsensusProblem(
        prox_f=RowQuadraticProx(dataset.A, dataset.b, gamma),
        prox_r=L1Prox(threshold=gamma * kappa / (2.0 * dataset.n)),
        clip_threshold=clip_threshold)


# ---------------------------------------------------------------------------
# Proximal DP-SGD baseline


def _check_dpsgd(step: float, clip_threshold: float, sigma: float):
    if not step > 0 or not clip_threshold > 0:
        raise ParameterError("need step > 0 and clip_threshold > 0")
    rng.check_sigma(sigma)


def dpsgd_baseline(dataset: LassoDataset, kappa: float, step: float,
                   clip_threshold: float, sigma: float, K: int, seed: int) -> np.ndarray:
    """Proximal DP-SGD: noisy clipped gradient of one uniform item, then soft threshold.

    A one-block iteration through ``iterate``: step k's noise reads block 0."""
    _check_dpsgd(step, clip_threshold, sigma)
    x, items = np.zeros(dataset.p), SingleUniform()

    def advance(k):
        nonlocal x
        i = items.rows(dataset.n, seed, k)
        g = clip((dataset.A[i] @ x - dataset.b[i]) * dataset.A[i], clip_threshold)
        eta = rng.gaussian_rows(seed, k, (0,), sigma, dataset.p)[0] if sigma > 0 else None
        noisy_update(x, None, g, eta, -step)
        x = prox_l1(x, step * kappa)
        return 0, x

    return iterate(K, 1, advance)[0]


def dpsgd_federated(dataset: LassoDataset, kappa: float, step: float,
                    clip_threshold: float, sigma: float, K: int, m: int,
                    seed: int) -> np.ndarray:
    """Federated proximal DP-SGD through ``iterate``: per round, a sampled cohort of users
    each releases a clipped per-item gradient plus noise; the server averages and steps."""
    _check_dpsgd(step, clip_threshold, sigma)
    x, cohort = np.zeros(dataset.p), FixedCohort(m)

    def advance(k):
        nonlocal x
        rows = cohort.rows(dataset.n, seed, k)
        G = dataset.A[rows]
        G *= (G @ x - dataset.b[rows])[:, None]  # the cohort's per-item gradients
        clip_rows(G, clip_threshold)
        if sigma > 0:
            G += rng.gaussian_rows(seed, k, rows, sigma, dataset.p)
        noisy_update(x, None, G.mean(axis=0), None, -step)
        x = prox_l1(x, step * kappa)
        return rows, x

    return iterate(K, dataset.n, advance)[0]


# ---------------------------------------------------------------------------
# Experiment runner


SETTINGS = ("centralized", "federated", "decentralized")
ALGORITHMS = ("admm", "dpsgd")


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark cell grid: data, algorithm, budgets, and tuned defaults.

    Defaults were fixed by the documented tuning protocol: grid search of
    (lam | step, clip_threshold, gamma_scale) at the smallest budget of the
    epsilon grid with tuning seed 12345, shared across all budgets.
    ``gamma = gamma_scale * 2 * n_train`` (the row solve's natural scale).
    ``sigma`` overrides calibration when set (use 0.0 for non-private runs).
    Each field is a CLI flag and config-file key; metadata holds its argparse keywords.
    """

    setting: str = field(default="federated", metadata={"choices": SETTINGS})
    algorithm: str = field(default="admm", metadata={"choices": ALGORITHMS})
    n: int = 1000
    p: int = 64
    support_size: int = 8
    noise_std: float = 0.1
    K: int = 200
    lam: float = field(default=0.1, metadata={
        "help": "splitting step size in (0, 1]; at 1 a noiseless decentralized walk "
                "may not settle, so use < 1 there"})
    gamma_scale: float = field(default=1.0,
                               metadata={"help": "prox step as a multiple of 2*n_train"})
    step: float = field(default=0.1, metadata={"help": "DP-SGD step size"})
    clip_threshold: float = 0.1
    kappa: float | None = None
    kappa_fraction: float = 0.1
    sample_fraction: float = 0.1
    epsilons: tuple[float, ...] = (0.1, 0.3, 1.0, 3.0, 10.0)
    delta: float = 1e-6
    sigma: float | None = field(default=None, metadata={
        "help": "fixed noise std (skips calibration; 0 = non-private)"})
    seeds: tuple[int, ...] = tuple(range(10))
    data_seed: int = 0
    test_fraction: float = 0.1
    alphas: tuple[float, ...] = BENCH_ALPHAS

    def __post_init__(self):
        if self.setting not in SETTINGS:
            raise ParameterError(f"unknown setting {self.setting!r}")
        if self.algorithm not in ALGORITHMS:
            raise ParameterError(f"unknown algorithm {self.algorithm!r}")
        if self.setting == "decentralized" and self.algorithm == "dpsgd":
            raise ParameterError("the DP-SGD baseline has no decentralized variant")
        for name in ("epsilons", "seeds"):
            if not getattr(self, name):
                raise ParameterError(f"{name} must not be empty")
        for seed in (*self.seeds, self.data_seed):  # rng keys a seed mod 2**64: others alias
            if type(seed) is bool or not isinstance(seed, numbers.Integral) or not 0 <= seed < 2**64:
                raise ParameterError(f"a seed must be an integer in [0, 2**64), got {seed!r}")
        for eps in self.epsilons:  # solve calibrates at min(epsilons) only; NaN, inf fail anywhere
            if not eps < math.inf:
                privacy.check_budget(eps)
        privacy.check_delta(self.delta)
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ParameterError(f"sample fraction must lie in (0, 1], got {self.sample_fraction}")
        for name in ("gamma_scale", "clip_threshold"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ParameterError(f"{name} must be a finite number > 0, got {value}")
        for name in ("kappa", "kappa_fraction"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value < math.inf:
                raise ParameterError(f"{name} must be a finite number >= 0, got {value}")


@dataclass(frozen=True)
class ResultRow:
    setting: str
    algorithm: str
    epsilon: float
    delta: float
    sigma: float
    K: int
    seed: int
    train_obj: float
    test_obj: float
    runtime_ms: float


RESULT_COLUMNS = ("setting", "algorithm", "epsilon", "delta", "sigma", "K",
                  "seed", "train_obj", "test_obj", "runtime_ms")


def _cohort(config: ExperimentConfig, n_train: int) -> int:
    """The federated cohort size m: the one a run samples and the accountant charges."""
    return max(1, int(round(config.sample_fraction * n_train)))


def _accountant(config: ExperimentConfig, gamma: float, n_train: int) -> privacy.Accountant:
    """The cell's accountant at the config's grid and delta (setting, L and m derived once)."""
    if config.setting == "centralized" and config.algorithm == "dpsgd":
        # Record-level DP-SGD: K compositions of the (1/n)-subsampled Gaussian
        # mechanism on the clipped gradient (sensitivity 2C).
        return privacy.subsampled_accountant(K=config.K, q=1.0 / n_train,
                                             sensitivity=2.0 * config.clip_threshold,
                                             alphas=config.alphas, delta=config.delta)
    # The effective Lipschitz constant of the clipped release (module docstring).
    C = config.clip_threshold
    setting, L = {"centralized": ("centralized", n_train * C / gamma),
                  "federated": ("federated_central", C / gamma),
                  "decentralized": ("network", C / gamma)}[config.setting]
    if config.algorithm == "dpsgd":
        L = C / (2.0 * gamma)
    return privacy.accountant(setting, K=config.K, L=L, gamma=gamma, n=n_train,
                              m=_cohort(config, n_train), alphas=config.alphas, delta=config.delta)


def achieved_epsilon(config: ExperimentConfig, sigma: float, gamma: float,
                     n_train: int) -> float:
    """DP epsilon actually certified by the accountant for the noise used."""
    return math.inf if sigma == 0.0 else _accountant(config, gamma, n_train).epsilon(sigma)


def calibrate_noise(config: ExperimentConfig, epsilon: float, gamma: float,
                    n_train: int) -> float:
    """Noise std meeting (epsilon, delta) for this cell: its accountant's calibration."""
    return _accountant(config, gamma, n_train).calibrate(epsilon)


def _cell(config: ExperimentConfig) -> tuple[LassoDataset, LassoDataset, float, float]:
    """The cell's train and test sets, Lasso weight kappa and prox step gamma."""
    data = gen_lasso(config.n, config.p, config.support_size, config.noise_std,
                     config.data_seed)
    train, test = train_test_split(data, config.test_fraction, config.data_seed)
    kappa = config.kappa if config.kappa is not None else default_kappa(train, config.kappa_fraction)
    return train, test, kappa, config.gamma_scale * 2.0 * train.n


def _timed_row(config: ExperimentConfig, cell, sigma: float, epsilon: float, seed: int,
               collect: bool = False) -> tuple[ResultRow, dict]:
    """One timed run of the cell: its result row plus optional artifacts (trace, log)."""
    train, test, kappa, gamma = cell
    m = _cohort(config, train.n)
    artifacts: dict = {}
    start = time.perf_counter()
    if config.algorithm == "dpsgd" and config.setting == "federated":
        x = dpsgd_federated(train, kappa, config.step, config.clip_threshold,
                            sigma, config.K, m, seed)
    elif config.algorithm == "dpsgd":
        x = dpsgd_baseline(train, kappa, config.step, config.clip_threshold,
                           sigma, config.K, seed)
    else:
        problem = lasso_consensus_problem(train, kappa, gamma, config.clip_threshold)
        objective = (lambda z: lasso_objective(train, z, kappa)) if collect else None
        if config.setting == "centralized":
            x, trace = admm.centralized_run(problem, BlockVector.zeros(train.n, train.p),
                                            config.lam, sigma, config.K, seed,
                                            objective=objective)
        elif config.setting == "federated":
            x, trace = admm.federated_run(problem, train.p, m, config.lam, sigma,
                                          config.K, seed, objective=objective)
        else:
            x, trace, artifacts["observations"] = admm.decentralized_run(
                problem, train.p, config.lam, sigma, config.K, seed, objective=objective)
        if collect:
            artifacts["trace"] = trace
    elapsed_ms = (time.perf_counter() - start) * 1e3
    row = ResultRow(setting=config.setting, algorithm=config.algorithm, epsilon=epsilon,
                    delta=config.delta, sigma=sigma, K=config.K, seed=seed,
                    train_obj=lasso_objective(train, x, kappa),
                    test_obj=lasso_objective(test, x, kappa), runtime_ms=elapsed_ms)
    return row, artifacts


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Run the configured grid; one row per (budget, seed).

    For each epsilon budget the noise is calibrated through the
    accountant, the algorithm runs once per seed, and the reported epsilon
    is re-derived from the noise actually used (never the requested
    budget). A fixed ``sigma`` skips calibration and still reports the
    accountant's epsilon for it.
    """
    cell = _cell(config)
    train, _, _, gamma = cell
    if config.sigma is not None:
        sigmas = [config.sigma]
    else:
        sigmas = [calibrate_noise(config, eps, gamma, train.n) for eps in config.epsilons]
    accounted = [(sig, achieved_epsilon(config, sig, gamma, train.n)) for sig in sigmas]
    return [_timed_row(config, cell, sigma, eps_reported, seed)[0]
            for sigma, eps_reported in accounted for seed in config.seeds]


def solve_once(config: ExperimentConfig, collect: bool = False) -> tuple[ResultRow, dict]:
    """One run (first seed, smallest budget unless sigma fixed) with artifacts.

    With ``collect`` the returned dict carries the run trace (per-round
    train objective) and, for decentralized runs, the observation log.
    """
    cell = _cell(config)
    train, _, _, gamma = cell
    if config.sigma is not None:
        sigma = config.sigma
    else:
        sigma = calibrate_noise(config, min(config.epsilons), gamma, train.n)
    return _timed_row(config, cell, sigma, achieved_epsilon(config, sigma, gamma, train.n),
                      config.seeds[0], collect=collect)


# ---------------------------------------------------------------------------
# Tuning protocol


ADMM_GRID = {"lam": (0.1, 0.3, 0.5, 1.0), "clip_threshold": (0.1, 1.0, 10.0),
             "gamma_scale": (0.01, 0.1, 1.0)}
DPSGD_GRID = {"step": (0.1, 0.3, 0.5, 1.0), "clip_threshold": (0.1, 1.0, 10.0)}
TUNING_SEED = 12345

# Output of `tune` on the default federated grid at its smallest budget
# (epsilon = 0.1, delta = 1e-6, tuning seed above); shipped so the default
# comparison reproduces without re-running the search.
TUNED_DEFAULTS = {
    "admm": {"lam": 0.1, "clip_threshold": 0.1, "gamma_scale": 1.0},
    "dpsgd": {"step": 0.1, "clip_threshold": 10.0},
}


def tuned_config(algorithm: str, **overrides) -> ExperimentConfig:
    """Default experiment config with the shipped tuned hyperparameters installed."""
    merged = dict(TUNED_DEFAULTS[algorithm], algorithm=algorithm, **overrides)
    return ExperimentConfig(**merged)


def tune(config: ExperimentConfig) -> ExperimentConfig:
    """Grid-search hyperparameters at the smallest budget with the fixed tuning seed.

    Returns the config with the best-mean-test-objective combination
    installed; all budgets then reuse it.
    """
    eps = min(config.epsilons)
    grid = ADMM_GRID if config.algorithm == "admm" else DPSGD_GRID
    names = list(grid)
    best, best_obj = None, math.inf
    for values in itertools.product(*grid.values()):
        candidate = replace(config, epsilons=(eps,), seeds=(TUNING_SEED,),
                            **dict(zip(names, values)))
        obj = run_experiment(candidate)[0].test_obj
        if obj < best_obj:
            best, best_obj = dict(zip(names, values)), obj
    if best is None:
        raise ModelError(f"no tuning candidate reached a finite test objective at epsilon={eps:g}")
    return replace(config, **best)


# ---------------------------------------------------------------------------
# CSV export


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path, header: Sequence, rows, what: str) -> None:
    """Write header and rows to a temporary file beside path, then rename it over path.

    A failed write leaves the old file. The file gets the mode ``open(path, "w")`` gives.
    """
    target = os.path.realpath(path)
    tmp = f"{target}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "x", newline="") as fh:  # created under the umask, as "w" would be
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        with contextlib.suppress(FileNotFoundError):
            shutil.copymode(target, tmp)  # "w" keeps an existing file's mode
        os.replace(tmp, target)
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def check_objectives(results: Sequence[ResultRow], path=None) -> None:
    """ModelError naming the first row with a non-finite objective (and the unwritten path)."""
    for row in results:
        if not math.isfinite(row.train_obj) or not math.isfinite(row.test_obj):
            raise ModelError(
                f"{row.setting} {row.algorithm} run at seed {row.seed}, epsilon={row.epsilon:g} "
                f"ended with a non-finite objective (train_obj={row.train_obj}, "
                f"test_obj={row.test_obj}); nothing written" + (f" to {path}" if path else ""))


def emit_csv(results: Sequence[ResultRow], path) -> None:
    """Stable column order, full-precision locale-independent numbers; a
    non-finite objective raises ModelError before anything is written."""
    check_objectives(results, path)
    _write_csv(path, RESULT_COLUMNS,
               ([_fmt(getattr(row, col)) for col in RESULT_COLUMNS] for row in results),
               "results")


def emit_accountant_csv(curve: privacy.RdpCurve, path) -> None:
    _write_csv(path, ("alpha", "epsilon", "provenance"),
               ([_fmt(float(a)), _fmt(float(e)), curve.provenance]
                for a, e in zip(curve.alphas, curve.epsilons)),
               "accountant curve")


def emit_trace_csv(trace, path) -> None:
    def cell(values, idx):
        return _fmt(values[idx]) if idx < len(values) else ""

    _write_csv(path, ("iter", "objective", "dist_sq"),
               ([k, cell(trace.objective, k), cell(trace.dist_sq, k)] for k in range(len(trace))),
               "trace")


def emit_observations_csv(log, path) -> None:
    """Per-user observation sequences: one row per hand-off, z by value."""
    events = log.events  # built anew on each read, so read once
    dim = max((len(z) for seq in events.values() for _, z in seq), default=0)
    _write_csv(path, ("user", "step") + tuple(f"z{j}" for j in range(dim)),
               ([user, k] + [_fmt(float(v)) for v in z]
                for user in sorted(events) for k, z in events[user]),
               "observations")
