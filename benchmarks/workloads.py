"""The benchmark's workloads: inputs from a seed, one timed run, and its checks.

Every workload draws its data with ``bench.gen_lasso`` at the default cell
size (n=1000, p=64, support 8, a 90/10 split, so 900 training users). The
workload seed is both the data seed and the algorithm seed, so one seed
fixes every input and every run of a process replays the same iterates.

A workload has four parts. ``setup(seed)`` builds the inputs and is the
part ``setup_s`` times. ``setup_failures(state)`` checks what holds for
every run (a converged reference, a certified budget). ``run(state,
tracer)`` is one timed run; with a tracer it also counts the benchmark's
own callables. ``failures(state, result)`` checks one run's outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from privfp import admm, bench, fixedpoint, operators, rng
from privfp.blocks import BlockVector

CELL = bench.ExperimentConfig()  # the default bench cell fixes the data size


@dataclass
class RunResult:
    """Released iterates of one run plus the work it did."""

    outputs: dict[str, np.ndarray]  # fingerprinted and compared across replays
    rounds: int  # centralized/federated rounds, walk steps or engine iterations
    user_updates: int = 0  # per-user dual updates done by an ADMM driver
    info: dict = field(default_factory=dict)  # kept for the checks and the traced metrics


def lasso_inputs(seed: int):
    """Training split of the default cell's Lasso data, and its default kappa."""
    data = bench.gen_lasso(CELL.n, CELL.p, CELL.support_size, CELL.noise_std, seed)
    train, _ = bench.train_test_split(data, CELL.test_fraction, seed)
    return train, bench.default_kappa(train, CELL.kappa_fraction)


def _cohort(cfg, n_train: int) -> int:
    return max(1, int(round(cfg.sample_fraction * n_train)))


def _released_failures(result: RunResult, p: int) -> list[str]:
    out = []
    for key, z in result.outputs.items():
        if z.shape != (p,):
            out.append(f"{key} has shape {z.shape}, expected ({p},)")
        elif not np.all(np.isfinite(z)):
            out.append(f"{key} is not finite")
    return out


def _budget_failures(state: dict) -> list[str]:
    out = []
    for label, (cfg, sigma, gamma) in state["accounted"].items():
        eps = bench.achieved_epsilon(cfg, sigma, gamma, state["train"].n)
        if not eps <= cfg.epsilons[0]:
            out.append(f"{label}: certified epsilon {eps:.6g} exceeds the budget {cfg.epsilons[0]}")
    return out


class FederatedCompare:
    """The default ``privfp bench --compare`` cell at its smallest budget.

    Federated setting, cohort m=90 of 900, shipped TUNED_DEFAULTS, sigma
    calibrated at epsilon=0.1, delta=1e-6. One run is one ADMM solve plus
    one DP-SGD solve on the same seed.
    """

    name = "federated-compare"
    epsilon = 0.1

    def setup(self, seed: int) -> dict:
        train, kappa = lasso_inputs(seed)
        accounted = {}
        for algorithm in ("admm", "dpsgd"):
            cfg = bench.tuned_config(algorithm, epsilons=(self.epsilon,),
                                     data_seed=seed, seeds=(seed,))
            gamma = cfg.gamma_scale * 2.0 * train.n
            accounted[algorithm] = (cfg, bench.calibrate_noise(cfg, self.epsilon, gamma, train.n),
                                    gamma)
        cfg_a, _, gamma_a = accounted["admm"]
        problem = bench.lasso_consensus_problem(train, kappa, gamma_a, cfg_a.clip_threshold)
        return {"seed": seed, "train": train, "kappa": kappa, "accounted": accounted,
                "problem": problem, "m": _cohort(cfg_a, train.n)}

    def setup_failures(self, state: dict) -> list[str]:
        return _budget_failures(state)

    def run(self, state: dict, tracer=None) -> RunResult:
        cfg_a, sigma_a, _ = state["accounted"]["admm"]
        cfg_d, sigma_d, _ = state["accounted"]["dpsgd"]
        train, m, seed = state["train"], state["m"], state["seed"]
        z, _ = admm.federated_run(state["problem"], train.p, m, cfg_a.lam, sigma_a,
                                  cfg_a.K, seed)
        x = bench.dpsgd_federated(train, state["kappa"], cfg_d.step, cfg_d.clip_threshold,
                                  sigma_d, cfg_d.K, m, seed)
        return RunResult(outputs={"admm_z": z, "dpsgd_x": x}, rounds=cfg_a.K + cfg_d.K,
                         user_updates=cfg_a.K * m)

    def failures(self, state: dict, result: RunResult) -> list[str]:
        return _released_failures(result, state["train"].p)

    def sigmas(self, state: dict) -> dict[str, float]:
        return {k: v[1] for k, v in state["accounted"].items()}


class CentralExact:
    """Non-private centralized solve over all 900 users to a stated accuracy.

    sigma=0, lam=1, gamma=2*n_train. ``rounds`` is fixed with a margin over
    the ~220-240 rounds the gap needs at seeds 0-3, and each run must end
    within a relative objective gap of 1e-6 of ``bench.reference_lasso``.
    So a run times fixed work with an accuracy gate, not the time to reach
    the gap; ``rounds_to_tolerance`` reports the rounds the gap needs.
    """

    name = "central-exact"
    rounds = 400
    tolerance = 1e-6

    def setup(self, seed: int) -> dict:
        train, kappa = lasso_inputs(seed)
        reference = bench.reference_lasso(train, kappa)
        problem = bench.lasso_consensus_problem(train, kappa, gamma=2.0 * train.n)
        return {"seed": seed, "train": train, "kappa": kappa, "reference": reference,
                "f_ref": bench.lasso_objective(train, reference, kappa), "problem": problem}

    def setup_failures(self, state: dict) -> list[str]:
        # reference_lasso returns at max_iters without a signal: confirm it converged
        gap = float(np.max(bench.optimality_gap(state["train"], state["reference"],
                                                state["kappa"])))
        return [] if gap < 1e-8 else [f"reference optimality gap {gap:.2e} is not below 1e-8"]

    def run(self, state: dict, tracer=None) -> RunResult:
        train = state["train"]
        z, _ = admm.centralized_run(state["problem"], BlockVector.zeros(train.n, train.p),
                                    lam=1.0, sigma=0.0, K=self.rounds, seed=state["seed"])
        return RunResult(outputs={"z": z}, rounds=self.rounds,
                         user_updates=self.rounds * train.n)

    def failures(self, state: dict, result: RunResult) -> list[str]:
        out = _released_failures(result, state["train"].p)
        if out:
            return out
        f_z = bench.lasso_objective(state["train"], result.outputs["z"], state["kappa"])
        gap = abs(f_z - state["f_ref"]) / abs(state["f_ref"])
        return [] if gap <= self.tolerance else [f"relative objective gap {gap:.2e} > 1e-6"]

    def rounds_to_tolerance(self, state: dict) -> int | None:
        """Rounds until the released z first reaches the gap, from an untimed replay."""
        train, kappa = state["train"], state["kappa"]
        _, trace = admm.centralized_run(
            state["problem"], BlockVector.zeros(train.n, train.p), lam=1.0, sigma=0.0,
            K=self.rounds, seed=state["seed"],
            objective=lambda z: bench.lasso_objective(train, z, kappa))
        gaps = np.abs(np.array(trace.objective) - state["f_ref"]) / abs(state["f_ref"])
        reached = np.flatnonzero(gaps <= self.tolerance)
        return int(reached[0]) + 1 if reached.size else None

    def sigmas(self, state: dict) -> dict[str, float]:
        return {"admm": 0.0}


class WalkLong:
    """Decentralized random walk of many steps with the observation log on.

    Clip 0.1, sigma calibrated for the network view at epsilon=1,
    delta=1e-6. Each step does O(p) useful work next to per-step copies,
    generator builds and a z snapshot for the log.
    """

    name = "walk-long"
    steps = 9000
    epsilon = 1.0

    def setup(self, seed: int) -> dict:
        train, kappa = lasso_inputs(seed)
        cfg = bench.tuned_config("admm", setting="decentralized", K=self.steps,
                                 clip_threshold=0.1, epsilons=(self.epsilon,),
                                 data_seed=seed, seeds=(seed,))
        gamma = cfg.gamma_scale * 2.0 * train.n
        sigma = bench.calibrate_noise(cfg, self.epsilon, gamma, train.n)
        problem = bench.lasso_consensus_problem(train, kappa, gamma, cfg.clip_threshold)
        return {"seed": seed, "train": train, "kappa": kappa,
                "accounted": {"admm": (cfg, sigma, gamma)}, "problem": problem}

    def setup_failures(self, state: dict) -> list[str]:
        return _budget_failures(state)

    def run(self, state: dict, tracer=None) -> RunResult:
        cfg, sigma, _ = state["accounted"]["admm"]
        z, _, log = admm.decentralized_run(state["problem"], state["train"].p, cfg.lam,
                                           sigma, self.steps, state["seed"])
        return RunResult(outputs={"z": z}, rounds=self.steps, user_updates=self.steps,
                         info={"log": log})

    def failures(self, state: dict, result: RunResult) -> list[str]:
        out = _released_failures(result, state["train"].p)
        events = result.info["log"].total_events()
        if events != self.steps:
            out.append(f"observation log holds {events} events for {self.steps} steps")
        return out

    def sigmas(self, state: dict) -> dict[str, float]:
        return {"admm": state["accounted"]["admm"][1]}


class BlockGradient:
    """Gradient of block b of f(W) = (1/2n)||A W - Y||_F^2, W of shape (p, d) flattened."""

    def __init__(self, gram: np.ndarray, target: np.ndarray, b: int):
        self.row = gram[b]
        self.target = target[b]
        self.shape = (gram.shape[0], target.shape[1])

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self.row @ u.reshape(self.shape) - self.target


class Engine:
    """Two fixed-point solves that no ADMM driver reaches.

    First, noisy coordinate descent through ``fixedpoint.dpcd_instance``:
    B=64 blocks (one per feature) of dim 8 (one per regression target),
    ``SingleUniform``, sigma > 0. Second, noiseless Douglas-Rachford through
    ``reflect_compose(QuadraticProx, L1Prox)`` on the Lasso as a sparse
    quadratic with p=64, under ``AllBlocks``.
    """

    name = "engine"
    targets = 8
    cd_steps = 1000
    dr_steps = 1000
    cd_sigma = 1e-3

    def setup(self, seed: int) -> dict:
        train, kappa = lasso_inputs(seed)
        gen = rng.substream(seed, rng.DATA, 2, 0)
        planted = gen.uniform(size=(train.p, self.targets)) \
            * (gen.random((train.p, self.targets)) < CELL.support_size / train.p)
        Y = train.A @ planted + CELL.noise_std * gen.normal(size=(train.n, self.targets))
        gram = train.A.T @ train.A / train.n
        eig = np.linalg.eigvalsh(gram)
        gamma = 1.0 / np.sqrt(eig[0] * eig[-1])  # balances the quadratic's conditioning
        AtY = train.A.T @ Y / train.n
        grads = [BlockGradient(gram, AtY, b) for b in range(train.p)]
        return {"seed": seed, "train": train, "kappa": kappa, "targets": Y, "beta": float(eig[-1]),
                "grads": grads,
                "smooth": operators.QuadraticProx(Q=gram, c=-train.A.T @ train.b / train.n,
                                                  gamma=gamma),
                "sparse": operators.L1Prox(gamma * kappa)}

    def setup_failures(self, state: dict) -> list[str]:
        return []

    def run(self, state: dict, tracer=None) -> RunResult:
        p, seed = state["train"].p, state["seed"]
        grads = state["grads"]
        if tracer is not None:
            grads = [tracer.counter("fixedpoint.block_grad", g) for g in grads]
        cd_op, cd_cfg = fixedpoint.dpcd_instance(grads, state["beta"], p, self.targets,
                                                 self.cd_sigma, self.cd_steps, seed)
        dr_op = operators.reflect_compose(state["smooth"], state["sparse"], 0.5)
        if tracer is not None:
            cd_op = replace(cd_op, apply=tracer.span("fixedpoint.operator", cd_op.apply))
            dr_op = replace(dr_op, apply=tracer.span("fixedpoint.operator", dr_op.apply))
        cd_u, cd_trace = fixedpoint.run(BlockVector.zeros(p, self.targets), cd_op, cd_cfg,
                                        record_iterates=True)
        dr_u, _ = fixedpoint.run(BlockVector.zeros(1, p), dr_op,
                                 fixedpoint.IterationConfig(K=self.dr_steps, seed=seed))
        x = operators.prox_l1(dr_u.flat, state["sparse"].threshold)
        return RunResult(outputs={"cd_u": cd_u.flat, "dr_x": x},
                         rounds=self.cd_steps + self.dr_steps, info={"cd_trace": cd_trace})

    def failures(self, state: dict, result: RunResult) -> list[str]:
        out = []
        cd_gap = self.replay_gap(state, result.info["cd_trace"])
        if not cd_gap <= 1e-12:
            out.append(f"coordinate-descent iterates differ from the replay by {cd_gap:.2e}")
        x = result.outputs["dr_x"]
        violation = float(np.max(bench.optimality_gap(state["train"], x, state["kappa"])))
        if not violation <= 1e-8:
            out.append(f"Douglas-Rachford subgradient violation {violation:.2e} > 1e-8")
        return out

    def replay_gap(self, state: dict, trace) -> float:
        """Largest gap between the engine's iterates and a plain loop on the public streams."""
        p, seed, beta = state["train"].p, state["seed"], state["beta"]
        schedule = fixedpoint.SingleUniform()
        u = np.zeros((p, self.targets))
        worst = 0.0
        for k in range(self.cd_steps):
            for b in np.flatnonzero(schedule.mask(p, seed, k)):
                u[b] = u[b] - (2.0 / beta) * state["grads"][b](u.ravel()) \
                    + rng.gaussian_block(seed, k, int(b), self.cd_sigma, self.targets)
            worst = max(worst, float(np.max(np.abs(trace.iterates[k] - u.ravel()))))
        return worst

    def sigmas(self, state: dict) -> dict[str, float]:
        return {"cd": self.cd_sigma, "dr": 0.0}


WORKLOADS = {w.name: w for w in (FederatedCompare(), CentralExact(), WalkLong(), Engine())}
