"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np
import pytest

from helpers import consensus_displacement_audit, contractive_block_operator
from privfp import admm, bench, privacy, rng
from privfp.blocks import BlockVector
from privfp.errors import ConditionNotMet
from privfp.fixedpoint import (
    AllBlocks, BernoulliPerBlock, IterationConfig, SingleUniform, dpcd_instance,
    dpsgd_instance, run,
)
from privfp.operators import (
    L1Prox, QuadraticProx, QuadraticRankOneProx, ZeroProx, prox_l1, reflect_compose,
)
from privfp.utility import noiseless_decay


def report(criterion: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_nonprivate_centralized_matches_reference():
    start = time.perf_counter()
    data = bench.gen_lasso(n=1000, p=64, support_size=8, noise_std=0.1, seed=0)
    kappa = bench.default_kappa(data)
    reference = bench.reference_lasso(data, kappa)
    assert np.max(bench.optimality_gap(data, reference, kappa)) < 1e-8
    f_ref = bench.lasso_objective(data, reference, kappa)

    problem = bench.lasso_consensus_problem(data, kappa, gamma=2.0 * data.n)
    z, _ = admm.centralized_run(problem, BlockVector.zeros(data.n, data.p),
                                lam=1.0, sigma=0.0, K=1500, seed=0)
    f_z = bench.lasso_objective(data, z, kappa)
    gap = abs(f_z - f_ref) / abs(f_ref)
    elapsed = time.perf_counter() - start
    report(1, gap < 1e-6 and elapsed < 60.0,
           f"relative objective gap {gap:.2e} (tol 1e-6), {elapsed:.1f}s (< 60s)")


def test_criterion_2_fixed_points_satisfy_optimality():
    gen = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(20):
        p = int(gen.integers(1, 5))
        M = gen.normal(size=(p, p))
        H = M @ M.T / p + 0.3 * np.eye(p)
        center = gen.normal(size=p)
        kappa = float(gen.uniform(0.02, 0.5))
        gamma = float(gen.uniform(0.5, 2.0))
        smooth = QuadraticProx(Q=H, c=-H @ center, gamma=gamma)
        sparse = L1Prox(gamma * kappa)
        operator = reflect_compose(smooth, sparse, 0.5)
        cfg = IterationConfig(K=8000, sigma=0.0, lam=1.0, seed=trial)
        u, _ = run(BlockVector.zeros(1, p), operator, cfg)
        x = sparse(u.flat)
        g = H @ (x - center)
        on = np.abs(x) > 0
        gap = max(
            float(np.max(np.abs(g[on] + kappa * np.sign(x[on])), initial=0.0)),
            float(np.max(np.maximum(np.abs(g[~on]) - kappa, 0.0), initial=0.0)),
        )
        worst = max(worst, gap)
    report(2, worst < 1e-8, f"worst subgradient violation {worst:.2e} over 20 problems (tol 1e-8)")


def test_criterion_3_dpsgd_and_dpcd_recovery():
    # stochastic gradient recovery over 100 noisy steps under shared substreams
    gen = np.random.default_rng(5)
    p, K, seed = 6, 100, 404
    beta, gamma, sigma_grad = 2.0, 0.4, 0.7
    targets = [gen.normal(size=p) for _ in range(4)]
    grads = [lambda u, t=t: u - t for t in targets]
    handle, cfg = dpsgd_instance(grads, beta=beta, gamma=gamma, sigma_grad=sigma_grad,
                                 K=K, seed=seed, order="cyclic")
    _, trace = run(BlockVector.zeros(1, p), handle, cfg, record_iterates=True)
    x = np.zeros(p)
    sigma_engine = 2.0 * sigma_grad / beta
    worst_sgd = 0.0
    for k in range(K):
        eta_prime = -(beta / 2.0) * rng.gaussian_block(seed, k, 0, sigma_engine, p)
        x = x - gamma * ((x - targets[k % 4]) + eta_prime)
        worst_sgd = max(worst_sgd, float(np.max(np.abs(trace.iterates[k] - x))))

    # coordinate-descent recovery, one random block per step
    B, pb, seed_cd = 5, 3, 505
    coord = [lambda u, b=b: u.reshape(B, pb)[b] for b in range(B)]
    handle_cd, cfg_cd = dpcd_instance(coord, beta=1.0, n_blocks=B, block_dim=pb,
                                      sigma=0.3, K=K, seed=seed_cd)
    u0 = BlockVector(np.random.default_rng(1).normal(size=(B, pb)))
    _, trace_cd = run(u0, handle_cd, cfg_cd, record_iterates=True)
    xc = u0.data.copy()
    worst_cd = 0.0
    for k in range(K):
        mask = cfg_cd.schedule.mask(B, seed_cd, k)
        for b in np.flatnonzero(mask):
            xc[b] = xc[b] - 2.0 * xc[b] + rng.gaussian_block(seed_cd, k, int(b), 0.3, pb)
        worst_cd = max(worst_cd, float(np.max(np.abs(trace_cd.iterates[k].reshape(B, pb) - xc))))

    report(3, worst_sgd < 1e-12 and worst_cd < 1e-12,
           f"max per-iterate gaps: sgd {worst_sgd:.2e}, cd {worst_cd:.2e} (tol 1e-12)")


def test_criterion_4_accountant_exactness_and_guards():
    gen = np.random.default_rng(44)
    worst = 0.0
    checked = 0
    while checked < 100:
        alpha = float(gen.uniform(1.5, 4.0))
        K = int(gen.integers(1, 1000))
        L = float(gen.uniform(0.05, 3.0))
        gamma = float(gen.uniform(0.01, 2.0))
        sigma = float(gen.uniform(4.0, 40.0))
        n = int(gen.integers(20, 5000))
        m = max(1, int(gen.uniform(0.01, 0.15) * n))
        K_i = int(gen.integers(1, 50))

        def rel(a, b):
            return abs(a - b) / max(abs(b), 1e-300)

        worst = max(worst, rel(privacy.centralized_epsilon(alpha, K, L, gamma, sigma, n),
                               8 * alpha * K * L ** 2 * gamma ** 2 / (sigma ** 2 * n ** 2)))
        worst = max(worst, rel(privacy.local_epsilon(alpha, K_i, L, gamma, sigma),
                               8 * alpha * K_i * L ** 2 * gamma ** 2 / sigma ** 2))
        try:
            fed = privacy.federated_central_epsilon(alpha, K, L, gamma, sigma, m, n)
            worst = max(worst, rel(fed, 16 * alpha * K * L ** 2 * gamma ** 2 / (sigma ** 2 * n ** 2)))
        except ConditionNotMet:
            pass
        threshold = 2 * L * gamma * math.sqrt(alpha * (alpha - 1))
        if sigma > threshold and n >= 2:
            worst = max(worst, rel(
                privacy.network_rdp_epsilon(alpha, K_i, L, gamma, sigma, n),
                8 * alpha * K_i * L ** 2 * gamma ** 2 * math.log(n) / (sigma ** 2 * n)))
        checked += 1

    guards_ok = True
    for call in (
        lambda: privacy.subsampled_rdp(2.0, 0.5, 1.0, 8.0),        # q >= 1/5
        lambda: privacy.subsampled_rdp(2.0, 0.1, 1.0, 2.0),        # sigma < 4
        lambda: privacy.subsampled_rdp(4096.0, 0.1, 1.0, 4.0),     # alpha over cap
        lambda: privacy.federated_central_epsilon(2.0, 5, 1.0, 0.1, 4.0, 30, 100),
        lambda: privacy.network_rdp_epsilon(2.0, 1, 1.0, 1.0, 2.0 * math.sqrt(2.0), 10),
    ):
        try:
            call()
            guards_ok = False
        except ConditionNotMet:
            pass
    report(4, worst < 1e-12 and guards_ok,
           f"worst relative formula deviation {worst:.2e} over 100 points; "
           f"out-of-regime guards {'reject' if guards_ok else 'FAIL to reject'}")


def test_criterion_5_sensitivity_audit():
    combos = [(6, 1.3, 0.7, 0.8), (10, 0.5, 1.5, 1.0), (3, 2.0, 0.2, 0.4)]
    violations = 0
    margin = math.inf
    total = 0
    for idx, (n, L, gamma, lam) in enumerate(combos):
        trials = 1000 if idx == 0 else 200
        worst = consensus_displacement_audit(n, L, gamma, lam, trials=trials, seed=idx)
        bound = privacy.sensitivity_consensus(L, gamma, lam, n)
        if worst > bound + 1e-12:
            violations += 1
        margin = min(margin, bound - worst)
        total += trials
    report(5, violations == 0,
           f"0 violations over {total} random neighboring pairs "
           f"(smallest bound slack {margin:.2e})" if violations == 0 else
           f"{violations} combos violated the displacement bound")


def test_criterion_6_utility_bound_shape():
    B, pb = 4, 3
    mu, beta_s = 0.5, 2.0
    operator, tau = contractive_block_operator(B, pb, mu, beta_s, seed=0)
    u0 = BlockVector(np.random.default_rng(3).normal(size=(B, pb)) * 2.0)
    D = float(np.sum(u0.flat ** 2))
    schedules = [(1.0, AllBlocks()), (0.5, BernoulliPerBlock(0.5)), (1.0 / B, SingleUniform())]
    checkpoints = [5, 10, 20, 40]
    decay_ok = True
    details = []
    for q, schedule in schedules:
        means = np.zeros(len(checkpoints))
        n_seeds = 30
        for seed in range(n_seeds):
            cfg = IterationConfig(K=max(checkpoints), sigma=0.0, lam=1.0,
                                  schedule=schedule, seed=seed)
            _, trace = run(u0, operator, cfg, reference=np.zeros(B * pb))
            means += np.array([trace.dist_sq[k - 1] for k in checkpoints]) / n_seeds
        bounds = np.array([noiseless_decay(tau, q, k, D) for k in checkpoints])
        if not np.all(means <= bounds * 1.05):
            decay_ok = False
        details.append(f"q={q:g}: mean/bound ratios "
                       + ",".join(f"{m / b:.2f}" for m, b in zip(means, bounds)))

    def plateau(sigma):
        finals = []
        for seed in range(20):
            cfg = IterationConfig(K=300, sigma=sigma, lam=1.0, seed=seed)
            u, _ = run(BlockVector.zeros(B, pb), operator, cfg)
            finals.append(float(np.sum(u.flat ** 2)))
        return float(np.mean(finals))

    ratio = plateau(0.2) / plateau(0.1)
    noise_ok = 4.0 / 3.0 <= ratio <= 12.0
    report(6, decay_ok and noise_ok,
           f"noiseless decay within bound [{'; '.join(details)}]; "
           f"plateau ratio at doubled noise {ratio:.2f} (within [1.33, 12])")


def test_criterion_7_path_equivalences():
    gen = np.random.default_rng(7)
    n, p, K, lam, sigma, seed = 5, 3, 12, 0.7, 0.3, 99

    # federated full participation vs centralized, identity regularizer
    targets = gen.normal(size=(n, p))
    problem = admm.ConsensusProblem(
        prox_f=tuple(QuadraticProx(Q=np.eye(p), c=-targets[i], gamma=1.0) for i in range(n)),
        prox_r=ZeroProx())
    u0 = BlockVector(gen.normal(size=(n, p)))
    cen_z = []
    admm.centralized_run(problem, u0, lam, sigma, K + 1, seed,
                         objective=lambda z: cen_z.append(z.copy()) or 0.0)
    state = admm.initial_state(problem, p, u0)
    worst_fed = float(np.max(np.abs(state.z - cen_z[0])))
    for k in range(K):
        state = admm.federated_round(problem, state, range(n), lam, sigma, seed)
        worst_fed = max(worst_fed, float(np.max(np.abs(state.z - cen_z[k + 1]))))

    # general splitting specialized to consensus vs the direct path
    proxes = tuple(QuadraticRankOneProx(a=gen.normal(size=p), b=float(gen.normal()),
                                        gamma=1.5, n=n) for _ in range(n))
    problem2 = admm.ConsensusProblem(prox_f=proxes, prox_r=L1Prox(0.03))
    cen2 = []
    admm.centralized_run(problem2, BlockVector.zeros(n, p), lam, sigma, K, seed,
                         objective=lambda z: cen2.append(z.copy()) or 0.0)
    general = admm.consensus_as_general(problem2, p)
    gstate = admm.GeneralAdmmState(u=np.zeros(n * p), z=np.zeros(p))
    worst_gen = 0.0
    for k in range(K):
        gstate = admm.general_admm_step(general, gstate, lam, sigma, seed, noise_blocks=n)
        worst_gen = max(worst_gen, float(np.max(np.abs(gstate.z - cen2[k]))))

    report(7, worst_fed < 1e-12 and worst_gen < 1e-12,
           f"max deviations: federated vs centralized {worst_fed:.2e}, "
           f"general vs consensus {worst_gen:.2e} (tol 1e-12)")


def test_criterion_8_private_comparison_federated():
    start = time.perf_counter()
    budgets = (0.1, 0.3)
    means = {}
    for algorithm in ("admm", "dpsgd"):
        config = bench.tuned_config(algorithm, epsilons=budgets)
        rows = bench.run_experiment(config)
        # rows come grouped by budget, len(seeds) runs per group
        per = len(config.seeds)
        for idx, eps in enumerate(budgets):
            group = rows[idx * per:(idx + 1) * per]
            means[(algorithm, eps)] = float(np.mean([r.test_obj for r in group]))
    elapsed = time.perf_counter() - start
    ok = all(means[("admm", eps)] <= means[("dpsgd", eps)] for eps in budgets) \
        and elapsed < 900.0
    detail = "; ".join(
        f"eps={eps:g}: admm {means[('admm', eps)]:.2f} vs dpsgd {means[('dpsgd', eps)]:.2f}"
        for eps in budgets)
    report(8, ok, f"{detail}; runtime {elapsed:.0f}s (< 900s)")


def test_criterion_9_network_series_bound():
    worst_excess = -math.inf
    for n in (5, 10, 100, 1000):
        N = int(10 * n * math.log(n)) + 1
        k = np.arange(1, N + 1, dtype=float)
        partial = float(np.sum((1 - 1 / n) ** k / k) / n)
        worst_excess = max(worst_excess, partial - math.log(n) / n)
    report(9, worst_excess <= 1e-12,
           f"direct summation stays below ln(n)/n (max excess {worst_excess:.2e}) "
           f"for n in {{5, 10, 100, 1000}}")
