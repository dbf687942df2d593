"""Every noisy run forms its increment through ``fixedpoint.noisy_update``, once per round.

A recorder around ``noisy_update`` (``helpers.record_noisy_updates``) takes each call's
row form, displacement, noise and increment D. Each run calls it once per round or step, and its increments, rebuilt one
round at a time by the oracles of ``helpers`` (``reference_round_deltas`` for the
consensus runs and the general splitting, ``reference_engine_increment`` for the engine)
or by the DP-SGD oracles below, equal the recorded ones byte for byte, as do the
released iterates. The DP-SGD oracles also give each round's displacement and noise.
The engine runs under each of its five schedules, through a handle with and without
``apply_blocks``: a step over one block or all blocks adds to a view of u (rows None),
a Bernoulli or cohort step by index.
"""

import dataclasses
import functools

import numpy as np
import pytest

from helpers import (record_noisy_updates, reference_engine_increment, reference_round_deltas,
                     schedule_rng)
from privfp import admm, bench, fixedpoint, rng, simnet
from privfp.blocks import BlockVector
from privfp.operators import L1Prox, QuadraticProx, clip, clip_rows, prox_l1, reflect

N, P, K, LAM, SEED = 6, 3, 12, 0.7, 5


def consensus(clip):
    targets = np.random.default_rng(N).normal(size=(N, P))
    return admm.ConsensusProblem(
        prox_f=tuple(QuadraticProx(Q=np.eye(P), c=-t, gamma=1.0) for t in targets),
        prox_r=L1Prox(0.05), clip_threshold=clip)


def u0():
    return np.random.default_rng(1).normal(size=(N, P))


def consensus_oracle(problem, U, rounds, sigma):
    """The increments and released z of consensus rounds against the dual mean; ``rounds``
    gives each round's rows. Returns (rows or None for all, D) per round and the last z."""
    U = U.copy()
    ubar = U.mean(axis=0)
    z = np.asarray(problem.prox_r(ubar), dtype=float)
    out = []
    for k, rows in enumerate(rounds):
        d = reference_round_deltas(problem, U, rows, z, LAM, sigma, SEED, k)
        U[rows] += d
        ubar = ubar + d.sum(axis=0) / problem.n
        z = np.asarray(problem.prox_r(ubar), dtype=float)
        out.append((rows, d))
    return out, z


def walk_holders(k_steps):
    holder, holders = simnet.walk_next(N, schedule_rng(SEED, 0, tag=1)), []
    for k in range(k_steps):
        holders.append(holder)
        holder = simnet.walk_next(N, schedule_rng(SEED, k))
    return holders


def centralized(sigma):
    problem = consensus(0.8)
    z, _ = admm.centralized_run(problem, BlockVector(u0()), LAM, sigma, K, SEED)
    U, out = u0(), []
    for k in range(K):
        zk = np.asarray(problem.prox_r(U.mean(axis=0)), dtype=float)
        d = reference_round_deltas(problem, U, np.arange(N), zk, LAM, sigma, SEED, k)
        U = U + d
        out.append((None, d))
    return z, out, zk


def federated(sigma):
    problem = consensus(0.8)
    z, _ = admm.federated_run(problem, P, 3, LAM, sigma, K, SEED, u0=BlockVector(u0()))
    rounds = [simnet.sample_users(N, 3, schedule_rng(SEED, k)) for k in range(K)]
    return (z, *consensus_oracle(problem, u0(), rounds, sigma))


def decentralized(sigma):
    problem = consensus(0.8)
    z, _, _ = admm.decentralized_run(problem, P, LAM, sigma, K, SEED, u0=BlockVector(u0()))
    out, want = consensus_oracle(problem, u0(), [np.array([h]) for h in walk_holders(K)], sigma)
    return z, [(None, d[0]) for _, d in out], want  # the walk adds to its 1-D row view


def federated_round(sigma):
    problem = consensus(0.8)
    state = admm.initial_state(problem, P, BlockVector(u0()))
    new = admm.federated_round(problem, state, [4, 1, 2], LAM, sigma, SEED)
    return (new.z, *consensus_oracle(problem, u0(), [np.array([1, 2, 4])], sigma))


def decentralized_step(sigma):
    problem = consensus(0.8)
    state = admm.initial_state(problem, P, BlockVector(u0()))
    new, _ = admm.decentralized_step(problem, state, 2, LAM, sigma, SEED)
    [(_, d)], want = consensus_oracle(problem, u0(), [np.array([2])], sigma)
    return new.z, [(None, d[0])], want


def general(sigma):
    problem = consensus(None)  # the general splitting does not clip
    general_problem = admm.consensus_as_general(problem, P)
    U = u0()
    state = admm.GeneralAdmmState(u=U.ravel(), z=np.zeros(P))
    new = admm.general_admm_step(general_problem, state, LAM, sigma, SEED, noise_blocks=N)
    assert U.tobytes() == u0().tobytes()  # the step updates a copy of state.u
    z = np.asarray(problem.prox_r(U.mean(axis=0)), dtype=float)
    d = reference_round_deltas(problem, U, np.arange(N), z, LAM, sigma, SEED, 0)
    return new.u, [(None, d.ravel())], U.ravel() + d.ravel()


def engine_cfg(sigma, schedule):
    return fixedpoint.IterationConfig(K=K, sigma=sigma, lam=LAM, schedule=schedule, seed=SEED)


OPERATOR = reflect(L1Prox(0.2))
BLOCK_OPERATOR = dataclasses.replace(
    OPERATOR, apply_blocks=lambda u, k, rows: OPERATOR.apply(u, k).reshape(N, P)[rows])
ENGINE_SCHEDULES = {"bernoulli": fixedpoint.BernoulliPerBlock(0.5),
                    "single": fixedpoint.SingleUniform(), "all": fixedpoint.AllBlocks(),
                    "cohort": fixedpoint.FixedCohort(3), "walk": fixedpoint.RandomWalk()}


def engine_rows(schedule, k):
    """Step k's active rows, and the rows the step passes: None where it adds to a view of
    u (one block or all blocks), the index array where it gathers and adds back."""
    rows = np.flatnonzero(schedule.mask(N, SEED, k))
    by_index = isinstance(schedule, (fixedpoint.BernoulliPerBlock, fixedpoint.FixedCohort))
    return rows, rows if by_index else None


def engine_run(sigma, schedule=ENGINE_SCHEDULES["bernoulli"], operator=OPERATOR):
    cfg = engine_cfg(sigma, schedule)
    u, _ = fixedpoint.run(BlockVector(u0()), operator, cfg)
    U, out = u0(), []
    for k in range(K):
        rows, passed = engine_rows(schedule, k)
        d = reference_engine_increment(U, OPERATOR.apply, rows, LAM, sigma, SEED, k)
        U[rows] += d
        out.append((passed, d))
    return u.data, out, U


def engine_step(sigma, schedule=ENGINE_SCHEDULES["bernoulli"], operator=OPERATOR):
    cfg = engine_cfg(sigma, schedule)
    before = u0()
    u = fixedpoint.step(BlockVector(before), operator, cfg, 3)
    assert before.tobytes() == u0().tobytes()  # step updates a copy
    rows, passed = engine_rows(schedule, 3)
    d = reference_engine_increment(before, OPERATOR.apply, rows, LAM, sigma, SEED, 3)
    want = before.copy()
    want[rows] += d
    return u.data, [(passed, d)], want


DATA = bench.gen_lasso(n=N, p=P, support_size=1, seed=2)
KAPPA, STEP, CLIP, M = 0.05, 0.3, 0.5, 3


def dpsgd_one_item(sigma):
    """Round k: item i from SCHEDULE (k, 0), Delta = its clipped gradient, e = noise block 0."""
    got = bench.dpsgd_baseline(DATA, KAPPA, STEP, CLIP, sigma, K, SEED)
    x, out = np.zeros(P), []
    for k in range(K):
        i = simnet.walk_next(N, schedule_rng(SEED, k))
        g = clip((DATA.A[i] @ x - DATA.b[i]) * DATA.A[i], CLIP)
        eta = rng.gaussian_block(SEED, k, 0, sigma, P) if sigma > 0 else None
        d = -STEP * (g if eta is None else g + eta)
        x = prox_l1(x + d, STEP * KAPPA)
        out.append((None, d, g, eta))
    return got, out, x


def dpsgd_cohort(sigma):
    """Round k: cohort from SCHEDULE (k, 0), Delta = mean of clipped gradients plus each
    user's noise block, e = None."""
    got = bench.dpsgd_federated(DATA, KAPPA, STEP, CLIP, sigma, K, M, SEED)
    x, out = np.zeros(P), []
    for k in range(K):
        rows = simnet.sample_users(N, M, schedule_rng(SEED, k))
        G = clip_rows((DATA.A[rows] @ x - DATA.b[rows])[:, None] * DATA.A[rows], CLIP)
        if sigma > 0:
            G = G + np.stack([rng.gaussian_block(SEED, k, int(i), sigma, P) for i in rows])
        delta = G.mean(axis=0)
        d = -STEP * delta
        x = prox_l1(x + d, STEP * KAPPA)
        out.append((None, d, delta, None))
    return got, out, x


RUNS = {"centralized_run": centralized, "federated_run": federated,
        "federated_round": federated_round, "decentralized_run": decentralized,
        "decentralized_step": decentralized_step, "fixedpoint.run": engine_run,
        "fixedpoint.step": engine_step, "general_admm_step": general,
        "bench.dpsgd_baseline": dpsgd_one_item, "bench.dpsgd_federated": dpsgd_cohort}
# The engine under every schedule, through a handle with and without ``apply_blocks``.
RUNS.update({f"{name} {schedule} {handle}":
             functools.partial(oracle, schedule=ENGINE_SCHEDULES[schedule], operator=operator)
             for name, oracle in (("fixedpoint.run", engine_run), ("fixedpoint.step", engine_step))
             for schedule in ENGINE_SCHEDULES
             for handle, operator in (("apply", OPERATOR), ("apply_blocks", BLOCK_OPERATOR))
             if (schedule, handle) != ("bernoulli", "apply")})


@pytest.mark.parametrize("sigma", [0.0, 0.4])
@pytest.mark.parametrize("name", RUNS)
def test_one_update_per_round_with_the_oracle_increments(monkeypatch, name, sigma):
    calls = record_noisy_updates(monkeypatch)
    got, want_calls, want = RUNS[name](sigma)
    assert len(calls) == len(want_calls)
    for call, (rows, d, *delta_eta) in zip(calls, want_calls):
        assert (call["rows"] is None) == (rows is None)
        if rows is not None:
            assert call["rows"].tolist() == np.asarray(rows).tolist()
        if delta_eta:  # an oracle that gives Delta and e pins them
            delta, eta = delta_eta
            assert call["delta"].tobytes() == delta.tobytes()
            assert (call["eta"] is None) == (eta is None)
            assert eta is None or call["eta"].tobytes() == eta.tobytes()
        else:
            assert (call["eta"] is None) == (sigma == 0.0)  # a noiseless run takes no noise pass
        assert call["d"].tobytes() == d.tobytes()
    assert got.tobytes() == want.tobytes()


def test_row_forms_run_the_same_arithmetic():
    gen = np.random.default_rng(3)
    U, delta, eta = gen.normal(size=(4, 5)), gen.normal(size=(4, 5)), gen.normal(size=(4, 5))
    want = U + 0.3 * (delta + eta)
    whole = U.copy()
    d = fixedpoint.noisy_update(whole, None, delta.copy(), eta, 0.3)
    indexed = U.copy()
    fixedpoint.noisy_update(indexed, np.arange(4), delta.copy(), eta, 0.3)
    rows = U.copy()
    for i in range(4):
        fixedpoint.noisy_update(rows[i], None, delta[i].copy(), eta[i], 0.3)
    assert d.tobytes() == (0.3 * (delta + eta)).tobytes()
    assert whole.tobytes() == indexed.tobytes() == rows.tobytes() == want.tobytes()
