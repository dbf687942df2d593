"""Each bench cell's accountant charges what its driver releases.

``bench``'s docstring argues the accountant's effective L: the splitting's user-level
release has sensitivity 4 lam C against noise lam sigma, and a DP-SGD baseline releases
a clipped gradient of sensitivity 2C against noise sigma. Here one round of each driver
runs from the same state on two neighbouring datasets, under one seed, so that both
draw the same noise. The neighbours differ only in the canary's target, b = +B or -B
with B large, so the canary's clipped deviation (or gradient) points one way in one
and the opposite way in the other. A recorder around ``fixedpoint.noisy_update`` takes
the round's increment D. Only the canary's row of D moves, and by exactly the
sensitivity: the bound holds and is met. The accountant ``bench`` builds for the cell
charges that measured sensitivity.
"""

import numpy as np
import pytest

from helpers import record_noisy_updates, schedule_rng
from privfp import admm, bench, privacy, simnet
from privfp.blocks import BlockVector

N, P, SEED = 8, 3, 4
C, LAM, STEP, SIGMA, M, KAPPA = 0.5, 0.3, 0.2, 0.9, 3, 0.01
GAMMA = 2.0 * N  # bench's prox step at gamma_scale 1
BIG = 1e8  # the canary's |b|; its deviation from z = 0 is b a / 2, far outside the ball

BASE = bench.gen_lasso(n=N, p=P, support_size=1, seed=5)
COHORT = simnet.sample_users(N, M, schedule_rng(SEED, 0))  # round 0 of both federated cells
ITEM = simnet.walk_next(N, schedule_rng(SEED, 0))  # round 0's item of the one-item baseline
HOLDER = simnet.walk_next(N, schedule_rng(SEED, 0, tag=1))  # the walk's first holder


def problem(data):
    return bench.lasso_consensus_problem(data, KAPPA, GAMMA, C)


# Per cell: its bench setting and algorithm, one round of its driver, the canary, the
# factor that turns the canary's displacement in D into that of the release whose noise
# has std sigma (D = lam (2 clip(x - z) + eta) for the splitting, -step (g + eta) for
# one item, -step mean_i (g_i + eta_i) for a cohort), the docstring's sensitivity of
# that release, and the n of the formulas' per-record displacement 4 L gamma / n: the
# data size for the record-level centralized bound, 1 at user level, None for the
# subsampled Gaussian of record-level DP-SGD.
CELLS = {
    "centralized admm": ("centralized", "admm", lambda d: admm.centralized_run(
        problem(d), BlockVector.zeros(N, P), LAM, SIGMA, 1, SEED), 0, 1 / LAM, 4 * C, N),
    "federated admm": ("federated", "admm", lambda d: admm.federated_run(
        problem(d), P, M, LAM, SIGMA, 1, SEED), int(COHORT[0]), 1 / LAM, 4 * C, 1),
    "decentralized admm": ("decentralized", "admm", lambda d: admm.decentralized_run(
        problem(d), P, LAM, SIGMA, 1, SEED), HOLDER, 1 / LAM, 4 * C, 1),
    "centralized dpsgd": ("centralized", "dpsgd", lambda d: bench.dpsgd_baseline(
        d, KAPPA, STEP, C, SIGMA, 1, SEED), ITEM, 1 / STEP, 2 * C, None),
    "federated dpsgd": ("federated", "dpsgd", lambda d: bench.dpsgd_federated(
        d, KAPPA, STEP, C, SIGMA, 1, M, SEED), int(COHORT[0]), M / STEP, 2 * C, 1),
}


def on_neighbour(run, canary, sign):
    """Run on the neighbour whose canary has b = sign * BIG."""
    b = BASE.b.copy()
    b[canary] = sign * BIG
    run(bench.LassoDataset(A=BASE.A, b=b, x_true=BASE.x_true))


def split_canary(call, canary):
    """The canary's row of D and the other rows (none when D is one row)."""
    d = call["d"]
    if d.ndim == 1:
        return d, d[:0]
    j = canary if call["rows"] is None else list(call["rows"]).index(canary)
    return d[j], np.delete(d, j, axis=0)


def measured_sensitivity(monkeypatch, name):
    _, _, run, canary, scale, _, _ = CELLS[name]
    calls = record_noisy_updates(monkeypatch)
    for sign in (1.0, -1.0):
        on_neighbour(run, canary, sign)
    plus, minus = calls  # one round each
    assert (plus["eta"] is None) == (minus["eta"] is None)
    if plus["eta"] is not None:  # the same noise on both sides, so it cancels exactly
        assert plus["eta"].tobytes() == minus["eta"].tobytes()
    (row_plus, rest_plus), (row_minus, rest_minus) = (split_canary(c, canary)
                                                      for c in (plus, minus))
    assert rest_plus.tobytes() == rest_minus.tobytes()  # no other user's row moves
    return float(np.linalg.norm(row_plus - row_minus)) * scale


@pytest.mark.parametrize("name", CELLS)
def test_release_moves_by_the_documented_sensitivity(monkeypatch, name):
    measured, bound = measured_sensitivity(monkeypatch, name), CELLS[name][5]
    assert measured <= (1 + 1e-12) * bound  # the bound holds, up to rounding
    assert measured >= (1 - 1e-9) * bound  # and the canary meets it


@pytest.mark.parametrize("name", CELLS)
def test_accountant_charges_the_measured_sensitivity(monkeypatch, name):
    setting, algorithm, _, _, _, _, records = CELLS[name]
    measured = measured_sensitivity(monkeypatch, name)
    built = {}

    def recording(factory):
        def build(*args, **kwargs):
            built.update(kwargs)
            return factory(*args, **kwargs)
        return build

    for factory in ("accountant", "subsampled_accountant"):
        monkeypatch.setattr(privacy, factory, recording(getattr(privacy, factory)))
    config = bench.ExperimentConfig(setting=setting, algorithm=algorithm, n=N, p=P, K=1,
                                    clip_threshold=C, sample_fraction=M / N)
    bench._accountant(config, GAMMA, N)
    if records is None:
        charged = built["sensitivity"]
    else:  # sensitivity_consensus at lam = 1 is 4 L gamma / records
        charged = privacy.sensitivity_consensus(built["L"], built["gamma"], 1.0, records)
    assert charged == pytest.approx(measured, rel=1e-9)
