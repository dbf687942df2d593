"""Noise rows and released iterates, pinned bit for bit.

``golden/replay.json`` was recorded at commit 92d7ba8 and holds:

- ``noise``: the ``float.hex`` of ``rng.gaussian_rows(seed, k, blocks, sigma,
  size)`` at fixed addresses, with k and b up to 2**64 - 1, at sigma = 1
  and at the smallest subnormal sigma, where the sign of a zero shows;
- ``cell``: a 60 x 8 Lasso design A, its targets b, the weight kappa and the
  prox step gamma, as hex, so the runs below read the same bits on any host
  (``gen_lasso`` and ``default_kappa`` compute them with BLAS);
- ``runs``: the released z of ``centralized_run`` and ``federated_run``
  (K = 40) and of ``decentralized_run`` (K = 300, so the walk's last draw
  block is partial) on that cell, at sigma in {0, 0.5}, clipping off and at
  0.1, plus the sha256 of each walk's ``emit_observations_csv`` file;
- ``engine``: the final iterate of ``fixedpoint.run`` with the reflection
  through a soft threshold, at sigma = 0.5 and lam = 0.7, under
  ``BernoulliPerBlock(0.5)`` and under ``SingleUniform``. This section was
  recorded later, when the engine's update became ``fixedpoint.noisy_update``:
  that change moved the engine's noisy bits on purpose, from
  old + lam (T + eta - old) to old + lam ((T - old) + eta), and left every
  other section as it was. Its ``all`` key (the same run under ``AllBlocks``)
  was added later still, recorded at commit 10b9ec3, before the engine
  stepped one block and all blocks on views of the iterate.

The consensus runs and the engine section compute with numpy's own loops
(``einsum``, ufuncs, reductions) and call no BLAS or LAPACK routine. DP-SGD
(``G @ x``), the engine's ``QuadraticProx`` (a BLAS product with a cached
inverse of I + gamma Q) and ``general_admm_step`` (``@``) do, and their bits
may differ with the BLAS kernel, so they are left to the benchmark's seed-0
fingerprints.

A change that moves one of these values changes a released iterate or the
noise behind it. The file is re-recorded only by a change that moves those
bits on purpose, and never to make a refactor pass.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from privfp import admm, bench, fixedpoint, rng
from privfp.blocks import BlockVector
from privfp.operators import L1Prox, reflect

GOLDEN = json.loads((Path(__file__).parent / "golden" / "replay.json").read_text())

SEED, LAM, K, K_WALK, M = 3, 0.5, 40, 300, 6
RUNS = {f"{driver} sigma={sigma:g} clip={clip}": (driver, sigma, clip)
        for driver in ("centralized", "federated", "decentralized")
        for sigma in (0.0, 0.5) for clip in (None, 0.1)}
SCHEDULES = {"bernoulli": fixedpoint.BernoulliPerBlock(0.5), "single": fixedpoint.SingleUniform(),
             "all": fixedpoint.AllBlocks()}


def _hexes(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


def _floats(hexes) -> np.ndarray:
    return np.array([float.fromhex(h) for h in hexes])


def noise_rows(draw: dict) -> list[list[str]]:
    rows = rng.gaussian_rows(draw["seed"], draw["k"], draw["blocks"],
                             float.fromhex(draw["sigma"]), draw["size"])
    return [_hexes(row) for row in rows]


def run_outputs(driver: str, sigma: float, clip: float | None, tmp_path: Path) -> dict:
    """The released z of one run on the golden cell, and the walk's observation file hash."""
    cell = GOLDEN["cell"]
    A = _floats(cell["A"]).reshape(len(cell["b"]), -1)
    data = bench.LassoDataset(A=A, b=_floats(cell["b"]), x_true=np.zeros(A.shape[1]))
    problem = bench.lasso_consensus_problem(data, float.fromhex(cell["kappa"]),
                                            float.fromhex(cell["gamma"]), clip)
    if driver == "centralized":
        z, _ = admm.centralized_run(problem, BlockVector.zeros(data.n, data.p), LAM, sigma, K,
                                    SEED)
        return {"z": _hexes(z)}
    if driver == "federated":
        z, _ = admm.federated_run(problem, data.p, M, LAM, sigma, K, SEED)
        return {"z": _hexes(z)}
    z, _, log = admm.decentralized_run(problem, data.p, LAM, sigma, K_WALK, SEED)
    bench.emit_observations_csv(log, tmp_path / "observations.csv")
    digest = hashlib.sha256((tmp_path / "observations.csv").read_bytes()).hexdigest()
    return {"z": _hexes(z), "observations_sha256": digest}


def engine_output(schedule: fixedpoint.BlockSchedule) -> list[str]:
    """The final iterate of a noisy engine run over 6 blocks of 4 under ``schedule``."""
    u0 = BlockVector(np.arange(24.0).reshape(6, 4) / 8.0 - 1.5)
    cfg = fixedpoint.IterationConfig(K=30, sigma=0.5, lam=0.7, schedule=schedule, seed=SEED)
    u, _ = fixedpoint.run(u0, reflect(L1Prox(0.2)), cfg)
    return _hexes(u.data)


@pytest.mark.parametrize("draw", GOLDEN["noise"],
                         ids=[f"{d['seed']}-{d['k']}-{len(d['blocks'])}-{d['sigma']}"
                              for d in GOLDEN["noise"]])
def test_noise_rows(draw):
    assert noise_rows(draw) == draw["rows"]


@pytest.mark.parametrize("key", RUNS)
def test_released_iterate(key, tmp_path):
    assert run_outputs(*RUNS[key], tmp_path) == GOLDEN["runs"][key]


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_engine_iterate(schedule):
    assert engine_output(SCHEDULES[schedule]) == GOLDEN["engine"][schedule]
