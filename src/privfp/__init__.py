"""Differentially private optimization as noisy fixed-point iterations.

Modules: ``operators`` (proximal maps, reflections, gradient steps),
``fixedpoint`` (the noisy block-coordinate engine, its five block
schedules and its SGD/CD instantiations), ``admm`` (private consensus
splitting in centralized, federated, and decentralized form), ``privacy``
(Rényi-DP accountant and noise calibration), ``utility`` (mean-square
error bounds and step sizes), ``rng`` (counter-based random substreams),
``blocks`` (block vectors), ``simnet`` (sampling, random walks,
observation logs), and ``bench`` (the synthetic Lasso benchmark and CSV
export). The ``privfp`` CLI wraps solve/bench/account/calibrate.
"""

from . import admm, bench, blocks, errors, fixedpoint, operators, privacy, rng, simnet, utility

__all__ = ["admm", "bench", "blocks", "errors", "fixedpoint", "operators",
           "privacy", "rng", "simnet", "utility"]

__version__ = "0.1.0"
