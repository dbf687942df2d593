"""Property test of the library's scalar arguments: every call returns or raises a typed error.

Each public entry point has a small valid keyword set, and each keyword the domain its
documentation gives it, written here apart from the rules of ``privfp.errors``. An example
replaces one to three of the keywords with edge values and calls the entry point. Every
single replacement on the valid set is an explicit example, so each edge value of each
argument is run whatever hypothesis draws. The call must return, or raise one of the four
types of ``privfp.errors``; any other exception fails the test. A single replacement that
leaves its keyword's domain must raise ``ParameterError``.
"""

import math
import signal
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from privfp import admm, bench, errors, fixedpoint, operators, privacy, simnet, utility
from privfp.blocks import BlockVector

EDGES = (0, -1, 2.5, True, "0.5", None, math.nan, math.inf, -math.inf, 1e-300, 1e300, 2**63,
         np.int64(3), np.array(3))
TYPED = (errors.ParameterError, errors.StructuralError, errors.ModelError, errors.ConditionNotMet)


def _int(v):
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _real(v):
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


def ints(lo, hi=math.inf):
    return lambda v: _int(v) and lo <= v <= hi


def reals(test=lambda v: True):
    return lambda v: _real(v) and test(v)


def optional(domain):
    return lambda v: v is None or domain(v)


# The domains. A value inside one may still fail with a typed error: a test elsewhere (a
# shape, a regime, an allocation) may reject it.
ANY = lambda v: True  # noqa: E731 -- no scalar rule: a structural check or an enumeration
MAX_ROOT = sys.float_info.max ** 0.5  # the largest real with a finite square
POSITIVE = reals(lambda v: v > 0)
NONNEGATIVE = reals(lambda v: v >= 0)
FINITE_POSITIVE = reals(lambda v: 0 < v < math.inf)
FINITE_NONNEGATIVE = reals(lambda v: 0 <= v < math.inf)
OPEN_UNIT = reals(lambda v: 0 < v < 1)
STEP = reals(lambda v: 0 < v <= 1)
SQUARE = reals(lambda v: 0 <= v <= MAX_ROOT)
LIPSCHITZ = reals(lambda v: 0 < v <= MAX_ROOT)
ACCOUNTABLE = reals(lambda v: 0 <= v <= MAX_ROOT and v * v > 0)
ORDER = reals(lambda v: v > 1)
ROUNDS = ints(1, 2**63 - 1)
SEED = ints(0, 2**64 - 1)
RUN = {"lam": (0.5, STEP), "sigma": (0.3, SQUARE), "seed": (1, SEED)}
CURVE = {"L": (1.0, LIPSCHITZ), "gamma": (0.1, LIPSCHITZ)}
UTILITY = {"tau": (0.5, reals(lambda v: 0 <= v < 1)), "q": (0.5, STEP), "sigma": (1.0, SQUARE),
           "zeta": (0.1, SQUARE), "p": (2, ints(1)), "D": (1.0, FINITE_NONNEGATIVE), "k": (3, ints(0))}

DATA = bench.gen_lasso(n=12, p=3, support_size=2, seed=1)
PROBLEM = bench.lasso_consensus_problem(DATA, 0.01, 24.0, clip_threshold=0.5)
STATE = admm.initial_state(PROBLEM, 3)
GENERAL = admm.consensus_as_general(PROBLEM, 3)
GENERAL_STATE = admm.GeneralAdmmState(u=np.zeros(36), z=np.zeros(3))
ENGINE = operators.reflect_compose(operators.L1Prox(0.1), operators.ZeroProx(), 0.5)
GRADS = [lambda u, i=i: u - i for i in range(3)]


def _accountant(**kw):
    return privacy.accountant(**kw).calibrate(1.0)


def _calibrate(epsilon):
    cell = privacy.accountant("network", K=20, L=1.0, gamma=0.1, n=10, delta=1e-6)
    return cell.calibrate(epsilon)


def _run(**kw):
    return fixedpoint.run(BlockVector.zeros(3, 2), ENGINE, fixedpoint.IterationConfig(**kw))


def _step(k):
    return fixedpoint.step(BlockVector.zeros(3, 2), ENGINE, fixedpoint.IterationConfig(K=3), k)


def _solve(**kw):
    return bench.solve_once(bench.ExperimentConfig(seeds=(0,), epsilons=(1.0,), **kw))


# name: (function, {keyword: (valid value, domain)}); keywords not listed are held fixed
ENTRY_POINTS = {
    "centralized_run": (lambda **kw: admm.centralized_run(PROBLEM, BlockVector.zeros(12, 3), **kw),
                        dict(RUN, K=(3, ROUNDS))),
    "federated_run": (lambda **kw: admm.federated_run(PROBLEM, **kw),
                      dict(RUN, p=(3, ints(1)), m=(4, ints(1, 12)), K=(3, ROUNDS))),
    "decentralized_run": (lambda **kw: admm.decentralized_run(PROBLEM, **kw),
                          dict(RUN, p=(3, ints(1)), K=(3, ROUNDS))),
    "federated_round": (lambda **kw: admm.federated_round(PROBLEM, STATE, [0, 5], **kw), RUN),
    "decentralized_step": (lambda **kw: admm.decentralized_step(PROBLEM, STATE, **kw),
                           dict(RUN, i=(2, ANY))),
    "general_admm_step": (lambda **kw: admm.general_admm_step(GENERAL, GENERAL_STATE, **kw),
                          dict(RUN, noise_blocks=(12, ints(1)))),
    "run": (_run, dict(RUN, K=(3, ROUNDS))),
    "step": (_step, {"k": (1, ints(0, 2))}),
    "dpsgd_instance": (lambda **kw: fixedpoint.dpsgd_instance(GRADS, **kw),
                       {"beta": (1.0, reals(lambda v: 0 < v < 4)),  # gamma*beta/2 < 1
                        "gamma": (0.5, reals(lambda v: 0 < v < 2)),
                        "sigma_grad": (0.1, SQUARE), "K": (3, ROUNDS), "seed": (0, SEED)}),
    "dpcd_instance": (lambda **kw: fixedpoint.dpcd_instance(GRADS, **kw),
                      {"beta": (1.0, POSITIVE), "n_blocks": (3, ints(2)),
                       "block_dim": (1, ints(1)), "sigma": (0.1, SQUARE), "K": (3, ROUNDS),
                       "seed": (0, SEED)}),
    "BernoulliPerBlock": (fixedpoint.BernoulliPerBlock, {"q": (0.5, STEP)}),
    "FixedCohort": (fixedpoint.FixedCohort, {"m": (2, ints(1))}),
    "accountant": (_accountant, dict(CURVE, setting=("centralized", ANY), K=(20, ints(0)),
                                     n=(10, ints(1)), delta=(1e-6, optional(OPEN_UNIT)))),
    "federated_accountant": (_accountant, dict(CURVE, setting=("federated_central", ANY),
                                               K=(20, ints(0)), n=(100, ints(1)),
                                               m=(10, ints(1, 100)),
                                               delta=(1e-6, optional(OPEN_UNIT)))),
    "network_accountant": (_accountant, dict(CURVE, setting=("network", ANY), K=(20, ints(0)),
                                             n=(10, ints(2)), K_i=(3, optional(ints(0))),
                                             delta=(1e-6, optional(OPEN_UNIT)))),
    "subsampled_accountant": (lambda **kw: privacy.subsampled_accountant(**kw).calibrate(1.0),
                              {"K": (20, ints(0)), "q": (0.01, OPEN_UNIT),
                               "sensitivity": (0.2, SQUARE), "delta": (1e-6, optional(OPEN_UNIT))}),
    "gaussian_rdp": (privacy.gaussian_rdp, {"sensitivity": (1.0, SQUARE),
                                            "sigma": (2.0, ACCOUNTABLE), "alpha": (2.0, ORDER)}),
    "centralized_epsilon": (privacy.centralized_epsilon,
                            dict(CURVE, alpha=(2.0, ORDER), K=(5, ints(0)),
                                 sigma=(2.0, ACCOUNTABLE), n=(10, ints(1)))),
    "local_epsilon": (privacy.local_epsilon, dict(CURVE, alpha=(2.0, ORDER), K_i=(5, ints(0)),
                                                  sigma=(2.0, ACCOUNTABLE))),
    "federated_central_epsilon": (privacy.federated_central_epsilon,
                                  dict(CURVE, alpha=(2.0, ORDER), K=(5, ints(0)),
                                       sigma=(8.0, ACCOUNTABLE), m=(1, ints(1, 100)),
                                       n=(100, ints(1)))),
    "network_rdp_epsilon": (privacy.network_rdp_epsilon,
                            dict(CURVE, alpha=(2.0, ORDER), K_i=(5, ints(0)),
                                 sigma=(2.0, ACCOUNTABLE), n=(10, ints(2)))),
    "subsampled_rdp": (privacy.subsampled_rdp,
                       {"alpha": (2.0, ORDER), "q": (0.01, OPEN_UNIT),
                        "sensitivity": (1.0, SQUARE), "sigma": (8.0, ACCOUNTABLE)}),
    "sensitivity_consensus": (privacy.sensitivity_consensus,
                              dict(CURVE, lam=(0.5, STEP), n=(10, ints(1)))),
    "sensitivity_general": (privacy.sensitivity_general,
                            dict(CURVE, lam=(0.5, STEP), n=(10, ints(1)),
                                 A_norm=(2.0, POSITIVE), omega_A=(0.5, reals()))),
    "rdp_to_dp": (lambda **kw: privacy.rdp_to_dp(privacy.RdpCurve((2.0,), (0.5,)), **kw),
                  {"delta": (1e-6, OPEN_UNIT)}),
    "estimated_participations": (privacy.estimated_participations,
                                 {"K": (25, ints(0)), "n": (10, ints(1))}),
    "calibrate": (_calibrate, {"epsilon": (1.0, reals(lambda v: v == v and v != math.inf))}),
    "gen_lasso": (bench.gen_lasso, {"n": (10, ints(1)), "p": (3, ints(1)),
                                    "support_size": (2, ints(0, 3)),
                                    "noise_std": (0.1, NONNEGATIVE), "seed": (0, SEED)}),
    "train_test_split": (lambda **kw: bench.train_test_split(DATA, **kw),
                         {"test_fraction": (0.25, OPEN_UNIT), "seed": (0, SEED)}),
    "lasso_consensus_problem": (lambda **kw: bench.lasso_consensus_problem(DATA, **kw),
                                {"kappa": (0.01, FINITE_NONNEGATIVE), "gamma": (24.0, POSITIVE),
                                 "clip_threshold": (0.5, optional(POSITIVE))}),
    "ExperimentConfig": (_solve, {
        "n": (20, ints(1)), "p": (3, ints(1)), "support_size": (2, ints(0, 3)),
        "noise_std": (0.1, NONNEGATIVE), "K": (3, ROUNDS), "lam": (0.5, STEP),
        "gamma_scale": (1.0, FINITE_POSITIVE), "clip_threshold": (0.1, FINITE_POSITIVE),
        "kappa": (0.01, optional(FINITE_NONNEGATIVE)), "kappa_fraction": (0.1, FINITE_NONNEGATIVE),
        "sample_fraction": (0.1, STEP), "delta": (1e-6, OPEN_UNIT), "data_seed": (0, SEED),
        "test_fraction": (0.25, OPEN_UNIT)}),
    "dpsgd_baseline": (lambda **kw: bench.dpsgd_baseline(DATA, **kw),
                       {"kappa": (0.01, FINITE_NONNEGATIVE), "step": (0.1, POSITIVE),
                        "clip_threshold": (1.0, POSITIVE), "sigma": (0.5, SQUARE),
                        "K": (3, ROUNDS), "seed": (0, SEED)}),
    "dpsgd_federated": (lambda **kw: bench.dpsgd_federated(DATA, **kw),
                        {"kappa": (0.01, FINITE_NONNEGATIVE), "step": (0.1, POSITIVE),
                         "clip_threshold": (1.0, POSITIVE), "sigma": (0.5, SQUARE),
                         "K": (3, ROUNDS), "m": (4, ints(1, 12)), "seed": (0, SEED)}),
    "Contractive": (operators.Contractive, {"tau": (0.5, reals(lambda v: 0 <= v < 1))}),
    "Averaged": (operators.Averaged, {"lam": (0.5, OPEN_UNIT)}),
    "L1Prox": (operators.L1Prox, {"threshold": (0.1, NONNEGATIVE)}),
    "QuadraticRankOneProx": (lambda **kw: operators.QuadraticRankOneProx(np.ones(2), 1.0, **kw),
                             {"gamma": (1.0, POSITIVE), "n": (4, ints(1))}),
    "RowQuadraticProx": (lambda **kw: operators.RowQuadraticProx(DATA.A, DATA.b, **kw),
                         {"gamma": (1.0, POSITIVE)}),
    "QuadraticProx": (lambda **kw: operators.QuadraticProx(np.eye(2), np.ones(2), **kw),
                      {"gamma": (1.0, POSITIVE)}),
    "reflect_compose": (lambda **kw: operators.reflect_compose(operators.ZeroProx(),
                                                               operators.ZeroProx(), **kw),
                        {"lam": (0.5, OPEN_UNIT)}),
    "gradient_step_operator": (lambda **kw: operators.gradient_step_operator(GRADS[0], **kw),
                               {"beta": (1.0, POSITIVE), "mu": (0.5, NONNEGATIVE)}),
    "prox_l1": (lambda **kw: operators.prox_l1(np.arange(3.0), **kw),
                {"threshold": (0.5, NONNEGATIVE)}),
    "clip": (lambda **kw: operators.clip(np.arange(3.0), **kw), {"threshold": (0.5, POSITIVE)}),
    "clip_rows": (lambda **kw: operators.clip_rows(np.ones((2, 3)), **kw),
                  {"threshold": (0.5, POSITIVE)}),
    "UtilityParams": (utility.UtilityParams, UTILITY),
    "utility_bound": (lambda **kw: utility.utility_bound(utility.UtilityParams(**kw)), UTILITY),
    "noiseless_decay": (utility.noiseless_decay,
                        {key: UTILITY[key] for key in ("tau", "q", "k", "D")}),
    "excess_noise_ratio": (utility.excess_noise_ratio,
                           {key: UTILITY[key] for key in ("tau", "q", "sigma", "zeta", "p")}),
    "sample_users": (lambda **kw: simnet.sample_users(rng=np.random.default_rng(0), **kw),
                     {"n": (10, ints(1, 2**63 - 1)), "m": (3, ints(1, 10))}),
    "walk_next": (lambda **kw: simnet.walk_next(rng=np.random.default_rng(0), **kw),
                  {"n": (10, ints(1, 2**63 - 1))}),
}


def _valid(name):
    return {key: value for key, (value, _) in ENTRY_POINTS[name][1].items()}


def single_edges(name):
    """The valid keywords with one replaced by each edge value."""
    for key in ENTRY_POINTS[name][1]:
        for edge in EDGES:
            yield dict(_valid(name), **{key: edge})


@st.composite
def keywords(draw, name):
    values = _valid(name)
    for key in draw(st.lists(st.sampled_from(sorted(values)), min_size=1, max_size=3,
                             unique=True)):
        values[key] = draw(st.sampled_from(EDGES))
    return values


def _outside(name, values):
    """The keyword of a single replacement that leaves its domain, or None."""
    changed = [key for key, (value, _) in ENTRY_POINTS[name][1].items()
               if values[key] is not value]
    if len(changed) == 1 and not ENTRY_POINTS[name][1][changed[0]][1](values[changed[0]]):
        return changed[0]
    return None


def _timeout(signum, frame):
    raise TimeoutError("the call ran for 5 s")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in runs given 1e300
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_every_call_returns_or_raises_a_typed_error(name):
    def check(values):
        key = _outside(name, values)
        signal.alarm(5)  # a run given a K no rule bounds would not end
        try:
            ENTRY_POINTS[name][0](**values)
            raised = None
        except TYPED as exc:
            raised = exc
        finally:
            signal.alarm(0)
        assert key is None or isinstance(raised, errors.ParameterError), \
            f"{key}={values[key]!r} is outside its domain, and the call gave {raised!r}"

    check = given(values=keywords(name))(check)
    for values in single_edges(name):
        check = example(values=values)(check)
    handler = signal.signal(signal.SIGALRM, _timeout)
    try:
        settings(derandomize=True, max_examples=20, database=None)(check)()
    finally:
        signal.signal(signal.SIGALRM, handler)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_the_valid_keywords_run(name):
    assert all(domain(value) for value, domain in ENTRY_POINTS[name][1].values())
    ENTRY_POINTS[name][0](**_valid(name))
