import csv
import dataclasses
import math
import os
import re
import time

import numpy as np
import pytest

from helpers import schedule_rng
from privfp import bench, privacy, rng, simnet
from privfp.bench import (
    ExperimentConfig, default_kappa, dpsgd_baseline, dpsgd_federated, emit_csv,
    emit_accountant_csv, emit_trace_csv, gen_lasso, lasso_consensus_problem,
    lasso_objective, optimality_gap, reference_lasso, run_experiment,
    train_test_split,
)
from privfp.errors import ModelError, ParameterError, StructuralError
from privfp.fixedpoint import RunTrace
from privfp.operators import clip_rows, prox_l1


class TestGenLasso:
    def test_default_shape_and_row_norms(self):
        data = gen_lasso()
        assert data.A.shape == (1000, 64)
        assert data.b.shape == (1000,)
        np.testing.assert_allclose(np.linalg.norm(data.A, axis=1), 1.0, atol=1e-12)
        assert int(np.sum(np.abs(data.x_true) > 0)) == 8

    def test_noiseless_labels_exact(self):
        data = gen_lasso(n=50, p=10, support_size=4, noise_std=0.0, seed=3)
        np.testing.assert_array_equal(data.b, data.A @ data.x_true)

    def test_reproducible(self):
        a = gen_lasso(n=30, p=6, support_size=2, noise_std=0.1, seed=9)
        b = gen_lasso(n=30, p=6, support_size=2, noise_std=0.1, seed=9)
        assert np.array_equal(a.A, b.A) and np.array_equal(a.b, b.b)

    @pytest.mark.parametrize("support_size", [5, -1])
    def test_support_size_outside_zero_to_p_rejected(self, support_size):
        with pytest.raises(ParameterError, match="support size must lie in"):
            gen_lasso(n=10, p=4, support_size=support_size)


class TestSplit:
    def test_disjoint_and_deterministic(self):
        data = gen_lasso(n=100, p=8, support_size=3, seed=1)
        tr1, te1 = train_test_split(data, 0.1, seed=5)
        tr2, te2 = train_test_split(data, 0.1, seed=5)
        assert tr1.n == 90 and te1.n == 10
        assert np.array_equal(tr1.A, tr2.A) and np.array_equal(te1.b, te2.b)
        joined = np.vstack([tr1.A, te1.A])
        assert joined.shape[0] == data.n
        # disjointness: every original row appears exactly once
        seen = {tuple(row) for row in joined}
        assert len(seen) == data.n


    @pytest.mark.parametrize("n, fraction", [(1, 0.1), (1, 0.9), (2, 0.75), (10, 0.96), (3, 0.9)])
    def test_no_training_row_is_a_parameter_error(self, n, fraction):
        data = gen_lasso(n=n, p=4, support_size=2, seed=1)
        with pytest.raises(ParameterError, match=f"^test fraction {fraction} of n={n} rows "
                                                 "leaves no training row$"):
            train_test_split(data, fraction, seed=5)

    @pytest.mark.parametrize("n, fraction, n_train", [(2, 0.1, 1), (2, 0.74, 1), (10, 0.94, 1),
                                                      (3, 0.5, 1)])
    def test_one_training_row_is_enough(self, n, fraction, n_train):
        train, test = train_test_split(gen_lasso(n=n, p=4, support_size=2, seed=1), fraction, 5)
        assert (train.n, test.n) == (n_train, n - n_train)


class TestObjective:
    def test_zero_vector_value(self):
        data = gen_lasso(n=40, p=5, support_size=2, seed=2)
        want = 0.5 / data.n * float(data.b @ data.b)
        assert lasso_objective(data, np.zeros(5), 0.3) == pytest.approx(want, rel=1e-15)

    def test_unregularized_least_squares_matches_normal_equations(self):
        data = gen_lasso(n=80, p=6, support_size=3, seed=4)
        x_ls, *_ = np.linalg.lstsq(data.A, data.b, rcond=None)
        residual = data.A @ x_ls - data.b
        want = 0.5 / data.n * float(residual @ residual)
        got = lasso_objective(data, reference_lasso(data, 0.0), 0.0)
        assert got == pytest.approx(want, rel=1e-8)

    def test_planted_model_beats_zero_for_moderate_kappa(self):
        data = gen_lasso(seed=0)
        kappa = default_kappa(data)
        assert lasso_objective(data, data.x_true, kappa) <= \
            lasso_objective(data, np.zeros(data.p), kappa)

    def test_dimension_mismatch(self):
        data = gen_lasso(n=10, p=4, support_size=2, seed=0)
        with pytest.raises(StructuralError):
            lasso_objective(data, np.zeros(5), 0.1)


class TestReferenceSolver:
    def test_satisfies_optimality_conditions(self):
        data = gen_lasso(n=200, p=16, support_size=4, seed=6)
        kappa = default_kappa(data)
        x = reference_lasso(data, kappa)
        assert np.max(optimality_gap(data, x, kappa)) < 1e-8

    def test_unconverged_solve_raises(self):
        data = gen_lasso(n=200, p=16, support_size=4, seed=6)
        with pytest.raises(ModelError, match="max_iters=1;.*gradient-map norm"):
            reference_lasso(data, default_kappa(data), max_iters=1)


class TestDpsgdBaseline:
    def test_replays_uniform_items_and_block_zero_noise(self):
        # pins the draw addresses: item from schedule stream (k, 0), noise from block 0 of round k
        data = gen_lasso(n=30, p=5, support_size=2, seed=8)
        kappa, step, sigma, K, seed = 0.05, 0.3, 0.2, 60, 11
        got = dpsgd_baseline(data, kappa, step, clip_threshold=1e9, sigma=sigma, K=K, seed=seed)
        x = np.zeros(5)
        for k in range(K):
            i = simnet.walk_next(data.n, schedule_rng(seed, k))
            g = (data.A[i] @ x - data.b[i]) * data.A[i]
            x = prox_l1(x - step * (g + rng.gaussian_block(seed, k, 0, sigma, 5)), step * kappa)
        assert np.array_equal(got, x)

    @pytest.mark.parametrize("sigma, step, clip_threshold, m", [
        (0.0, 0.37, 0.1, 7), (0.7, 0.1, 10.0, 1), (0.7, 1.0, 0.1, 30), (30.39, 0.37, 10.0, 7)])
    def test_cohort_loop_keeps_the_bits_of_the_subtracted_step(self, sigma, step,
                                                                clip_threshold, m):
        # x + (-step) * mean, formed by noisy_update, is x - step * mean to the bit
        data = gen_lasso(n=40, p=6, support_size=2, seed=4)
        kappa, K, seed = 0.02, 40, 3
        got = dpsgd_federated(data, kappa, step, clip_threshold, sigma, K, m, seed)
        x = np.zeros(6)
        for k in range(K):
            rows = simnet.sample_users(data.n, m, schedule_rng(seed, k))
            G = data.A[rows]
            G *= (G @ x - data.b[rows])[:, None]
            clip_rows(G, clip_threshold)
            if sigma > 0:
                G += rng.gaussian_rows(seed, k, rows, sigma, 6)
            x = prox_l1(x - step * G.mean(axis=0), step * kappa)
        assert got.tobytes() == x.tobytes()

    def test_seeded_determinism(self):
        data = gen_lasso(n=25, p=4, support_size=2, seed=1)
        a = dpsgd_baseline(data, 0.02, 0.2, 1.0, 0.5, 40, seed=5)
        b = dpsgd_baseline(data, 0.02, 0.2, 1.0, 0.5, 40, seed=5)
        assert np.array_equal(a, b)

    def test_federated_variant_deterministic(self):
        data = gen_lasso(n=40, p=4, support_size=2, seed=2)
        a = dpsgd_federated(data, 0.02, 0.2, 1.0, 0.5, 30, m=4, seed=5)
        b = dpsgd_federated(data, 0.02, 0.2, 1.0, 0.5, 30, m=4, seed=5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("sigma", [-1.0, math.nan, math.inf, 1e200])
    def test_out_of_range_sigma_rejected(self, sigma):
        data = gen_lasso(n=20, p=3, support_size=1, seed=3)
        with pytest.raises(ParameterError, match="sigma"):
            dpsgd_baseline(data, 0.02, 0.2, 1.0, sigma, 5, seed=0)
        with pytest.raises(ParameterError, match="sigma"):
            dpsgd_federated(data, 0.02, 0.2, 1.0, sigma, 5, m=2, seed=0)

    @pytest.mark.parametrize("step, clip_threshold", [(math.nan, 1.0), (0.2, math.nan)],
                             ids=["nan_step", "nan_clip"])
    def test_nan_step_or_clip_rejected(self, step, clip_threshold):
        data = gen_lasso(n=20, p=3, support_size=1, seed=3)
        with pytest.raises(ParameterError, match="step > 0 and clip_threshold > 0"):
            dpsgd_baseline(data, 0.02, step, clip_threshold, 0.5, 5, seed=0)
        with pytest.raises(ParameterError, match="step > 0 and clip_threshold > 0"):
            dpsgd_federated(data, 0.02, step, clip_threshold, 0.5, 5, m=2, seed=0)

    @pytest.mark.parametrize("m", [2.5, True, 0], ids=repr)
    def test_cohort_size_that_is_not_an_integer_of_at_least_one_rejected(self, m):
        data = gen_lasso(n=20, p=3, support_size=1, seed=3)
        with pytest.raises(ParameterError, match="cohort size must be an integer >= 1"):
            dpsgd_federated(data, 0.02, 0.2, 1.0, 0.5, 5, m=m, seed=0)

    def test_zero_rounds_rejected(self):
        data = gen_lasso(n=20, p=3, support_size=1, seed=3)
        with pytest.raises(ParameterError, match="iteration count"):
            dpsgd_baseline(data, 0.02, 0.2, 1.0, 0.5, 0, seed=0)
        with pytest.raises(ParameterError, match="iteration count"):
            dpsgd_federated(data, 0.02, 0.2, 1.0, 0.5, 0, m=2, seed=0)

    def test_nan_target_raises_at_the_first_round_that_reads_it(self):
        data = gen_lasso(n=20, p=3, support_size=1, seed=3)
        b = data.b.copy()
        b[7] = np.nan
        data = dataclasses.replace(data, b=b)
        seed = 4
        first_item = next(k for k in range(1000)
                          if simnet.walk_next(data.n, schedule_rng(seed, k)) == 7)
        first_cohort = next(k for k in range(1000)
                            if 7 in simnet.sample_users(data.n, 2, schedule_rng(seed, k)))
        assert first_item > 0 and first_cohort > 0
        with pytest.raises(ModelError, match=f"round {first_item}$"):
            dpsgd_baseline(data, 0.02, 0.2, 1.0, 0.5, 1000, seed=seed)
        with pytest.raises(ModelError, match=f"round {first_cohort}$"):
            dpsgd_federated(data, 0.02, 0.2, 1.0, 0.5, 1000, m=2, seed=seed)


class TestRunExperiment:
    def test_smoke_completes_quickly(self):
        config = ExperimentConfig(n=100, p=16, support_size=4, K=50,
                                  epsilons=(1.0,), seeds=(0, 1))
        start = time.perf_counter()
        rows = run_experiment(config)
        assert time.perf_counter() - start < 10.0
        assert len(rows) == 2
        for row in rows:
            assert row.epsilon <= 1.0
            assert row.sigma > 0
            assert math.isfinite(row.train_obj) and math.isfinite(row.test_obj)

    def test_nonprivate_centralized_matches_reference(self):
        config = ExperimentConfig(setting="centralized", algorithm="admm",
                                  n=100, p=16, support_size=4, K=4000, lam=1.0,
                                  sigma=0.0, seeds=(0,))
        rows = run_experiment(config)
        data = gen_lasso(100, 16, 4, 0.1, 0)
        train, _ = train_test_split(data, 0.1, 0)
        kappa = default_kappa(train)
        ref = lasso_objective(train, reference_lasso(train, kappa), kappa)
        assert abs(rows[0].train_obj - ref) / ref < 1e-6
        assert rows[0].epsilon == math.inf

    def test_reported_epsilon_comes_from_accountant(self):
        config = ExperimentConfig(n=80, p=8, support_size=2, K=30,
                                  epsilons=(2.0,), seeds=(0,))
        row = run_experiment(config)[0]
        gamma = config.gamma_scale * 2.0 * 72
        want = bench.achieved_epsilon(config, row.sigma, gamma, 72)
        assert row.epsilon == want
        assert row.epsilon <= 2.0

    def test_tune_without_a_finite_objective_raises(self, monkeypatch):
        config = ExperimentConfig(n=60, p=6, support_size=2, K=5, epsilons=(1.0,))

        def nan_rows(candidate):
            return [bench.ResultRow(candidate.setting, candidate.algorithm, 1.0, 1e-6,
                                    1.0, 5, 0, math.nan, math.nan, 0.0)]

        monkeypatch.setattr(bench, "run_experiment", nan_rows)
        with pytest.raises(ModelError, match="finite test objective"):
            bench.tune(config)

    def test_decentralized_dpsgd_rejected(self):
        with pytest.raises(ParameterError):
            ExperimentConfig(setting="decentralized", algorithm="dpsgd")

    @pytest.mark.parametrize("delta", [0.0, 1.0, 2.0, -1e-6, math.nan, math.inf])
    def test_delta_outside_unit_interval_rejected(self, delta):
        with pytest.raises(ParameterError, match=r"delta must lie in \(0, 1\)"):
            ExperimentConfig(delta=delta)

    @pytest.mark.parametrize("field", ["seeds", "epsilons"])
    def test_empty_grid_rejected(self, field):
        # an empty grid used to yield no rows (run_experiment) or an
        # IndexError (solve_once) instead of a parameter error
        with pytest.raises(ParameterError, match=field):
            ExperimentConfig(sigma=0.0, **{field: ()})

    # rng keys a seed mod 2**64, so a seed outside [0, 2**64) would replay one inside it
    @pytest.mark.parametrize("seeds, data_seed", [
        ((-1,), 0), ((0, 2**64), 0), ((2**64 + 3,), 0), ((True,), 0), ((1.0,), 0), ((np.float64(2),), 0),
        ((0,), -1), ((0,), 2**64), ((0,), False), ((0,), 0.0), ((0,), None),
    ], ids=repr)
    def test_seed_outside_0_to_2_to_the_64_rejected(self, seeds, data_seed):
        bad = next(s for s in (*seeds, data_seed) if not (type(s) is int and 0 <= s < 2**64))
        with pytest.raises(ParameterError, match=re.escape(f"a seed must be an integer in "
                                                           f"[0, 2**64), got {bad!r}")):
            ExperimentConfig(seeds=seeds, data_seed=data_seed)

    def test_seeds_at_the_ends_of_the_range_accepted(self):
        config = ExperimentConfig(seeds=(0, np.uint64(2**64 - 1), 2**64 - 1), data_seed=np.int64(5))
        assert config.seeds[1] == 2**64 - 1 and config.data_seed == 5

    def test_decentralized_budget_path(self):
        config = ExperimentConfig(setting="decentralized", algorithm="admm",
                                  n=60, p=6, support_size=2, K=30,
                                  epsilons=(5.0,), seeds=(0,))
        row = run_experiment(config)[0]
        assert row.epsilon <= 5.0 and row.sigma > 0
        assert math.isfinite(row.test_obj)


class TestCsvExport:
    def test_empty_results_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == ",".join(bench.RESULT_COLUMNS) + "\n"

    def test_round_trip_exact_and_deterministic(self, tmp_path):
        rows = [bench.ResultRow("federated", "admm", 0.1234567890123456789, 1e-6,
                                3.3, 10, 0, 1 / 3, 2 / 7, 12.5)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(rows, p1)
        emit_csv(rows, p2)
        assert p1.read_bytes() == p2.read_bytes()
        with open(p1) as fh:
            reader = csv.DictReader(fh)
            parsed = next(reader)
        assert float(parsed["train_obj"]) == 1 / 3
        assert float(parsed["test_obj"]) == 2 / 7
        assert float(parsed["epsilon"]) == 0.1234567890123456789

    def test_accountant_csv(self, tmp_path):
        alphas = privacy.DEFAULT_ALPHAS
        curve = privacy.RdpCurve(alphas, tuple(a / 8.0 for a in alphas), provenance="gaussian")
        path = tmp_path / "acct.csv"
        emit_accountant_csv(curve, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(curve.alphas)
        assert float(rows[0]["alpha"]) == curve.alphas[0]
        assert float(rows[0]["epsilon"]) == curve.epsilons[0]

    def test_trace_csv(self, tmp_path):
        trace = RunTrace(active_rows=(0, 0), objective=(1.5, 1.0), dist_sq=(0.25, 0.125))
        path = tmp_path / "trace.csv"
        emit_trace_csv(trace, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["iter"] for r in rows] == ["0", "1"]
        assert float(rows[1]["objective"]) == 1.0

    def test_observations_csv_reads_the_log_once(self, tmp_path):
        reads = []

        class CountingLog(simnet.ObservationLog):
            @property
            def events(self):
                reads.append(None)
                return super().events

        trace = RunTrace(n_blocks=3, active_rows=(1, 2, 0),
                         iterates=np.array([[0.5, -1.0], [1.0, 2.0], [0.25, 0.0]]))
        # hand-offs: z_1 to the holder of step 1 (2), z_2 to 0, z_3 to the last holder (2)
        log = CountingLog(trace, last=2)
        path = tmp_path / "obs.csv"
        bench.emit_observations_csv(log, path)
        assert len(reads) == 1  # each read builds the per-user lists anew
        assert path.read_text().splitlines() == [
            "user,step,z0,z1", "0,2,1,2", "2,1,0.5,-1", "2,3,0.25,0"]

    def test_io_error_has_path_context(self, tmp_path):
        with pytest.raises(OSError, match="no/such"):
            emit_csv([], tmp_path / "no" / "such" / "dir.csv")

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("previous contents\n")
        before = path.read_bytes()

        def rows():
            yield ["a", "b"]
            raise RuntimeError("row failed")

        with pytest.raises(RuntimeError, match="row failed"):
            bench._write_csv(path, ("x", "y"), rows(), "rows")
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_file_mode_matches_plain_open(self, tmp_path):
        plain = tmp_path / "plain.csv"
        with open(plain, "w"):
            pass
        path = tmp_path / "new.csv"
        emit_csv([], path)
        assert os.stat(path).st_mode == os.stat(plain).st_mode
        os.chmod(path, 0o600)  # rewriting an existing file keeps its mode, as "w" does
        emit_csv([], path)
        assert os.stat(path).st_mode & 0o777 == 0o600


CELLS = [("centralized", "admm"), ("centralized", "dpsgd"), ("federated", "admm"),
         ("federated", "dpsgd"), ("decentralized", "admm")]


class TestCellAccounting:
    def test_calibration_equals_accountant_calibration(self):
        config = ExperimentConfig(setting="federated", algorithm="admm")
        n_train, gamma = 900, 1800.0
        want = privacy.calibrate_sigma(
            "federated_central", epsilon=0.1, delta=config.delta, K=config.K,
            L=config.clip_threshold / gamma, gamma=gamma, n=n_train, m=90,
            K_i=privacy.estimated_participations(config.K, n_train), alphas=config.alphas)
        assert bench.calibrate_noise(config, 0.1, gamma, n_train) == want

    @pytest.mark.parametrize("setting,algorithm", CELLS)
    @pytest.mark.parametrize("epsilon", [0.3, 3.0])
    def test_calibrated_sigma_certifies_budget(self, setting, algorithm, epsilon):
        config = ExperimentConfig(setting=setting, algorithm=algorithm)
        sigma = bench.calibrate_noise(config, epsilon, 1800.0, 900)
        assert 0 < bench.achieved_epsilon(config, sigma, 1800.0, 900) <= epsilon

    def test_calibration_evaluates_no_formula_below_the_floor(self, monkeypatch):
        # No order is in the subsampling regime at sigma < 4, so the bisection
        # counts such a sigma as failing without evaluating the formula; every
        # evaluation checks its sigma first. 23 of the path's 44 sigmas lie below 4.
        evaluated = []
        check = privacy._check_sigma
        monkeypatch.setattr(privacy, "_check_sigma",
                            lambda sigma: evaluated.append(sigma) or check(sigma))
        config = bench.tuned_config("admm")
        sigma = bench.calibrate_noise(config, 0.1, config.gamma_scale * 2.0 * 900, 900)
        assert sigma == 1075.8389764990234
        assert len(evaluated) == 21 and min(evaluated) >= 4.0

    def test_nonpositive_budget_rejected(self):
        config = ExperimentConfig(setting="centralized", algorithm="dpsgd")
        with pytest.raises(privacy.ConditionNotMet) as info:
            bench.calibrate_noise(config, 0.0, 1800.0, 900)
        assert info.value.condition == "epsilon > 0"
