"""privfp benchmark: one workload per process, single-threaded, closed loop.

    python3 benchmarks/run.py --workload engine --seed 0 --seconds 25 --trace 0

The workload's inputs come from ``--seed``. The set-up is repeated
SETUP_REPEATS times and timed; then one untimed warm-up run, then runs go
back to back for ``--seconds``. Every run's output is checked. Times are
scaled by a reference kernel run around each timed span (``timed``). The last
line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``. With ``--trace 1`` untraced and traced runs alternate
and the metrics are the per-layer ones; the spans are written to
``.bench_out/`` at the checkout root. The line before the result is a
report: sample counts, error rate, result fingerprint and environment.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "results" / "seed0.json"
SETUP_REPEATS = 15
# Nominal time of reference_kernel(): its fastest decile measured on a shared
# 2-vCPU Intel Xeon virtual machine (Python 3.11.7, numpy 2.4.6).
REFERENCE_S = 0.012

# Work the benchmark cannot see from outside the package; reported with every traced run.
UNMEASURED = {
    "admm per-row prox, clipping, dual copy and z aggregation":
        "inlined in admm._round_deltas and the drivers, so they show up only in admm.self_s",
    "per-layer memory": "getrusage reports the peak of the whole process, not of one layer",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import privfp from this checkout's src/, never from an installed copy."""
    if not (SRC / "privfp" / "__init__.py").is_file():
        raise SystemExit(f"privfp sources not found under {SRC}; run from a full checkout")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import privfp
    if Path(privfp.__file__).resolve().parent != SRC / "privfp":
        raise SystemExit(f"imported privfp from {privfp.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# Timing


def reference_kernel() -> None:
    """Fixed work that shares no code with privfp, in the three styles the workloads run.

    Philox generator builds with short normal draws, as on the noise path;
    small products on 64-vectors, as in per-step and per-block updates; and
    row-wise arithmetic on fresh (900, 64) arrays, as in the round kernels,
    whose allocations page-fault as theirs do. Other tenants of the host
    slow such work by up to 2x for minutes at a time, and the kernel slows
    with the workloads, so each timed span is paired with kernel calls
    just before and after it (README).
    """
    for k in range(300):
        key = np.array([k, 1], dtype=np.uint64)
        counter = np.array([0, 0, k, 3], dtype=np.uint64)
        np.random.Generator(np.random.Philox(key=key, counter=counter)).normal(0.0, 1.0, 64)
    row, W, v = np.full(64, 0.125), np.ones((64, 8)), np.ones(512)
    for _ in range(1000):
        v = v * 0.5 + 0.5
        row @ v.reshape(64, 8) - W[0]
    rows = [row] * 900
    U = np.ones((900, 64))
    for _ in range(3):
        A = np.stack(rows)
        V = 2.0 - U
        X = V + ((1.0 - np.einsum("ij,ij->i", A, V)) / (3.0 + np.einsum("ij,ij->i", A, A)))[:, None] * A
        U += 1e-3 * (X - 1.0)


def timed(fn, *args):
    """(scaled seconds, wall seconds, result) of fn(*args).

    Scaled seconds are the wall time divided by the mean time of the
    reference kernel run just before and just after, times REFERENCE_S:
    the time the call would take at the host's nominal speed.
    """
    r0 = time.perf_counter()
    reference_kernel()
    t0 = time.perf_counter()
    out = fn(*args)
    t1 = time.perf_counter()
    reference_kernel()
    r1 = time.perf_counter()
    wall = t1 - t0
    return wall / ((t0 - r0 + r1 - t1) / 2.0) * REFERENCE_S, wall, out


# ---------------------------------------------------------------------------
# Running


class Runner:
    """Runs one workload; checks every run and counts the failed ones."""

    def __init__(self, workload, seed: int):
        import tracing
        self.targets = tracing.privfp_targets()
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        self.first_outputs = None
        self.setup_problems: list[str] = []

    def setup(self, tracers=None):
        """Repeat the set-up SETUP_REPEATS times, each under its tracer when given.

        Returns the last state and the scaled time of each repeat.
        """
        times, state = [], None
        for i in range(SETUP_REPEATS):
            if tracers is None:
                scaled, _, state = timed(self.workload.setup, self.seed)
            else:
                with tracers[i].patched(self.targets):
                    scaled, _, state = timed(self.workload.setup, self.seed)
            times.append(scaled)
        self.setup_problems = self.workload.setup_failures(state)
        return state, times

    def run_once(self, state, tracer=None):
        """One checked run: (scaled s, wall s, result), or None if it raised."""
        self.attempted += 1
        try:
            if tracer is None:
                scaled, wall, result = timed(self.workload.run, state)
            else:
                with tracer.patched(self.targets):
                    scaled, wall, result = timed(self.workload.run, state, tracer)
            problems = self.setup_problems + self.workload.failures(state, result)
        except Exception:
            self.failures.append(traceback.format_exc(limit=3))
            return None
        if self.first_outputs is None:
            self.first_outputs = result.outputs
        elif not same_bits(self.first_outputs, result.outputs):
            problems.append("replaying the same seed changed the released iterate")
        if problems:
            self.failures.append("; ".join(problems))
        return scaled, wall, result


def same_bits(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k].tobytes() == b[k].tobytes() for k in a)


def fingerprint(outputs: dict) -> str:
    digest = hashlib.sha256()
    for key in sorted(outputs):
        digest.update(key.encode())
        digest.update(outputs[key].tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# End-to-end run


def end_to_end(runner: Runner, seconds: float):
    state, setup_times = runner.setup()
    runner.run_once(state)  # warm-up: lazy imports and caches fill; checked, not timed
    scaled, wall, rounds = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        run = runner.run_once(state)
        if run is not None:
            scaled.append(run[0])
            wall.append(run[1])
            rounds.append(run[2].rounds)
    if not scaled:
        raise SystemExit("no timed run completed")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s.p50": (statistics.median(scaled), "s"),
        "rounds_per_s": (statistics.median(r / t for r, t in zip(rounds, scaled)), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {"setup_s": len(setup_times), "run_s.p50": len(scaled),
               "rounds_per_s": len(scaled), "peak_rss_mb": 1}
    wall_clock = {"run_s.p50": statistics.median(wall),
                  "rounds_per_s": statistics.median(r / t for r, t in zip(rounds, wall))}
    return state, metrics, samples, {"wall_clock": wall_clock}


# ---------------------------------------------------------------------------
# Traced run


def traced(runner: Runner, seconds: float, name: str):
    """Alternate untraced and traced runs; per-layer metrics come from the traced ones.

    ``trace.overhead`` is the median over adjacent (untraced, traced) pairs
    of the ratio of their wall times, minus one: the two runs of a pair are
    a second apart, so the host's slower load swings cancel within the pair.
    """
    import tracing
    setup_tracers = [tracing.Tracer() for _ in range(SETUP_REPEATS)]
    state, _ = runner.setup(setup_tracers)
    runner.run_once(state)
    tracer = tracing.Tracer()
    ratios, wall, work = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not ratios:
        plain = runner.run_once(state)
        run = runner.run_once(state, tracer)
        if run is not None:
            wall.append(run[1])
            work.append(run_work(run[2]))
            if plain is not None:
                ratios.append(run[1] / plain[1])
        if runner.attempted > 4 and not ratios:
            raise SystemExit("no traced run completed")
    metrics, notes = layer_metrics(tracer, setup_tracers, wall, work)
    metrics["trace.overhead"] = (statistics.median(ratios) - 1.0, "ratio")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{name}.npz"
    tracer.save(spans)
    samples = {"traced_runs": len(wall), "overhead_pairs": len(ratios),
               "traced_setups": len(setup_tracers)}
    return state, metrics, samples, {"not_measured": {**notes, **UNMEASURED},
                                     "spans": str(spans.relative_to(ROOT))}


def run_work(result) -> dict:
    """Work counts of one run that the traced metrics divide by."""
    work = {"user_updates": result.user_updates, "log_bytes": 0, "active_blocks": 0}
    log = result.info.get("log")
    if log is not None:
        work["log_bytes"] = sum(z.nbytes for seq in log.events.values() for _, z in seq)
    cd_trace = result.info.get("cd_trace")
    if cd_trace is not None:
        work["active_blocks"] = int(sum(m.sum() for m in cd_trace.active))
    return work


def layer_metrics(tracer, setup_tracers, times, work):
    """Per-layer metrics from span times, which are wall-clock (not scaled)."""
    runs = len(times)
    spans = tracer.summary()
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "durations": np.zeros(0)}

    def at(span):
        return spans.get(span, empty)

    notes = {}

    def ratio(num, den, metric, why):
        if den:
            return num / den
        notes[metric] = why
        return 0.0

    rng_self = at("rng.gaussian_block")["self_s"] + at("rng.substream")["self_s"]
    admm_self = sum(v["self_s"] for k, v in spans.items() if k.startswith("admm."))
    round_ms = 1e3 * np.concatenate([at("admm.federated_round")["durations"],
                                     at("admm.decentralized_step")["durations"]])
    if round_ms.size == 0:
        notes["admm.round_ms.p50"] = notes["admm.round_ms.p99"] = \
            "no admm.federated_round or admm.decentralized_step call on this workload"
    steps = at("fixedpoint.operator")["calls"]
    grads = tracer.counts.get("fixedpoint.block_grad", 0.0)
    per_run = {
        "rng.gaussian_block.calls": (at("rng.gaussian_block")["calls"], "count"),
        "rng.gaussian_block.self_s": (at("rng.gaussian_block")["self_s"], "s"),
        "rng.substream.calls": (at("rng.substream")["calls"], "count"),
        "rng.substream.self_s": (at("rng.substream")["self_s"], "s"),
        "admm.self_s": (admm_self, "s"),
        "operators.prox_r.calls": (at("operators.prox_r")["calls"], "count"),
        "operators.prox_r.self_s": (at("operators.prox_r")["self_s"], "s"),
        "operators.quadratic_prox.calls": (at("operators.quadratic_prox")["calls"], "count"),
        "operators.quadratic_prox.self_s": (at("operators.quadratic_prox")["self_s"], "s"),
        "simnet.sample_users.self_s": (at("simnet.sample_users")["self_s"], "s"),
        "simnet.walk_next.self_s": (at("simnet.walk_next")["self_s"], "s"),
        "simnet.record_observation.self_s": (at("simnet.record_observation")["self_s"], "s"),
        "simnet.log_bytes": (sum(w["log_bytes"] for w in work), "B"),
        "fixedpoint.steps": (steps, "count"),
        "fixedpoint.operator_s": (at("fixedpoint.operator")["total_s"], "s"),
        "fixedpoint.schedule_mask.self_s": (at("fixedpoint.schedule_mask")["self_s"], "s"),
        "bench.dpsgd_federated.self_s": (at("bench.dpsgd_federated")["self_s"], "s"),
    }
    metrics = {k: (v / runs, unit) for k, (v, unit) in per_run.items()}
    metrics.update({
        "rng.share": (rng_self / sum(times), "ratio"),
        "rng.draws_per_substream": (ratio(
            tracer.counts.get("rng.gaussian_block", 0.0), at("rng.substream")["calls"],
            "rng.draws_per_substream", "no rng.substream call on this workload"), "count"),
        "admm.self_us_per_user_update": (1e6 * ratio(
            admm_self, sum(w["user_updates"] for w in work),
            "admm.self_us_per_user_update", "no admm driver runs on this workload"), "us"),
        "admm.round_ms.p50": (float(np.percentile(round_ms, 50)) if round_ms.size else 0.0, "ms"),
        "admm.round_ms.p99": (float(np.percentile(round_ms, 99)) if round_ms.size else 0.0, "ms"),
        "fixedpoint.self_us_per_step": (1e6 * ratio(
            at("fixedpoint.run")["self_s"], steps,
            "fixedpoint.self_us_per_step", "no fixedpoint.run call on this workload"), "us"),
        "fixedpoint.useful_block_ratio": (ratio(
            sum(w["active_blocks"] for w in work), grads, "fixedpoint.useful_block_ratio",
            "no block-gradient evaluation on this workload"), "ratio"),
    })
    metrics.update(setup_metrics(setup_tracers, notes))
    return metrics, notes


def setup_metrics(setup_tracers, notes):
    """Medians over the traced set-ups of each set-up layer's time and work."""
    per_setup = []
    for tracer in setup_tracers:
        spans = tracer.summary()

        def get(span, key):
            return spans[span][key] if span in spans else 0.0

        calibrations = get("privacy.calibrate_sigma", "calls")
        per_setup.append({
            "privacy.calibrate_sigma.self_s": get("privacy.calibrate_sigma", "self_s"),
            "privacy.setting_curve.calls": tracer.children_of(
                "privacy.calibrate_sigma", "privacy.setting_curve") / calibrations
            if calibrations else 0.0,
            "bench.gen_lasso.s": get("bench.gen_lasso", "total_s"),
            "bench.lasso_consensus_problem.s": get("bench.lasso_consensus_problem", "total_s"),
            "bench.reference_lasso.s": get("bench.reference_lasso", "total_s"),
        })
    units = {"privacy.setting_curve.calls": "count"}
    out = {k: (statistics.median(s[k] for s in per_setup), units.get(k, "s"))
           for k in per_setup[0]}
    for metric, span in (("privacy.calibrate_sigma.self_s", "privacy.calibrate_sigma"),
                         ("privacy.setting_curve.calls", "privacy.calibrate_sigma"),
                         ("bench.lasso_consensus_problem.s", "bench.lasso_consensus_problem"),
                         ("bench.reference_lasso.s", "bench.reference_lasso")):
        if out[metric][0] == 0.0:
            notes[metric] = f"the set-up of this workload makes no {span} call"
    return out


# ---------------------------------------------------------------------------
# Report


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    head = ROOT / ".git" / "HEAD"
    sha = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        ref_path = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        sha = ref_path.read_text().strip() if ref_path and ref_path.is_file() else ref
    src = hashlib.sha256()
    for path in sorted((SRC / "privfp").glob("*.py")):
        src.update(path.name.encode())
        src.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ[v] for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "nproc": os.cpu_count(), "cpu": cpu}


def baseline_match(name: str, seed: int, digest: str):
    """Whether the fingerprint equals the committed seed-0 one (information, not a gate)."""
    if seed != 0 or not BASELINE.is_file():
        return None
    recorded = json.loads(BASELINE.read_text()).get(name, {}).get("sha256")
    return None if recorded is None else recorded == digest


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"expected one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    runner = Runner(workload, args.seed)
    if args.trace:
        state, metrics, samples, extra = traced(runner, args.seconds, args.workload)
    else:
        state, metrics, samples, extra = end_to_end(runner, args.seconds)
    failed = len(runner.failures)
    digest = fingerprint(runner.first_outputs) if runner.first_outputs else None
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "samples": samples, "error_rate": failed / runner.attempted,
        "fingerprint": {"sha256": digest, "sigma": workload.sigmas(state),
                        "matches_seed0_baseline": baseline_match(args.workload, args.seed,
                                                                 digest)},
        "failures": runner.failures[:5], "environment": environment(), **extra,
    }
    if hasattr(workload, "rounds_to_tolerance"):
        report["rounds_to_tolerance"] = workload.rounds_to_tolerance(state)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0, "attempted": runner.attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
