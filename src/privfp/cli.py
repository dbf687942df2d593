"""Command-line interface.

Subcommands: ``solve`` (one run), ``bench`` (the full budget-grid
experiment), ``account`` (print an RDP curve for given parameters), and
``calibrate`` (noise level for a target budget). Each field of
``bench.ExperimentConfig`` is a ``solve``/``bench`` flag (``_`` as ``-``)
and a key of the ``key = value`` config file; the file overrides the
defaults, and explicit flags override the file. Output files land in
--outdir, defaulting to the PRIVFP_OUTDIR environment variable (or the
working directory).

Exit codes: 0 success, 2 parameter error, 3 structural error, 4 model
error, 5 out-of-regime condition, 6 I/O error (OSError). Errors are
printed to stderr as ``error category=<category>: <message>``; any other
exception propagates with its traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import bench, privacy
from .errors import ConditionNotMet, ModelError, ParameterError, StructuralError

_EXIT_CODES = [
    (ParameterError, "parameter_error", 2),
    (StructuralError, "structural_error", 3),
    (ModelError, "model_error", 4),
    (ConditionNotMet, "condition_not_met", 5),
]


def _numbers(kind):
    """Parser of a comma- or space-separated, non-empty list of ``kind`` values."""
    def parse(text: str) -> tuple:
        values = tuple(kind(tok) for tok in text.replace(",", " ").split())
        if not values:
            raise ValueError(f"empty list {text!r}")
        return values

    parse.__name__ = f"{kind.__name__}s"  # argparse names it in "invalid ... value"
    return parse


_floats = _numbers(float)
# One parser per ExperimentConfig annotation; flags and config-file values share them.
_PARSERS = {"str": str, "int": int, "float": float, "float | None": float,
            "tuple[float, ...]": _floats, "tuple[int, ...]": _numbers(int)}
_EXPERIMENT_FIELDS = {f.name: f for f in fields(bench.ExperimentConfig)}


def _read_config_file(path: str) -> dict:
    """Parse `key = value` lines (# comments); values parse as the key's flag does."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _EXPERIMENT_FIELDS:
            raise ParameterError(f"unknown config key {key!r}")
        try:
            values[key] = _PARSERS[_EXPERIMENT_FIELDS[key].type](value.strip())
        except ValueError as exc:
            raise ParameterError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    return values


def _overrides_from_args(args) -> dict:
    overrides = _read_config_file(args.config) if args.config else {}
    for name in _EXPERIMENT_FIELDS:
        flag = getattr(args, name)
        if flag is not None:
            overrides[name] = flag
    return overrides


def _config_from_args(args) -> bench.ExperimentConfig:
    return replace(bench.ExperimentConfig(), **_overrides_from_args(args))


def _add_experiment_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="key = value file; explicit flags override it")
    for name, f in _EXPERIMENT_FIELDS.items():
        parser.add_argument("--" + name.replace("_", "-"), type=_PARSERS[f.type], **f.metadata)
    parser.add_argument("--outdir", default=None, help="output directory (default: $PRIVFP_OUTDIR or .)")


# Flags of the accountant commands (`account`, `calibrate`): name, type, required.
_CURVE_FLAGS = (("K", int, True), ("L", float, True), ("gamma", float, True),
                ("n", int, True), ("m", int, False), ("K_i", int, False))


def _add_curve_flags(parser: argparse.ArgumentParser):
    for name, kind, required in _CURVE_FLAGS:
        parser.add_argument("--" + name.replace("_", "-"), type=kind, required=required)


def _curve_kwargs(args) -> dict:
    kwargs = {name: getattr(args, name) for name, _, _ in _CURVE_FLAGS}
    return dict(kwargs, alphas=args.alphas or privacy.DEFAULT_ALPHAS)


def _outdir(args) -> Path:
    out = args.outdir or os.environ.get("PRIVFP_OUTDIR", ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_solve(args) -> int:
    config = _config_from_args(args)
    # Output arguments are checked before the run; an admm run has a trace, a walk a log.
    if args.trace_out and config.algorithm != "admm":
        raise ParameterError("trace export is only available for admm runs")
    if args.observations_out and config.setting != "decentralized":
        raise ParameterError("observation logs exist only for decentralized runs")
    outdir = _outdir(args)
    collect = bool(args.trace_out or args.observations_out)
    row, artifacts = bench.solve_once(config, collect=collect)
    print(f"setting={row.setting} algorithm={row.algorithm} sigma={row.sigma:.6g} "
          f"epsilon={row.epsilon:.6g} delta={row.delta:g}")
    print(f"train_obj={row.train_obj:.12g} test_obj={row.test_obj:.12g} "
          f"runtime_ms={row.runtime_ms:.1f}")
    if args.out:
        bench.emit_csv([row], outdir / args.out)
        print(f"wrote {outdir / args.out}")
    if args.trace_out:
        bench.emit_trace_csv(artifacts["trace"], outdir / args.trace_out)
        print(f"wrote {outdir / args.trace_out}")
    if args.observations_out:
        bench.emit_observations_csv(artifacts["observations"], outdir / args.observations_out)
        print(f"wrote {outdir / args.observations_out}")
    return 0


def _cmd_bench(args) -> int:
    overrides = _overrides_from_args(args)
    algorithms = bench.ALGORITHMS if args.compare else \
        (overrides.get("algorithm", bench.ExperimentConfig().algorithm),)
    # per-algorithm tuned defaults first, explicit flags on top
    configs = [bench.tuned_config(algorithm, **{k: v for k, v in overrides.items()
                                                if k != "algorithm"}) for algorithm in algorithms]
    path = _outdir(args) / args.out
    rows = []
    for config in configs:
        if args.tune:
            config = bench.tune(config)
            grid = bench.ADMM_GRID if config.algorithm == "admm" else bench.DPSGD_GRID
            print(f"{config.algorithm} tuned parameters:", {k: getattr(config, k) for k in grid})
        rows.extend(bench.run_experiment(config))
    bench.emit_csv(rows, path)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def _cmd_account(args) -> int:
    curve = privacy.setting_curve(args.setting, args.sigma, **_curve_kwargs(args))
    print("alpha,epsilon,provenance")
    for a, e in zip(curve.alphas, curve.epsilons):
        print(f"{format(a, '.17g')},{format(e, '.17g')},{curve.provenance}")
    if args.delta is not None:
        eps_dp = privacy.rdp_to_dp(curve, args.delta)
        print(f"# (epsilon, delta)-DP: epsilon={eps_dp:.12g} at delta={args.delta:g}",
              file=sys.stderr)
    if args.out:
        bench.emit_accountant_csv(curve, _outdir(args) / args.out)
    return 0


def _cmd_calibrate(args) -> int:
    sigma = privacy.calibrate_sigma(args.setting, epsilon=args.epsilon, delta=args.delta,
                                    alpha=args.alpha, **_curve_kwargs(args))
    print(format(sigma, ".12g"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="privfp",
                                     description="Private fixed-point optimization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one configuration once")
    _add_experiment_flags(solve)
    solve.add_argument("--out", help="also write the result row as CSV")
    solve.add_argument("--trace-out", dest="trace_out",
                       help="write the per-round trace CSV (admm runs)")
    solve.add_argument("--observations-out", dest="observations_out",
                       help="write the per-user observation log CSV (decentralized runs)")
    solve.set_defaults(fn=_cmd_solve)

    bench_p = sub.add_parser("bench", help="run the budget-grid experiment")
    _add_experiment_flags(bench_p)
    bench_p.add_argument("--out", default="results.csv")
    bench_p.add_argument("--compare", action="store_true",
                         help="run both algorithms on the same grid")
    bench_p.add_argument("--tune", action="store_true",
                         help="grid-search hyperparameters at the smallest budget first")
    bench_p.set_defaults(fn=_cmd_bench)

    account = sub.add_parser("account", help="print an RDP curve")
    account.add_argument("--setting", required=True, choices=privacy.SETTINGS)
    account.add_argument("--sigma", type=float, required=True)
    _add_curve_flags(account)
    account.add_argument("--delta", type=float, help="also convert to (epsilon, delta)-DP")
    account.add_argument("--alphas", type=_floats)
    account.add_argument("--out", help="write the curve as CSV")
    account.add_argument("--outdir", default=None)
    account.set_defaults(fn=_cmd_account)

    calibrate = sub.add_parser("calibrate", help="noise std for a target budget")
    calibrate.add_argument("--setting", required=True, choices=privacy.SETTINGS)
    calibrate.add_argument("--epsilon", type=float, required=True)
    calibrate.add_argument("--delta", type=float)
    calibrate.add_argument("--alpha", type=float, help="fix a single Rényi order instead of delta")
    _add_curve_flags(calibrate)
    calibrate.add_argument("--alphas", type=_floats)
    calibrate.set_defaults(fn=_cmd_calibrate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # noqa: BLE001 - map to documented exit codes
        for exc_type, category, code in _EXIT_CODES:
            if isinstance(exc, exc_type):
                print(f"error category={category}: {exc}", file=sys.stderr)
                return code
        if isinstance(exc, OSError):
            print(f"error category=io_error: {exc}", file=sys.stderr)
            return 6
        raise


if __name__ == "__main__":
    sys.exit(main())
