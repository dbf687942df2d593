"""Write results/seed0.json: each workload's seed-0 fingerprint, sigma and metrics.

    python3 benchmarks/record_baseline.py

Runs every workload of ``BENCHMARK.json`` at seed 0 for its ``run_seconds``,
untraced and then traced, one process after another. The committed file
makes a change of results show in a diff; ``run.py`` also reports whether a
seed-0 run still matches it.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent).stdout
    report, result = (json.loads(line) for line in out.strip().splitlines()[-2:])
    if not result["correct"]:
        raise SystemExit(f"{workload} failed its checks: {report['report']['failures']}")
    return report["report"], result


def main() -> None:
    record = {}
    for name in (w["name"] for w in SPEC["workloads"]):
        report, result = run(name, 0)
        _, traced = run(name, 1)
        record[name] = {**report["fingerprint"], "environment": report["environment"],
                        "end_to_end": result["metrics"], "per_layer": traced["metrics"]}
        record[name].pop("matches_seed0_baseline")
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "seed0.json").write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
