"""Repeat the benchmark over seeds and record a baseline with its spread.

    python3 bench/record.py

For every workload in ``BENCHMARK.json``, runs ``run.py --trace 0``
once per seed 1..10, each in a fresh interpreter for ``run_seconds``,
and reports, per end-to-end metric, the median of the per-run values
and the distance between their first and third quartiles as a share
of that median (``statistics.quantiles``, n=4).  Then one
``--trace 1`` run per workload (seed 1) adds the per-layer metrics.
The result is written to ``bench/baseline.json``; compare the spreads
with the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def one_run(workload: str, seed: int, seconds: int, trace: int, names: set) -> dict:
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - started
    if set(result["metrics"]) != names:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: metrics differ from BENCHMARK.json:"
                         f" {sorted(set(result['metrics']) ^ names)}")
    return result


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    baseline = {
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                   f"{platform.python_implementation()} {platform.python_version()}",
        "recorded": time.strftime("%Y-%m-%d"),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [one_run(workload, seed, seconds, 0, set(bounds)) for seed in SEEDS]
        entry = {"correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "run_elapsed_s": [round(r["elapsed_s"], 1) for r in runs], "end_to_end": {}}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            entry["end_to_end"][name] = {
                "median": statistics.median(values),
                "unit": runs[0]["metrics"][name]["unit"],
                "spread": spread(values),
                "bound": bounds[name],
                "values": values,
            }
            print(f"{workload:14} {name:14} median {statistics.median(values):12.6g}"
                  f"  spread {spread(values):7.2%}  bound {bounds[name]:.0%}", flush=True)
        traced = one_run(workload, SEEDS[0], seconds, 1, layers)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["traced_run_elapsed_s"] = round(traced["elapsed_s"], 1)
        print(f"{workload:14} trace_overhead {entry['per_layer']['trace_overhead']:.3f}")
        baseline["workloads"][workload] = entry
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
