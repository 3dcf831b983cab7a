"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload bb84-ir-reveal --seeds 0-9 --trace 0
    python3 bench/spread.py --workload all --seeds 0-9 --json spread.json

For every metric it prints the median, the quartiles (as Python's
`statistics.quantiles(values, n=4)` gives them) and the spread: the
distance between the quartiles as a share of the median. Each run is a
fresh `bench/run.py` process, run one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("b92-suppress-bulk", "bb84-ir-reveal", "b92-mismatch-sweep")


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    result["wall_s"] = wall
    return result


def environment() -> dict:
    """CPU, cache sizes and versions, for reading the numbers later."""
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")]
        env["cpu"] = models[0] if models else platform.processor()
        caches = {}
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        env["caches_per_cpu0"] = caches
    except OSError:
        pass  # not Linux: versions only
    return env


def summarize(runs: list[dict]) -> dict:
    summary = {}
    for metric in runs[0]["metrics"]:
        values = [run["metrics"][metric]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[metric] = {
            "unit": runs[0]["metrics"][metric]["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seeds", default="0-9", help="'0-9' or '3,5,8'")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write the summary to this file")
    args = parser.parse_args()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    report = {}
    for workload in workloads:
        runs = [one_run(workload, seed, args.seconds, args.trace) for seed in seeds_from(args.seeds)]
        failed = sum(run["failed"] for run in runs)
        attempted = sum(run["attempted"] for run in runs)
        walls = [run["wall_s"] for run in runs]
        print(f"{workload}: {len(runs)} runs, {failed} of {attempted} operations failed, "
              f"run wall {min(walls):.1f}-{max(walls):.1f} s")
        report[workload] = summarize(runs)
        for metric, s in report[workload].items():
            print(f"  {metric:<40} median {s['median']:>14.6g} {s['unit']:<12} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}")
    if args.json:
        document = {"environment": environment(), "seconds": args.seconds, "trace": args.trace,
                    "seeds": seeds_from(args.seeds), "workloads": report}
        Path(args.json).write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
