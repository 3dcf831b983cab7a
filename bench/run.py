"""qkdsim benchmark: end-to-end metrics per workload, or a traced per-layer run.

    python3 bench/run.py --workload b92-suppress-bulk --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one child process each
    python3 bench/run.py --workload all --smoke    # tiny sizes, for a quick check

`--trace 0` prints the end-to-end metrics (`ns_per_pulse`, `peak_rss_mb`,
`setup_s`); `--trace 1` runs a fixed number of units untraced, then as
many again traced, and prints the per-layer metrics. Both print
`failed_frac`, and the last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

Every input is made from `--seed`; the program only sees the generated
configs. The program is imported from `src/` of the checkout this file
sits in, and the oracles from `tests/enumeration.py`, read-only.
"""

from __future__ import annotations

import os

# one thread per process, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import importlib
import importlib.util
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

# bench/ is sys.path[0] when this file runs as a script
import tracing  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedReference  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
DEFAULT_SEED = 0
SETUP_PROBES = 5
TRACE_UNITS = 2  # per pass, traced and untraced
MIN_UNITS = {"b92-suppress-bulk": 3, "bb84-ir-reveal": 3, "b92-mismatch-sweep": 4}
# units the memory probe runs: the bulk runs peak in their first unit; the
# sweep's caches grow with every sweep, so it runs one of each scheme
RSS_UNITS = {"b92-suppress-bulk": 1, "bb84-ir-reveal": 1, "b92-mismatch-sweep": 2}
REPEAT_POINTS = 50  # sweep points re-run for the byte-identity check
CHILD_TIMEOUT_S = 170

# end-to-end metric -> (unit, kind)
END_TO_END = {"ns_per_pulse": ("ns", "timing"), "peak_rss_mb": ("MB", "memory"), "setup_s": ("s", "timing")}

# sha256 of the first unit's transcript-determined counts at DEFAULT_SEED,
# captured from the engine at the commit that added this benchmark. A
# change that alters any transcript fails here, on purpose.
PINNED_DIGESTS = {
    ("full", "b92-suppress-bulk"): "d12e3c6b4c138245a352da3cfd47bf23c866cc34169e08e85f295868a90eb26f",
    ("full", "bb84-ir-reveal"): "ad3b9dc59086fdfe8bc9de7fdea165f45e19b8008dd1866e1043865d5bf48fd6",
    ("full", "b92-mismatch-sweep"): "f77e549bce529e603777bd628d0abfe23db1495f7207aea680b7adcc50c00f48",
    ("smoke", "b92-suppress-bulk"): "9306c6bf0d5707bdb41e86fa72df2fdb96127301958c1ca9e3924c52a63d0123",
    ("smoke", "bb84-ir-reveal"): "80a9a6963d200f5a3e058b00111625aa6ba1fb74dcb45dcbe0f1ded123332448",
    ("smoke", "b92-mismatch-sweep"): "d7c1c5fed1a48031ba02c4b47f796e77692c72b455ad6fa9b9c705e84f97ca5c",
}


class Record(NamedTuple):
    """One timed unit: raw seconds, and the factor that scales them to nominal speed."""

    unit: object
    seconds: float
    output: object  # rendered text, or the exception the call raised
    scale: float


class MissingProgram(RuntimeError):
    """The checkout lacks the program or its oracles."""


def load_program():
    """Import qkdsim from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "qkdsim" / "__init__.py").is_file():
        raise MissingProgram(f"no qkdsim package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    qk = importlib.import_module("qkdsim")
    if Path(qk.__file__).resolve().parent != (src / "qkdsim").resolve():
        raise MissingProgram(f"imported qkdsim from {qk.__file__}, not {src}")
    for module in ("cli", "harness", "session", "usd", "adversary", "rng"):
        importlib.import_module(f"qkdsim.{module}")
    return qk


def load_oracles():
    path = ROOT / "tests" / "enumeration.py"
    if not path.is_file():
        raise MissingProgram(f"no oracle module at {path}")
    spec = importlib.util.spec_from_file_location("qkdsim_bench_enumeration", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- measuring -----------------------------------------------------------------


def measure(qk, speed, stream, *, seconds=0.0, min_units=1, tracer=None):
    """Run units until `seconds` have passed and at least `min_units` ran.

    Only the call into the program is timed; preparing inputs and the
    speed reference on either side of it are not.
    """
    records = []
    start = time.perf_counter()
    before = speed.ms()
    while len(records) < min_units or time.perf_counter() - start < seconds:
        unit = next(stream)
        prepared = workloads.prepare(unit, OUT_DIR)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                output = workloads.execute(qk, prepared)
            else:
                with tracer.unit_span(unit.index):
                    output = workloads.execute(qk, prepared, tracer.span)
        except Exception as exc:  # a failed operation is counted, not fatal
            output = exc
        elapsed = time.perf_counter() - t0
        after = speed.ms()
        records.append(Record(unit, elapsed, output, speed.scale(before, after)))
        before = after
    return records


def ns_per_pulse(records, scaled: bool = True) -> float:
    """Sum over variants of the median unit time, over their pulses."""
    by_variant = {}
    for record in records:
        seconds = record.seconds * (record.scale if scaled else 1.0)
        by_variant.setdefault(record.unit.variant, (record.unit.pulses, []))[1].append(seconds)
    time_s = sum(statistics.median(times) for _, times in by_variant.values())
    pulses = sum(pulses for pulses, _ in by_variant.values())
    return time_s / pulses * 1e9


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, n_ops: int, failed: int, problems) -> None:
        self.attempted += n_ops
        self.failed += failed
        self.problems.extend(problems[: max(0, 10 - len(self.problems))])


def check_records(oracles, records, tally: Tally) -> list:
    """Check every unit's output into `tally`; return the per-unit results."""
    results = []
    for record in records:
        results.append(workloads.check(oracles, record.unit, record.output))
        tally.add(results[-1].n_ops, results[-1].failed, results[-1].problems)
    return results


def check_determinism(qk, name, size, seed, first: Record, checked, tally: Tally) -> None:
    """Pin the first unit's counts at the default seed; re-run it for byte identity."""
    unit, output = first.unit, first.output
    if not isinstance(output, str):
        return  # the unit already counts as failed
    if seed == DEFAULT_SEED:
        digest = workloads.counts_digest(checked.counts)
        pinned = PINNED_DIGESTS[(size, name)]
        if digest != pinned:
            tally.add(0, unit.n_ops, [f"counts digest {digest} != pinned {pinned}"])
    again = dataclasses.replace(unit, deltas=unit.deltas[:REPEAT_POINTS])
    expected = output
    if again.deltas:  # a sweep's leading points do not depend on later ones
        expected = "".join(output.splitlines(keepends=True)[: again.n_ops + 1])
    try:
        drifted = workloads.execute(qk, workloads.prepare(again, OUT_DIR)) != expected
        problems = ["repeated unit rendered different bytes"] if drifted else []
    except Exception as exc:
        drifted, problems = True, [f"repeat raised {exc!r}"]
    tally.add(again.n_ops, again.n_ops if drifted else 0, problems)


def _probe_argv(flag: str, name: str, seed: int, smoke: bool = False) -> list:
    return [sys.executable, str(Path(__file__).resolve()), flag, "--workload", name,
            "--seed", str(seed)] + (["--smoke"] if smoke else [])


def peak_rss_mb(name: str, seed: int, smoke: bool, tally: Tally) -> float:
    """High-water RSS of a process that runs only the workload's first units.

    A fresh process keeps the timing loop's own memory (the speed
    reference's arrays) out of the figure. A child's ru_maxrss also counts
    the parent's resident pages at fork, so call this while the parent
    is still small: before it imports qkdsim.
    """
    done = subprocess.run(_probe_argv("--rss-probe", name, seed, smoke),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        tally.add(RSS_UNITS[name], RSS_UNITS[name], [f"memory probe: {done.stderr.strip()[-300:]}"])
        return 0.0  # the failure is counted; no figure to report
    return float(done.stdout.split()[-1])


def rss_probe(name: str, seed: int, smoke: bool) -> int:
    """Body of the memory probe: run the first units, print ru_maxrss in MB."""
    qk = load_program()
    OUT_DIR.mkdir(exist_ok=True)
    stream = workloads.units(name, seed, "smoke" if smoke else "full")
    for _ in range(RSS_UNITS[name]):
        workloads.execute(qk, workloads.prepare(next(stream), OUT_DIR))
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
    return 0


def setup_seconds(name: str, seed: int, probes: int, speed, tally: Tally) -> tuple[float, float]:
    """Median wall time of fresh processes that import qkdsim and run one
    small unit: (scaled to nominal speed, raw)."""
    argv = _probe_argv("--setup-probe", name, seed)
    scaled, raw = [], []
    before = speed.ms()
    for _ in range(probes):
        t0 = time.perf_counter()
        done = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        raw.append(time.perf_counter() - t0)
        after = speed.ms()
        scaled.append(raw[-1] * speed.scale(before, after))
        before = after
        failed = done.returncode != 0
        tally.add(1, int(failed), [f"setup probe: {done.stderr.strip()[-300:]}"] if failed else [])
    return statistics.median(scaled), statistics.median(raw)


def setup_probe(name: str, seed: int) -> int:
    """Body of one setup process: import, then one unit at the smallest size."""
    qk = load_program()
    OUT_DIR.mkdir(exist_ok=True)
    unit = next(workloads.units(name, seed, "setup"))
    workloads.execute(qk, workloads.prepare(unit, OUT_DIR))
    return 0


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Measure one workload in this process and return the result object."""
    tally = Tally()
    metrics, raw = {}, {}
    if not trace:
        metrics["peak_rss_mb"] = peak_rss_mb(name, seed, smoke, tally)
    qk = load_program()
    oracles = load_oracles()
    OUT_DIR.mkdir(exist_ok=True)
    size = "smoke" if smoke else "full"
    speed = SpeedReference(workloads.SPEED_KERNEL[name])
    if not trace:
        probes = 1 if smoke else SETUP_PROBES
        metrics["setup_s"], raw_setup = setup_seconds(name, seed, probes, speed, tally)
        raw["setup_s"] = f"{raw_setup:.6f} over {probes} processes"
    # let lazy imports and first-call work finish before timing
    warm = next(workloads.units(name, seed, "setup"))
    check_records(oracles, measure(qk, speed, iter([warm])), tally)

    stream = workloads.units(name, seed, size)
    if trace:
        plain = measure(qk, speed, stream, min_units=TRACE_UNITS)
        with tracing.Tracer(qk) as tracer:
            traced = measure(qk, speed, stream, min_units=TRACE_UNITS, tracer=tracer)
        tracer.write(OUT_DIR / f"spans-{name}.jsonl")
        first = traced[0].unit
        with tracing.session_peak(qk) as peak:
            workloads.execute(qk, workloads.prepare(
                dataclasses.replace(first, deltas=first.deltas[:REPEAT_POINTS]), OUT_DIR))
        metrics["session.peak_alloc_mb"] = peak[0] / 2**20
        n_ops = sum(record.unit.n_ops for record in traced)
        pulses = sum(record.unit.pulses for record in traced)
        metrics.update(tracer.summary(n_ops, pulses))
        metrics["trace.overhead_frac"] = ns_per_pulse(traced) / ns_per_pulse(plain) - 1.0
        records = plain + traced
        spec = tracing.PER_LAYER
    else:
        records = measure(qk, speed, stream, seconds=0.0 if smoke else seconds,
                          min_units=2 if smoke else MIN_UNITS[name])
        metrics["ns_per_pulse"] = ns_per_pulse(records)
        raw["ns_per_pulse"] = f"{ns_per_pulse(records, scaled=False):.6f} over {len(records)} units"
        spec = END_TO_END
    checked = check_records(oracles, records, tally)
    check_determinism(qk, name, size, seed, records[0], checked[0], tally)

    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, (unit, _) in spec.items()},
        "problems": tally.problems,
        "kinds": {k: kind for k, (_, kind) in spec.items()},
        "raw": raw,
    }


# -- output --------------------------------------------------------------------


def print_lines(name: str, result: dict) -> None:
    frac = result["failed"] / result["attempted"]
    print(f"{name}: failed_frac {frac:.6g} ratio ({result['failed']} of "
          f"{result['attempted']} operations failed)")
    for problem in result["problems"]:
        print(f"{name}:   problem: {problem}")
    for metric, entry in result["metrics"].items():
        kind = result["kinds"][metric]
        if metric in result["raw"]:
            kind += f" at nominal speed; raw {result['raw'][metric]}"
        print(f"{name}: {metric:<40} {entry['value']:>16.6f} {entry['unit']:<12} {kind}")


def final_line(result: dict) -> str:
    return json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})


def run_all(args) -> int:
    """Each workload in its own child process, so peak RSS is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
        if not done.stdout.strip():
            sys.stderr.write(done.stderr)
            return 2
        result = json.loads(done.stdout.splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="b92-suppress-bulk, bb84-ir-reveal, b92-mismatch-sweep or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, fixed unit counts")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--rss-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload != "all" and args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}")
    try:
        if args.setup_probe:
            return setup_probe(args.workload, args.seed)
        if args.rss_probe:
            return rss_probe(args.workload, args.seed, args.smoke)
        if args.workload == "all":
            return run_all(args)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_lines(args.workload, result)
    print(final_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
