"""Smoke tests of the benchmark itself: `python3 -m pytest bench/test_bench.py`.

They run every workload at tiny sizes, check that every metric named in
BENCHMARK.json is printed with its unit, and check that a corrupted
report is counted as failed rather than passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _smoke(trace: int) -> tuple[str, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "all", "--smoke",
         "--seed", str(run.DEFAULT_SEED), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout, json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(trace, section):
    stdout, result = _smoke(trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in workloads.NAMES:
        assert f"{workload}: failed_frac 0 ratio" in stdout
        for metric in SPEC[section]:
            entry = result["metrics"][f"{workload}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], float)
    assert len(result["metrics"]) == len(workloads.NAMES) * len(SPEC[section])


def test_benchmark_json_lists_the_workloads_and_metrics_the_code_defines():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert [w["why"] for w in SPEC["workloads"]] == [workloads.WHY[n] for n in workloads.NAMES]
    for section, spec in (("end_to_end", run.END_TO_END), ("per_layer", tracing.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in SPEC[section]} == {
            name: unit for name, (unit, _) in spec.items()
        }


def _flip_report_qber(original):
    def flipped(report):
        doc = json.loads(original(report))
        doc["statistics"]["qber"] = 1.0 - doc["statistics"]["qber"]
        return json.dumps(doc, indent=2, sort_keys=True)

    return flipped


def _flip_csv_qber(original):
    def flipped(reports):
        lines = original(reports)
        column = lines[0].split(",").index("qber")
        out = [lines[0]]
        for line in lines[1:]:
            cells = line.split(",")
            cells[column] = repr(1.0 - float(cells[column]))
            out.append(",".join(cells))
        return out

    return flipped


def _tally(name: str) -> run.Tally:
    qk = run.load_program()
    stream = workloads.units(name, run.DEFAULT_SEED, "smoke")
    records = run.measure(qk, run.SpeedReference(workloads.SPEED_KERNEL[name]), stream, min_units=2)
    tally = run.Tally()
    run.check_records(run.load_oracles(), records, tally)
    return tally


@pytest.mark.parametrize("name", workloads.NAMES)
def test_flipped_qber_is_counted_as_failed(name, monkeypatch):
    assert _tally(name).failed == 0
    qk = run.load_program()
    if name == workloads.SWEEP:
        monkeypatch.setattr(qk.cli, "report_csv_rows", _flip_csv_qber(qk.cli.report_csv_rows))
    else:
        monkeypatch.setattr(qk.harness.RunReport, "to_json",
                            _flip_report_qber(qk.harness.RunReport.to_json))
    tally = _tally(name)
    assert tally.failed > 0 and tally.problems
    if name != workloads.SWEEP:
        assert tally.failed == tally.attempted


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workloads.NAMES[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
