"""The benchmark's workloads: inputs made from a seed, one timed call, checks.

A *unit* is one timed call into the program. On the two run workloads a
unit is one config turned into one JSON report, which is one operation.
On the sweep workload a unit is one `qkdsim sweep` call rendered as CSV,
and every sweep point is one operation.

Every check here runs outside the timed region. Statistical checks use
the independent oracles in `tests/enumeration.py` with exact binomial
tails, so that a correct program fails one only with probability
`TAIL` per count.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HALF_PI = math.pi / 2
# two-sided tail probability below which an observed count is rejected
TAIL = 1e-9

# Why each workload exists; BENCHMARK.json carries the same lines.
WHY = {
    "b92-suppress-bulk": "per-pulse engine (rng + session arrays) does almost all the work; "
    "peak memory grows with n_pulses",
    "bb84-ir-reveal": "half the pulses sift, so the scalar reveal sampling in "
    "protocol.estimate_qber dominates; covers BB84 and intercept-resend",
    "b92-mismatch-sweep": "500-pulse sweep points: per-session fixed costs "
    "(validation, POVMs, binomial tails, CSV) dominate",
}

# Pulses per session (run workloads) or points per sweep (sweep workload).
SIZES = {
    "full": {"b92-suppress-bulk": 4_000_000, "bb84-ir-reveal": 2_000_000, "b92-mismatch-sweep": 1500},
    "smoke": {"b92-suppress-bulk": 20_000, "bb84-ir-reveal": 20_000, "b92-mismatch-sweep": 6},
    "setup": {"b92-suppress-bulk": 1_000, "bb84-ir-reveal": 1_000, "b92-mismatch-sweep": 1},
}

_BASE = {
    "b92-suppress-bulk": {
        "protocol": "b92",
        "absorption": 0.1,
        "efficiency": 0.9,
        "eve_strategy": "usd_suppress",
        "usd_scheme": "naive",
        "reveal_fraction": 0.2,
    },
    "bb84-ir-reveal": {
        "protocol": "bb84",
        "eve_strategy": "intercept_resend",
        "reveal_fraction": 0.5,
    },
    "b92-mismatch-sweep": {
        "protocol": "b92",
        "n_pulses": 500,
        "eve_strategy": "basis_mismatch",
        "reveal_fraction": 1.0,
    },
}

# The speed.py kernel that best tracked each workload's slowdowns over
# ten seeds: memory-bound array passes for the bulk run, the mixed
# kernel for the other two (a pure-Python one spread wider on the sweep).
SPEED_KERNEL = {
    "b92-suppress-bulk": "memory",
    "bb84-ir-reveal": "mixed",
    "b92-mismatch-sweep": "mixed",
}

SWEEP = "b92-mismatch-sweep"
SWEEP_SCHEMES = ("naive", "optimal")
NAMES = tuple(WHY)


@dataclass(frozen=True)
class Unit:
    """One timed call: `config` for a run, plus `deltas` for a sweep."""

    index: int
    variant: str
    config: dict
    deltas: tuple = ()

    @property
    def n_ops(self) -> int:
        return len(self.deltas) or 1

    @property
    def pulses(self) -> int:
        return self.config["n_pulses"] * self.n_ops


def units(workload: str, seed: int, size: str):
    """Endless, seed-determined stream of units; unit i never depends on i+1."""
    rng = random.Random(f"{workload}:{size}:{seed}")
    size_value = SIZES[size][workload]
    below_half_pi = math.nextafter(HALF_PI, 0.0)
    index = 0
    while True:
        config = dict(_BASE[workload], master_seed=rng.getrandbits(64))
        if workload == SWEEP:
            variant = SWEEP_SCHEMES[index % 2]
            config["usd_scheme"] = variant
            deltas = tuple(
                min(HALF_PI * rng.random(), below_half_pi) for _ in range(size_value)
            )
            yield Unit(index, variant, config, deltas)
        else:
            config["n_pulses"] = size_value
            yield Unit(index, "run", config)
        index += 1


def _no_span(name):
    return contextlib.nullcontext()


@dataclass
class Prepared:
    """A unit plus what its timed call needs that is built before timing."""

    unit: Unit
    argv: list = field(default_factory=list)


def prepare(unit: Unit, scratch: Path) -> Prepared:
    """Write the sweep's base config and build its argv (untimed)."""
    if not unit.deltas:
        return Prepared(unit)
    path = scratch / f"sweep-config-{unit.index}.json"
    path.write_text(json.dumps(unit.config), encoding="utf-8")
    values = ",".join(repr(d) for d in unit.deltas)
    argv = ["--output", "csv", "sweep", "--config", str(path), "--param", "delta", "--values", values]
    return Prepared(unit, argv)


def execute(qk, prepared: Prepared, span=_no_span) -> str:
    """The timed call: config in, rendered report text out.

    `span(name)` brackets the calls the benchmark makes itself, so the
    traced run can attribute them; untraced it does nothing.
    """
    if prepared.argv:
        out = io.StringIO()
        with span("cli.main"), contextlib.redirect_stdout(out):
            code = qk.cli.main(prepared.argv)
        if code != 0:
            raise RuntimeError(f"qkdsim sweep exited with code {code}")
        return out.getvalue()
    with span("harness.config"):
        config = qk.harness.ExperimentConfig.from_dict(prepared.unit.config)
    report = qk.harness.run_experiment(config)
    with span("harness.render"):
        return report.to_json()


# -- correctness -------------------------------------------------------------


def binomial_plausible(k, n, p):
    """Elementwise: is k a plausible draw from Binomial(n, p) at level TAIL?"""
    from scipy import stats  # not at import: setup probes time qkdsim's own imports

    return (stats.binom.cdf(k, n, p) >= TAIL) & (stats.binom.sf(k - 1, n, p) >= TAIL)


def _counts_row(counts: dict, qber) -> tuple:
    keys = ("sent", "arrived", "null", "sifted", "revealed", "key_length")
    return tuple(int(counts[k]) for k in keys) + (repr(qber),)


def counts_digest(rows: list) -> str:
    """sha256 of the transcript-determined counts, not of the whole report."""
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@dataclass
class Checked:
    """Outcome of checking one unit's output."""

    n_ops: int
    failed: int
    problems: list
    counts: list


def check(oracles, unit: Unit, output) -> Checked:
    """Check a unit's rendered output; an exception counts every op failed."""
    if isinstance(output, BaseException):
        return Checked(unit.n_ops, unit.n_ops, [f"raised {output!r}"], [])
    if unit.deltas:
        return _check_sweep(oracles, unit, output)
    return _check_run(oracles, unit, output)


def _check_run(oracles, unit: Unit, text: str) -> Checked:
    doc = json.loads(text)
    counts, statistics, tests = doc["counts"], doc["statistics"], doc["tests"]
    cfg = unit.config
    n = cfg["n_pulses"]
    problems = []
    if doc["config"]["master_seed"] != cfg["master_seed"] or doc["config"]["n_pulses"] != n:
        problems.append("report echoes another config")
    if counts["sent"] != n or counts["arrived"] + counts["null"] != counts["sent"]:
        problems.append("arrived + null != sent")
    sifted, revealed = counts["sifted"], counts["revealed"]
    if revealed != math.ceil(cfg["reveal_fraction"] * sifted) or (
        counts["key_length"] != sifted - revealed
    ):
        problems.append("revealed / key_length inconsistent with sifted")
    if statistics["sift_rate"] != sifted / n:
        problems.append("sift_rate != sifted / sent")
    qber = statistics["qber"]
    channel_keep = 1.0 - oracles.channel_loss_probability(
        cfg.get("absorption", 0.0), cfg.get("efficiency", 1.0)
    )
    if abs(statistics["expected_arrival"] - channel_keep) > 1e-12:
        problems.append("expected_arrival disagrees with the channel")
    if cfg["protocol"] == "b92":
        oracle = oracles.usd_suppress_b92(0.0, cfg["usd_scheme"])
        p_arrive = oracle["arrival_rate"] * channel_keep
        p_sift, p_err = oracle["sift_rate"] * channel_keep, 0.0
        if qber != 0.0:
            problems.append(f"suppression attack left qber {qber}, not exactly 0")
        if not tests["null_ratio_test"]["flagged"]:
            problems.append("null-ratio test missed the suppression attack")
    else:
        oracle = oracles.intercept_resend_bb84()
        p_arrive, p_sift, p_err = channel_keep, oracle["sift_rate"], oracle["qber"]
        if tests["null_ratio_test"]["flagged"]:
            problems.append("null-ratio test flagged a lossless channel")
    if not binomial_plausible(counts["arrived"], n, p_arrive):
        problems.append(f"arrived {counts['arrived']} implausible for p={p_arrive}")
    if not binomial_plausible(sifted, n, p_sift):
        problems.append(f"sifted {sifted} implausible for p={p_sift}")
    if qber is None or revealed == 0:
        problems.append("nothing revealed")
    elif not binomial_plausible(round(qber * revealed), revealed, p_err):
        problems.append(f"qber {qber} implausible for p={p_err} over {revealed} bits")
    return Checked(1, 1 if problems else 0, problems, [_counts_row(counts, qber)])


def _check_sweep(oracles, unit: Unit, text: str) -> Checked:
    rows = list(csv.DictReader(io.StringIO(text)))
    n_points = len(unit.deltas)
    if len(rows) != n_points:
        return Checked(n_points, n_points, [f"{len(rows)} CSV rows for {n_points} points"], [])
    n = unit.config["n_pulses"]
    scheme = unit.variant
    bad = np.zeros(n_points, dtype=bool)
    problems = []
    arrived = np.array([int(r["arrived"]) for r in rows])
    sifted = np.array([int(r["sifted"]) for r in rows])
    revealed = np.array([int(r["revealed"]) for r in rows])
    qber = [None if r["qber"] == "" else float(r["qber"]) for r in rows]
    expected = [oracles.usd_suppress_b92(d, scheme) for d in unit.deltas]
    p_arrive = np.array([e["arrival_rate"] for e in expected])
    p_sift = np.array([e["sift_rate"] for e in expected])
    p_err = np.array([e["qber"] for e in expected])
    for i, (row, delta) in enumerate(zip(rows, unit.deltas)):
        exact = (
            float(row["delta"]) == delta
            and row["usd_scheme"] == scheme
            and int(row["sent"]) == n
            and arrived[i] + int(row["null"]) == n
            and revealed[i] == sifted[i]
            and int(row["key_length"]) == 0
            and qber[i] is not None
        )
        if not exact:
            bad[i] = True
            problems.append(f"point {i}: inconsistent counts or config echo")
    errors = np.array([round((q or 0.0) * r) for q, r in zip(qber, revealed)])
    bad |= ~binomial_plausible(arrived, n, p_arrive)
    bad |= ~binomial_plausible(sifted, n, p_sift)
    bad |= ~binomial_plausible(errors, np.maximum(revealed, 1), p_err)
    for i in np.nonzero(bad)[0][:5]:
        problems.append(
            f"point {i} (delta={unit.deltas[i]!r}): arrived {arrived[i]}, sifted {sifted[i]}, "
            f"qber {qber[i]} vs oracle {expected[i]}"
        )
    counts = [_counts_row(r, q) for r, q in zip(rows, qber)]
    return Checked(n_points, int(bad.sum()), problems, counts)
