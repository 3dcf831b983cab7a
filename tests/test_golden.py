"""Golden digests: the sha256 of `qkdsim` stdout for fixed configs.

Every valid {protocol x eve_strategy x usd_scheme} combination is pinned,
plus lossy channels, nonzero delta, a CSV run, two sessions long enough
to span several engine blocks, and sweeps over each kind of parameter:
a delta sweep long enough to fill more than one batch of sessions,
pulse counts above, at and below one block, per-point losses and a BB84
intercept-resend efficiency sweep. A
refactor of the engine must leave every digest unchanged; a deliberate
change of output re-pins them with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from qkdsim.cli import main

DIGESTS = Path(__file__).parent / "golden" / "digests.json"
N = 20_000
MULTIBLOCK_N = 100_003


def _config(protocol, strategy="none", scheme="naive", **extra):
    return {
        "protocol": protocol,
        "n_pulses": N,
        "eve_strategy": strategy,
        "usd_scheme": scheme,
        "reveal_fraction": 0.5,
        "master_seed": 20_240_917,
        **extra,
    }


LOSSY = {"absorption": 0.15, "efficiency": 0.85}
SWEEP = ["--param", "delta", "--values", "0,0.1,0.3,0.6,1.2"]
# 70 points of 500 pulses: 35,000 pulses, more than one 32,768-pulse block
LONG_DELTA_SWEEP = ["--param", "delta", "--values", ",".join(repr(i * 0.02) for i in range(70))]

# name -> (config, argv before --config, argv after --config)
CASES = {
    "b92-none": (_config("b92"), ["run"], []),
    "b92-intercept-resend": (_config("b92", "intercept_resend"), ["run"], []),
    "b92-usd-suppress-naive": (_config("b92", "usd_suppress"), ["run"], []),
    "b92-usd-suppress-optimal": (_config("b92", "usd_suppress", "optimal"), ["run"], []),
    "b92-basis-mismatch-naive": (_config("b92", "basis_mismatch"), ["run"], []),
    "b92-basis-mismatch-optimal": (_config("b92", "basis_mismatch", "optimal"), ["run"], []),
    "bb84-none": (_config("bb84"), ["run"], []),
    "bb84-intercept-resend": (_config("bb84", "intercept_resend"), ["run"], []),
    "b92-usd-suppress-naive-lossy": (_config("b92", "usd_suppress", **LOSSY), ["run"], []),
    "bb84-intercept-resend-lossy": (_config("bb84", "intercept_resend", **LOSSY), ["run"], []),
    "b92-basis-mismatch-naive-delta": (
        _config("b92", "basis_mismatch", delta=0.3), ["run"], []
    ),
    "b92-basis-mismatch-optimal-delta": (
        _config("b92", "basis_mismatch", "optimal", delta=0.3), ["run"], []
    ),
    "b92-usd-suppress-naive-csv": (
        _config("b92", "usd_suppress", **LOSSY), ["--output", "csv", "run"], []
    ),
    "b92-basis-mismatch-optimal-sweep-csv": (
        _config("b92", "basis_mismatch", "optimal", n_pulses=4_000),
        ["--output", "csv", "sweep"],
        SWEEP,
    ),
    "b92-basis-mismatch-naive-long-sweep-csv": (
        _config("b92", "basis_mismatch", n_pulses=500, reveal_fraction=1.0),
        ["--output", "csv", "sweep"],
        LONG_DELTA_SWEEP,
    ),
    "b92-usd-suppress-naive-lossy-n-pulses-sweep": (
        _config("b92", "usd_suppress", **LOSSY),
        ["sweep"],
        ["--param", "n_pulses", "--values", "10,40000,7,32768,1"],
    ),
    "b92-usd-suppress-naive-absorption-sweep-csv": (
        _config("b92", "usd_suppress", n_pulses=2_000),
        ["--output", "csv", "sweep"],
        ["--param", "absorption", "--values", "0,0.1,0.35,0.6,0.95"],
    ),
    "bb84-intercept-resend-efficiency-sweep-csv": (
        _config("bb84", "intercept_resend", n_pulses=3_000),
        ["--output", "csv", "sweep"],
        ["--param", "efficiency", "--values", "1,0.9,0.5,0.2"],
    ),
    # several engine blocks, the last one partial
    "b92-usd-suppress-naive-lossy-multiblock": (
        _config("b92", "usd_suppress", n_pulses=MULTIBLOCK_N, **LOSSY), ["run"], []
    ),
    "bb84-intercept-resend-multiblock": (
        _config("bb84", "intercept_resend", n_pulses=MULTIBLOCK_N), ["run"], []
    ),
}


def _digest(name: str, directory: Path) -> str:
    config, before, after = CASES[name]
    path = directory / f"{name}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*before, "--config", str(path), *after])
    assert code == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_digest_unchanged(name, tmp_path):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert _digest(name, tmp_path) == pinned[name]


def test_every_case_pinned():
    assert sorted(json.loads(DIGESTS.read_text(encoding="utf-8"))) == sorted(CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        digests = {name: _digest(name, Path(scratch)) for name in sorted(CASES)}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
