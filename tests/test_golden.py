"""Golden digests: the sha256 of `qkdsim` stdout for fixed configs.

Every valid {protocol x eve_strategy x usd_scheme} combination is pinned,
plus lossy channels, nonzero delta, a CSV run, two sessions long enough
to span several engine blocks, and sweeps over each kind of parameter:
a delta sweep long enough to fill more than one batch of sessions,
pulse counts above, at and below one block, per-point losses and a BB84
intercept-resend efficiency sweep, and two multi-session batches that
reveal less than every sifted bit: B92 points of 1 to 3 pulses (nothing
sifted) mixed with 500-pulse points, and a lossy BB84 intercept-resend
absorption sweep. The
two analysis subcommands, which take no config, are pinned too:
`usd-check` on the B92 pair, the four BB84 states, three states, one
state and a repeated state, and `no-signaling-demo` with each POVM, a
second seed and chosen directions. A
refactor must leave every digest unchanged; a deliberate
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

# 1-3-pulse points sift nothing; the 500-pulse points share their batch
TINY_N_PULSES_SWEEP = ["--param", "n_pulses", "--values", "1,500,2,3,500,1,500,2"]
# 60 points of 400 pulses, one batch
BB84_ABSORPTION_SWEEP = [
    "--param", "absorption", "--values", ",".join(repr(i * 0.01) for i in range(60))
]

B92_PAIR = "0,0,1.5707963267948966,0"
BB84_STATES = "0,0,3.141592653589793,0,1.5707963267948966,0,1.5707963267948966,3.141592653589793"

# name -> (config, argv before --config, argv after --config); a case
# with no config runs its two argv parts with no --config between them
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
    "b92-basis-mismatch-naive-tiny-n-pulses-sweep-csv": (
        _config("b92", "basis_mismatch", delta=0.3, reveal_fraction=0.3),
        ["--output", "csv", "sweep"],
        TINY_N_PULSES_SWEEP,
    ),
    "bb84-intercept-resend-lossy-absorption-sweep": (
        _config("bb84", "intercept_resend", n_pulses=400, reveal_fraction=0.2, efficiency=0.85),
        ["sweep"],
        BB84_ABSORPTION_SWEEP,
    ),
    # several engine blocks, the last one partial
    "b92-usd-suppress-naive-lossy-multiblock": (
        _config("b92", "usd_suppress", n_pulses=MULTIBLOCK_N, **LOSSY), ["run"], []
    ),
    "bb84-intercept-resend-multiblock": (
        _config("bb84", "intercept_resend", n_pulses=MULTIBLOCK_N), ["run"], []
    ),
    "usd-check-b92-pair": (None, ["usd-check", "--states", B92_PAIR], []),
    "usd-check-bb84-states": (None, ["usd-check", "--states", BB84_STATES], []),
    "usd-check-three-states": (None, ["usd-check", "--states", "0.3,0.2,1.2,4,2.5,1"], []),
    "usd-check-one-state": (None, ["--seed", "3", "usd-check", "--states", "0.7,0.1"], []),
    "usd-check-repeated-state": (None, ["usd-check", "--states", "1,2,1,2"], []),
    "no-signaling-demo-sz": (None, ["no-signaling-demo", "--povm", "sz"], []),
    "no-signaling-demo-sx": (None, ["no-signaling-demo", "--povm", "sx"], []),
    "no-signaling-demo-idp": (None, ["no-signaling-demo", "--povm", "idp"], []),
    "no-signaling-demo-random": (None, ["no-signaling-demo"], []),
    "no-signaling-demo-random-seed-7": (None, ["--seed", "7", "no-signaling-demo"], []),
    "no-signaling-demo-directions": (
        None, ["no-signaling-demo", "--povm", "idp", "--u", "0.7,1.1", "--u-prime", "2.4,5.5"], []
    ),
}


def _digest(name: str, directory: Path) -> str:
    config, before, after = CASES[name]
    argv = [*before, *after]
    if config is not None:
        path = directory / f"{name}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = [*before, "--config", str(path), *after]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
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
