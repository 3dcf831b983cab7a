"""The golden digests and the engine's stage tables at lower CPU
generations: no report's bytes, and no threshold the engine samples by,
may depend on which kernels numpy or its BLAS dispatch to on this CPU.

numpy runs each ufunc loop in the kernel of the widest SIMD features the
CPU has, and `NPY_DISABLE_CPU_FEATURES` makes a process run the kernels
of a CPU without some of them. That setting does not reach OpenBLAS,
which picks its own kernels at load time; a DYNAMIC_ARCH build takes
them from `OPENBLAS_CORETYPE` instead. Each level emulates one CPU
generation in both, and runs every golden case once, in a fresh process,
comparing each stdout digest with the pinned one: first without AVX-512
(OpenBLAS core Haswell, the kernels of AVX2 CPUs without AVX-512 and of
AMD Zen), then without AVX2/FMA as well (core Sandybridge), then without
the whole AVX family (the pre-AVX core Nehalem, which needs SSE4.2). The same
process hashes the Eve and Bob stage tables of 200 naive and 200 optimal
mismatch rotations, which must equal a default process's bytes: a count
moves only if a draw lands between two such thresholds, so the digests
alone would not show a table that follows the CPU.

The feature names come from numpy's own dispatch list, because they
differ across numpy versions, and only names that list holds and this
CPU has are disabled; the child process reports each of them off, so the
check cannot pass by disabling nothing that was on. A core is set only
where numpy reports a DYNAMIC_ARCH OpenBLAS (numpy 1.26 or later) and
this CPU has the core's features, and the child's OpenBLAS must name
that core on stderr (`OPENBLAS_VERBOSE=2`).
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qkdsim
from qkdsim import session
from qkdsim.adversary import HALF_PI, ChannelModel, EveKind, EveStrategy
from qkdsim.protocol import ProtocolKind
from qkdsim.usd import UsdSchemeKind
from test_golden import CASES, DIGESTS

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__


def _on_cpu(drop) -> list[str]:
    """The features of numpy's dispatch list that this CPU has and `drop` accepts."""
    return [name for name in __cpu_dispatch__ if drop(name) and __cpu_features__.get(name)]


def _avx512(name: str) -> bool:
    return name.startswith("AVX512") or name == "X86_V4"


def _dynamic_openblas() -> bool:
    """True where numpy's BLAS is an OpenBLAS built with DYNAMIC_ARCH."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 reports no dicts
        return False
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get(
        "openblas configuration", ""
    )


def _core(name: str, needs: tuple[str, ...]) -> str | None:
    """OpenBLAS core `name`, where numpy's OpenBLAS takes a core by name
    and this CPU has every feature in `needs`; else None."""
    return name if _dynamic_openblas() and all(__cpu_features__.get(f) for f in needs) else None


# level -> (numpy features disabled, OpenBLAS core or None)
LEVELS = {
    "no-avx512": (_on_cpu(_avx512), _core("Haswell", ("AVX2", "FMA3"))),
    "no-avx2-fma": (
        _on_cpu(lambda name: _avx512(name) or name in ("X86_V3", "AVX2", "FMA3")),
        _core("Sandybridge", ("AVX",)),
    ),
    "no-avx": (
        _on_cpu(lambda name: _avx512(name) or name in ("X86_V3", "AVX2", "FMA3", "AVX", "F16C")),
        _core("Nehalem", ("SSE42",)),
    ),
}


def stage_table_digests() -> dict[str, str]:
    """Per scheme, the sha256 of the Eve then Bob stage tables' bytes of
    one B92 batch of 200 mismatch rotations in [0, pi/2)."""
    deltas = np.linspace(0.0, HALF_PI, 200, endpoint=False).tolist()
    digests = {}
    for scheme in UsdSchemeKind:
        strategies = [EveStrategy.of(EveKind.BASIS_MISMATCH, scheme, d) for d in deltas]
        sessions = [session.Session(1, ChannelModel(), s, 0) for s in strategies]
        batch = session._batch(ProtocolKind.B92, sessions)
        digests[scheme.value] = hashlib.sha256(batch.eve.tobytes() + batch.bob.tobytes()).hexdigest()
    return digests


_PROBE = """
import json, tempfile
from pathlib import Path
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
import test_golden, test_simd_levels
with tempfile.TemporaryDirectory() as scratch:
    digests = {name: test_golden._digest(name, Path(scratch)) for name in test_golden.CASES}
print(json.dumps({"on": [n for n, have in __cpu_features__.items() if have], "digests": digests,
                  "tables": test_simd_levels.stage_table_digests()}))
"""

_TABLES = "import json, test_simd_levels; print(json.dumps(test_simd_levels.stage_table_digests()))"


def _child(code: str, features: list[str], core: str | None) -> subprocess.CompletedProcess:
    """Run `code` in a fresh process with numpy's `features` disabled and
    OpenBLAS on `core` (its own choice where None)."""
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(qkdsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "NPY_DISABLE_CPU_FEATURES": " ".join(features),
           "OPENBLAS_VERBOSE": "2"}
    env.pop("OPENBLAS_CORETYPE", None)
    if core:
        env["OPENBLAS_CORETYPE"] = core
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return done


@functools.cache
def _run(level: str) -> dict:
    """The features on, every golden case's digest, the stage tables'
    digests and OpenBLAS's stderr in a process at `level`."""
    done = _child(_PROBE, *LEVELS[level])
    return {**json.loads(done.stdout), "stderr": done.stderr}


@functools.cache
def _default_tables() -> dict[str, str]:
    """The stage tables' digests in a process with every kernel numpy and
    OpenBLAS pick for this CPU."""
    return json.loads(_child(_TABLES, [], None).stdout)


@pytest.mark.parametrize("level", list(LEVELS))
def test_level_disables_its_features(level):
    features, core = LEVELS[level]
    run = _run(level)
    assert not set(features) & set(run["on"])
    if core:
        assert f"Core: {core}" in run["stderr"].splitlines()


@pytest.mark.parametrize(
    "level,name",
    [pytest.param(level, name, id=f"{level}-{name}") for level in LEVELS for name in sorted(CASES)],
)
def test_digest_holds_at_simd_level(level, name):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert _run(level)["digests"][name] == pinned[name]


@pytest.mark.parametrize("level", list(LEVELS))
def test_stage_tables_hold_at_simd_level(level):
    assert _run(level)["tables"] == _default_tables()
