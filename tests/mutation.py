"""Mutation check: every named single-line mutant of `src/` must fail the
tests that cover its module.

    python tests/mutation.py           # the control run, then every mutant
    python tests/mutation.py --list    # the mutants and the tie-only ones, not run
    python tests/mutation.py NAME ...  # the control run, then the named mutants

Each mutant is an exact old -> new text in one module; the old text must
occur there exactly once. The tie-only mutants, which no test can tell
from the program and which are never run, are anchored the same way, by
their module and exact old text. Every anchor is checked first, `--list`
too, and the script fails on one that does not occur exactly once, so a
refactor cannot leave a mutant or a note pointing at nothing. For each
mutant run, `src/` and `tests/` are copied to a
temporary directory, the mutant is applied to the copy, and pytest runs
only the test files that cover it there, stopping at the first failure.
A mutant the tests pass is a gap in them, and the script exits 1. A
control run first requires every listed test file to pass unmutated, so
that a broken environment cannot pass as a killed mutant.

The script imports only the standard library and runs pytest in a child
process. It is not a tier-1 test (pytest collects only `test_*.py`);
`tests/test_mutation_anchors.py` runs its anchor check in tier-1.
Background: DeMillo, Lipton & Sayward, IEEE Computer 11(4), 1978; Jia &
Harman, IEEE TSE 37(5), 2011.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str  # under src/qkdsim
    old: str
    new: str
    tests: tuple[str, ...]  # under tests/


class Tie(NamedTuple):
    name: str
    module: str  # under src/qkdsim
    old: str  # the text the mutant changes
    reason: str


MUTANTS = (
    # the tolerances that the tests once left free
    Mutant("label-tolerance", "quantum.py", "_LABEL_TOL = 1e-9", "_LABEL_TOL = 1e-6",
           ("test_golden.py", "test_quantum.py")),
    Mutant("gram-rank-tolerance", "usd.py", "GRAM_RANK_TOL = 1e-10", "GRAM_RANK_TOL = 1e-7",
           ("test_golden.py", "test_usd.py")),
    Mutant("algebra-tolerance", "quantum.py", "ALGEBRA_TOL = 1e-12", "ALGEBRA_TOL = 1e-9",
           ("test_quantum.py",)),
    Mutant("degeneracy-tolerance", "usd.py", "_DEGENERACY_TOL = 1e-12", "_DEGENERACY_TOL = 1e-9",
           ("test_usd.py",)),
    # the bookkeeping after the draws: count table, reveal run mask, CSV cell,
    # and the report's leaves: a test that did not run is a JSON null, and a
    # CSV column is named by its leaf's path without the section
    Mutant("count-table-columns", "session.py",
           "np.column_stack((n_arrived, n_sifted, *", "np.column_stack((n_sifted, n_arrived, *",
           ("test_session.py", "test_harness.py")),
    # a forked batch's bits are merged in range order: the parent's range, then each child's
    Mutant("merge-range-order", "session.py", "errors += chunk", "errors[:0] = chunk",
           ("test_session.py", "test_golden.py")),
    Mutant("reveal-run-mask", "protocol.py",
           "np.tile([True, False], len(m))", "np.tile([False, True], len(m))",
           ("test_protocol.py",)),
    Mutant("csv-boolean-case", "harness.py",
           '{False: "false", True: "true"}', '{False: "False", True: "True"}',
           ("test_harness.py", "test_golden.py")),
    Mutant("report-decision-dict", "harness.py",
           'tests[test] = d if d["method"] else None', "tests[test] = d",
           ("test_harness.py", "test_golden.py")),
    Mutant("csv-name-rule", "harness.py",
           '"_".join(path[1:] or path)', '"_".join(path[-1:])',
           ("test_harness.py", "test_golden.py")),
    # `sift` sifts only arrived pulses, whatever Bob's columns hold for the others
    Mutant("sift-arrived", "protocol.py",
           "arrived & sift_mask(", "sift_mask(", ("test_protocol.py",)),
    # each CSV column's cells are formatted by the one cell rule, picked by type
    Mutant("csv-cell-rule", "harness.py",
           "[_csv_column(values) for", "[map(str, values) for",
           ("test_harness.py", "test_golden.py")),
    # the engine's table indexing: a slot is frame * outcomes + outcome, and
    # Eve's state rows are a block of Alice's states per distinct strategy
    Mutant("slot-stride", "session.py",
           "slots *= eve.shape[2] + 1", "slots *= eve.shape[2]", ("test_session.py",)),
    Mutant("strategy-rows", "session.py",
           "rows += spread(batch.strategy) * len(protocol_states(batch.kind))",
           "rows += spread(batch.strategy)", ("test_session.py",)),
    # a stage draws only for the pulses that reach it: Bob for those that arrived
    Mutant("bob-draws-arrived", "session.py",
           "prefix[arrived], STAGE_BOB", "prefix[sent], STAGE_BOB", ("test_session.py",)),
    # the one list of reference states: labels, the naive frames and BB84's ids read its order
    Mutant("reference-order", "quantum.py",
           '{"z+": Z_PLUS, "z-": Z_MINUS,', '{"z+": Z_MINUS, "z-": Z_PLUS,',
           ("test_quantum.py", "test_session.py", "test_golden.py")),
    # the demo's antipodal direction wraps at 2 pi; the QBER test's flag
    # count is the first whose rate exceeds the threshold, ties excluded
    Mutant("direction-wrap", "harness.py",
           "if anti_phi >= 2.0 * math.pi:", "if anti_phi >= 2.0 + math.pi:",
           ("test_harness.py",)),
    Mutant("threshold-tie", "detection.py",
           "(k_star / n_revealed <= threshold)", "(k_star / n_revealed < threshold)",
           ("test_detection.py",)),
    # the tails sum the pmf away from the mode: upward from k only below
    # the branch switch, else 1 minus the sum from k - 1 down
    Mutant("tail-branch-switch", "detection.py",
           "upper = p < (k + 1.0) / (n + 3.0)", "upper = p > (k + 1.0) / (n + 3.0)",
           ("test_detection.py",)),
    # both detectors hold integer totals to the one count contract
    Mutant("count-contract", "detection.py",
           'or n.dtype.kind not in "iu"', "", ("test_detection.py",)),
    # the random POVM's third Bloch vector balances the other two, so its
    # elements add to the identity
    Mutant("random-povm-balance", "quantum.py",
           "tuple(-a - b for a, b in", "tuple(a + b for a, b in", ("test_quantum.py",)),
    # a sweep point's config runs the whole config check, as `replace` does,
    # so a bad late value still fails
    Mutant("sweep-point-check", "harness.py",
           "_check(config)\n        return config", "return config",
           ("test_harness.py",)),
    # a 2x2 operator's eigenvalues are (a + d)/2 -+ hypot((a - d)/2, |b|):
    # the smaller decides positivity, where the larger would pass a negative
    # element, and the Gram spectrum reads both
    Mutant("psd-closed-form", "quantum.py", "[mean - radius,", "[mean + radius,",
           ("test_quantum.py",)),
    Mutant("eigenvalue-sign", "quantum.py", "mean + radius]", "mean - radius]",
           ("test_usd.py", "test_quantum.py")),
    # a y rotation by delta turns each ket by the half angle delta / 2
    Mutant("rotation-half-angle", "quantum.py",
           "half = [angle / 2.0 for", "half = [angle for", ("test_quantum.py",)),
    # only the basis-mismatch attack rotates Eve's frame
    Mutant("rotation-rule", "adversary.py",
           "if self.rotation and self.kind is not EveKind.BASIS_MISMATCH:", "if False:",
           ("test_adversary.py",)),
)

# Mutants no test can tell from the program, so they are listed and never run.
TIE_ONLY = (
    Tie("session._coin: u >= 0.5 -> u > 0.5", "session.py", "(u >= 0.5).view(np.int8)",
        "they differ only on a uniform of exactly 0.5, one of the 2**53 values a draw takes; "
        "no seed of a test is known to draw it"),
    Tie("session._sample_stage: u >= column -> u > column", "session.py",
        "outcome += u >= column.take(rows)",
        "they differ only on a uniform equal to a stage threshold, a Born probability sum "
        "that is almost never a multiple of 2**-53 and never drawn at a known seed"),
    Tie("detection.null_ratio_test: p < a -> p <= a", "detection.py", "p_values < alpha",
        "they differ only on an exact binomial tail equal to alpha, which no test's counts "
        "reach"),
    Tie("protocol._draw_offsets: drop the clamp to span - 1", "protocol.py",
        "np.minimum(offsets, span, out=offsets)",
        "floor(u * span) is below span for every uniform u <= 1 - 2**-53 and span < 2**53, "
        "so the clamp never acts"),
)


def _copy_tree(destination: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, destination / part, ignore=ignore)


def _pytest(tree: Path, tests) -> tuple[int, str]:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *(str(tree / "tests" / name) for name in tests)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines[-1] if lines else done.stderr.strip()


def _check_anchors(tree: Path) -> None:
    """Fail unless every mutant's old text, tie-only ones too, occurs
    exactly once in its module under `tree`."""
    for m in (*MUTANTS, *TIE_ONLY):
        count = (tree / "src" / "qkdsim" / m.module).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            raise SystemExit(f"{m.name}: {m.old!r} occurs {count} times in {m.module}")


def _apply(tree: Path, mutant: Mutant) -> None:
    path = tree / "src" / "qkdsim" / mutant.module
    path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                    encoding="utf-8")


def main(argv: list[str]) -> int:
    _check_anchors(ROOT)
    if argv == ["--list"]:
        for m in MUTANTS:
            print(f"{m.name}: {m.module}: {m.old!r} -> {m.new!r} ({', '.join(m.tests)})")
        for m in TIE_ONLY:
            print(f"not run: {m.name}: {m.module}: {m.old!r}: {m.reason}")
        return 0
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="qkdsim-mutation-") as scratch:
        control = Path(scratch) / "control"
        _copy_tree(control)
        files = tuple(dict.fromkeys(name for m in chosen for name in m.tests))
        code, summary = _pytest(control, files)
        print(f"control: {summary}")
        if code != 0:
            print("control run failed: the unmutated tests must pass first")
            return 1
        survivors = []
        for mutant in chosen:
            tree = Path(scratch) / mutant.name
            _copy_tree(tree)
            _apply(tree, mutant)
            began = time.perf_counter()
            code, summary = _pytest(tree, mutant.tests)
            verdict = "killed" if code != 0 else "SURVIVED"
            print(f"{mutant.name}: {verdict} in {time.perf_counter() - began:.1f} s ({summary})")
            if code == 0:
                survivors.append(mutant.name)
            shutil.rmtree(tree)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed, "
          f"{len(TIE_ONLY)} tie-only mutants not run, {time.perf_counter() - start:.0f} s")
    if survivors:
        print(f"surviving mutants: {', '.join(survivors)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
