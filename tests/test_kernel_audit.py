"""Kernel audit: no qubit quantity in `src/qkdsim` goes through a BLAS or
LAPACK kernel.

`quantum` forms each qubit quantity by one array rule (`outer`,
`inner_products`, `born`, `eigenvalues` in closed form), whose bits do
not depend on the CPU. A matrix product `@`, a numpy product that may
dispatch to BLAS (`np.outer`, `np.dot` and the like), or any `np.linalg`
name would bring back a second rule whose last bit follows the OpenBLAS
core; so none occurs anywhere in `src/qkdsim`. The Gram matrix's
eigenvalues come from its 2 x 2 frame operator's, by `eigenvalues`.
The batch path (`session`, `harness`) rotates Eve's frames as kets, by
one `quantum.rotate_kets` call a batch: it calls neither the scalar
`rotate_y` nor a strategy's `.states()`, which would rotate one state at
a time. The audit reads only `src/qkdsim`, with standard library `ast`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qkdsim"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))

# numpy products that may run a BLAS kernel, and numpy's LAPACK module
_KERNELS = {"outer", "dot", "matmul", "vdot", "inner", "tensordot", "einsum", "linalg"}


def _on_np(node: ast.AST) -> bool:
    """True for an attribute of `np`, such as `np.outer`."""
    return isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and (
        node.value.id == "np"
    )


def _kernel_sites(source: str) -> list[str]:
    """The matrix products, BLAS-backed numpy products and `np.linalg`
    references and imports of `source`, each as "name (line n)", in line
    order."""
    banned = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            banned.append((node.lineno, "@"))
        if _on_np(node) and node.attr in _KERNELS:
            banned.append((node.lineno, f"np.{node.attr}"))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            names += [alias.name for alias in node.names]
            banned.extend((node.lineno, f"import {n}") for n in names if "linalg" in n)
    return [f"{name} (line {line})" for line, name in sorted(banned)]


# modules of the batch path, which rotate no state one at a time
BATCH_PATH = ["harness.py", "session.py"]


def _scalar_rotations(source: str) -> list[tuple[int, str]]:
    """Each call of `rotate_y` (bare or as an attribute) and of a
    `.states()` method in `source`, as (line, name), in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        func = node.func if isinstance(node, ast.Call) else None
        if isinstance(func, ast.Attribute) and func.attr in ("rotate_y", "states"):
            found.append((node.lineno, func.attr))
        elif isinstance(func, ast.Name) and func.id == "rotate_y":
            found.append((node.lineno, func.id))
    return sorted(found)


def test_audit_finds_each_scalar_rotation():
    source = (
        "from qkdsim.quantum import rotate_y\n"
        "a = rotate_y(s, 0.1)\n"
        "b = quantum.rotate_y(s, 0.2)\n"
        "c = strategy.states()\n"
        "d = protocol_states(kind), states\n"
    )
    assert _scalar_rotations(source) == [(2, "rotate_y"), (3, "rotate_y"), (4, "states")]


@pytest.mark.parametrize("module", BATCH_PATH)
def test_batch_path_rotates_no_state_one_at_a_time(module):
    assert _scalar_rotations((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_audit_finds_each_kernel():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import eigh\n"
        "def f(a, b):\n"
        "    a @= b\n"
        "    return a @ b, np.outer(a, b), np.linalg.eigvalsh(a)\n"
    )
    assert _kernel_sites(source) == ["import numpy.linalg (line 2)", "@ (line 4)", "@ (line 5)",
                                     "np.linalg (line 5)", "np.outer (line 5)"]


@pytest.mark.parametrize("module", MODULES)
def test_no_matrix_product_or_blas_kernel(module):
    """No `@`, BLAS-backed product or `np.linalg` name in the module."""
    assert _kernel_sites((PACKAGE / module).read_text(encoding="utf-8")) == []
