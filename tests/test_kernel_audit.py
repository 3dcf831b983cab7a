"""Kernel audit: no qubit quantity in `src/qkdsim` goes through a BLAS or
LAPACK kernel.

`quantum` forms each qubit quantity by one array rule (`outer`,
`inner_products`, `born`, the closed-form positivity check), whose bits
do not depend on the CPU. A matrix product `@`, or a numpy product that
may dispatch to BLAS (`np.outer`, `np.dot` and the like), would bring
back a second rule whose last bit follows the OpenBLAS core. `np.linalg`
is read only where the eigenvalues of the n x n Gram matrix are taken.
The audit reads only `src/qkdsim`, with standard library `ast`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qkdsim"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))

# numpy products that may run a BLAS kernel
_BLAS_PRODUCTS = {"outer", "dot", "matmul", "vdot", "inner", "tensordot", "einsum"}

# (module, enclosing function, np.linalg name): the Gram matrix's eigenvalues
GRAM_SITES = [
    ("harness.py", "_check_feasibility", "eigvalsh"),
    ("harness.py", "usd_check", "eigvalsh"),
    ("usd.py", "usd_feasible", "eigvalsh"),
]


def _on_np(node: ast.AST) -> bool:
    """True for an attribute of `np`, such as `np.outer`."""
    return isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and (
        node.value.id == "np"
    )


def _kernel_sites(source: str) -> tuple[list[str], list[tuple[str, str]]]:
    """The matrix products and BLAS-backed numpy products of `source`
    (each as "name (line n)"), and each `np.linalg` reference as
    (enclosing function, name)."""
    banned, linalg = [], []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            banned.append(f"@ (line {node.lineno})")
        if _on_np(node) and node.attr in _BLAS_PRODUCTS:
            banned.append(f"np.{node.attr} (line {node.lineno})")
        if isinstance(node, ast.Attribute) and _on_np(node.value) and node.value.attr == "linalg":
            linalg.append((function, node.attr))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            names += [alias.name for alias in node.names]
            banned.extend(f"import {n} (line {node.lineno})" for n in names if "linalg" in n)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return banned, linalg


def test_audit_finds_each_kernel():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import eigh\n"
        "def f(a, b):\n"
        "    a @= b\n"
        "    return a @ b, np.outer(a, b), np.linalg.eigvalsh(a)\n"
    )
    banned, linalg = _kernel_sites(source)
    assert banned == ["import numpy.linalg (line 2)", "@ (line 4)", "@ (line 5)",
                      "np.outer (line 5)"]
    assert linalg == [("f", "eigvalsh")]


@pytest.mark.parametrize("module", MODULES)
def test_no_matrix_product_or_blas_kernel(module):
    assert _kernel_sites((PACKAGE / module).read_text(encoding="utf-8"))[0] == []


def test_linalg_only_at_the_gram_sites():
    sites = [
        (module, function, name)
        for module in MODULES
        for function, name in _kernel_sites((PACKAGE / module).read_text(encoding="utf-8"))[1]
    ]
    assert sorted(sites) == GRAM_SITES
