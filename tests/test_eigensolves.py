"""No eigensolve in the package computes eigenvectors only to discard them.

A caller that reads only eigenvalues should ask LAPACK for only those
(``hermitian_eigenvalues`` or ``np.linalg.eigvalsh``), which skips the
eigenvector work. A full eigensolve is a call to ``hermitian_eigendecompose``
or ``np.linalg.eigh``, or a call that hands ``np.linalg.eigh`` to a helper
as its first argument. It discards its eigenvectors when its result is
unpacked into ``w, _`` or subscripted with ``[0]``. The source is read as
syntax trees, without importing it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qcorr"
FULL_SOLVERS = ("hermitian_eigendecompose", "eigh")


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_full_eigensolve(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    return _name(node.func) in FULL_SOLVERS or (bool(node.args) and _name(node.args[0]) == "eigh")


def discarded_eigenvectors(source: str) -> list:
    """Line numbers of full eigensolves whose eigenvectors are never bound."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Assign) and _is_full_eigensolve(node.value)
                and isinstance(node.targets[0], ast.Tuple) and len(node.targets[0].elts) == 2
                and _name(node.targets[0].elts[1]) == "_"):
            lines.append(node.lineno)
        if (isinstance(node, ast.Subscript) and _is_full_eigensolve(node.value)
                and isinstance(node.slice, ast.Constant) and node.slice.value == 0):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_scan_sees_both_forms():
    assert discarded_eigenvectors("w, _ = hermitian_eigendecompose(m)\n") == [1]
    assert discarded_eigenvectors("x = 1\nw = np.linalg.eigh(m)[0]\n") == [2]
    assert discarded_eigenvectors("w, _ = _lapack(np.linalg.eigh, m)\n") == [1]
    assert discarded_eigenvectors("w, v = np.linalg.eigh(m)\nw = np.linalg.eigvalsh(m)[0]\n") == []


def test_no_src_eigensolve_discards_its_eigenvectors():
    found = {path.name: lines for path in sorted(SRC.glob("*.py"))
             if (lines := discarded_eigenvectors(path.read_text()))}
    assert not found, f"eigenvectors computed and discarded (use eigenvalues only): {found}"
