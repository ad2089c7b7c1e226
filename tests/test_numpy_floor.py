"""The package uses no NumPy function newer than the floor it declares.

``pyproject.toml`` declares ``numpy>=1.24``. The names below first appeared
in NumPy 2.0, so a package that calls one of them fails on every 1.x
release it claims to support. The source is read as syntax trees, so the
check holds whatever NumPy version runs the tests.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qcorr"
NUMPY_2_ONLY = {
    "vecdot", "matvec", "vecmat", "concat", "permute_dims", "matrix_transpose",
    "unstack", "cumulative_sum", "cumulative_prod", "isdtype", "astype",
    "unique_all", "unique_counts", "unique_inverse", "unique_values",
    "matrix_norm", "vector_norm",
}


def _numpy_attribute(node):
    """The name in ``np.name`` or ``np.linalg.name``, else None."""
    if not isinstance(node, ast.Attribute):
        return None
    owner = node.value
    if isinstance(owner, ast.Attribute) and owner.attr == "linalg":
        owner = owner.value
    return node.attr if isinstance(owner, ast.Name) and owner.id in ("np", "numpy") else None


def test_declared_numpy_floor():
    text = (SRC.parents[1] / "pyproject.toml").read_text()
    assert '"numpy>=1.24"' in text


def test_src_uses_no_numpy_2_only_function():
    found = sorted(f"{path.name}:{node.lineno}: {node.attr}"
                   for path in sorted(SRC.glob("*.py"))
                   for node in ast.walk(ast.parse(path.read_text()))
                   if _numpy_attribute(node) in NUMPY_2_ONLY)
    assert not found, f"NumPy 2.0-only functions in src/: {found}"
