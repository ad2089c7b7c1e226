"""Every private top-level function or class in the package has a caller in
the package.

A name with a leading underscore is not part of the public interface, so
when nothing in ``src/`` refers to it outside its own definition, only
tests (or nothing) keep it alive: such code belongs in ``tests/``, or
nowhere. The source is read as syntax trees, without importing it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qcorr"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def test_private_definitions_have_a_caller_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    private = {(module, node.name) for module, tree in trees.items() for node in tree.body
               if isinstance(node, DEFINITIONS) and node.name.startswith("_")}
    used = set()  # (name, module, top-level definition the reference sits in)
    for module, tree in trees.items():
        for top in tree.body:
            inside = top.name if isinstance(top, DEFINITIONS) else None
            for node in ast.walk(top):
                name = _referenced_name(node)
                if name is not None:
                    used.add((name, module, inside))
    unused = sorted(f"{module}:{name}" for module, name in private
                    if not any(n == name and (m, inside) != (module, name) for n, m, inside in used))
    assert not unused, f"private definitions with no caller in src/: {unused}"
