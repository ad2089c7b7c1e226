"""Every private top-level function or class in the package has a caller in
the package, and every imported name is used.

A name with a leading underscore is not part of the public interface, so
when nothing in ``src/`` refers to it outside its own definition, only
tests (or nothing) keep it alive: such code belongs in ``tests/``, or
nowhere. An import its module never uses is dead the same way. The source
is read as syntax trees, without importing it.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "qcorr"
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


def _unused_imports(tree) -> list:
    """Names a module imports and never reads. ``from __future__`` imports
    and names listed in ``__all__`` count as used."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_imported_names_are_used():
    unused = {str(path.relative_to(TESTS.parent)): names
              for path in sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")])
              if (names := _unused_imports(ast.parse(path.read_text())))}
    assert not unused, f"imported names never used: {unused}"
