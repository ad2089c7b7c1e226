"""Every layer boundary the benchmark's tracer wraps still exists in qcorr.

The traced names are read from ``bench/tracing.py`` as data, without
importing it, so a rename or deletion in the package shows up here rather
than as an ``AttributeError`` in a traced benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED tuple in {TRACING}")


@pytest.mark.parametrize("module,attr", _traced(), ids=lambda x: x)
def test_traced_name_resolves(module, attr):
    obj = importlib.import_module(f"qcorr.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
