"""The wdmlink functions the benchmark's tracer wraps must exist.

``perfbench/layers.py`` rebinds each function of its ``_LAYER_CALLS``
table by module and name, and a traced run stops when a required one is
missing, so a rename in ``src`` would otherwise surface only there.  The
table is read with ``ast``; the benchmark script is not imported.
"""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layer_calls():
    """(module, function, required) of each ``_LAYER_CALLS`` entry."""
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "_LAYER_CALLS"
            for target in node.targets
        ):
            return [
                tuple(ast.literal_eval(entry.elts[i]) for i in (0, 1, 5))
                for entry in node.value.elts
            ]
    raise AssertionError(f"no _LAYER_CALLS assignment in {LAYERS}")


def test_required_layer_functions_resolve():
    required = [(module, name) for module, name, needed in _layer_calls() if needed]
    assert required
    missing = [
        f"{module}.{name}"
        for module, name in required
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
