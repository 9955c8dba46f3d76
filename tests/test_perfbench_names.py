"""The wdmlink functions the benchmark's tracer wraps must exist.

``perfbench/layers.py`` rebinds each function of its ``_LAYER_CALLS``
table by module and name, and a traced run stops when a required one is
missing, so a rename in ``src`` would otherwise surface only there.  The
table is read with ``ast``; the benchmark script is not imported.  A
wrapped function that no run calls would read 0 there, so the whitening
step is also checked to run, wrapped as the tracer wraps it.
"""

import ast
import importlib
import sys
from pathlib import Path

from wdmlink import channel
from wdmlink.config import desk_profile
from wdmlink.experiments import run_sweep
from wdmlink.geometry import replace

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


def test_cold_sweep_runs_the_wrapped_whiten(monkeypatch, tmp_path):
    # bound under every name a loaded wdmlink module holds for it, as the
    # tracer binds its wrappers; the numerical layer is loaded first, so
    # its binding too is restored after the test
    importlib.import_module("wdmlink.numerical")
    original, calls = channel.whiten, []

    def wrapped(*args, **kwargs):
        calls.append(args[1].d_z)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "wdmlink" or name.startswith("wdmlink.")):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapped)
    cfg = desk_profile()
    run_sweep(replace(cfg, sweep=replace(cfg.sweep, count=2)), str(tmp_path / "sweep.csv"))
    # each d_z is a receive segment of its own, whitened as a stack of one
    assert calls == [0.0, 2.0]
