"""One serial, in-process run of the wdmlink CLI, optionally traced.

    python3 perfbench/layers.py --result RESULT.json [--trace] -- CLI ARGS...

The wdmlink package must be importable (run.py puts the checkout's ``src``
on PYTHONPATH).  The script calls ``wdmlink.cli.main(CLI ARGS)`` once and
writes a JSON result with the exit code and the in-process seconds of that
call.

With ``--trace`` it first replaces the public function of each layer that
a sweep passes through with a wrapper that records a span (id, name,
start, end, parent id, run id) and the counts named in ``_LAYER_CALLS``.
The wrapper is bound under every name a ``wdmlink`` module holds for the
function, so calls through ``from .x import f`` bindings are seen too.
Nothing under ``src/`` is changed.  Spans stay in memory and go into the
result file when the run ends; run.py turns them into per-layer metrics.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import os
import sys
import time
import tracemalloc
import uuid

import numpy as np

# Bytes the far-field kernel reads and writes per evaluation: three float64
# separation components in, one complex128 value out.
KERNEL_BYTES_PER_EVAL = 3 * 8 + 16


def _kernel_counts(span, args, kwargs, result):
    u = args[0] if args else kwargs["u"]
    span["evals"] = math.prod(np.shape(u)[:-1])
    span["bytes"] = span["evals"] * KERNEL_BYTES_PER_EVAL


def _node_counts(span, args, kwargs, result):
    span["nodes"] = len(result[0])


def _save_counts(span, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    span["bytes"] = os.path.getsize(path)


# (module, function, span name, count hook, track peak memory, required)
_LAYER_CALLS = (
    ("wdmlink.quadrature", "composite_gauss_nodes", "quadrature.nodes", _node_counts, False, True),
    ("wdmlink.em_field", "gz_kernel", "em_field.kernel", _kernel_counts, False, True),
    ("wdmlink.channel", "assemble_H", "channel.H", None, True, True),
    ("wdmlink.channel", "assemble_R", "channel.R", None, True, True),
    ("wdmlink.channel", "whiten", "channel.whiten", None, False, True),
    ("wdmlink.channel", "save_channel_set", "channel.save", _save_counts, False, True),
    ("wdmlink.channel", "load_matching_channel_set", "channel.load", None, False, True),
    ("wdmlink.receivers", "spectral_efficiency", "receivers.se", None, False, True),
    ("wdmlink.experiments", "run_sweep", "experiments.run", None, False, True),
    ("wdmlink.experiments", "run_avg_sweep", "experiments.run", None, False, True),
    ("wdmlink.experiments", "_write_csv", "experiments.csv", None, False, False),
    ("wdmlink.svgplot", "line_plot_svg", "svgplot.render", None, False, True),
    ("wdmlink.svgplot", "polar_plot_svg", "svgplot.render", None, False, True),
    ("wdmlink.svgplot", "write_svg", "svgplot.render", None, False, True),
)


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, on_result, track_peak):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # tracemalloc runs only inside H and R, so its cost lands in
            # the trace overhead and not in the other layers' spans.
            if track_peak:
                tracemalloc.start()
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
                if track_peak:
                    span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Rebind every layer function in every loaded wdmlink module."""
    for module_name, attr, name, on_result, track_peak, required in _LAYER_CALLS:
        original = getattr(importlib.import_module(module_name), attr, None)
        if original is None:
            if required:
                raise SystemExit(f"layers.py: {module_name}.{attr} not found")
            continue
        wrapper = tracer.wrap(original, name, on_result, track_peak)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "wdmlink" or mod_name.startswith("wdmlink.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True, help="JSON result path")
    parser.add_argument("--trace", action="store_true", help="record spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import wdmlink.cli as cli

    tracer = Tracer(uuid.uuid4().hex)
    if args.trace:
        install(tracer)
    root = tracer.open("cli.main")
    rc = cli.main(cli_args)
    tracer.close(root)
    result = {
        "run_id": tracer.run_id,
        "rc": rc,
        "seconds": root["end"] - root["start"],
        "spans": tracer.spans if args.trace else [],
    }
    with open(args.result, "w", encoding="utf-8") as out:
        json.dump(result, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
