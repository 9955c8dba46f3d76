"""The benchmark's reference CSVs, reproduced in-process.

``perfbench/run.py`` checks every CSV a seed-1 run writes against
``perfbench/reference/<workload>.csv``, so a change that moves a spectral
efficiency would otherwise surface only when the benchmark runs.  Here
each workload's seed-1 arguments, taken from the script's own ``plan``,
run serially through ``wdmlink.cli.main`` and every SE cell must lie
within the benchmark's relative tolerance of the reference.  The script
is compiled from its source into a private module, so
nothing is imported from or written under ``perfbench/``.
"""

import csv
import math
import sys
import types
from pathlib import Path

import pytest

from wdmlink.cli import main

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _load_run_script():
    # registered first: its dataclasses look their module up in sys.modules
    module = sys.modules["_perfbench_run"] = types.ModuleType("_perfbench_run")
    module.__file__ = str(RUN_PY)
    exec(compile(RUN_PY.read_text(encoding="utf-8"), str(RUN_PY), "exec"), vars(module))
    return module


RUN = _load_run_script()


def _rows(path):
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("workload", RUN.WORKLOADS)
def test_seed_one_matches_reference(workload, tmp_path):
    plan = RUN.plan(workload, RUN.DEFAULT_SEED, False)
    args = [*plan.args, "--workers", "1"]
    runs = ["cold", "warm"] if plan.cached else ["uncached"]
    reference = _rows(RUN.REFERENCE / f"{workload}.csv")
    header = reference[0]
    se_cols = [i for i, name in enumerate(header) if name.startswith("se_")]
    assert se_cols and "error" in header
    for label in runs:
        out = tmp_path / f"{label}.csv"
        cache = ["--cache-dir", str(tmp_path / "cache")] if plan.cached else []
        assert main([*args, *cache, "--out", str(out)]) == 0
        rows = _rows(out)
        assert rows[0] == header and len(rows) == len(reference), label
        for i, (row, want) in enumerate(zip(rows[1:], reference[1:])):
            assert row[0] == want[0] and row[header.index("error")] == "", (label, i)
            for j in se_cols:
                got, expected = float(row[j]), float(want[j])
                assert math.isclose(got, expected, rel_tol=RUN.REL_TOL), (
                    f"{label} row {i} {header[j]}: {got} vs reference {expected}"
                )
