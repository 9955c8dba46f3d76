"""Smoke test of the benchmark at minimal grid sizes.

    python3 -m pytest perfbench/test_smoke.py -q

It is not part of the package's test suite (pytest collects only
``tests/`` by default) and asserts nothing about speed.  It keeps the
harness from rotting: every workload still runs against the current
sources, every metric BENCHMARK.json names is printed with its unit, the
traced counts repeat exactly between two runs, and the output checks
reject a bad CSV.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

WORKLOADS = [w["name"] for w in run.SPEC["workloads"]]

# Counts that must repeat exactly between two traced runs.
EXACT_COUNTS = (
    "quadrature.nodes",
    "em_field.kernel_evals",
    "channel.H_calls",
    "channel.R_calls",
    "receivers.se_calls",
    "channel.save_bytes",
    "channel.cache_hit_ratio",
)


def bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def test_workloads_match_the_harness():
    assert WORKLOADS == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed(workload):
    metrics = bench(workload, 0)
    assert units(metrics) == run.END_TO_END
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = bench(workload, 1), bench(workload, 1)
    assert units(first) == run.PER_LAYER
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    layers = {
        name: first[name]["value"]
        for name in ("channel.H_s", "channel.R_s", "channel.load_s", "receivers.se_s")
    }
    if workload == "sweep-dz-full":
        assert max(layers, key=layers.get) == "channel.R_s"
    elif workload == "avg-desk-pool":
        assert max(layers, key=layers.get) == "channel.H_s"
    else:
        assert first["channel.H_calls"]["value"] == first["channel.R_calls"]["value"] == 0
        assert first["channel.cache_hit_ratio"]["value"] == 1.0


def test_checks_reject_bad_rows():
    p = run.plan("cache-warm-desk", 1, smoke=True)
    header = "value,se_svd,se_mmse,se_mr,se_plain,error"
    good = [f"{v:.9g},9,8,7,6," for v in p.grid]
    assert run.check_rows("\n".join([header, *good]), p, None) == []
    swapped = [good[0], f"{p.grid[1]:.9g},8,9,7,6,", good[2]]
    flagged = [good[0], good[1], f"{p.grid[2]:.9g},,,,,ValueError: boom"]
    infinite = [good[0], f"{p.grid[1]:.9g},inf,8,7,6,", good[2]]
    for rows in (swapped, flagged, infinite, good[:2]):
        assert len(run.check_rows("\n".join([header, *rows]), p, None)) == 1
    reference = [row.split(",") for row in [header, *good]]
    shifted = [good[0], f"{p.grid[1]:.9g},9.0001,8,7,6,", good[2]]
    assert len(run.check_rows("\n".join([header, *shifted]), p, reference)) == 1
