"""Outside-in benchmark of the wdmlink command line.

Run from the root of a source checkout (nothing needs to be installed; the
checkout's ``src`` is put on PYTHONPATH of every child process):

    python3 perfbench/run.py --workload sweep-dz-full --seed 1 --seconds 20 --trace 0

``--trace 0`` drives ``python3 -m wdmlink.cli`` as a user would, one
subprocess per run, repeated for ``--seconds`` (at least two runs), and
reports the end-to-end metrics.  ``--trace 1`` makes one untraced CLI run,
then one untraced and one traced serial in-process run
(perfbench/layers.py), and reports the per-layer metrics.  Every CSV
written is checked; the last line of stdout is one JSON object, and the
exit code is 1 when any output check failed.

Workloads (all inputs derive from ``--seed``; the program sees only the
generated grid start and the ``avg-sweep --seed``):

- ``sweep-dz-full``: SE over 2 d_z points at full scale, serial, no cache.
  R is re-integrated at every point and dominates; H's temporaries set the
  peak RSS.
- ``avg-desk-pool``: orientation-averaged SE on desk over 3 d_x points x 20
  orientations, two workers, no cache.  H runs at every point and R is
  memoised, so R changes should not show here; the only workload where
  pool and BLAS threads matter.
- ``cache-warm-desk``: a 41-point theta_s sweep on desk whose cache is
  filled during set-up by a cold run into a fresh cache directory; each
  timed run repeats it warm, so only channel-file loading and the receivers
  run.

Sizes keep one run near ``--seconds`` plus set-up on two cores: a full-scale
point costs ~6 s, a desk orientation or cold cache entry ~0.12 s, a warm
entry ~4 ms, and interpreter start with the imports ~0.6 s.

Set-up is repeated three times per run, interleaved with the timed runs.

End-to-end metrics (trace 0): ``wall_s`` process start to exit of one CLI
run with a checked CSV; ``cpu_s`` user+sys of the CLI process tree;
``peak_rss_mb`` the largest peak RSS in that tree (pool workers included);
``setup_s`` interpreter start, ``import wdmlink.cli`` and profile
resolution, or on cache-warm-desk the whole cold fill run; ``passed_share``
checked grid points that passed every check over points attempted, i.e.
1 - failed share (a failure share would read 0 on a healthy run).  Timings
are medians of the runs made; the summary on stdout also gives the highest
percentile with at least ten samples beyond it and the sample count.

Per-layer metrics (trace 1) and the end-to-end metric each should move:

    quadrature.nodes_s, quadrature.nodes         wall_s on avg-desk-pool
    em_field.kernel_s, .kernel_evals,
      .kernel_mb_computed                         wall_s, cpu_s on avg-desk-pool
                                                  and sweep-dz-full
    channel.H_s, .H_self_s, .H_calls              wall_s on avg-desk-pool
    channel.H_peak_mb                             peak_rss_mb on sweep-dz-full
    channel.R_s, .R_calls, .R_peak_mb             wall_s on sweep-dz-full only
    channel.whiten_s                              wall_s on avg-desk-pool
    channel.save_s, .save_bytes                   setup_s on cache-warm-desk
    channel.load_s, .cache_hit_ratio              wall_s on cache-warm-desk
    receivers.se_s, .se_calls                     wall_s on cache-warm-desk
    experiments.serial_s, .pool_speedup, .csv_s   wall_s, cpu_s on avg-desk-pool
    svgplot.render_s                              wall_s everywhere (negligible)
    trace.overhead_s                              traced minus untraced
                                                  in-process seconds

``experiments.pool_speedup`` is the serial in-process seconds over
(wall_s - set-up probe) of the untraced CLI run, which uses two workers on
avg-desk-pool and one elsewhere.  ``channel.save_*`` come from the traced
cold fill on cache-warm-desk; every other per-layer number comes from the
traced serial run.  Kernel megabytes are computed from array sizes (three
float64 in, one complex128 out per evaluation), not measured.

Every CLI run gets a fresh working directory under ``.perfbench_tmp`` in
the checkout, removed afterwards, and an environment without
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS and WDMLINK_WORKERS.
The environment actually seen (core count, versions, BLAS threads) is
printed and saved with the results and spans in ``.perfbench_out``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference"

DEFAULT_SEED = 1
# Relative tolerance of the reference comparison; the default
# QuadratureSpec.rel_tol of the package.
REL_TOL = 1e-6
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170.0

SCRUBBED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "WDMLINK_WORKERS")

# Metric names and units, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

ENV_PROBE = r"""
import ctypes, glob, json, os, platform
import numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*")):
    handle = ctypes.CDLL(lib)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(handle, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
            break
print(json.dumps({
    "nproc": len(os.sched_getaffinity(0)),
    "cpu_count": os.cpu_count(),
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": blas.get("name"),
    "blas_version": blas.get("version"),
    "blas_threads": threads,
}))
"""


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Plan:
    """CLI arguments of one workload at one seed, and the grid they give."""

    args: List[str]
    grid: List[float]
    cached: bool
    profile: str


def _grid(start: float, stop: float, count: int) -> List[float]:
    if count == 1:
        return [start]
    return [start + (stop - start) * i / (count - 1) for i in range(count)]


def plan(workload: str, seed: int, smoke: bool) -> Plan:
    """The workload's CLI arguments; the grid start and ensemble seed come from ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "sweep-dz-full":
        start = round(rng.uniform(0.0, 0.5), 4)
        count = 1 if smoke else 2
        args = ["sweep", "--profile", "full", "--parameter", "d_z",
                "--start", repr(start), "--stop", repr(start + 1.0),
                "--count", str(count), "--workers", "1"]
        return Plan(args, _grid(start, start + 1.0, count), False, "full")
    if workload == "avg-desk-pool":
        count, draws = (1, 2) if smoke else (3, 4)
        args = ["avg-sweep", "--profile", "desk", "--count", str(count),
                "--draws", str(draws), "--seed", str(rng.randrange(1, 2**31)),
                "--workers", "2"]
        return Plan(args, _grid(5.0, 15.0, count), False, "desk")
    if workload == "cache-warm-desk":
        start = round(rng.uniform(0.0, 1.0), 4)
        count = 3 if smoke else 41
        args = ["sweep", "--profile", "desk", "--parameter", "theta_s",
                "--start", repr(start), "--stop", repr(start + 40.0),
                "--count", str(count), "--workers", "1"]
        return Plan(args, _grid(start, start + 40.0, count), True, "desk")
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("sweep-dz-full", "avg-desk-pool", "cache-warm-desk")


# ---------------------------------------------------------------------------
# Child processes


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    rc: int


def timed(cmd: Sequence[str], cwd: Path) -> Sample:
    """Run ``cmd`` to completion; wall, CPU and peak RSS of its process tree.

    ``os.wait4`` reports the child's rusage including every descendant it
    reaped, so pool workers count in CPU and their largest peak RSS shows.
    """
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(list(cmd), cwd=cwd, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def cli_args(args: Sequence[str], cache: Optional[Path]) -> List[str]:
    """Workload arguments plus the run's output and cache locations."""
    full = [*args, "--out", "out.csv"]
    if cache is not None:
        full += ["--cache-dir", str(cache)]
    return full


def cli_cmd(args: Sequence[str], cache: Optional[Path]) -> List[str]:
    return [sys.executable, "-m", "wdmlink.cli", *cli_args(args, cache)]


def in_process(args: Sequence[str], cache: Optional[Path], cwd: Path, trace: bool) -> dict:
    """Serial in-process run through layers.py; returns its result JSON."""
    cmd = [sys.executable, str(HERE / "layers.py"), "--result", "result.json"]
    if trace:
        cmd.append("--trace")
    cmd += ["--", *cli_args([*args, "--workers", "1"], cache)]
    sample = timed(cmd, cwd)
    if sample.rc != 0:
        return {"rc": sample.rc, "seconds": 0.0, "spans": []}
    with open(cwd / "result.json", encoding="utf-8") as inp:
        return json.load(inp)


def probe_setup(profile: str, cwd: Path) -> float:
    """Seconds to start the interpreter, import the CLI and resolve a profile."""
    code = (
        "import wdmlink.cli\n"
        "from wdmlink.config import profile_by_name\n"
        f"profile_by_name({profile!r})\n"
    )
    sample = timed([sys.executable, "-c", code], cwd)
    if sample.rc != 0:
        raise RuntimeError(f"set-up probe failed with exit code {sample.rc}")
    return sample.wall


def record_env(cwd: Path) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", ENV_PROBE], cwd=cwd, env=child_env(),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    env = json.loads(out.stdout)
    env["scrubbed"] = list(SCRUBBED_ENV)
    return env


# ---------------------------------------------------------------------------
# Output checks


def check_rows(text: str, p: Plan, reference: Optional[List[List[str]]]) -> List[str]:
    """One message per grid point that is missing, flagged or wrong."""
    rows = list(csv.reader(text.splitlines()))
    if not rows:
        return ["empty CSV"] * len(p.grid)
    header, body = rows[0], rows[1:]
    col = {name: i for i, name in enumerate(header)}
    se_cols = [i for i, name in enumerate(header) if name.startswith("se_")]
    suffix = "_mean" if "se_svd_mean" in col else ""
    order = [col.get(f"se_{s}{suffix}") for s in ("svd", "mmse", "mr")]
    if "value" not in col or "error" not in col or None in order:
        return [f"unexpected header {header}"] * len(p.grid)
    problems = [f"row {i}: missing" for i in range(len(body), len(p.grid))]
    if len(body) > len(p.grid):
        problems.append(f"{len(body) - len(p.grid)} extra rows")
    for i, (row, want) in enumerate(zip(body, p.grid)):
        if len(row) != len(header):
            problems.append(f"row {i}: {len(row)} cells for {len(header)} columns")
            continue
        if row[col["error"]]:
            problems.append(f"row {i}: flagged {row[col['error']]!r}")
            continue
        try:
            value = float(row[col["value"]])
            cells = {j: float(row[j]) for j in se_cols}
        except ValueError:
            problems.append(f"row {i}: unparsable {row}")
            continue
        svd, mmse, mr = (cells[j] for j in order)
        if not math.isclose(value, want, rel_tol=1e-8, abs_tol=1e-9):
            problems.append(f"row {i}: grid value {value} != {want}")
        elif not all(math.isfinite(c) for c in cells.values()):
            problems.append(f"row {i}: non-finite SE")
        elif not svd >= mmse >= mr:
            problems.append(f"row {i}: se_svd >= se_mmse >= se_mr broken: {svd} {mmse} {mr}")
        elif reference is not None and not all(
            math.isclose(c, float(reference[i + 1][j]), rel_tol=REL_TOL)
            for j, c in cells.items()
        ):
            problems.append(f"row {i}: off the reference by more than {REL_TOL:g}")
    return problems


def load_reference(workload: str, seed: int, smoke: bool) -> Optional[List[List[str]]]:
    if seed != DEFAULT_SEED or smoke:
        return None
    with open(REFERENCE / f"{workload}.csv", encoding="ascii") as inp:
        return list(csv.reader(inp))


def cache_snapshot(cache: Path) -> Dict[str, tuple]:
    if not cache.is_dir():
        return {}
    return {
        entry.name: (entry.stat().st_size, entry.stat().st_mtime_ns)
        for entry in os.scandir(cache)
    }


class Bench:
    """One workload at one seed: its runs' working directories and checks.

    Every run gets a fresh directory under WORK; all are removed on close.
    The first CSV written is the one every later CSV must repeat byte
    for byte (reruns, pool against serial, warm against cold).  Once the
    cache is filled, no later run may create or modify a cache file.
    """

    def __init__(self, workload: str, seed: int, smoke: bool) -> None:
        self.plan = plan(workload, seed, smoke)
        self.reference = load_reference(workload, seed, smoke)
        WORK.mkdir(exist_ok=True)
        self.base = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
        self.runs = 0
        self.cache: Optional[Path] = None
        self.snapshot: Optional[Dict[str, tuple]] = None
        self.first_csv: Optional[bytes] = None
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def fresh(self) -> Path:
        self.runs += 1
        path = self.base / f"run{self.runs:04d}"
        path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    def check(self, label: str, rc: int, cwd: Path) -> None:
        """Count the run's grid points and those failing any check."""
        problems = []
        data = None
        if rc != 0:
            problems.append(f"exit code {rc}")
        else:
            try:
                data = (cwd / "out.csv").read_bytes()
            except OSError as exc:
                problems.append(str(exc))
        if data is not None and self.first_csv is None:
            self.first_csv = data
        elif data is not None and data != self.first_csv:
            problems.append("CSV bytes differ from the first CSV of this run")
        if self.snapshot is not None and cache_snapshot(self.cache) != self.snapshot:
            problems.append("a warm run created or modified a cache file")
            self.snapshot = cache_snapshot(self.cache)
        points = len(self.plan.grid)
        if problems:
            failed = points  # a run-level failure fails every grid point
        else:
            problems = check_rows(data.decode("ascii", "replace"), self.plan, self.reference)
            failed = min(points, len(problems))
        self.attempted += points
        self.failed += failed
        self.messages += [f"{label}: {m}" for m in problems[:5]]

    def probe(self) -> float:
        return probe_setup(self.plan.profile, self.fresh())

    def set_up(self) -> float:
        """Seconds of one set-up: a probe, or on cache-warm-desk a cold fill.

        A cold fill runs the workload's command into a fresh cache, which
        the runs after it then read.
        """
        if not self.plan.cached:
            return self.probe()
        cwd = self.fresh()
        self.cache, self.snapshot = cwd / "cache", None
        sample = timed(cli_cmd(self.plan.args, self.cache), cwd)
        self.check("cold fill", sample.rc, cwd)
        self.snapshot = cache_snapshot(self.cache)
        return sample.wall


# ---------------------------------------------------------------------------
# Statistics and metrics


def tail(values: Sequence[float]) -> str:
    """Median, the highest percentile with ten samples beyond it, and n."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.6g}"
    if n > 10:
        k = n - 10
        text += f", p{100.0 * k / n:.0f} {ordered[k - 1]:.6g}"
    return text + f", n={n}"


def layer_metrics(spans: List[dict]) -> Dict[str, float]:
    """Per-layer sums over one traced run's spans."""
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    for span in spans:
        by_name[span["name"]].append(span)
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]

    def busy(name: str) -> float:
        return sum(s["end"] - s["start"] for s in by_name[name])

    def total(name: str, key: str) -> float:
        return sum(s.get(key, 0) for s in by_name[name])

    def peak_mb(name: str) -> float:
        return max((s["peak_bytes"] for s in by_name[name]), default=0) / 1e6

    loads, saves = len(by_name["channel.load"]), len(by_name["channel.save"])
    evals = total("em_field.kernel", "evals")
    return {
        "quadrature.nodes_s": busy("quadrature.nodes"),
        "quadrature.nodes": total("quadrature.nodes", "nodes"),
        "em_field.kernel_s": busy("em_field.kernel"),
        "em_field.kernel_evals": evals,
        "em_field.kernel_mb_computed": total("em_field.kernel", "bytes") / 1e6,
        "channel.H_s": busy("channel.H"),
        "channel.H_self_s": sum(
            s["end"] - s["start"] - child_time[s["id"]] for s in by_name["channel.H"]
        ),
        "channel.H_calls": len(by_name["channel.H"]),
        "channel.H_peak_mb": peak_mb("channel.H"),
        "channel.R_s": busy("channel.R"),
        "channel.R_calls": len(by_name["channel.R"]),
        "channel.R_peak_mb": peak_mb("channel.R"),
        "channel.whiten_s": busy("channel.whiten"),
        "channel.save_s": busy("channel.save"),
        "channel.save_bytes": total("channel.save", "bytes"),
        "channel.load_s": busy("channel.load"),
        "channel.cache_hit_ratio": loads / (loads + saves) if loads + saves else 0.0,
        "receivers.se_s": busy("receivers.se"),
        "receivers.se_calls": len(by_name["receivers.se"]),
        "experiments.csv_s": busy("experiments.csv"),
        "svgplot.render_s": busy("svgplot.render"),
    }


# ---------------------------------------------------------------------------
# Runs


def measure(bench: Bench, seconds: float) -> Dict[str, List[float]]:
    """Trace 0: set-ups and CLI subprocess runs, for ``seconds`` of runs.

    The SETUP_REPEATS set-ups are interleaved with the timed runs, a set-up
    before each share of the time, so that samples spread over the whole
    run and a slow drift in machine speed averages out.  At least two runs
    are timed; otherwise a run is not started when it would overshoot.
    """
    bench.probe()  # compiles bytecode and warms the page cache; not counted
    setup: List[float] = []
    samples: List[Sample] = []
    for r in range(1, SETUP_REPEATS + 1):
        setup.append(bench.set_up())
        budget = seconds * r / SETUP_REPEATS
        while True:
            walls = [x.wall for x in samples]
            next_end = sum(walls) + (statistics.median(walls) if walls else 0.0)
            if next_end > budget and (r < SETUP_REPEATS or len(walls) >= 2):
                break
            cwd = bench.fresh()
            sample = timed(cli_cmd(bench.plan.args, bench.cache), cwd)
            samples.append(sample)
            bench.check(f"run {len(samples)}", sample.rc, cwd)
            shutil.rmtree(cwd)
    return {
        "wall_s": [x.wall for x in samples],
        "cpu_s": [x.cpu for x in samples],
        "peak_rss_mb": [x.rss_mb for x in samples],
        "setup_s": setup,
    }


def traced(bench: Bench) -> tuple:
    """Trace 1: one untraced CLI run, then untraced and traced serial runs."""
    bench.probe()
    setup = statistics.median(bench.probe() for _ in range(SETUP_REPEATS))
    results = {}
    if bench.plan.cached:
        cwd = bench.fresh()
        bench.cache = cwd / "cache"
        results["cold"] = in_process(bench.plan.args, bench.cache, cwd, trace=True)
        bench.check("traced cold fill", results["cold"]["rc"], cwd)
        bench.snapshot = cache_snapshot(bench.cache)
    cwd = bench.fresh()
    cli_run = timed(cli_cmd(bench.plan.args, bench.cache), cwd)
    bench.check("CLI run", cli_run.rc, cwd)
    for name, trace in (("untraced", False), ("traced", True)):
        cwd = bench.fresh()
        results[name] = in_process(bench.plan.args, bench.cache, cwd, trace)
        bench.check(f"{name} serial run", results[name]["rc"], cwd)
    metrics = layer_metrics(results["traced"]["spans"])
    if bench.plan.cached:
        cold = layer_metrics(results["cold"]["spans"])
        metrics["channel.save_s"] = cold["channel.save_s"]
        metrics["channel.save_bytes"] = cold["channel.save_bytes"]
    serial = results["untraced"]["seconds"]
    metrics["experiments.serial_s"] = serial
    metrics["experiments.pool_speedup"] = serial / max(cli_run.wall - setup, 1e-9)
    metrics["trace.overhead_s"] = results["traced"]["seconds"] - serial
    return metrics, results


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="wdmlink CLI benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal grid sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "wdmlink" / "cli.py").is_file():
        print(f"run.py: no wdmlink sources under {SRC}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.smoke)
    try:
        env = record_env(bench.fresh())
        print("env " + json.dumps(env))
        if args.trace:
            metrics, detail = traced(bench)
            units = PER_LAYER
        else:
            detail = measure(bench, args.seconds)
            metrics = {name: statistics.median(values) for name, values in detail.items()}
            metrics["passed_share"] = 1.0 - bench.failed / bench.attempted
            units = END_TO_END
            for name, values in detail.items():
                print(f"{name} [{units[name]}]: {tail(values)}")
    finally:
        bench.close()

    OUT.mkdir(exist_ok=True)
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(report, "w", encoding="utf-8") as out:
        json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                   "metrics": metrics, "detail": detail, "failures": bench.messages}, out, indent=1)
    for message in bench.messages:
        print(f"check failed: {message}", file=sys.stderr)
    correct = bench.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
