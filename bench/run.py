"""Benchmark of artinfib's time to an exact answer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout (the package is imported from
``src/``).  One client, closed loop: the workload's jobs run in
sequence, one pass of the job list per fresh interpreter
(``bench/worker.py``), and passes repeat until ``--seconds`` is used up.
Every answer is checked outside the timed spans.

With ``--trace 0`` the last line of stdout reports the end-to-end
metrics: medians over passes of the time and CPU time of a pass, of the
set-up time (interpreter start to ``import artinfib`` done) and of the
peak RSS, and the 50th/95th percentile of single-job times over all
passes.  With ``--trace 1`` untraced and traced passes alternate on the
same inputs and the last line reports the per-layer metrics of
``bench/tracer.py``: medians over traced passes (maxima for ``*_max``),
plus the tracing overhead.  Every time is scaled to reference speed with
the reference loop timed in the same pass (``bench/reference.py``).  The
line before the result records the environment, the sample counts, the
median scale factor and unscaled pass time, and any failures.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
PACKAGE_INIT = ROOT / "src" / "artinfib" / "__init__.py"

# a run must end within 180 s; a pass that would overrun is killed
RUN_LIMIT_S = 170.0

END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "job_p50_ms": "ms", "job_p95_ms": "ms",
}

PER_LAYER = {
    "cli.render_s": "s", "cli.output_bytes": "bytes",
    "complexes.family_s": "s", "complexes.assemble_s": "s",
    "complexes.well_filtered_s": "s", "complexes.cells": "count",
    "coxeter.poincare_s": "s", "coxeter.poincare_calls": "count",
    "homology.snf_s": "s", "homology.snf_calls": "count",
    "homology.snf_entries": "count",
    "homology.snf_transform_bits_max": "bits",
    "homology.cohomology_s": "s", "homology.cohomology_calls": "count",
    "homology.shift_s": "s", "homology.monodromy_s": "s",
    "laurent.cyclotomic_s": "s",
    "series.window_s": "s", "series.window_calls": "count",
    "series.stable_ratio": "ratio", "series.radius_max": "count",
    "linalg.kernel_s": "s", "linalg.image_s": "s",
    "linalg.rows_in": "count", "linalg.nnz_in": "count",
    "linalg.rank_out": "count",
    "trace.wall_s": "s", "trace.overhead_ratio": "ratio",
    "trace.unattributed_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def environment(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "gmpy2": importlib.util.find_spec("gmpy2") is not None,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model,
            "loadavg_start": list(os.getloadavg()),
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace}


def spawn_pass(jobs, trace: bool, deadline: float) -> dict:
    """Run one pass in a fresh interpreter and return its report."""
    spec = json.dumps({"jobs": jobs, "trace": trace})
    timeout = max(1.0, deadline - time.monotonic())
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER)], input=spec,
                              capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass did not finish within {timeout:.0f} s") \
            from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    report["setup_s"] = report.pop("ready_at") - t0
    report["trace"] = trace
    return report


def run_passes(jobs, seconds: float, trace: bool) -> list:
    """Passes of ``jobs`` until the next would overrun ``seconds``; >= 1.

    In trace mode each step is an untraced and a traced pass, so the two
    can be compared.
    """
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    modes = (False, True) if trace else (False,)
    passes, steps = [], []
    while True:
        t0 = time.monotonic()
        for mode in modes:
            passes.append(spawn_pass(jobs, mode, deadline))
        steps.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if elapsed + statistics.median(steps) > seconds:
            return passes


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def to_reference_speed(report: dict) -> dict:
    """The pass's times scaled to reference speed (see reference.py)."""
    scale = reference.NOMINAL_S / report["reference_s"]
    out = dict(report, scale=scale, raw_wall_s=report["wall_s"],
               wall_s=report["wall_s"] * scale,
               cpu_s=report["cpu_s"] * scale,
               setup_s=report["setup_s"] * scale,
               job_s=[t * scale for t in report["job_s"]])
    if "layers" in report:
        out["layers"] = {name: value * scale if name.endswith("_s") else value
                         for name, value in report["layers"].items()}
    return out


def summarize(passes, trace: bool):
    """(metrics, details) of a run from its pass reports."""
    passes = [to_reference_speed(p) for p in passes]
    errors = [e for p in passes for e in p["errors"]]
    attempted = len(errors)
    failed = sum(e is not None for e in errors)
    plain = [p for p in passes if not p["trace"]]
    job_ms = [t * 1000.0 for p in plain for t in p["job_s"]]
    med = lambda key: statistics.median(p[key] for p in plain)
    details = {"passes": len(plain), "job_samples": len(job_ms),
               "fail_ratio": failed / attempted,
               "failures": sorted({e for e in errors if e})[:10],
               "raw_wall_s": med("raw_wall_s"), "scale": med("scale")}
    if not trace:
        values = {"wall_s": med("wall_s"), "cpu_s": med("cpu_s"),
                  "setup_s": med("setup_s"),
                  "peak_rss_mb": med("peak_rss_mb"),
                  "job_p50_ms": statistics.median(job_ms),
                  "job_p95_ms": quantile(job_ms, 95)}
        units = END_TO_END
    else:
        traced = [p["layers"] for p in passes if p["trace"]]
        details["traced_passes"] = len(traced)
        values = {}
        for name in traced[0]:
            column = [t[name] for t in traced]
            values[name] = (max(column) if name.endswith("_max")
                            else statistics.median(column))
        values["trace.overhead_ratio"] = values["trace.wall_s"] / med("wall_s")
        units = PER_LAYER
    if set(values) != set(units):
        raise BenchError(
            f"metric set mismatch: {sorted(set(values) ^ set(units))}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, details


def run(workload: str, seed: int, seconds: float, trace: bool, jobs=None):
    """Measure one workload; returns (result line, details)."""
    if not PACKAGE_INIT.is_file():
        raise BenchError(f"package source not found at {PACKAGE_INIT}")
    if jobs is None:
        if workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {workload!r}")
        jobs = workloads.jobs_for_pass(workload, seed,
                                       workloads.load_expected())
    env = environment(workload, seed, seconds, trace)
    # compile bytecode once, as an installed package would have it
    subprocess.run([sys.executable, str(WORKER), "--import-only"],
                   check=True, capture_output=True, timeout=60, cwd=ROOT)
    result, details = summarize(run_passes(jobs, seconds, trace),
                                trace)
    details["env"] = env
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    try:
        result, details = run(ns.workload, ns.seed, ns.seconds,
                              bool(ns.trace))
    except (BenchError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
