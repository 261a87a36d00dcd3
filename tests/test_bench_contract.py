"""The benchmark's tracer still finds every binding it wraps.

``Tracer().install()`` rewires module attributes for good, so the traced
run happens in a child interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import artinfib
from artinfib.cli import main
from tracer import Tracer
tracer = Tracer()
tracer.install()
start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[3:])
print(json.dumps({"code": code,
                  "metrics": tracer.metrics(time.perf_counter() - start)}))
"""


def traced_metrics(*argv):
    """Exit code and per-layer metrics of one traced CLI run."""
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench"),
         *argv], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "BindingMismatch" not in proc.stderr
    report = json.loads(proc.stdout)
    return report["code"], report["metrics"]


def test_traced_verify_binds_every_layer():
    code, metrics = traced_metrics("verify", "--type", "A2", "--format",
                                   "json")
    assert code == 0
    # image ranks come from sparse_rank: a refactor that stops calling
    # it would hand the image work to linalg.kernel unseen
    for name in ("linalg.kernel_s", "linalg.image_s", "linalg.rows_in",
                 "series.window_calls"):
        assert metrics[name] > 0, name


def test_traced_cohomology_binds_every_layer():
    # the Smith forms of cohomology run inside it, on a private path the
    # tracer does not wrap, so their time is cohomology's self time
    code, metrics = traced_metrics("cohomology", "--type", "A3", "--format",
                                   "json")
    assert code == 0
    assert metrics["homology.cohomology_s"] > 0
    assert metrics["homology.cohomology_calls"] == 1


def test_recorded_answers_still_hold():
    # the fixed jobs' answers, recomputed from this tree, equal the ones
    # bench/expected.json holds; record() returns them without writing
    script = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
              "import record_expected; "
              "print(json.dumps(record_expected.record()))")
    proc = subprocess.run(
        [sys.executable, "-B", "-c", script, str(ROOT / "bench")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    expected = json.loads((ROOT / "bench" / "expected.json").read_text(
        encoding="utf-8"))
    assert json.loads(proc.stdout) == expected
