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
    code = main(["verify", "--type", "A2", "--format", "json"])
print(json.dumps({"code": code,
                  "metrics": tracer.metrics(time.perf_counter() - start)}))
"""


def test_traced_verify_binds_every_layer():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "BindingMismatch" not in proc.stderr
    report = json.loads(proc.stdout)
    assert report["code"] == 0
    metrics = report["metrics"]
    for name in ("linalg.kernel_s", "linalg.rows_in", "series.window_calls"):
        assert metrics[name] > 0, name
