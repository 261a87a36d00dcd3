"""Record the expected answers of the fixed-type benchmark jobs.

    python3 bench/record_expected.py

Runs every fixed CLI job once and writes ``bench/expected.json``: the
SHA-256 of the JSON bytes for ``cohomology`` (the report must stay
byte-identical) and the radius-free per-degree summary for ``verify``
and ``milnor``.  Answers are mathematical facts, so this is rerun only
when a job is added, never to make a changed answer pass.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from artinfib.cli import main  # noqa: E402

import workloads  # noqa: E402


def record() -> dict:
    answers = {}
    for command, label, coeff in workloads.fixed_cli_jobs():
        argv = workloads.cli_argv(command, label, coeff)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        answers[workloads.job_key(argv)] = workloads.record_answer(
            command, out.getvalue())
    return answers


if __name__ == "__main__":
    answers = record()
    lines = [f"{json.dumps(k)}: {json.dumps(answers[k], sort_keys=True)}"
             for k in sorted(answers)]
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
