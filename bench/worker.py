"""One benchmark pass in a fresh interpreter.

Reads a pass spec (JSON) from stdin, runs its jobs in sequence and writes
one JSON line to stdout.  A fresh interpreter per pass keeps the
package's memo caches cold, as they are for every CLI user.  The first
thing reported is the monotonic clock reading right after ``import
artinfib``, from which ``run.py`` takes set-up time.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import artinfib  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import HARNESS, Tracer  # noqa: E402

# time the reference loop after a job once this much job time has passed
REFERENCE_EVERY_S = 0.5


def run_jobs(jobs, tracer):
    """Time each job, with the reference loop timed before, between and
    after them; returns (job seconds, cpu seconds, reference seconds,
    inputs, outcomes)."""
    from artinfib.cli import main
    from artinfib.domains import QQ

    snf = artinfib.smith_normal_form
    indices = [j["index"] for j in jobs if j["kind"] == "snf"]
    stream = workloads.criterion6_matrices(max(indices, default=-1) + 1)
    inputs = [stream[j["index"]] if j["kind"] == "snf" else None
              for j in jobs]
    times, cpu, outcomes = [], 0.0, []
    refs = [reference.timed()]
    since_ref = 0.0
    for job, A in zip(jobs, inputs):
        out, err = io.StringIO(), io.StringIO()
        c0 = time.process_time()
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.push(HARNESS)
        try:
            if A is not None:
                result = snf(A, QQ, shape=(len(A), len(A[0])))
            else:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    result = main(job["argv"])
        except (Exception, SystemExit) as exc:
            result = exc
        finally:
            if tracer is not None:
                tracer.pop()
        times.append(time.perf_counter() - t0)
        cpu += time.process_time() - c0
        outcomes.append((result, out.getvalue(), err.getvalue()))
        since_ref += times[-1]
        if since_ref >= REFERENCE_EVERY_S or len(times) == len(jobs):
            refs.append(reference.timed())
            since_ref = 0.0
    return times, cpu, refs, inputs, outcomes


def check(job, A, outcome):
    result, stdout, stderr = outcome
    if isinstance(result, BaseException):
        return f"raised {result!r}"
    if job["kind"] == "snf":
        return workloads.check_snf(job, A, result)
    error = workloads.check_cli(job, result, stdout)
    if error and stderr:
        error += f" (stderr: {stderr.strip()[:200]})"
    return error


def main():
    spec = json.load(sys.stdin)
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    times, cpu, refs, inputs, outcomes = run_jobs(spec["jobs"], tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors = [check(j, A, o)
              for j, A, o in zip(spec["jobs"], inputs, outcomes)]
    report = {"ready_at": READY, "job_s": times, "wall_s": sum(times),
              "cpu_s": cpu, "reference_s": sum(refs) / len(refs),
              "peak_rss_mb": rss_mb, "errors": errors}
    if tracer is not None:
        tracer.counts["cli.output_bytes"] = sum(
            len(o[1].encode("utf-8")) for o in outcomes)
        report["layers"] = tracer.metrics(sum(times))
    print(json.dumps(report))


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--import-only":
        sys.exit(0)
    main()
