"""Smoke test of the benchmark itself, one small job per workload.

    python3 bench/smoke.py

Checks that both modes print every metric of BENCHMARK.json with its
unit, that the small jobs pass their answer checks, that a wrong
expected answer is counted as a failure, and that the tracer refuses a
binding list that does not match the package.  Takes about 15 s.
"""

import copy
import json
import sys

import run
import tracer
import workloads

SPEC_PATH = run.ROOT / "BENCHMARK.json"


def small_jobs(expected):
    return {
        "cohomology-table": [
            workloads.cli_job("cohomology", "E6", "Zp:3", expected)],
        "fiber-verify": [
            workloads.cli_job("verify", "B4", "Zp:3", expected),
            {"kind": "cli", "argv": workloads.cli_argv("milnor", "I2(5)", "Z"),
             "check": "shift_ok", "expect": workloads.Z_DOMAINS}],
        "snf-transforms": [workloads.snf_job(20)],
    }


def measure(workload, jobs, trace):
    return run.run(workload, 0, 0, trace, jobs=jobs)


def check_metrics():
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    wanted = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload, jobs in small_jobs(workloads.load_expected()).items():
        for trace, units in wanted.items():
            result, details = measure(workload, jobs, trace)
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result
            assert result["correct"] and result["failed"] == 0, details
            assert details["fail_ratio"] == 0.0
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == units, (workload, trace, got)
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), name
                assert trace or m["value"] > 0, (workload, name)
            print(f"ok  {workload} trace={int(trace)}: "
                  f"{len(got)} metrics, {result['attempted']} jobs")


def check_wrong_answers():
    jobs = small_jobs(workloads.load_expected())
    bad_sha = copy.deepcopy(jobs["cohomology-table"])
    bad_sha[0]["expect"] = "0" * 64
    bad_dims = copy.deepcopy(jobs["fiber-verify"][:1])
    bad_dims[0]["expect"]["Z/3"]["dims"][0][1] += 1
    for workload, bad in (("cohomology-table", bad_sha),
                          ("fiber-verify", bad_dims)):
        good = jobs[workload][:1]
        result, details = measure(workload, good + bad, False)
        assert not result["correct"], details
        assert (result["attempted"], result["failed"]) == (2, 1), result
        assert details["fail_ratio"] == 0.5, details
        print(f"ok  {workload}: injected wrong answer counted "
              f"({details['failures'][0][:60]})")


def check_binding_list():
    sys.path.insert(0, str(run.ROOT / "src"))
    import artinfib  # noqa: F401

    saved = tracer.LAYERS
    defining, fname, layer, bound_in = next(
        e for e in saved if e[1] == "cohomology")
    # one binding left out, then one listed that does not exist
    for wrong in (tuple(m for m in bound_in if m != "cli"),
                  bound_in + ("series",)):
        tracer.LAYERS = ((defining, fname, layer, wrong),)
        try:
            tracer.Tracer().install()
        except tracer.BindingMismatch as exc:
            print(f"ok  wrong binding list refused ({exc})")
        else:
            raise AssertionError(f"binding list {wrong} was accepted")
        finally:
            tracer.LAYERS = saved


if __name__ == "__main__":
    check_metrics()
    check_wrong_answers()
    check_binding_list()
    print("smoke test passed")
