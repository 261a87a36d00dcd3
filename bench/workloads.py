"""Job lists, seeded inputs and answer checks for the benchmark workloads.

A job is a JSON-able dict.  CLI jobs carry the argv handed to
``artinfib.cli.main`` and the expected answer; SNF jobs carry the index
of their matrix in acceptance criterion 6's random stream.  This module
imports ``artinfib`` only inside the functions that need it, so
``run.py`` can build job lists without loading the package.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Laurent side only: SNF-dominated cohomology tables, the series side
# never runs.  B5 over Z is Q plus the prime fields Z/2, 3, 5, 7.
COHOMOLOGY_TABLE = (("E6", "Q"), ("D6", "Q"), ("A6", "Q"), ("B5", "Z"),
                    ("E6", "Zp:3"))

# Series side: the same types over Q and Z/3 split Fraction growth from
# elimination count; milnor adds cyclotomic factoring and rendering.
VERIFY = (("F4", "Q"), ("B4", "Q"), ("D4", "Q"), ("F4", "Zp:3"),
          ("B4", "Zp:3"), ("A5", "Zp:3"))
MILNOR_FIXED = (("H3", "Z"),)
# two distinct dihedral orders per seed; the range keeps the cost of a
# pass nearly independent of the seed
DIHEDRAL_ORDERS = range(9, 16)
Z_DOMAINS = ["Q", "Z/2", "Z/3", "Z/5", "Z/7"]

# Acceptance criterion 6 draws 1000 random matrices over Q from
# Random(1000003) (m, n <= 6, span <= 4, |c| <= 4); the corpus is every
# 20th of them (49, from the 20th), so it spans the whole suite and about
# 20 x its time estimates the suite's Smith-form time.  The corpus is the same for every seed:
# the cost is heavy-tailed (5% of the decompositions take half the
# time), and matrices drawn per seed would move p50 and p95 by about 20%
# from the inputs alone.
CRITERION6_SEED = 1000003
SNF_CORPUS = tuple(range(20, 1000, 20))

WORKLOADS = ("cohomology-table", "fiber-verify", "snf-transforms")

# 2^61 - 1: transforms are checked by evaluation at a random point mod P
CHECK_PRIME = (1 << 61) - 1


def cli_argv(command: str, label: str, coeff: str) -> list:
    return [command, "--type", label, "--coeff", coeff, "--format", "json"]


def job_key(argv) -> str:
    return " ".join(argv)


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def cli_job(command: str, label: str, coeff: str, expected: dict) -> dict:
    """A CLI job with its recorded answer attached."""
    argv = cli_argv(command, label, coeff)
    key = job_key(argv)
    if key not in expected:
        raise KeyError(f"no recorded answer for {key!r}; "
                       f"run bench/record_expected.py")
    check = "sha256" if command == "cohomology" else "summary"
    return {"kind": "cli", "argv": argv, "check": check,
            "expect": expected[key]}


def fixed_cli_jobs():
    """(command, label, coeff) of every job with a recorded answer."""
    return ([("cohomology", t, c) for t, c in COHOMOLOGY_TABLE]
            + [("verify", t, c) for t, c in VERIFY]
            + [("milnor", t, c) for t, c in MILNOR_FIXED])


def snf_job(index: int) -> dict:
    """Decompose input ``index`` of criterion 6's random stream."""
    return {"kind": "snf", "index": index}


def jobs_for_pass(workload: str, seed: int, expected: dict) -> list:
    """The job list of one pass: the same list in every pass of a run.

    The seed fixes the order of the jobs and the two dihedral orders of
    fiber-verify.  Each list has an odd number of jobs, so p50 falls in
    the middle of one job's samples rather than between two jobs.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cohomology-table":
        jobs = [cli_job("cohomology", t, c, expected)
                for t, c in COHOMOLOGY_TABLE]
    elif workload == "fiber-verify":
        jobs = [cli_job("verify", t, c, expected) for t, c in VERIFY]
        jobs += [cli_job("milnor", t, c, expected) for t, c in MILNOR_FIXED]
        for m in rng.sample(DIHEDRAL_ORDERS, 2):
            jobs.append({"kind": "cli",
                         "argv": cli_argv("milnor", f"I2({m})", "Z"),
                         "check": "shift_ok", "expect": Z_DOMAINS})
    elif workload == "snf-transforms":
        jobs = [snf_job(i) for i in SNF_CORPUS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


# -- answers of CLI jobs ------------------------------------------------

def shift_summary(doc: dict) -> dict:
    """Per-domain answer of a verify or milnor report, without radii.

    The window radius may legitimately change, so only the dimensions,
    the verdicts and (for milnor) the fiber data are kept.
    """
    out = {}
    for dom, res in doc["results"].items():
        shift = res["shift"]
        entry = {"shift_ok": shift["ok"],
                 "dims": [[d["degree"], d["m_dim"], d["shifted_torsion_dim"]]
                          for d in shift["degrees"]]}
        if "well_filtered" in res:
            entry["well_filtered"] = res["well_filtered"]["ok"]
        if "degrees" in res:
            entry["fiber"] = [[r["degree"], r["betti"], r["charpoly"]]
                              for r in res["degrees"]]
        out[dom] = entry
    return out


def record_answer(command: str, stdout: str):
    """The expected-answer entry for a CLI job's output."""
    if command == "cohomology":
        return hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    return shift_summary(json.loads(stdout))


def check_cli(job: dict, code: int, stdout: str):
    """None if the output is the expected answer, else what is wrong."""
    if code != 0:
        return f"exit code {code}"
    if job["check"] == "sha256":
        got = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        return None if got == job["expect"] else f"sha256 {got}"
    summary = shift_summary(json.loads(stdout))
    bad = [d for d, e in summary.items() if not e["shift_ok"]]
    if bad:
        return f"shift check failed over {bad}"
    if job["check"] == "shift_ok":
        if sorted(summary) != sorted(job["expect"]):
            return f"domains {sorted(summary)}"
        return None
    return None if summary == job["expect"] else f"answer {summary}"


# -- SNF jobs -------------------------------------------------------------

def criterion6_matrices(count: int) -> list:
    """The first ``count`` random matrices of acceptance criterion 6."""
    from artinfib.domains import QQ
    from artinfib.laurent import LaurentPoly

    rng = random.Random(CRITERION6_SEED)
    out = []
    for _ in range(count):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        A = []
        for _ in range(m):
            row = []
            for _ in range(n):
                if rng.random() < 0.25:
                    row.append(LaurentPoly.zero(QQ))
                    continue
                span = rng.randint(0, 4)
                coeffs = [rng.randint(-4, 4) for _ in range(span + 1)]
                if not any(coeffs):
                    coeffs[0] = 1
                while coeffs[-1] == 0:
                    coeffs[-1] = rng.randint(-4, 4)
                row.append(LaurentPoly(QQ, rng.randint(-3, 3),
                                       tuple(coeffs)))
            A.append(tuple(row))
        out.append(tuple(A))
    return out


def _eval_mod(p, x: int, xinv: int) -> int:
    acc = 0
    for i, c in enumerate(p.coeffs):
        e = p.val + i
        power = pow(x, e, CHECK_PRIME) if e >= 0 else pow(xinv, -e,
                                                          CHECK_PRIME)
        c_mod = c.numerator * pow(c.denominator, -1, CHECK_PRIME)
        acc = (acc + c_mod * power) % CHECK_PRIME
    return acc


def _eval_matrix(M, x, xinv):
    return [[_eval_mod(e, x, xinv) for e in row] for row in M]


def _matmul_mod(a, b):
    return [[sum(r[k] * b[k][j] for k in range(len(b))) % CHECK_PRIME
             for j in range(len(b[0]))] for r in a]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def check_snf(job: dict, A, dec):
    """None if ``dec`` is a Smith decomposition of A, else what is wrong.

    U A V = D, U Uinv = I and V Vinv = I are checked at a seeded random
    point mod 2^61 - 1; diagonality, the monic valuation-0 normalization
    and the divisibility chain are checked exactly.
    """
    from artinfib.errors import NotDivisible

    m, n = len(A), len(A[0])
    D = dec.D
    if len(D) != m or any(len(r) != n for r in D):
        return "D has the wrong shape"
    if any(not D[i][j].is_zero()
           for i in range(m) for j in range(n) if i != j):
        return "D is not diagonal"
    diag = dec.diagonal
    nonzero = [d for d in diag if not d.is_zero()]
    if list(diag[:len(nonzero)]) != nonzero:
        return "zero diagonal entry before a nonzero one"
    for d in nonzero:
        if d.val != 0 or d.coeffs[-1] != 1:
            return f"diagonal entry {d} is not monic with valuation 0"
    for a, b in zip(nonzero, nonzero[1:]):
        try:
            b.divexact(a)
        except NotDivisible:
            return f"{a} does not divide {b}"
    rng = random.Random(f"check:{job['index']}")
    x = rng.randrange(2, CHECK_PRIME - 1)
    xinv = pow(x, -1, CHECK_PRIME)
    ev = lambda M: _eval_matrix(M, x, xinv)
    U, V = ev(dec.U), ev(dec.V)
    if _matmul_mod(U, _matmul_mod(ev(A), V)) != ev(D):
        return "U A V != D at the check point"
    if _matmul_mod(U, ev(dec.Uinv)) != _identity(m):
        return "U Uinv != I at the check point"
    if _matmul_mod(V, ev(dec.Vinv)) != _identity(n):
        return "V Vinv != I at the check point"
    return None
