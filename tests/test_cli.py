"""Command line behavior: formats, exit codes, and error reporting."""

import dataclasses
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import artinfib.cli as cli
from artinfib.cli import RunConfig, _parse_degrees, main
from artinfib.complexes import WellFilteredResult, dump_family, koszul_family
from artinfib.domains import QQ
from artinfib.errors import NotStabilized, NotWellFiltered
from artinfib.homology import DegreeShift, ShiftReport, cohomology
from artinfib.laurent import parse_poly


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cohomology_json_a2(capsys):
    code, out, err = run_cli(capsys, "cohomology", "--type", "A2",
                             "--format", "json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["command"] == "cohomology"
    assert doc["coeff"] == "Q"
    assert doc["input"] == {"type": "A2"}
    groups = doc["results"]["Q"]["groups"]
    assert groups == [
        {"degree": 0, "free_rank": 0, "torsion": []},
        {"degree": 1, "free_rank": 0, "torsion": ["q - 1"]},
        {"degree": 2, "free_rank": 0, "torsion": ["q^2 - q + 1"]},
    ]
    # byte-identical on a second run
    code2, out2, _ = run_cli(capsys, "cohomology", "--type", "A2",
                             "--format", "json")
    assert code2 == 0 and out2 == out


def test_cohomology_pretty(capsys):
    code, out, err = run_cli(capsys, "cohomology", "--type", "A2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Laurent cohomology of type A2 over Q"
    assert lines[1:] == ["  H^0 = 0", "  H^1 = R/(q - 1)",
                         "  H^2 = R/(q^2 - q + 1)"]


def test_cohomology_csv_and_degrees(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "--type", "B2",
                           "--format", "csv", "--degrees", "1:2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "domain,degree,free_rank,torsion"
    assert lines[1] == "Q,1,0,q - 1"
    assert lines[2] == "Q,2,0,q^3 - q^2 + q - 1"
    assert len(lines) == 3


def test_huge_degree_range_is_not_materialized(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "cohomology", "--type", "A2",
                             "--degrees", "1:1000000000000", "--format", "csv")
    assert time.perf_counter() - start < 5.0
    assert code == 0 and err == ""
    assert out == ("domain,degree,free_rank,torsion\n"
                   "Q,1,0,q - 1\n"
                   "Q,2,0,q^2 - q + 1\n")


def test_coeff_zp_and_z(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "--type", "A2",
                           "--format", "json", "--coeff", "Zp:3")
    assert code == 0
    doc = json.loads(out)
    assert list(doc["results"]) == ["Z/3"]
    assert doc["results"]["Z/3"]["groups"][2]["torsion"] == ["q^2 + 2*q + 1"]

    code, out, _ = run_cli(capsys, "cohomology", "--type", "A2",
                           "--format", "json", "--coeff", "Z",
                           "--primes", "2,3")
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc["results"]) == ["Q", "Z/2", "Z/3"]

    code, out, _ = run_cli(capsys, "cohomology", "--type", "A2",
                           "--coeff", "Zp:1000000000000000003")
    assert code == 0 and "over Z/1000000000000000003" in out


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "cohomology", "--type", "A1",
                           "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["results"]["Q"]["groups"][1]["torsion"] == ["q - 1"]


def test_unwritable_out_exits_two(tmp_path):
    # a directory, or a file in a missing directory: an error line and
    # exit 2, the code of a bad input, not a traceback
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    for target in (tmp_path, tmp_path / "missing" / "report.json"):
        proc = subprocess.run(
            [sys.executable, "-m", "artinfib", "cohomology", "--type", "A2",
             "--out", str(target)],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2, target
        assert proc.stderr.startswith("error:"), proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_verify_pretty_and_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "--type", "A2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verify type A2 over Q"
    assert lines[1] == "  well filtered: yes"
    assert any("degree 1: M-side 2, shifted torsion 2" in ln
               for ln in lines)
    assert lines[-1] == "  shift verification: ok"

    code, out, _ = run_cli(capsys, "verify", "--type", "A2",
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("domain,well_filtered,degree,m_dim")
    assert lines[1] == "Q,True,0,1,1,0,0,8,True,"


def test_milnor_json_a2(capsys):
    code, out, _ = run_cli(capsys, "milnor", "--type", "A2",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    entry = doc["results"]["Q"]
    assert entry["irreducible"] is True
    assert entry["degrees"] == [
        {"degree": 0, "betti": 1, "charpoly": "q - 1",
         "eigenvalues": [{"multiplicity": 1, "order": 1}],
         "non_cyclotomic": None},
        {"degree": 1, "betti": 2, "charpoly": "q^2 - q + 1",
         "eigenvalues": [{"multiplicity": 1, "order": 6}],
         "non_cyclotomic": None},
    ]
    assert entry["shift"]["ok"] is True
    assert set(entry["provenance"]) == {"betti", "charpoly", "eigenvalues",
                                        "verification"}


def test_milnor_dihedral_eigenvalues(capsys):
    code, out, _ = run_cli(capsys, "milnor", "--type", "I2(12)",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    row = doc["results"]["Q"]["degrees"][1]
    assert [e["order"] for e in row["eigenvalues"]] == [1, 3, 4, 6, 12]


def test_milnor_reducible_warning(capsys):
    code, out, _ = run_cli(capsys, "milnor", "--type", "A1xA1")
    assert code == 0
    assert "warning: reducible type" in out
    code, out, _ = run_cli(capsys, "milnor", "--type", "A1xA1",
                           "--format", "json")
    assert json.loads(out)["results"]["Q"]["irreducible"] is False


def write_family(tmp_path, text, name="fam.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_family_pipeline(capsys, tmp_path):
    f = parse_poly("1 - q", QQ)
    path = write_family(tmp_path,
                        dump_family(koszul_family((1, 2), [f, f], QQ)))
    code, out, _ = run_cli(capsys, "family", "--family", path,
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["input"] == {"family": path}
    entry = doc["results"]["Q"]
    assert entry["rank"] == 2
    assert entry["well_filtered"] == {"ok": True}
    assert entry["groups"][1]["torsion"] == ["q - 1"]
    assert entry["shift"]["ok"] is True


PINNED = {
    ("verify", "pretty"): (
        "verify type A2 over Q\n"
        "  well filtered: yes\n"
        "  degree 0: M-side 1, shifted torsion 1, radius 8, match\n"
        "  degree 1: M-side 2, shifted torsion 2, radius 8, match\n"
        "  degree 2: M-side 0, shifted torsion 0, radius 8, match\n"
        "  shift verification: ok\n"
        "verify type A2 over Z/3\n"
        "  well filtered: yes\n"
        "  degree 0: M-side 1, shifted torsion 1, radius 8, match\n"
        "  degree 1: M-side 2, shifted torsion 2, radius 8, match\n"
        "  degree 2: M-side 0, shifted torsion 0, radius 8, match\n"
        "  shift verification: ok\n"),
    ("verify", "csv"): (
        "domain,well_filtered,degree,m_dim,shifted_torsion_dim,free_rank,"
        "free_rank_next,radius,match,note\n"
        "Q,True,0,1,1,0,0,8,True,\n"
        "Q,True,1,2,2,0,0,8,True,\n"
        "Q,True,2,0,0,0,0,8,True,\n"
        "Z/3,True,0,1,1,0,0,8,True,\n"
        "Z/3,True,1,2,2,0,0,8,True,\n"
        "Z/3,True,2,0,0,0,0,8,True,\n"),
    ("milnor", "pretty"): (
        "Milnor fiber of type A2 over Q\n"
        "  degree 0: b = 1, monodromy q - 1, eigenvalues Phi_1\n"
        "  degree 1: b = 2, monodromy q^2 - q + 1, eigenvalues Phi_6\n"
        "  shift verification: ok\n"
        "Milnor fiber of type A2 over Z/3\n"
        "  degree 0: b = 1, monodromy q + 2, eigenvalues n/a\n"
        "  degree 1: b = 2, monodromy q^2 + 2*q + 1, eigenvalues n/a\n"
        "  shift verification: ok\n"),
    ("milnor", "csv"): (
        "domain,degree,betti,charpoly,eigenvalues,non_cyclotomic,"
        "irreducible,shift_ok\n"
        "Q,0,1,q - 1,Phi_1,,True,True\n"
        "Q,1,2,q^2 - q + 1,Phi_6,,True,True\n"
        "Z/3,0,1,q + 2,n/a,,True,True\n"
        "Z/3,1,2,q^2 + 2*q + 1,n/a,,True,True\n"),
    ("family", "pretty"): (
        "family {path} over Q: rank 2, 4 basis elements\n"
        "  well filtered: yes\n"
        "  H^0 = 0\n"
        "  H^1 = R/(q - 1)\n"
        "  H^2 = R/(q - 1)\n"
        "  degree 0: M-side 1, shifted torsion 1, radius 4, match\n"
        "  degree 1: M-side 1, shifted torsion 1, radius 4, match\n"
        "  degree 2: M-side 0, shifted torsion 0, radius 4, match\n"
        "  shift verification: ok\n"),
    ("family", "csv"): (
        "domain,degree,free_rank,torsion,m_dim,shifted_torsion_dim,match,"
        "well_filtered\n"
        "Q,0,0,,1,1,True,True\n"
        "Q,1,0,q - 1,1,1,True,True\n"
        "Q,2,0,q - 1,0,0,True,True\n"),
}


def test_full_outputs_pinned(capsys, tmp_path):
    f = parse_poly("1 - q", QQ)
    path = write_family(tmp_path,
                        dump_family(koszul_family((1, 2), [f, f], QQ)))
    sources = {"verify": ["--type", "A2", "--coeff", "Z", "--primes", "3"],
               "milnor": ["--type", "A2", "--coeff", "Z", "--primes", "3"],
               "family": ["--family", path]}
    for (command, fmt), expected in PINNED.items():
        code, out, err = run_cli(capsys, command, *sources[command],
                                 "--format", fmt)
        assert (code, err) == (0, ""), (command, fmt)
        assert out == expected.format(path=path), (command, fmt)


def test_family_not_well_filtered_still_exits_zero(capsys, tmp_path):
    # zero connecting scalar: outside the theorem, reported, not an error
    zero = parse_poly("0", QQ)
    f = parse_poly("1 - q", QQ)
    path = write_family(tmp_path,
                        dump_family(koszul_family((1, 2), [zero, f], QQ)))
    code, out, _ = run_cli(capsys, "family", "--family", path)
    assert code == 0
    assert "well filtered: NO: condition (c)" in out
    code, out, _ = run_cli(capsys, "family", "--family", path,
                           "--format", "json")
    assert code == 0
    wf = json.loads(out)["results"]["Q"]["well_filtered"]
    assert wf["ok"] is False and wf["condition"] == "c"
    assert "shift" not in json.loads(out)["results"]["Q"]


def test_family_cocycle_violation(capsys, tmp_path):
    path = write_family(tmp_path,
                        "- ; 1 ; 1\n- ; 2 ; 1\n1 ; 2 ; 1\n2 ; 1 ; 1\n")
    code, out, err = run_cli(capsys, "family", "--family", path)
    assert code == 2 and out == ""
    assert "cocycle relation fails" in err and "lines [1, 2, 3, 4]" in err


def test_family_syntax_and_totality_errors(capsys, tmp_path):
    path = write_family(tmp_path, "- ; 1 ; q^\n")
    code, _, err = run_cli(capsys, "family", "--family", path)
    assert code == 2 and "line 1" in err

    path = write_family(tmp_path, "- ; 1 ; 1\n- ; 2 ; 1\n1 ; 2 ; 1\n")
    code, _, err = run_cli(capsys, "family", "--family", path)
    assert code == 2 and "no entry" in err


def test_family_with_too_many_generators_fails_fast(capsys, tmp_path):
    # a totality search over 40 generators would visit 2^40 subsets
    path = write_family(tmp_path, "".join(f"- ; {i} ; 1\n"
                                          for i in range(1, 41)))
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "family", "--family", path)
    assert code == 2 and "line 10: more than 9 generators" in err
    assert time.perf_counter() - start < 1.0


def test_family_past_the_smith_cell_cap_fails_fast(capsys, tmp_path):
    # the complex of a family over 10 or 12 generators has 2^10 or 2^12
    # cells, past the 2^9 whose Smith forms are within reach; the file
    # is refused at the line that brings the 10th generator, before the
    # rest is parsed and the complex built
    f = parse_poly("1 - q", QQ)
    for n in (10, 12):
        path = write_family(tmp_path, dump_family(
            koszul_family(range(1, n + 1), [f] * n, QQ)))
        for command in ("cohomology", "verify", "family"):
            start = time.perf_counter()
            code, _, err = run_cli(capsys, command, "--family", path)
            assert code == 2, (n, command)
            assert "line 10: more than 9 generators" in err, (n, command)
            assert time.perf_counter() - start < 1.0, (n, command)


def test_family_with_hostile_polynomial_fails_fast(capsys, tmp_path):
    # a product or power too large or too slow to compute is refused
    # before it is, an inexact division before it runs over Q, an
    # over-long numeral before it is converted, and a non-ASCII digit
    for poly, coeff, message in (
            ("(1 - q)^2000", "Q", "product or power"),
            ("(1 + q^100000)^100000", "Q", "product or power"),
            ("(1 + q + q^2)^20000", "Zp:3", "product or power"),
            ("(1 - q^100000)/(3 - q)", "Q", "(-q + 3) does not divide"),
            ("1" * 5000, "Q", "numeral of 5000 digits"),
            ("q\u00b2", "Q", "unexpected character '\u00b2'")):
        path = write_family(tmp_path, f"- ; 1 ; {poly}\n")
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "family", "--family", path,
                               "--coeff", coeff)
        assert code == 2 and f"line 1: {message}" in err, poly[:40]
        assert time.perf_counter() - start < 1.0, poly[:40]


def test_family_coefficients_must_parse_in_domain(capsys, tmp_path):
    path = write_family(tmp_path, "- ; 1 ; 1/2\n")
    code, _, _ = run_cli(capsys, "family", "--family", path)
    assert code == 0
    code, _, err = run_cli(capsys, "family", "--family", path,
                           "--coeff", "Zp:2")
    assert code == 2 and "line 1" in err


def test_missing_or_conflicting_sources(capsys, tmp_path):
    code, _, err = run_cli(capsys, "cohomology")
    assert code == 2 and "exactly one of --type or --family" in err
    path = write_family(tmp_path, "- ; 1 ; 1\n")
    code, _, err = run_cli(capsys, "cohomology", "--type", "A1",
                           "--family", path)
    assert code == 2
    code, _, err = run_cli(capsys, "milnor")
    assert code == 2 and "--type" in err
    code, _, err = run_cli(capsys, "family")
    assert code == 2 and "--family" in err


def test_bad_inputs_exit_two(capsys, tmp_path):
    code, _, err = run_cli(capsys, "cohomology", "--type", "Q5")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "family", "--family",
                           str(tmp_path / "absent.txt"))
    assert code == 2
    code, _, err = run_cli(capsys, "cohomology", "--type", "A1",
                           "--coeff", "Zp:6")
    assert code == 2
    code, _, err = run_cli(capsys, "cohomology", "--type", "A1",
                           "--coeff", f"Zp:{2**89 - 1}")
    assert code == 2 and "not a prime below" in err
    for spec in ("Zp:abc", "Zp:", "Zp:1e3"):
        code, _, err = run_cli(capsys, "cohomology", "--type", "A1",
                               "--coeff", spec)
        assert code == 2 and "error:" in err, spec
    # a family file that is not UTF-8, or has an exponent past the bound
    for name, poly in (("latin1.txt", b"1 - q \xff"),
                       ("huge.txt", b"1 - q^99999999999999999999999"),
                       ("wide.txt", b"1 - q^300000000")):
        path = tmp_path / name
        path.write_bytes(b"- ; 1 ; " + poly + b"\n")
        code, _, err = run_cli(capsys, "family", "--family", str(path))
        assert code == 2 and "line 1" in err, name
    code, _, err = run_cli(capsys, "verify", "--type", "A2",
                           "--degrees", "3:1")
    assert code == 2 and "empty degree range" in err
    code, _, err = run_cli(capsys, "verify", "--type", "A2",
                           "--window-radius", "3")
    assert code == 2
    # a radius past the doubling schedule's last is refused at once
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "verify", "--type", "A1",
                           "--window-radius", "100000000")
    assert code == 2 and "window radius 100000000 is beyond" in err
    assert time.perf_counter() - start < 2.0
    # Z/3 twice would print its CSV rows twice
    code, _, err = run_cli(capsys, "cohomology", "--type", "A1",
                           "--coeff", "Z", "--primes", "3,3")
    assert code == 2 and "repeated prime" in err
    # and so is a library configuration, which printed them twice
    assert cli.run(RunConfig(command="cohomology", type_label="A2",
                             coeff="Z", primes=(3, 3), fmt="csv")) == 2
    out, err = capsys.readouterr()
    assert out == "" and "repeated prime in --primes 3,3" in err
    # --coeff Z with no prime would run Q alone and still report Z
    for primes in (",", ""):
        code, out, err = run_cli(capsys, "verify", "--type", "A2",
                                 "--coeff", "Z", "--primes", primes,
                                 "--format", "json")
        assert code == 2 and out == "" and "at least one prime" in err
    assert cli.run(RunConfig(command="verify", type_label="A2", coeff="Z",
                             primes=())) == 2
    assert "at least one prime" in capsys.readouterr().err
    # labels past the caps, or with an empty factor, fail before any
    # Coxeter matrix is built
    for label in ("A13", "A100000", "I2(1000000000000)", "A" + "9" * 5000,
                  "x".join(["A1"] * 13), "x".join(["A1"] * 10**6),
                  "A1x", "xA2", "A1xxB2"):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "cohomology", "--type", label)
        assert code == 2 and "error:" in err, label[:20]
        assert time.perf_counter() - start < 1.0, label[:20]


def test_window_too_large_for_memory_exits_2_at_once(capsys, monkeypatch,
                                                     tmp_path):
    # these dihedral windows would hold far beyond 2^24 equation-row
    # entries, and 8x the default radius of the sparse family beyond
    # 2^21 rows (6.8e6 rows of 2 entries); they are refused before any
    # row is built
    series = importlib.import_module("artinfib.series")

    def never(*args, **kwargs):
        raise AssertionError("built a row before the window was sized")

    monkeypatch.setattr(series, "equation_rows", never)
    sparse = tmp_path / "sparse.txt"
    sparse.write_text("- ; 1 ; 1 - q^100000\n")
    for args in (("verify", "--type", "I2(3200)"),
                 ("milnor", "--type", "I2(100000)", "--coeff", "Z"),
                 ("verify", "--family", str(sparse),
                  "--window-radius", "3200000"),
                 ("family", "--family", str(sparse),
                  "--window-radius", "3200000")):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, *args, "--format", "json")
        assert code == 2 and err.startswith("error:"), args
        assert "window elimination" in err, args
        assert time.perf_counter() - start < 2.0, args


def test_too_small_window_radius_fails_before_any_degree(capsys,
                                                        monkeypatch):
    # F4's degree 3 discards 60 coefficients at each end, the others
    # fewer: radius 30 is refused before any Smith form or window runs
    homology = importlib.import_module("artinfib.homology")

    def never(*args, **kwargs):
        raise AssertionError("ran before the radius was checked")

    monkeypatch.setattr(homology, "cohomology", never)
    monkeypatch.setattr(homology, "m_cohomology_dim_window", never)
    for fmt in ("pretty", "json"):
        code, out, err = run_cli(capsys, "verify", "--type", "F4",
                                 "--window-radius", "30", "--format", fmt)
        assert code == 2, fmt
        assert "radius 30 leaves no interior in degree 3" in err, fmt
        assert "degree" not in out, fmt


def test_smith_cell_cap_fails_fast(capsys):
    # A10 has 2^10 cells, past the 2^9 whose Smith forms are within
    # reach; the Salvetti complex is refused before it is built
    for label in ("A10", "A12"):
        for coeff in ("Q", "Zp:3"):
            start = time.perf_counter()
            code, _, err = run_cli(capsys, "cohomology", "--type", label,
                                   "--coeff", coeff)
            assert code == 2 and "more than the 512" in err, (label, coeff)
            assert time.perf_counter() - start < 2.0, (label, coeff)


def test_shift_mismatch_exits_one(capsys, monkeypatch):
    def doctored(C, policy, progress=None):
        bad = DegreeShift(degree=0, m_dim=1, shifted_torsion_dim=2,
                          free_rank_here=0, free_rank_above=0, radius=8,
                          match=False)
        if progress is not None:
            progress(bad)
        return ShiftReport(degrees=(bad,), cohomology=cohomology(C))

    monkeypatch.setattr(cli, "verify_shift_theorem", doctored)
    code, out, _ = run_cli(capsys, "verify", "--type", "A2")
    assert code == 1
    assert "MISMATCH" in out
    code, _, _ = run_cli(capsys, "milnor", "--type", "A2")
    assert code == 1


def test_salvetti_well_filtered_failure_exits_one(capsys, monkeypatch):
    forced = WellFilteredResult(ok=False, path=(1,), condition="b",
                                message="forced for the test")
    monkeypatch.setattr(cli, "is_well_filtered", lambda C: forced)
    code, out, _ = run_cli(capsys, "verify", "--type", "A2")
    assert code == 1
    assert "NO: condition (b) fails at quotient path [1]" in out


def test_milnor_not_well_filtered_exits_one(capsys, monkeypatch):
    def raising(C, policy, progress=None):
        raise NotWellFiltered("forced for the test")

    monkeypatch.setattr(cli, "verify_shift_theorem", raising)
    code, out, _ = run_cli(capsys, "milnor", "--type", "A2")
    assert code == 1 and "forced for the test" in out
    # json and csv keep stdout a clean document: the message goes to stderr
    code, out, err = run_cli(capsys, "milnor", "--type", "A2", "--coeff", "Z",
                             "--primes", "3", "--format", "json")
    assert code == 1
    assert json.loads(out)["results"] == {}
    assert err == ("type A2 over Q: forced for the test\n"
                   "type A2 over Z/3: forced for the test\n")


def test_milnor_monodromy_order_failure_exits_one(capsys, monkeypatch):
    # h^(2N) = id: every torsion factor of the fiber reading divides
    # q^(2N) - 1, which q - 2 does not (A2 has N = 3 reflections)
    honest = cli.verify_shift_theorem

    def doctored(C, radius, progress=None):
        report = honest(C, radius)
        co = report.cohomology
        bad = dataclasses.replace(co[1], torsion=(parse_poly("q - 2", QQ),))
        return dataclasses.replace(report, cohomology=(co[0], bad, *co[2:]))

    monkeypatch.setattr(cli, "verify_shift_theorem", doctored)
    message = ("type A2 over Q: monodromy order check failed: torsion "
               "factor q - 2 of H^1 does not divide q^6 - 1\n")
    code, out, err = run_cli(capsys, "milnor", "--type", "A2")
    assert (code, out, err) == (1, message, "")
    code, out, err = run_cli(capsys, "milnor", "--type", "A2",
                             "--format", "json")
    assert code == 1 and json.loads(out)["results"] == {}
    assert err == message
    code, out, err = run_cli(capsys, "milnor", "--type", "A2",
                             "--format", "csv")
    assert code == 1 and err == message
    assert out == ("domain,degree,betti,charpoly,eigenvalues,"
                   "non_cyclotomic,irreducible,shift_ok\n")


def test_not_stabilized_exits_two(capsys, monkeypatch):
    history = ()

    def never_stable(C, policy, progress=None):
        raise NotStabilized("still moving", radius=64, history=history)

    monkeypatch.setattr(cli, "verify_shift_theorem", never_stable)
    code, _, err = run_cli(capsys, "verify", "--type", "A2")
    assert code == 2
    assert "did not stabilize" in err and "64" in err
    assert "tried: none)" in err
    history = ((16, 3), (32, 4), (64, 5))
    code, out, err = run_cli(capsys, "verify", "--type", "A2",
                             "--format", "json")
    assert code == 2 and out == ""
    assert "last radius 64" in err
    assert "(16, 3), (32, 4), (64, 5)" in err


def test_parse_degrees():
    def selected(text):
        config = RunConfig("cohomology", degrees=_parse_degrees(text))
        return {k for k in range(-3, 10) if config.wants_degree(k)}

    assert _parse_degrees("0:3") == ((0, 3),)
    assert selected("0:3") == {0, 1, 2, 3}
    assert _parse_degrees("1,2") == ((1, 1), (2, 2))
    assert selected("1,2") == {1, 2}
    assert _parse_degrees("0,2:4") == ((0, 0), (2, 4))
    assert selected("0,2:4") == {0, 2, 3, 4}
    with pytest.raises(ValueError):
        _parse_degrees("3:1")
    with pytest.raises(ValueError):
        _parse_degrees(",")
    with pytest.raises(ValueError):
        _parse_degrees("x")


def test_argparse_contract(capsys):
    with pytest.raises(SystemExit):
        main(["cohomology", "--format", "xml"])
    with pytest.raises(SystemExit):
        main(["unknown-command"])
    with pytest.raises(SystemExit):
        main(["milnor", "--family", "x.txt"])
    capsys.readouterr()
