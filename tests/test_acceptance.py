"""Acceptance suite: one test per release criterion.

Each test prints a single ``[PASS] criterion N`` / ``[FAIL] criterion N``
line (visible with ``pytest -s``) and enforces the criterion's time
budget where one is set.
"""

import contextlib
import io
import json
import random
import time

from artinfib.cli import main
from artinfib.complexes import (build_generic_complex,
                                build_salvetti_complex, check_d_squared,
                                is_well_filtered, random_koszul_family)
from artinfib.coxeter import (finite_type_system, parse_label,
                              poincare_poly, poincare_poly_bruteforce)
from artinfib.domains import GF, QQ
from artinfib.errors import NonInvertibleExtremes
from artinfib.homology import (DegreeShift, ShiftReport, cohomology,
                               homology, smith_normal_form,
                               verify_shift_theorem)
from artinfib.laurent import LaurentPoly
from artinfib.rmatrix import det_bareiss, mat_identity, mat_mul
from artinfib.series import (default_window_radius, kernel_of_scalar_mul,
                             poly_window_product)

# rank <= 4 irreducible types (dihedral family sampled) plus the named
# higher-rank cases
SOUNDNESS_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "F4",
                   "H3", "H4", "I2(5)", "I2(6)", "I2(7)", "I2(8)",
                   "A5", "A6", "D5")

SHIFT_TYPES = ("A1", "A2", "A3", "B2", "B3", "I2(3)", "I2(4)", "I2(5)",
               "I2(6)", "I2(7)", "I2(8)", "H3")

# the rank-4 types, verified over Q and Z/3 in criterion 11
RANK_FOUR_TYPES = ("A4", "B4", "D4", "F4", "H4")

# rank 8, where the Smith forms over Q of the Salvetti complexes are
# most of the cost, in criterion 12
RANK_EIGHT_TYPES = ("A8", "E8")

# ranks 5 and 6, verified through the CLI over Q and Z/3 at the default
# window radius in criterion 13
RANK_SIX_TYPES = ("A5", "B5", "D5", "A6", "B6", "D6", "E6")

# rank 7, verified over Z/3 in criterion 14
RANK_SEVEN_TYPE = "E7"

# rank 8, the largest type the shift check verifies within a tier-1
# budget, over Z/3 in criterion 15, with the window dimension of each
# degree
RANK_EIGHT_SHIFT = ("E8", (1, 0, 0, 0, 3, 2, 9, 55, 0))

# every type with group order <= 1e5; the dihedral family is sampled
POINCARE_TYPES = ("A1", "A2", "A3", "A4", "A5", "A6", "A7",
                  "B2", "B3", "B4", "B5", "B6", "D4", "D5", "D6",
                  "E6", "F4", "H3", "H4",
                  "I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(7)", "I2(8)",
                  "I2(9)", "I2(10)", "I2(11)", "I2(12)", "I2(20)",
                  "I2(36)")


def koszul_sample():
    """The 50 seeded random Koszul families shared across criteria."""
    master = random.Random(2024)
    out = []
    for _ in range(50):
        rank = master.randint(1, 3)
        seed = master.randrange(10 ** 9)
        out.append((f"koszul(rank={rank}, seed={seed})",
                    rank, seed))
    return out


def koszul_complex(rank, seed, domain=QQ):
    return build_generic_complex(
        random_koszul_family(rank, seed, domain, span_bound=3))


def criterion(num, desc, budget=None):
    """Time the body, print one verdict line, enforce the budget."""
    def wrap(fn):
        def run():
            start = time.monotonic()
            try:
                fn()
            except BaseException:
                print(f"[FAIL] criterion {num}: {desc}")
                raise
            elapsed = time.monotonic() - start
            if budget is not None and elapsed > budget:
                print(f"[FAIL] criterion {num}: {desc} "
                      f"({elapsed:.1f}s over the {budget}s budget)")
                raise AssertionError(
                    f"criterion {num} took {elapsed:.1f}s, budget {budget}s")
            print(f"[PASS] criterion {num}: {desc} ({elapsed:.2f}s)")
        return run
    return wrap


def cli_json(*args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(args))
    return code, json.loads(buf.getvalue())


def test_criterion_01_closed_form_a1():
    @criterion(1, "closed-form A1 cohomology and fiber", budget=1.0)
    def body():
        code, doc = cli_json("cohomology", "--type", "A1",
                             "--format", "json")
        assert code == 0
        assert doc["results"]["Q"]["groups"] == [
            {"degree": 0, "free_rank": 0, "torsion": []},
            {"degree": 1, "free_rank": 0, "torsion": ["q - 1"]},
        ]
        code, doc = cli_json("milnor", "--type", "A1", "--format", "json")
        assert code == 0
        degrees = doc["results"]["Q"]["degrees"]
        assert len(degrees) == 1
        assert degrees[0]["degree"] == 0 and degrees[0]["betti"] == 1
    body()


def test_criterion_02_closed_form_a2():
    @criterion(2, "closed-form A2 cohomology and monodromy", budget=1.0)
    def body():
        code, doc = cli_json("cohomology", "--type", "A2",
                             "--format", "json")
        assert code == 0
        assert doc["results"]["Q"]["groups"] == [
            {"degree": 0, "free_rank": 0, "torsion": []},
            {"degree": 1, "free_rank": 0, "torsion": ["q - 1"]},
            {"degree": 2, "free_rank": 0, "torsion": ["q^2 - q + 1"]},
        ]
        code, doc = cli_json("milnor", "--type", "A2", "--format", "json")
        assert code == 0
        degrees = doc["results"]["Q"]["degrees"]
        assert [r["betti"] for r in degrees] == [1, 2]
        assert degrees[1]["eigenvalues"] == [
            {"multiplicity": 1, "order": 6}]
        assert degrees[1]["non_cyclotomic"] is None
    body()


def test_criterion_03_construction_soundness():
    @criterion(3, "d^2 = 0 and well filtered across small ranks",
               budget=60.0)
    def body():
        for name in SOUNDNESS_TYPES:
            C = build_salvetti_complex(finite_type_system(name))
            assert check_d_squared(C), name
            assert is_well_filtered(C).ok, name
    body()


def test_criterion_04_shift_theorem():
    @criterion(4, "degree shift matches for named types and 50 random "
                  "Koszul families", budget=600.0)
    def body():
        for name in SHIFT_TYPES:
            report = verify_shift_theorem(
                build_salvetti_complex(finite_type_system(name)))
            assert report.ok, name
            assert all(d.match for d in report.degrees), name
        for label, rank, seed in koszul_sample():
            report = verify_shift_theorem(koszul_complex(rank, seed))
            assert report.ok, label
    body()


def test_criterion_05_poincare_oracle():
    @criterion(5, "Poincare polynomials match brute force enumeration",
               budget=300.0)
    def body():
        for name in POINCARE_TYPES:
            label = parse_label(name)
            assert label.group_order() <= 10 ** 5, name
            system = finite_type_system(name)
            table = poincare_poly(system)
            assert table == poincare_poly_bruteforce(system), name
            assert table.evaluate(1) == QQ.normalize(label.group_order())
    body()


def test_criterion_06_snf_property_suite():
    @criterion(6, "1000 random Smith decompositions", budget=120.0)
    def body():
        rng = random.Random(1000003)
        for trial in range(1000):
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
            A = tuple(A)
            dec = smith_normal_form(A, QQ, shape=(m, n))
            assert mat_mul(dec.U, mat_mul(A, dec.V, QQ), QQ) == dec.D
            # exact two-sided inverses certify unimodularity
            assert mat_mul(dec.U, dec.Uinv, QQ) == mat_identity(m, QQ)
            assert mat_mul(dec.V, dec.Vinv, QQ) == mat_identity(n, QQ)
            diag = dec.diagonal
            for a, b in zip(diag, diag[1:]):
                if not b.is_zero():
                    b.divexact(a)
            for d in diag:
                if not d.is_zero():
                    assert d.val == 0 and d.coeffs[-1] == QQ.one
            if trial % 100 == 0:
                # spot-check the determinants literally
                for T in (dec.U, dec.V):
                    det = det_bareiss(T, QQ)
                    assert det.span == 0 and not det.is_zero()
    body()


def test_criterion_07_rational_acyclicity(monkeypatch, capsys):
    @criterion(7, "free rank zero everywhere, failures exit 1")
    def body():
        for name in SOUNDNESS_TYPES:
            C = build_salvetti_complex(finite_type_system(name))
            assert all(g.free_rank == 0 for g in cohomology(C)), name
        for label, rank, seed in koszul_sample():
            C = koszul_complex(rank, seed)
            assert all(g.free_rank == 0 for g in cohomology(C)), label
        # free summands feed the match flag, which drives the exit code;
        # no honest input here produces one, so inject a doctored report
        import artinfib.cli as cli
        bad = DegreeShift(degree=0, m_dim=0, shifted_torsion_dim=0,
                          free_rank_here=1, free_rank_above=0, radius=8,
                          match=False)
        monkeypatch.setattr(
            cli, "verify_shift_theorem",
            lambda C, policy, progress=None: ShiftReport(
                degrees=(bad,), cohomology=cohomology(C)))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", "--type", "A2"]) == 1
        monkeypatch.undo()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", "--type", "A2"]) == 0
    body()


def test_criterion_08_homology_duality():
    @criterion(8, "homology torsion agrees with shifted cohomology")
    def body():
        instances = [build_salvetti_complex(finite_type_system(name))
                     for name in SHIFT_TYPES]
        instances += [koszul_complex(rank, seed)
                      for _, rank, seed in koszul_sample()]
        for C in instances:
            co = cohomology(C)
            hom = homology(C)
            for k in range(C.top_degree):
                assert hom[k].torsion_dim == co[k + 1].torsion_dim
    body()


def test_criterion_09_kernel_dimension_law():
    @criterion(9, "kernel dimension equals span with annihilating bases",
               budget=30.0)
    def body():
        rng = random.Random(424242)
        produced = 0
        while produced < 100:
            span = rng.randint(1, 6)
            coeffs = [rng.choice((-1, 1))]
            coeffs += [rng.randint(-4, 4) for _ in range(span - 1)]
            coeffs += [rng.choice((-1, 1))]
            if span == 0:
                coeffs = [rng.choice((-1, 1))]
            p = LaurentPoly(QQ, rng.randint(-4, 4), tuple(coeffs))
            try:
                ker = kernel_of_scalar_mul(p)
            except NonInvertibleExtremes:
                continue
            produced += 1
            assert ker.dim == p.span
            for basis in ker.basis_on_window(-25, 24):
                assert len(basis) == 50
                assert poly_window_product(p, basis).is_zero()
    body()


def test_criterion_10_mod_p_pipeline():
    @criterion(10, "construction and shift rerun over Z/2 and Z/3")
    def body():
        for p in (2, 3):
            dom = GF(p)
            for name in SOUNDNESS_TYPES:
                C = build_salvetti_complex(finite_type_system(name), dom)
                assert check_d_squared(C), (p, name)
                assert is_well_filtered(C).ok, (p, name)
            for name in SHIFT_TYPES:
                C = build_salvetti_complex(finite_type_system(name), dom)
                report = verify_shift_theorem(C)
                assert report.ok, (p, name)
            for label, rank, seed in koszul_sample():
                report = verify_shift_theorem(
                    koszul_complex(rank, seed, dom))
                assert report.ok, (p, label)
    body()


def test_criterion_11_rank_four_shift_theorem():
    @criterion(11, "degree shift matches for the rank-4 types over Q and "
                   "Z/3", budget=45.0)
    def body():
        for name in RANK_FOUR_TYPES:
            for dom in (QQ, GF(3)):
                report = verify_shift_theorem(
                    build_salvetti_complex(finite_type_system(name), dom))
                assert report.ok, (name, dom)
                assert all(d.match for d in report.degrees), (name, dom)
    body()


def test_criterion_12_rank_eight_cohomology():
    @criterion(12, "cohomology over Q of A8 and E8: no free part, torsion "
                   "divides q^(2N) - 1", budget=30.0)
    def body():
        # the fiber's monodromy has order dividing 2N, N the number of
        # reflections (the degree of the Poincare polynomial)
        for name in RANK_EIGHT_TYPES:
            system = finite_type_system(name)
            N = poincare_poly(system).degree
            order = LaurentPoly.q_power(QQ, 2 * N) - LaurentPoly.one(QQ)
            for g in cohomology(build_salvetti_complex(system)):
                assert g.free_rank == 0, (name, g.degree)
                for f in g.torsion:
                    assert order.divrem(f)[1].is_zero(), (name, g.degree)
    body()


def test_criterion_13_rank_six_shift_theorem():
    @criterion(13, "degree shift matches in every degree for the rank-5 "
                   "and rank-6 types over Q and Z/3", budget=90.0)
    def body():
        for name in RANK_SIX_TYPES:
            system = finite_type_system(name)
            for coeff, dom in (("Q", QQ), ("Zp:3", GF(3))):
                default = default_window_radius(
                    build_salvetti_complex(system, dom))
                code, doc = cli_json("verify", "--type", name,
                                     "--coeff", coeff, "--format", "json")
                assert code == 0, (name, coeff)
                (entry,) = doc["results"].values()
                degrees = entry["shift"]["degrees"]
                assert entry["shift"]["ok"], (name, coeff)
                assert len(degrees) == system.n + 1, (name, coeff)
                assert all(d["match"] for d in degrees), (name, coeff)
                # every degree stabilized at the first radius tried
                assert all(d["radius"] == default for d in degrees), \
                    (name, coeff)
    body()


def test_criterion_14_rank_seven_shift_theorem():
    @criterion(14, "degree shift matches in every degree for E7 over Z/3",
               budget=60.0)
    def body():
        system = finite_type_system(RANK_SEVEN_TYPE)
        default = default_window_radius(
            build_salvetti_complex(system, GF(3)))
        code, doc = cli_json("verify", "--type", RANK_SEVEN_TYPE, "--coeff",
                             "Zp:3", "--format", "json")
        assert code == 0
        (entry,) = doc["results"].values()
        degrees = entry["shift"]["degrees"]
        assert entry["shift"]["ok"]
        assert len(degrees) == system.n + 1
        assert all(d["match"] for d in degrees)
        # every degree stabilized at the first radius tried
        assert all(d["radius"] == default for d in degrees)
    body()


def test_criterion_15_rank_eight_shift_theorem():
    @criterion(15, "degree shift matches in every degree for E8 over Z/3",
               budget=150.0)
    def body():
        name, m_dims = RANK_EIGHT_SHIFT
        system = finite_type_system(name)
        default = default_window_radius(
            build_salvetti_complex(system, GF(3)))
        code, doc = cli_json("verify", "--type", name, "--coeff", "Zp:3",
                             "--format", "json")
        assert code == 0
        (entry,) = doc["results"].values()
        degrees = entry["shift"]["degrees"]
        assert entry["shift"]["ok"]
        assert all(d["match"] for d in degrees)
        assert tuple(d["m_dim"] for d in degrees) == m_dims
        assert all(d["radius"] == default for d in degrees)
    body()
