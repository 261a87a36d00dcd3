"""Smith normal form, cohomology over R, and the degree-shift check."""

import importlib
import itertools
import math
import random

import pytest

from artinfib.complexes import (CochainComplex, build_generic_complex,
                                build_salvetti_complex, koszul_family,
                                random_koszul_family, transpose_complex)
from artinfib.coxeter import finite_type_system, poincare_poly, \
    system_from_string
from artinfib.domains import GF, QQ, ZZ
from artinfib.errors import (NotStabilized, NotWellFiltered, RankMismatch,
                             UnsupportedDomain)
from artinfib.homology import (_invariant_factors, cohomology, homology,
                               monodromy_char_poly, smith_normal_form,
                               verify_shift_theorem)
from artinfib.laurent import LaurentPoly, format_poly, parse_poly
from artinfib.linalg import sparse_rank
from artinfib.rmatrix import det_bareiss, mat_eq, mat_identity, mat_mul


def P(text, dom=QQ):
    return parse_poly(text, dom)


def check_decomposition(A, dec, dom):
    m, n = dec.shape
    if m and n:
        assert mat_eq(mat_mul(dec.U, mat_mul(A, dec.V, dom), dom), dec.D)
    if m:
        assert mat_eq(mat_mul(dec.U, dec.Uinv, dom), mat_identity(m, dom))
    if n:
        assert mat_eq(mat_mul(dec.V, dec.Vinv, dom), mat_identity(n, dom))
    diag = dec.diagonal
    for a, b in zip(diag, diag[1:]):
        if not b.is_zero():
            assert not a.is_zero()
            b.divexact(a)
    for d in diag:
        if not d.is_zero():
            assert d.val == 0 and d.coeffs[-1] == dom.one


def test_snf_frozen_examples():
    A = ((P("1 - q^2"), P("0")), (P("0"), P("1 - q")))
    dec = smith_normal_form(A, QQ)
    assert [format_poly(d) for d in dec.diagonal] == ["q - 1", "q^2 - 1"]
    check_decomposition(A, dec, QQ)

    dec = smith_normal_form(((P("q^5"),),), QQ)
    assert [format_poly(d) for d in dec.diagonal] == ["1"]
    assert dec.rank == 1
    assert [format_poly(f) for f in dec.invariant_factors] == ["1"]

    dec = smith_normal_form(((P("0"),),), QQ)
    assert dec.rank == 0


def test_snf_zero_dimensions():
    dec = smith_normal_form((), QQ, shape=(0, 5))
    assert dec.shape == (0, 5) and dec.rank == 0
    dec = smith_normal_form(((), (), ()), QQ, shape=(3, 0))
    assert dec.shape == (3, 0) and dec.diagonal == ()
    with pytest.raises(RankMismatch):
        smith_normal_form(((P("1"),),), QQ, shape=(2, 1))


def test_snf_rejects_integer_coefficients():
    with pytest.raises(UnsupportedDomain):
        smith_normal_form(((parse_poly("2", ZZ),),), ZZ)


def random_matrix(rng, dom, m, n, span_bound=4):
    out = []
    for _ in range(m):
        row = []
        for _ in range(n):
            if rng.random() < 0.3:
                row.append(LaurentPoly.zero(dom))
                continue
            span = rng.randint(0, span_bound)
            coeffs = [rng.randint(-3, 3) for _ in range(span + 1)]
            if all(c == 0 for c in coeffs):
                coeffs[0] = 1
            while coeffs[-1] == 0:
                coeffs[-1] = rng.randint(-3, 3)
            row.append(LaurentPoly(dom, rng.randint(-2, 2), tuple(coeffs)))
        out.append(tuple(row))
    return tuple(out)


def test_snf_random_property():
    rng = random.Random(11)
    for trial in range(150):
        dom = (QQ, GF(2), GF(5))[trial % 3]
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        A = random_matrix(rng, dom, m, n)
        dec = smith_normal_form(A, dom, shape=(m, n))
        check_decomposition(A, dec, dom)


def test_transform_free_factors_match_random_smith_forms():
    # cohomology reads the diagonal of a Smith form run without
    # transforms; it must agree with the full decomposition
    rng = random.Random(23)
    for trial in range(160):
        dom = (QQ, GF(2), GF(3), GF(7))[trial % 4]
        kind = trial % 5
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        if kind == 0:
            m, n = rng.choice(((0, n), (m, 0)))
        if kind == 1 and min(m, n) >= 2:
            # rank below min(m, n): a product through a thinner middle
            k = rng.randint(1, min(m, n) - 1)
            A = mat_mul(random_matrix(rng, dom, m, k),
                        random_matrix(rng, dom, k, n), dom)
        elif kind == 2:
            # q - 1 above q^2 + q + 1 breaks the divisibility chain
            # (outside characteristic 3), so the repair has to merge them
            m = n = max(m, 2)
            diag = [P("q - 1", dom), P("q^2 + q + 1", dom)] + [
                random_matrix(rng, dom, 1, 1)[0][0] for _ in range(m - 2)]
            A = tuple(tuple(diag[i] if i == j else LaurentPoly.zero(dom)
                            for j in range(n)) for i in range(m))
        else:
            A = random_matrix(rng, dom, m, n)
        assert _invariant_factors(A, m, n, dom) == smith_normal_form(
            A, dom, shape=(m, n)).invariant_factors, (trial, str(dom))


def test_transform_free_repair_merges_diagonal():
    one, f, g = P("1"), P("q - 1"), P("q + 1")
    zero = LaurentPoly.zero(QQ)
    assert [format_poly(d) for d in
            _invariant_factors(((f, zero), (zero, g)), 2, 2, QQ)] == \
        ["1", "q^2 - 1"]
    assert _invariant_factors(((zero, f * g, g),), 1, 3, QQ) == (g,)
    assert _invariant_factors(((zero, P("q^3"), zero),), 1, 3, QQ) == (one,)
    assert _invariant_factors((), 0, 4, QQ) == ()
    assert _invariant_factors(((), ()), 2, 0, QQ) == ()


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "A5", "A6", "B3", "B4",
                                  "B5", "D4", "F4", "H3", "H4", "E6"])
def test_transform_free_factors_match_salvetti_smith_forms(name):
    C = build_salvetti_complex(finite_type_system(name))
    for k, d in enumerate(C.diffs):
        m, n = C.ranks[k + 1], C.ranks[k]
        assert _invariant_factors(d, m, n, QQ) == smith_normal_form(
            d, QQ, shape=(m, n)).invariant_factors, (name, k)


def criterion6_matrix(index):
    """Matrix ``index`` of acceptance criterion 6's random stream."""
    rng = random.Random(1000003)
    for _ in range(index + 1):
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
    return tuple(A)


def coeff_bits(p):
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in p.coeffs), default=0)


def test_snf_transforms_stay_small():
    # a 6x4 matrix with D = [I; 0]; its transforms once carried 3.8k-bit
    # numerators and entries of span 46
    A = criterion6_matrix(5)
    assert (len(A), len(A[0])) == (6, 4)
    dec = smith_normal_form(A, QQ, shape=(6, 4))
    check_decomposition(A, dec, QQ)
    minors = [det_bareiss(tuple(A[i] for i in rows), QQ)
              for rows in itertools.combinations(range(6), 4)]
    minors = [d for d in minors if not d.is_zero()]
    span = max(d.span for d in minors)
    bits = max(coeff_bits(d) for d in minors)
    # The bounds allow what the decomposition is built from: vectors of
    # 4x4 minors span the left kernel over the fraction field, and a
    # Bezout step on two minors has cofactors whose coefficients are
    # ratios of minors of their Sylvester matrix (size 2 * span, rows of
    # norm below sqrt(span + 1) * 2^bits, hence the Hadamard bound).  An
    # entry past either bound carries growth that the elimination added.
    bound = 2 * span * (bits + math.log2(span + 1) / 2)
    for T in (dec.U, dec.Uinv, dec.V, dec.Vinv):
        for row in T:
            for e in row:
                assert e.span <= span
                assert coeff_bits(e) <= bound


def co_strings(C):
    return [str(g) for g in cohomology(C)]


def test_cohomology_salvetti_frozen():
    assert co_strings(build_salvetti_complex(finite_type_system("A1"))) == \
        ["0", "R/(q - 1)"]
    assert co_strings(build_salvetti_complex(finite_type_system("A2"))) == \
        ["0", "R/(q - 1)", "R/(q^2 - q + 1)"]
    assert co_strings(build_salvetti_complex(finite_type_system("B2"))) == \
        ["0", "R/(q - 1)", "R/(q^3 - q^2 + q - 1)"]
    # dihedral top degree carries the sign-twisted quotient polynomial
    assert co_strings(build_salvetti_complex(finite_type_system("I2(5)"))) \
        == ["0", "R/(q - 1)", "R/(q^4 - q^3 + q^2 - q + 1)"]


def test_cohomology_reach_targets_frozen():
    # recorded with the Smith forms that carried their transforms
    assert co_strings(build_salvetti_complex(finite_type_system("A7"))) == [
        "0", "R/(q - 1)", "0", "0", "0", "R/(q^2 + 1)",
        "R/(q^6 - q^5 + q^4 - q^3 + q^2 - q + 1)", "R/(q^4 + 1)"]
    assert co_strings(build_salvetti_complex(finite_type_system("E7"))) == [
        "0", "R/(q - 1)", "0", "0", "0", "R/(q^2 + q + 1)",
        "R/(q^2 + q + 1)",
        "R/(q^15 + q^14 + q^13 + q^12 + q^11 + q^10 + q^9 - q^6 - q^5 "
        "- q^4 - q^3 - q^2 - q - 1)"]


def test_cohomology_modular_frozen():
    A2 = finite_type_system("A2")
    assert co_strings(build_salvetti_complex(A2, GF(2))) == \
        ["0", "R/(q + 1)", "R/(q^2 + q + 1)"]
    assert co_strings(build_salvetti_complex(A2, GF(3))) == \
        ["0", "R/(q + 2)", "R/(q^2 + 2*q + 1)"]


def test_cohomology_koszul_and_free_parts():
    f = P("1 - q")
    K = build_generic_complex(koszul_family((1, 2), [f, f], QQ))
    assert co_strings(K) == ["0", "R/(q - 1)", "R/(q - 1)"]
    # a zero scalar leaves free summands behind
    K0 = build_generic_complex(koszul_family((1, 2),
                                             [f, LaurentPoly.zero(QQ)], QQ))
    groups = cohomology(K0)
    assert str(groups[1]) == "R/(q - 1)"
    assert groups[2].free_rank == 0 and str(groups[2]) == "R/(q - 1)"
    Kz = build_generic_complex(koszul_family((1,), [LaurentPoly.zero(QQ)],
                                             QQ))
    assert co_strings(Kz) == ["R", "R"]


def test_cohomology_rejects_non_complex():
    one = LaurentPoly.one(QQ)
    with pytest.raises(RankMismatch):
        cohomology(CochainComplex(QQ, (1, 1, 1), (((one,),), ((one,),))))


def test_zero_rank_degrees():
    f = P("q - 1")
    C = CochainComplex(QQ, (2, 1, 0, 1), (((f, f),), (), ((),)))
    assert [str(g) for g in cohomology(C)] == ["R", "R/(q - 1)", "0", "R"]
    assert [str(g) for g in homology(C)] == ["R + R/(q - 1)", "0", "0", "R"]


def test_homology_frozen_and_duality():
    A2 = build_salvetti_complex(finite_type_system("A2"))
    assert [str(g) for g in homology(A2)] == \
        ["R/(q - 1)", "R/(q^2 - q + 1)", "0"]
    A1 = build_salvetti_complex(finite_type_system("A1"))
    assert [str(g) for g in homology(A1)] == ["R/(q - 1)", "0"]
    # torsion of H_k matches torsion of H^(k+1) degree by degree here
    for name in ("A3", "B3", "I2(8)"):
        C = build_salvetti_complex(finite_type_system(name))
        hom = homology(C)
        co = cohomology(C)
        for k in range(C.top_degree):
            assert hom[k].torsion_dim == co[k + 1].torsion_dim, (name, k)


def vanishing(groups, k, a):
    """How many torsion factors of degree k vanish at q = a (0 outside)."""
    if not 0 <= k < len(groups):
        return 0
    return sum(f.domain.is_zero(f.evaluate(a)) for f in groups[k].torsion)


def test_universal_coefficients_at_points():
    # independent of the Smith forms: setting q = a (a unit) gives a
    # complex over the coefficient field whose Betti numbers come from
    # ranks alone, while the universal coefficient theorem reads them off
    # the invariant factors (f contributes once as R/(f) tensor and once
    # as Tor exactly when f(a) = 0)
    fields = [(QQ, (1, -1, 2))]
    fields += [(GF(p), range(1, p)) for p in (2, 3, 5, 7)]
    for name in ("A3", "B3", "H3", "A4", "D4", "F4", "H4"):
        for dom, points in fields:
            C = build_salvetti_complex(finite_type_system(name), dom)
            co, hom = cohomology(C), homology(C)
            for a in points:
                # rank[k] is the rank of d^(k-1) at q = a
                rank = [0] + [sparse_rank(
                    ({j: e.evaluate(a) for j, e in enumerate(row)}
                     for row in d), dom) for d in C.diffs] + [0]
                for k in range(C.top_degree + 1):
                    dim = C.ranks[k] - rank[k] - rank[k + 1]
                    where = (name, str(dom), a, k)
                    assert dim == (co[k].free_rank + vanishing(co, k, a)
                                   + vanishing(co, k + 1, a)), where
                    assert dim == (hom[k].free_rank + vanishing(hom, k, a)
                                   + vanishing(hom, k - 1, a)), where


def test_shift_theorem_frozen_dims():
    C = build_salvetti_complex(finite_type_system("A3"))
    report = verify_shift_theorem(C)
    assert report.ok
    assert tuple(d.m_dim for d in report.degrees) == (1, 2, 2, 0)
    B3 = verify_shift_theorem(
        build_salvetti_complex(finite_type_system("B3")))
    assert B3.ok
    assert tuple(d.m_dim for d in B3.degrees) == (1, 1, 3, 0)


def test_shift_theorem_policy_and_progress():
    C = build_salvetti_complex(finite_type_system("A2"))
    seen = []
    report = verify_shift_theorem(C, radius=40, progress=seen.append)
    assert report.ok
    assert [d.degree for d in seen] == [0, 1, 2]
    assert all(d.radius == 40 for d in report.degrees)


def test_shift_theorem_not_stabilized_history(monkeypatch):
    # a window whose dimension grows with its radius never stabilizes
    def moving(C, k, radius):
        return radius // 4, False

    # the package re-exports the function homology under the module's name
    module = importlib.import_module("artinfib.homology")
    monkeypatch.setattr(module, "m_cohomology_dim_window", moving)
    C = build_salvetti_complex(finite_type_system("A2"))
    with pytest.raises(NotStabilized) as info:
        verify_shift_theorem(C, radius=40)
    assert info.value.history == ((40, 10), (80, 20), (160, 40), (320, 80))
    assert info.value.radius == 320
    assert "degree 0" in str(info.value)


def test_shift_theorem_rejects_bad_complexes():
    f = parse_poly("2 - 2*q", ZZ)
    C = build_generic_complex(koszul_family((1, 2), [f, f], ZZ))
    with pytest.raises(NotWellFiltered) as info:
        verify_shift_theorem(C)
    assert info.value.trace.condition == "c"
    assert "condition (c)" in str(info.value)
    # well filtered over Z, but the window side needs a field
    g = parse_poly("1 - q", ZZ)
    wf_but_integral = build_generic_complex(koszul_family((1, 2), [g, g],
                                                          ZZ))
    with pytest.raises(UnsupportedDomain):
        verify_shift_theorem(wf_but_integral)


def test_shift_theorem_modular():
    report = verify_shift_theorem(
        build_salvetti_complex(finite_type_system("I2(9)"), GF(3)))
    assert report.ok
    assert report.degrees[1].m_dim == 8


def test_monodromy_frozen():
    A2 = build_salvetti_complex(finite_type_system("A2"))
    out = monodromy_char_poly(cohomology(A2))
    assert [format_poly(d.charpoly) for d in out] == \
        ["q - 1", "q^2 - q + 1"]
    assert out[0].cyclotomic == ((1, 1),)
    assert out[1].cyclotomic == ((6, 1),)
    assert out[0].non_cyclotomic is None

    I12 = build_salvetti_complex(finite_type_system("I2(12)"))
    out = monodromy_char_poly(cohomology(I12))
    assert out[1].cyclotomic == ((1, 1), (3, 1), (4, 1), (6, 1), (12, 1))

    A1 = build_salvetti_complex(finite_type_system("A1"))
    out = monodromy_char_poly(cohomology(A1))
    assert len(out) == 1 and out[0].cyclotomic == ((1, 1),)


def test_monodromy_modular_and_trivial():
    A2 = build_salvetti_complex(finite_type_system("A2"), GF(3))
    out = monodromy_char_poly(cohomology(A2))
    assert out[1].cyclotomic is None and out[1].non_cyclotomic is None
    assert format_poly(out[1].charpoly) == "q^2 + 2*q + 1"

    # no torsion above: constant characteristic polynomial
    Kz = build_generic_complex(koszul_family((1,), [LaurentPoly.zero(QQ)],
                                             QQ))
    out = monodromy_char_poly(cohomology(Kz))
    assert format_poly(out[0].charpoly) == "1"
    assert out[0].cyclotomic == ()


def test_random_koszul_shift():
    rng = random.Random(3)
    for _ in range(10):
        fam = random_koszul_family(rng.randint(1, 3), rng.randint(0, 10**6))
        report = verify_shift_theorem(build_generic_complex(fam))
        assert report.ok


MONODROMY_TYPES = [(name, QQ) for name in (
    "A2", "A3", "A4", "A5", "B3", "B4", "D4", "D5", "F4", "H3", "H4", "E6",
    "I2(5)", "I2(8)", "A1xB2", "A2xA2", "A1xH3")] + [(name, GF(3)) for name in (
        "A3", "B3", "H3", "F4", "E6", "H4", "A1xB2")]


@pytest.mark.parametrize("name,dom", MONODROMY_TYPES,
                         ids=[f"{n}-{d}" for n, d in MONODROMY_TYPES])
def test_fiber_torsion_divides_monodromy_order(name, dom):
    # independent of both Smith-form paths: the discriminant is weighted
    # homogeneous of degree 2N (N reflections), so the Milnor fiber's
    # monodromy h has h^(2N) = 1; every torsion factor of H^(k+1)(L_q)
    # divides q^(2N) - 1, and over Q, where h acts semisimply, none has a
    # repeated root
    system = system_from_string(name)
    N = poincare_poly(system).degree
    order = LaurentPoly.q_power(dom, 2 * N) - LaurentPoly.one(dom)
    groups = cohomology(build_salvetti_complex(system, dom))
    assert not groups[0].torsion
    for g in groups[1:]:
        for f in g.torsion:
            assert order.divrem(f)[1].is_zero(), (g.degree, format_poly(f))
            if dom is QQ:
                df = LaurentPoly(dom, 0, [i * c for i, c in
                                          enumerate(f.coeffs)][1:])
                assert f.xgcd(df)[0].span == 0, (g.degree, format_poly(f))
