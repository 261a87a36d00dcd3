"""Polynomial families, filtered complexes, and the well filtered check."""

import pytest

from artinfib.complexes import (CochainComplex, PolynomialFamily,
                                build_generic_complex,
                                build_salvetti_complex, check_cocycle_family,
                                check_d_squared, dump_family,
                                induced_differential, is_well_filtered,
                                koszul_family, parse_family,
                                quotient_complex, random_koszul_family,
                                standard_filtration, subsets_by_degree,
                                top_subset, transpose_complex)
from artinfib.coxeter import finite_type_system
from artinfib.domains import GF, QQ, ZZ
from artinfib.errors import (CocycleViolation, FamilyFormatError,
                             IndexOutOfRange, MissingEntry, NotSubsetIndexed,
                             RankMismatch)
from artinfib.cli import main
from artinfib.homology import cohomology, homology, verify_shift_theorem
from artinfib.laurent import LaurentPoly, format_poly, parse_poly
from artinfib.rmatrix import mat_mul


def fmt_matrix(mat):
    return [[format_poly(p) for p in row] for row in mat]


def test_subsets_by_degree_order():
    levels = subsets_by_degree((1, 2, 3))
    assert levels[0] == (frozenset(),)
    assert levels[1] == (frozenset({1}), frozenset({2}), frozenset({3}))
    assert levels[2] == (frozenset({1, 2}), frozenset({1, 3}),
                         frozenset({2, 3}))
    assert levels[3] == (frozenset({1, 2, 3}),)


def test_family_totality_and_keys():
    one = LaurentPoly.one(QQ)
    with pytest.raises(MissingEntry):
        PolynomialFamily(QQ, (1, 2), {(frozenset(), 1): one})
    with pytest.raises(ValueError):
        PolynomialFamily(QQ, (1,), {(frozenset({1}), 1): one})
    with pytest.raises(ValueError):
        PolynomialFamily(QQ, (1,), {(frozenset(), 2): one})
    fam = PolynomialFamily(QQ, (1,), {(frozenset(), 1): one})
    assert fam.rank == 1 and fam.get((), 1) == one
    with pytest.raises(MissingEntry):
        fam.get((1,), 2)


def test_cocycle_violation_attributes():
    one = LaurentPoly.one(QQ)
    bad = PolynomialFamily(QQ, (1, 2), {
        (frozenset(), 1): one, (frozenset(), 2): one,
        (frozenset({1}), 2): one, (frozenset({2}), 1): one,
    })
    with pytest.raises(CocycleViolation) as info:
        check_cocycle_family(bad)
    assert info.value.delta == set() and {info.value.w, info.value.w2} == {1, 2}
    with pytest.raises(CocycleViolation):
        build_generic_complex(bad)


def test_complex_shape_validation():
    one = LaurentPoly.one(QQ)
    with pytest.raises(RankMismatch):
        CochainComplex(QQ, (1, 1), diffs=())
    with pytest.raises(RankMismatch):
        CochainComplex(QQ, (1, 2), diffs=(((one,),),))
    with pytest.raises(RankMismatch):
        CochainComplex(QQ, (2, 1), diffs=(((one,),),))


def test_non_complex_rejected_at_construction():
    f = parse_poly("1 - q", QQ)
    # d^0 d^-1 is vacuous, d^1 d^0 = (f f) (f, -f)^T = 0, d^2 d^1 != 0
    with pytest.raises(RankMismatch, match="d\\^2 != 0"):
        CochainComplex(QQ, (1, 2, 1, 1),
                       (((f,), (-f,)), ((f, f),), ((f,),)))


@pytest.fixture
def d_squared_checks(monkeypatch):
    """Names of the d^2 = 0 checks run, counted at every binding."""
    import sys
    import artinfib.complexes as complexes
    runs = []
    for name in ("check_cocycle_family", "check_d_squared"):
        original = getattr(complexes, name)

        def counted(*args, _name=name, _original=original):
            runs.append(_name)
            return _original(*args)

        for mname, module in list(sys.modules.items()):
            if mname == "artinfib" or mname.startswith("artinfib."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
    return runs


def test_d_squared_checked_once_per_complex(d_squared_checks):
    cohomology(build_salvetti_complex(finite_type_system("E6")))
    assert d_squared_checks == ["check_cocycle_family"]
    d_squared_checks.clear()
    assert verify_shift_theorem(
        build_salvetti_complex(finite_type_system("A3"))).ok
    assert d_squared_checks == ["check_cocycle_family"]
    d_squared_checks.clear()
    # a matrix complex, such as a transpose, is checked on its matrices
    T = transpose_complex(build_salvetti_complex(finite_type_system("A2")))
    homology(T)
    assert d_squared_checks == ["check_cocycle_family", "check_d_squared"]


def test_family_file_checked_on_entry_and_on_build(d_squared_checks,
                                                   tmp_path, capsys):
    path = tmp_path / "fam.txt"
    path.write_text(FAMILY_TEXT)
    assert main(["family", "--family", str(path), "--format", "json"]) == 0
    assert d_squared_checks == ["check_cocycle_family"] * 2


def test_salvetti_a2_matrices():
    C = build_salvetti_complex(finite_type_system("A2"))
    assert C.ranks == (1, 2, 1)
    assert fmt_matrix(C.diff(0)) == [["-q + 1"], ["-q + 1"]]
    assert fmt_matrix(C.diff(1)) == [["-q^2 + q - 1", "q^2 - q + 1"]]
    assert check_d_squared(C)
    assert C.basis_index(1, {2}) == 1


def test_salvetti_b2_matrices():
    C = build_salvetti_complex(finite_type_system("B2"))
    assert fmt_matrix(C.diff(0)) == [["-q + 1"], ["-q + 1"]]
    assert fmt_matrix(C.diff(1)) == [
        ["q^3 - q^2 + q - 1", "-q^3 + q^2 - q + 1"]]
    assert check_d_squared(C)


def test_salvetti_d_squared_all_rank_3():
    for name in ("A3", "B3", "H3", "A1xA1"):
        from artinfib.coxeter import system_from_string
        C = build_salvetti_complex(system_from_string(name))
        assert check_d_squared(C), name


def test_koszul_families():
    f = parse_poly("1 - q", QQ)
    fam = koszul_family((1, 2), [f, f], QQ)
    assert fam.get((), 1) == f and fam.get((), 2) == f
    assert fam.get((2,), 1) == f
    # adding generator 2 past generator 1 flips the sign
    assert fam.get((1,), 2) == -f
    C = build_generic_complex(fam)
    assert check_d_squared(C)

    a = random_koszul_family(3, 81)
    b = random_koszul_family(3, 81)
    assert a.entries == b.entries
    assert a.entries != random_koszul_family(3, 82).entries
    for w in a.gamma:
        p = a.get((), w)
        assert int(abs(p.coeffs[0])) == 1 and int(abs(p.coeffs[-1])) == 1
        assert p.span <= 3


def test_standard_filtration_levels():
    C = build_salvetti_complex(finite_type_system("A2"))
    F = standard_filtration(C)
    e, s1, s2, g = (frozenset(), frozenset({1}), frozenset({2}),
                    frozenset({1, 2}))
    assert F.levels == (frozenset({e, s1, s2, g}), frozenset({s2, g}),
                        frozenset({g}), frozenset())
    assert top_subset((1, 2, 3), 2) == frozenset({2, 3})
    with pytest.raises(IndexOutOfRange):
        top_subset((1, 2), 3)
    with pytest.raises(NotSubsetIndexed):
        standard_filtration(transpose_complex(C))


def test_quotient_complex_entries():
    C = build_salvetti_complex(finite_type_system("A3"))
    F = standard_filtration(C)
    q0 = quotient_complex(F, 0)
    assert q0.gamma == (1, 2)
    assert format_poly(q0.family.get((), 1)) == "-q + 1"
    q1 = quotient_complex(F, 1)
    assert q1.gamma == (1,)
    assert format_poly(q1.family.get((), 1)) == "-q + 1"
    q3 = quotient_complex(F, 3)
    assert q3.ranks == (1,)
    with pytest.raises(IndexOutOfRange):
        quotient_complex(F, 4)


def test_induced_differential():
    C = build_salvetti_complex(finite_type_system("A3"))
    F = standard_filtration(C)
    assert format_poly(induced_differential(F)) == "-q^3 + q^2 - q + 1"
    B2 = standard_filtration(build_salvetti_complex(finite_type_system("B2")))
    assert format_poly(induced_differential(B2)) == "-q^3 + q^2 - q + 1"


def test_well_filtered_salvetti():
    for name in ("A1", "A2", "A3", "B3", "H3", "I2(7)"):
        C = build_salvetti_complex(finite_type_system(name))
        assert is_well_filtered(C).ok, name


def test_well_filtered_koszul_with_zero_tail():
    f = parse_poly("1 - q", QQ)
    C = build_generic_complex(koszul_family((1, 2),
                                            [f, LaurentPoly.zero(QQ)], QQ))
    assert is_well_filtered(C).ok


def test_well_filtered_condition_c():
    f = parse_poly("2 - 2*q", ZZ)
    g = parse_poly("1 - q", ZZ)
    C = build_generic_complex(koszul_family((1, 2), [f, g], ZZ))
    res = is_well_filtered(C)
    assert not res.ok and res.condition == "c" and res.path == ()
    assert "extreme" in res.message

    zero_first = build_generic_complex(
        koszul_family((1, 2), [LaurentPoly.zero(QQ),
                               parse_poly("1 - q", QQ)], QQ))
    res = is_well_filtered(zero_first)
    assert not res.ok and res.condition == "c"
    assert "zero" in res.message


def test_well_filtered_structure_failures():
    C = build_salvetti_complex(finite_type_system("A2"))
    res = is_well_filtered(transpose_complex(C))
    assert not res.ok and res.condition == "structure"
    other = build_salvetti_complex(finite_type_system("A2"))
    res = is_well_filtered(other, standard_filtration(C))
    assert not res.ok and res.condition == "structure"
    assert "different complex" in res.message


def test_well_filtered_failure_in_quotient():
    # entries chosen so the top connecting scalar is fine but the
    # first quotient's extreme coefficients are even
    entries = {
        (frozenset(), 1): parse_poly("2 - 2*q", ZZ),
        (frozenset(), 2): parse_poly("-2", ZZ),
        (frozenset({1}), 2): parse_poly("1", ZZ),
        (frozenset({2}), 1): parse_poly("1 - q", ZZ),
    }
    C = build_generic_complex(PolynomialFamily(ZZ, (1, 2), entries))
    res = is_well_filtered(C)
    assert not res.ok and res.condition == "c" and res.path == (0,)


def test_well_filtered_failure_two_levels_down():
    # checked in order: p[{2,3},1] at (), p[{2},1] at (0,), p[{},1] at
    # (0, 0), p[{3},1] at (1,); only p[{},1] = 2 - 2q is bad over Z
    one, f = parse_poly("1", ZZ), parse_poly("1 - q", ZZ)
    entries = {
        (frozenset(), 1): parse_poly("2 - 2*q", ZZ),
        (frozenset(), 2): parse_poly("-2", ZZ),
        (frozenset(), 3): parse_poly("-2", ZZ),
        (frozenset({1}), 2): one,
        (frozenset({1}), 3): one,
        (frozenset({2}), 1): f,
        (frozenset({2}), 3): one,
        (frozenset({3}), 1): f,
        (frozenset({3}), 2): -one,
        (frozenset({1, 2}), 3): one,
        (frozenset({1, 3}), 2): -one,
        (frozenset({2, 3}), 1): -f,
    }
    C = build_generic_complex(PolynomialFamily(ZZ, (1, 2, 3), entries))
    res = is_well_filtered(C)
    assert not res.ok and res.condition == "c" and res.path == (0, 0)
    assert "extreme" in res.message


def test_well_filtered_assembles_no_complex(monkeypatch):
    import artinfib.complexes as complexes
    C = build_salvetti_complex(finite_type_system("E6"))
    built = []
    original = complexes.build_generic_complex
    monkeypatch.setattr(complexes, "build_generic_complex",
                        lambda family: built.append(family) or
                        original(family))
    assert is_well_filtered(C).ok
    assert built == []


def test_transpose_involution():
    C = build_salvetti_complex(finite_type_system("B2"))
    T = transpose_complex(C)
    assert T.ranks == tuple(reversed(C.ranks))
    assert T.gamma is None and T.family is None
    back = transpose_complex(T)
    assert back.ranks == C.ranks and back.diffs == C.diffs


def test_transpose_zero_rank_degree():
    f = parse_poly("1 - q", QQ)
    C = CochainComplex(QQ, (1, 1, 0), (((f,),), ()))
    T = transpose_complex(C)
    assert T.ranks == (0, 1, 1)
    hom = [str(g) for g in homology(C)]
    # H_0 = R/(q - 1) from d^0, H_1 = ker (1 - q) = 0, H_2 = 0
    assert hom == ["R/(q - 1)", "0", "0"]
    co = [str(g) for g in cohomology(T)]
    assert co == hom[::-1]


def test_mat_mul_row_free_factors():
    f = parse_poly("1 - q", QQ)
    B = ((f, f),)
    assert mat_mul((), B, QQ) == ()
    assert mat_mul((), (), QQ) == ()
    # a 2x0 factor times the 0x0 matrix () gives two empty rows
    assert mat_mul(((), ()), (), QQ) == ((), ())
    with pytest.raises(ValueError):
        mat_mul(((f,),), ((f,), (f,)), QQ)
    # d^1 d^0 != 0 is still caught next to a zero-rank degree
    with pytest.raises(RankMismatch, match="d\\^2 != 0"):
        CochainComplex(QQ, (1, 1, 1, 0), (((f,),), ((f,),), ()))
    C = CochainComplex(QQ, (0, 1, 0, 1), (((),), (), ((),)))
    assert check_d_squared(C)


FAMILY_TEXT = """\
# rank-2 family with a trivial tail
- ; 1 ; 1 - q
- ; 2 ; 0
1 ; 2 ; 0
2 ; 1 ; 1 - q
"""


def test_parse_family_round_trip():
    fam = parse_family(FAMILY_TEXT, QQ)
    assert fam.gamma == (1, 2)
    assert fam.line_of((2,), 1) == 5
    again = parse_family(dump_family(fam), QQ)
    assert again.entries == fam.entries

    rnd = random_koszul_family(3, 7)
    assert parse_family(dump_family(rnd), QQ).entries == rnd.entries


def test_parse_family_errors():
    with pytest.raises(FamilyFormatError) as info:
        parse_family("- ; 1\n", QQ)
    assert info.value.line == 1
    with pytest.raises(FamilyFormatError) as info:
        parse_family("- ; 1 ; 1\n1,x ; 2 ; 1\n", QQ)
    assert info.value.line == 2
    with pytest.raises(FamilyFormatError) as info:
        parse_family("1 ; 1 ; 1\n", QQ)
    assert "already in the subset" in str(info.value)
    with pytest.raises(FamilyFormatError) as info:
        parse_family("- ; 1 ; 1\n- ; 1 ; q\n", QQ)
    assert "first on line 1" in str(info.value)
    with pytest.raises(FamilyFormatError):
        parse_family("# only comments\n", QQ)
    with pytest.raises(FamilyFormatError) as info:
        parse_family("- ; 1 ; q^\n", QQ)
    assert info.value.line == 1
    # totality is enforced after parsing
    with pytest.raises(MissingEntry):
        parse_family("- ; 1 ; 1\n- ; 2 ; 1\n1 ; 2 ; 1\n", QQ)


def test_parse_family_cocycle_lines():
    text = "- ; 1 ; 1\n- ; 2 ; 1\n1 ; 2 ; 1\n2 ; 1 ; 1\n"
    with pytest.raises(CocycleViolation) as info:
        parse_family(text, QQ)
    assert info.value.lines == [1, 3, 2, 4]
    assert "lines [1, 2, 3, 4]" in str(info.value)
