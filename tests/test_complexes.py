"""Polynomial families, filtered complexes, and the well filtered check."""

import dataclasses
import itertools
import random
import time
from fractions import Fraction

import pytest

from artinfib.complexes import (CochainComplex, PolynomialFamily,
                                WellFilteredResult,
                                build_generic_complex,
                                build_salvetti_complex, check_cocycle_family,
                                check_d_squared, dump_family,
                                is_well_filtered, koszul_family,
                                parse_family, random_koszul_family,
                                salvetti_family, subsets_by_degree,
                                transpose_complex)
from artinfib.coxeter import (finite_type_system, poincare_quotient,
                              system_from_string)
from artinfib.domains import GF, QQ, ZZ
from artinfib.errors import (CocycleViolation, FamilyFormatError,
                             MissingEntry, RankMismatch, UnsupportedDomain)
from artinfib.cli import main
from artinfib.homology import cohomology, homology, verify_shift_theorem
from artinfib.laurent import (LaurentPoly, extremes_invertible, format_poly,
                              parse_poly)
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
    with pytest.raises(UnsupportedDomain, match="over Z/3, not Q"):
        PolynomialFamily(QQ, (1,), {(frozenset(), 1): LaurentPoly.one(GF(3))})


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


def test_cocycle_check_over_q_with_fractions():
    # the check over Q runs on the family times the lcm of its
    # denominators; a violation keeps its place and its file lines
    polys = [parse_poly(t, QQ) for t in ("1/2 - q", "-2/3 + q^2", "q^-1")]
    text = dump_family(koszul_family((1, 2, 3), polys, QQ))
    for dom in (QQ, GF(5)):
        fam = parse_family(text, dom)
        check_cocycle_family(fam)
        key = (frozenset({1}), 3)
        bad = dataclasses.replace(fam, entries={
            **fam.entries, key: fam.entries[key] + parse_poly("q/3", dom)})
        with pytest.raises(CocycleViolation) as info:
            check_cocycle_family(bad)
        assert (info.value.delta, info.value.w, info.value.w2,
                info.value.lines) == (set(), 1, 3, [1, 5, 3, 8]), dom
        assert str(info.value) == ("cocycle relation fails at Delta = {}, "
                                   "pair (1, 3) (lines [1, 3, 5, 8])"), dom


def test_complex_shape_validation():
    one = LaurentPoly.one(QQ)
    with pytest.raises(RankMismatch):
        CochainComplex(QQ, (1, 1), diffs=())
    with pytest.raises(RankMismatch):
        CochainComplex(QQ, (1, 2), diffs=(((one,),),))
    with pytest.raises(RankMismatch):
        CochainComplex(QQ, (2, 1), diffs=(((one,),),))


def test_matrices_must_be_the_familys():
    C = build_salvetti_complex(finite_type_system("A2"))
    assert [f.name for f in dataclasses.fields(CochainComplex)] == [
        "domain", "ranks", "diffs", "family"]
    assert C.gamma == (1, 2) and C.basis == subsets_by_degree((1, 2))
    assert CochainComplex(QQ, C.ranks, C.diffs, C.family) == C
    one = LaurentPoly.one(QQ)
    rank_one = koszul_family((1,), [one], QQ)
    # d^1 d^0 = 1 != 0, which the family's cocycle check cannot see
    with pytest.raises(RankMismatch, match="family"):
        CochainComplex(QQ, (1, 1, 1), (((one,),), ((one,),)),
                       family=rank_one)
    negated = tuple(tuple(tuple(-p for p in row) for row in d)
                    for d in C.diffs)
    with pytest.raises(RankMismatch, match="family"):
        CochainComplex(QQ, C.ranks, negated, C.family)
    with pytest.raises(RankMismatch, match="family"):
        CochainComplex(GF(3), C.ranks, C.diffs, C.family)


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


def reference_salvetti_family(system, dom):
    """Salvetti entries built one by one: the quotient, into ``dom``,
    q -> -q, then the sign."""
    entries = {}
    for level in subsets_by_degree(system.generators):
        for delta in level:
            for w in system.generators:
                if w in delta:
                    continue
                quot = poincare_quotient(system, delta, w)
                quot = LaurentPoly(dom, quot.val, quot.coeffs).subs_neg_q()
                if sum(1 for i in delta if i < w) % 2:
                    quot = -quot
                entries[(delta, w)] = quot
    return entries


def test_salvetti_family_matches_quotients_per_domain():
    names = [f"A{n}" for n in range(1, 7)] + [f"B{n}" for n in range(2, 7)] \
        + ["D4", "D5", "D6", "E6", "F4", "H3", "H4", "I2(5)", "I2(12)",
           "A1xB2"]
    for name in names:
        system = system_from_string(name)
        for dom in (QQ, ZZ, GF(2), GF(3), GF(5), GF(7)):
            fam = salvetti_family(system, dom)
            ref = reference_salvetti_family(system, dom)
            assert fam.domain is dom and fam.gamma == system.generators
            assert fam.entries == ref, (name, dom)
            assert all(list(map(type, p.coeffs))
                       == list(map(type, ref[key].coeffs))
                       for key, p in fam.entries.items()), (name, dom)


def test_salvetti_quotients_divided_once_per_matrix(monkeypatch, capsys):
    # --coeff Z builds the complex over Q and over four prime fields
    import artinfib.complexes as complexes
    calls = []

    def counted(system, delta, w):
        calls.append((frozenset(delta), w))
        return poincare_quotient(system, delta, w)

    monkeypatch.setattr(complexes, "poincare_quotient", counted)
    complexes._salvetti_integers.cache_clear()
    assert main(["cohomology", "--type", "B4", "--coeff", "Z",
                 "--format", "json"]) == 0
    assert len(calls) == len(set(calls)) == 4 * 2 ** 3


def test_salvetti_a2_matrices():
    C = build_salvetti_complex(finite_type_system("A2"))
    assert C.ranks == (1, 2, 1)
    assert fmt_matrix(C.diff(0)) == [["-q + 1"], ["-q + 1"]]
    assert fmt_matrix(C.diff(1)) == [["-q^2 + q - 1", "q^2 - q + 1"]]
    assert check_d_squared(C)


def test_salvetti_b2_matrices():
    C = build_salvetti_complex(finite_type_system("B2"))
    assert fmt_matrix(C.diff(0)) == [["-q + 1"], ["-q + 1"]]
    assert fmt_matrix(C.diff(1)) == [
        ["q^3 - q^2 + q - 1", "-q^3 + q^2 - q + 1"]]
    assert check_d_squared(C)
    # the scalar joining the two deepest layers of the standard
    # filtration, p[Gamma - g, g] with g the least generator
    assert format_poly(C.family.get({2}, 1)) == "-q^3 + q^2 - q + 1"
    A3 = build_salvetti_complex(finite_type_system("A3"))
    assert format_poly(A3.family.get({2, 3}, 1)) == "-q^3 + q^2 - q + 1"


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

    # a rank-1 family is checked too; only a single cell passes as such
    rank_one = build_generic_complex(koszul_family((1,), [f], ZZ))
    res = is_well_filtered(rank_one)
    assert not res.ok and res.condition == "c" and res.path == ()
    assert is_well_filtered(build_generic_complex(
        PolynomialFamily(ZZ, (), {}))).ok


def test_well_filtered_structure_failures():
    C = build_salvetti_complex(finite_type_system("A2"))
    res = is_well_filtered(transpose_complex(C))
    assert not res.ok and res.condition == "structure"


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
    families = []
    original_post_init = PolynomialFamily.__post_init__
    monkeypatch.setattr(PolynomialFamily, "__post_init__",
                        lambda family: families.append(family) or
                        original_post_init(family))
    assert is_well_filtered(C).ok
    assert built == [] and families == []


def _recursive_well_filtered(family, path=()):
    """The check as a recursion over the quotient families F_i / F_{i+1}:
    the connecting scalar p[Gamma - g, g] of each, g its least
    generator, its own first and then its quotients' in order."""
    gamma = family.gamma
    p = family.get(gamma[1:], gamma[0])
    if p.is_zero():
        return WellFilteredResult(False, path, "c",
                                  "connecting scalar is zero")
    if not extremes_invertible(p):
        return WellFilteredResult(
            False, path, "c", f"connecting scalar {format_poly(p)} has "
            f"non-invertible extreme coefficients")
    for i in range(len(gamma) - 1):
        fixed = frozenset(gamma[len(gamma) - i:])
        low = gamma[:len(gamma) - i - 1]
        entries = {(frozenset(delta), w): family.get(set(delta) | fixed, w)
                   for k in range(len(low) + 1)
                   for delta in itertools.combinations(low, k)
                   for w in low if w not in delta}
        sub = _recursive_well_filtered(
            PolynomialFamily(family.domain, low, entries), path + (i,))
        if not sub.ok:
            return sub
    return WellFilteredResult(True, path)


def test_well_filtered_matches_recursion_over_quotients(monkeypatch):
    # random families whose entries need not satisfy the cocycle
    # relation (its check is switched off), so that zero entries and
    # non-unit extremes can sit under any quotient path
    import artinfib.complexes as complexes
    monkeypatch.setattr(complexes, "check_cocycle_family", lambda f: None)
    rng = random.Random(28)

    def poly(domain, bad):
        if bad and (domain is not ZZ or rng.random() < 0.5):
            return LaurentPoly.zero(domain)
        ends = (2, -2, 3) if bad else (1, -1)
        coeffs = ([rng.choice(ends)]
                  + [rng.randint(-2, 2) for _ in range(rng.randint(0, 2))]
                  + [rng.choice((1, -1))])
        if rng.random() < 0.5:
            coeffs.reverse()
        return LaurentPoly(domain, rng.randint(-1, 1), tuple(coeffs))

    paths = set()
    for trial in range(600):
        domain = ZZ if trial % 2 else GF(3)
        gamma = tuple(range(1, rng.randint(1, 6) + 1))
        keys = [(frozenset(delta), w) for k in range(len(gamma))
                for delta in itertools.combinations(gamma, k)
                for w in gamma if w not in delta]
        scalars = [key for key in keys if key[1] == gamma[0]]
        if trial % 3:
            # one bad connecting scalar, anywhere
            bad = {rng.choice(scalars)}
        else:
            rate = rng.choice((0.0, 0.05, 0.2, 0.5))
            bad = {key for key in scalars if rng.random() < rate}
        entries = {key: poly(domain, key in bad) for key in keys}
        family = PolynomialFamily(domain, gamma, entries)
        res = is_well_filtered(build_generic_complex(family))
        ref = _recursive_well_filtered(family)
        assert ((res.ok, res.path, res.condition, res.message)
                == (ref.ok, ref.path, ref.condition, ref.message)), trial
        paths.add(res.path)
    # failures were found at every depth of the quotient recursion
    assert {len(path) for path in paths} == set(range(6))


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


def test_mat_mul_on_integers_matches_sum_of_products():
    # over Q each row of a and each column of b is cleared to integers
    # once; the result must be the plain sum of LaurentPoly products
    rng = random.Random(8)
    for trial in range(300):
        dom = (QQ, GF(3), GF(7), ZZ)[trial % 4]
        m, k, n = (rng.randint(0, 4) for _ in range(3))
        dens = (1, 2, 3, 6) if dom is QQ else (1,)
        a, b = (tuple(tuple(_random_entry(rng, dom, dens) for _ in range(c))
                      for _ in range(r)) for r, c in ((m, k), (k, n)))
        # a row-free b cannot carry its columns, so k = 0 gives no columns
        cols = n if k else 0
        want = tuple(tuple(sum((a[i][t] * b[t][j] for t in range(k)),
                               LaurentPoly.zero(dom)) for j in range(cols))
                     for i in range(m)) if m else ()
        assert mat_mul(a, b, dom) == want, (trial, dom)
    # zero matrices of every small shape
    zero = LaurentPoly.zero(QQ)
    Z = lambda r, c: tuple(tuple(zero for _ in range(c)) for _ in range(r))
    for m, k, n in itertools.product(range(1, 3), repeat=3):
        assert mat_mul(Z(m, k), Z(k, n), QQ) == Z(m, n)


def _random_entry(rng, dom, dens):
    if rng.random() < 0.3:
        return LaurentPoly.zero(dom)
    coeffs = [Fraction(rng.randint(-5, 5), rng.choice(dens))
              for _ in range(rng.randint(1, 4))]
    if dom is not QQ:
        coeffs = [int(c) for c in coeffs]
    return LaurentPoly(dom, rng.randint(-3, 3), coeffs)


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


def test_dump_family_parses_back_for_accepted_types():
    # a sum is added up by exponent, so the two lines of I2(10^5), of
    # 10^5 terms each, parse in linear time
    cases = [(name, dom) for name in ("A4", "B5", "D6", "E8", "F4", "H4",
                                      "I2(12)", "A2xA2")
             for dom in (QQ, GF(3))] + [("I2(100000)", GF(3))]
    for name, dom in cases:
        fam = salvetti_family(system_from_string(name), dom)
        start = time.perf_counter()
        assert parse_family(dump_family(fam), dom).entries == fam.entries, \
            (name, dom)
        assert time.perf_counter() - start < 30.0, (name, dom)


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
    # too many generators are refused at the line that brings one more
    # than the limit, MAX_TOTAL_RANK unless the caller sets one
    text = "".join(f"- ; {i} ; 1\n" for i in range(1, 41))
    for limit, line in ((None, 13), (9, 10), (1, 2)):
        with pytest.raises(FamilyFormatError) as info:
            if limit is None:
                parse_family(text, QQ)
            else:
                parse_family(text, QQ, max_generators=limit)
        assert info.value.line == line
        assert f"more than {line - 1} generators" in str(info.value)


def test_parse_family_cocycle_lines():
    text = "- ; 1 ; 1\n- ; 2 ; 1\n1 ; 2 ; 1\n2 ; 1 ; 1\n"
    with pytest.raises(CocycleViolation) as info:
        parse_family(text, QQ)
    assert info.value.lines == [1, 3, 2, 4]
    assert "lines [1, 2, 3, 4]" in str(info.value)
