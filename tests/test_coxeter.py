"""Finite type labels, Coxeter systems, and Poincare polynomials."""

import importlib
import itertools
import math
import random
import time

import pytest

from artinfib.coxeter import (_CARTAN, MAX_DIHEDRAL_ORDER, CoxeterSystem,
                              FiniteTypeLabel, finite_type_system,
                              parabolic_components,
                              parse_label, poincare_poly,
                              poincare_poly_bruteforce, poincare_quotient,
                              system_from_string)
from artinfib.domains import QQ, ZZ
from artinfib.errors import (GroupTooLarge, InfiniteGroup, InvalidRank,
                             NotFiniteType)
from artinfib.laurent import parse_poly

coxeter = importlib.import_module("artinfib.coxeter")


def test_label_parse_and_validation():
    assert str(parse_label("A5")) == "A5"
    assert str(parse_label(" I2(7) ")) == "I2(7)"
    assert parse_label("B2") == FiniteTypeLabel("B", 2)
    for bad in ("A0", "E9", "E5", "I2(2)", "H5", "F3", "C3", "A", "I2()"):
        with pytest.raises(InvalidRank):
            parse_label(bad)
    with pytest.raises(InvalidRank):
        FiniteTypeLabel("A", 3, 5)
    # a non-integer rank or order is refused, not truncated to a type
    for bad in (("I", 2, 3.5), ("I", 2, "5"), ("A", 2.0)):
        with pytest.raises(TypeError):
            FiniteTypeLabel(*bad)


GROUP_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120,
    "B2": 8, "B3": 48, "B4": 384,
    "D4": 192, "D5": 1920,
    "E6": 51840, "E7": 2903040, "E8": 696729600,
    "F4": 1152, "H3": 120, "H4": 14400,
    "I2(5)": 10, "I2(7)": 14,
}


def test_degree_tables():
    assert parse_label("A4").degrees() == (2, 3, 4, 5)
    assert parse_label("B3").degrees() == (2, 4, 6)
    assert parse_label("D5").degrees() == (2, 4, 6, 8, 5)
    assert parse_label("E7").degrees() == (2, 6, 8, 10, 12, 14, 18)
    assert parse_label("F4").degrees() == (2, 6, 8, 12)
    assert parse_label("H4").degrees() == (2, 12, 20, 30)
    assert parse_label("I2(9)").degrees() == (2, 9)
    for name, order in GROUP_ORDERS.items():
        assert parse_label(name).group_order() == order


def test_diagram_shapes():
    b3 = finite_type_system("B3")
    assert b3.m(1, 2) == 3 and b3.m(2, 3) == 4 and b3.m(1, 3) == 2
    h3 = finite_type_system("H3")
    assert h3.m(1, 2) == 5 and h3.m(2, 3) == 3
    # the E-series branch node sits fourth along the chain
    e6 = finite_type_system("E6")
    comps = parabolic_components(e6, {1, 2, 3, 5, 6})
    names = sorted(str(label) for label, _ in comps)
    assert names == ["A1", "A2", "A2"]
    d4 = finite_type_system("D4")
    assert sorted(d4.m(i, j) for i, j in ((1, 2), (2, 3), (2, 4))) == [3, 3, 3]
    assert d4.m(3, 4) == 2


def test_system_validation():
    with pytest.raises(ValueError):
        CoxeterSystem(((1, 3), (3, 1), (2, 2)))
    with pytest.raises(ValueError):
        CoxeterSystem(((2,),))
    with pytest.raises(ValueError):
        CoxeterSystem(((1, 3), (4, 1)))
    with pytest.raises(ValueError):
        CoxeterSystem(((1, 1), (1, 1)))
    # entries are integers: 3.7 is not read as 3, nor "4" as 4
    for bad in (((1, 3.7), (3.7, 1)), ((1, "4"), ("4", 1)),
                ((1.0, 3), (3, 1))):
        with pytest.raises(TypeError):
            CoxeterSystem(bad)


def test_entry_above_dihedral_cap_fails_at_construction(monkeypatch):
    # q_bracket(m) stores m coefficients, so an entry past the cap is
    # refused with the system, before any polynomial is built
    def never(*args, **kwargs):
        raise AssertionError("built a polynomial for a refused system")

    monkeypatch.setattr(coxeter, "q_bracket", never)
    big = MAX_DIHEDRAL_ORDER + 1
    with pytest.raises(InvalidRank):
        poincare_poly(CoxeterSystem(((1, big), (big, 1))))
    with pytest.raises(InvalidRank):
        CoxeterSystem(((1, 3, 2), (3, 1, big), (2, big, 1)))
    with pytest.raises(InvalidRank):
        system_from_string(f"A2xI2({big})")
    at_cap = MAX_DIHEDRAL_ORDER
    assert CoxeterSystem(((1, at_cap), (at_cap, 1))).m(1, 2) == at_cap


def test_products_and_irreducibility():
    s = system_from_string("A1xA1")
    assert s.n == 2 and s.m(1, 2) == 2
    assert not s.is_irreducible()
    assert finite_type_system("A2").is_irreducible()
    t = system_from_string("A2 x B2")
    assert t.n == 4 and t.m(1, 2) == 3 and t.m(3, 4) == 4 and t.m(2, 3) == 2
    comps = parabolic_components(t, t.generators)
    assert sorted(str(label) for label, _ in comps) == ["A2", "B2"]
    # a dropped factor would compute A1, A2 or A1xB2 under the wrong name
    for label in ("A1x", "xA2", "A1xxB2", "A1 x x B2", "x", ""):
        with pytest.raises(InvalidRank):
            system_from_string(label)


def test_classification_of_relabeled_systems():
    rng = random.Random(23)
    names = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
             + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8", "F4"]
             + ["H3", "H4", "I2(5)", "I2(11)", "I2(12)"])
    for name in names:
        base = finite_type_system(name)
        n = base.n
        for _ in range(4):
            perm = list(range(n))
            rng.shuffle(perm)
            mat = tuple(tuple(base.matrix[perm[i]][perm[j]]
                              for j in range(n)) for i in range(n))
            shuffled = CoxeterSystem(mat)
            comps = parabolic_components(shuffled, shuffled.generators)
            assert len(comps) == 1
            label, gens = comps[0]
            assert str(label) == name
            assert sorted(gens) == list(shuffled.generators)


def test_poincare_matches_bruteforce():
    # every finite_type_system label through rank 6, and dihedral
    # groups on each enumeration path
    names = ([f"A{n}" for n in range(1, 7)] + [f"B{n}" for n in range(2, 7)]
             + ["D4", "D5", "D6", "E6", "F4", "H3", "H4"]
             + [f"I2({m})" for m in (3, 4, 5, 6, 7, 12, 1000)])
    for name in names:
        system = finite_type_system(name)
        table = poincare_poly(system)
        brute = poincare_poly_bruteforce(system)
        assert table == brute, name
        assert table.evaluate(1) == QQ.normalize(
            parse_label(name).group_order())


def test_dihedral_bruteforce_linear_in_m():
    # I2(m) walks its 2m chambers, so the largest accepted m is in reach
    system = finite_type_system(f"I2({MAX_DIHEDRAL_ORDER})")
    start = time.perf_counter()
    brute = poincare_poly_bruteforce(system)
    assert time.perf_counter() - start < 10.0
    assert brute == poincare_poly(system)


def test_poincare_of_parabolic():
    a3 = finite_type_system("A3")
    assert poincare_poly(a3, {1, 3}) == parse_poly("(1 + q)^2", ZZ)
    assert poincare_poly(a3, set()) == parse_poly("1", ZZ)
    quot = poincare_quotient(a3, {1, 2}, 3)
    assert quot == parse_poly("1 + q + q^2 + q^3", ZZ)
    with pytest.raises(InvalidRank):
        poincare_quotient(a3, {1, 2}, 2)


def test_not_finite_type():
    # a 3-cycle of simple edges is affine, not finite
    circuit = CoxeterSystem(((1, 3, 3), (3, 1, 3), (3, 3, 1)))
    with pytest.raises(NotFiniteType):
        parabolic_components(circuit, {1, 2, 3})
    with pytest.raises(NotFiniteType):
        poincare_poly(circuit)
    # two 4-edges on a path of rank 3
    with pytest.raises(NotFiniteType):
        parabolic_components(CoxeterSystem(((1, 4, 2), (4, 1, 4),
                                            (2, 4, 1))), {1, 2, 3})


def test_cartan_table():
    # c_ab * c_ba over Z[phi] (pairs (a, b) = a + b phi, phi^2 = phi + 1)
    # is 4 cos^2(pi / m), the value a faithful reflection pairing needs
    phi = (1 + math.sqrt(5)) / 2
    products = {}
    for m, ((a1, b1), (a2, b2)) in _CARTAN.items():
        products[m] = (a1 * a2 + b1 * b2, a1 * b2 + b1 * a2 + b1 * b2)
        value = products[m][0] + products[m][1] * phi
        assert math.isclose(value, 4 * math.cos(math.pi / m) ** 2), m
    assert products == {3: (1, 0), 4: (2, 0), 5: (1, 1)}


def test_bruteforce_guards():
    with pytest.raises(GroupTooLarge):
        poincare_poly_bruteforce(finite_type_system("E6"), bound=100)
    with pytest.raises(GroupTooLarge):
        poincare_poly_bruteforce(finite_type_system("I2(60)"), bound=100)
    seven = CoxeterSystem(((1, 7, 2), (7, 1, 3), (2, 3, 1)))
    with pytest.raises(InfiniteGroup):
        poincare_poly_bruteforce(seven)


def test_rank_three_label_six_refused_before_enumeration():
    # G2's label 6 closes up only in rank 2: a rank-3 tree carrying it
    # is infinite, and is refused before a single point is walked
    tree = CoxeterSystem(((1, 4, 2), (4, 1, 6), (2, 6, 1)))
    with pytest.raises(InfiniteGroup):
        poincare_poly_bruteforce(tree, bound=10)


# every tree on 3, 4 and 5 nodes, up to isomorphism, with the edge
# labels tried on it and the enumeration bound that separates the finite
# groups of that rank (largest: H3 = 120, H4 = 14400, B5 = 3840) from the
# infinite ones
TREES = (
    (3, ((1, 2), (2, 3)), (3, 4, 5, 6), 200),
    (4, ((1, 2), (2, 3), (3, 4)), (3, 4, 5, 6), 15000),
    (4, ((1, 2), (2, 3), (2, 4)), (3, 4, 5, 6), 15000),
    (5, ((1, 2), (2, 3), (3, 4), (4, 5)), (3, 4, 5), 4000),
    (5, ((1, 2), (2, 3), (3, 4), (3, 5)), (3, 4, 5), 4000),
    (5, ((1, 2), (2, 3), (2, 4), (2, 5)), (3, 4, 5), 4000),
)


def test_classifier_agrees_with_enumeration_on_labelled_trees():
    # the degree tables (through the classifier) and the brute force
    # enumeration must agree on every labelled tree: both polynomials
    # where the group is finite, both refusals where it is not
    rng = random.Random(31)
    seen, finite = 0, 0
    for n, edges, labels, bound in TREES:
        for marks in itertools.product(labels, repeat=len(edges)):
            # a random numbering, so no shape comes in one order only
            perm = list(range(n))
            rng.shuffle(perm)
            mat = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
            for (a, b), m in zip(edges, marks):
                mat[perm[a - 1]][perm[b - 1]] = m
                mat[perm[b - 1]][perm[a - 1]] = m
            system = CoxeterSystem(mat)
            try:
                table = poincare_poly(system)
            except NotFiniteType:
                table = None
            try:
                brute = poincare_poly_bruteforce(system, bound=bound)
            except (GroupTooLarge, InfiniteGroup):
                brute = None
            assert table == brute, (mat, table, brute)
            seen += 1
            finite += table is not None
    # finite: A3, B3 and H3 (the last two either way round), A4, B4 and
    # H4 (either way round), F4, D4, A5, B5 (either way round) and D5
    assert (seen, finite) == (387, 16)
    # one arm too long for E8: the affine E8, whose group is infinite
    e8 = [[1 if i == j else 2 for j in range(9)] for i in range(9)]
    for a, b in ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9),
                 (2, 4)):
        e8[a - 1][b - 1] = e8[b - 1][a - 1] = 3
    with pytest.raises(NotFiniteType):
        poincare_poly(CoxeterSystem(e8))
