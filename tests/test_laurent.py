"""Laurent polynomial arithmetic, parsing, and cyclotomic helpers."""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from artinfib.coxeter import MAX_DIHEDRAL_ORDER
from artinfib.domains import GF, QQ, ZZ, domain_from_spec
from artinfib.errors import (DivisionByZero, NotDivisible, NotUnit,
                             ParseError, UnsupportedDomain)
from artinfib.laurent import (MAX_EXPONENT, MAX_NUMERAL_DIGITS,
                              MAX_PARSE_SIZE, LaurentPoly,
                              _pseudo_divide, cyclotomic_poly,
                              factor_cyclotomic, format_poly, from_integers,
                              integer_lift, lincomb, parse_poly, q_bracket,
                              extremes_invertible)


def test_domains_normalize_and_invert():
    assert QQ.normalize(2) == QQ.from_fraction(Fraction(2))
    assert QQ.inv(QQ.normalize(Fraction(2, 3))) == QQ.normalize(
        Fraction(3, 2))
    f5 = GF(5)
    assert f5.normalize(7) == 2
    assert f5.inv(2) == 3
    assert f5.normalize(2 * 3) == 1
    assert ZZ.is_unit(-1) and not ZZ.is_unit(2)
    with pytest.raises(NotUnit):
        ZZ.inv(2)
    with pytest.raises(NotUnit):
        QQ.inv(QQ.zero)
    with pytest.raises(UnsupportedDomain):
        GF(6)
    assert domain_from_spec("Zp:7") == GF(7)
    assert domain_from_spec("Q") is QQ
    with pytest.raises(UnsupportedDomain):
        domain_from_spec("R")
    for spec in ("Zp:abc", "Zp:", "Zp:1e3"):
        with pytest.raises(UnsupportedDomain):
            domain_from_spec(spec)


def test_construction_trims_and_normalizes():
    p = LaurentPoly(QQ, -1, (0, 1, 2, 0))
    assert p.val == 0 and p.coeffs == (QQ.one, QQ.normalize(2))
    z = LaurentPoly(QQ, 5, (0, 0))
    assert z.is_zero() and z.val == 0 and z.coeffs == ()
    assert z.degree == -1 and z.span == -1
    with pytest.raises(TypeError):
        LaurentPoly(QQ, 0, (0.5,))
    # rationals are mapped into the other domains, not passed through
    assert LaurentPoly(GF(5), 0, (Fraction(1, 2),)).coeffs == (3,)
    c, = LaurentPoly(ZZ, 0, (Fraction(4, 2),)).coeffs
    assert c == 2 and type(c) is int
    with pytest.raises(UnsupportedDomain):
        LaurentPoly(ZZ, 0, (Fraction(1, 2),))
    # numbers of other types are refused, not stored: an int64 kept over
    # Z would wrap when squared
    for dom in (QQ, ZZ, GF(5)):
        for foreign in (np.int64(2**40), 0.5, 2.0):
            with pytest.raises(TypeError):
                LaurentPoly(dom, 0, (foreign, 1))
            with pytest.raises(TypeError):
                LaurentPoly.one(dom).scale(foreign)
            with pytest.raises(TypeError):
                LaurentPoly.one(dom).evaluate(foreign)


def test_exponents_are_ints():
    # a float valuation or shift is refused, not stored as q^2.5
    with pytest.raises(TypeError):
        LaurentPoly(QQ, 2.5, (1, 1))
    with pytest.raises(TypeError):
        LaurentPoly.q_power(QQ, 1.5)
    for p in (LaurentPoly.one(QQ), LaurentPoly.zero(QQ)):
        with pytest.raises(TypeError):
            p.shift(1.5)
    # a numpy integer becomes an int
    for p in (LaurentPoly(QQ, np.int64(2), (1, 1)),
              LaurentPoly.q_power(GF(5), np.int32(2)).shift(np.int64(1)) *
              LaurentPoly.q_power(GF(5), -1)):
        assert p.val == 2 and type(p.val) is int
    assert str(LaurentPoly(QQ, np.int64(2), (1, 1)) ** 2) == \
        "q^6 + 2*q^5 + q^4"


def test_basic_arithmetic():
    one = LaurentPoly.one(QQ)
    q = LaurentPoly.q_power(QQ, 1)
    assert (one + q) * (one - q) == parse_poly("1 - q^2", QQ)
    assert (one - q) ** 3 == parse_poly("1 - 3q + 3q^2 - q^3", QQ)
    assert q ** -4 == LaurentPoly.q_power(QQ, -4)
    p = parse_poly("2*q^-3", QQ)
    assert p.is_unit and p.inverse() == parse_poly("1/2*q^3", QQ)
    with pytest.raises(NotUnit):
        parse_poly("1 + q", QQ).inverse()
    with pytest.raises(NotUnit):
        parse_poly("1 + q", QQ) ** -1
    assert parse_poly("1 - q + q^2", QQ).evaluate(QQ.normalize(2)) == \
        QQ.normalize(3)
    assert parse_poly("q^-2 + q", QQ).shift(2) == parse_poly("1 + q^3", QQ)


def test_substitutions():
    p = parse_poly("q^-1 + 2 + 3q^2", QQ)
    assert p.subs_neg_q() == parse_poly("-q^-1 + 2 + 3q^2", QQ)
    assert p.subs_neg_q().subs_neg_q() == p
    assert p.subs_q_inverse() == parse_poly("q + 2 + 3q^-2", QQ)
    assert p.subs_q_inverse().subs_q_inverse() == p


def test_divrem_property_seeded():
    rng = random.Random(31)
    for _ in range(200):
        a = LaurentPoly(QQ, rng.randint(-4, 4),
                        tuple(rng.randint(-5, 5) for _ in range(
                            rng.randint(0, 6))))
        b = LaurentPoly(QQ, rng.randint(-4, 4),
                        tuple(rng.randint(-5, 5) for _ in range(
                            rng.randint(0, 4))))
        if b.is_zero():
            with pytest.raises(DivisionByZero):
                a.divrem(b)
            continue
        quo, rem = a.divrem(b)
        assert a == quo * b + rem
        assert rem.is_zero() or rem.span < b.span


def schoolbook_divide(num, den):
    """Long division of coefficient lists (constant term first) in
    Fractions, one exact rational step per quotient term."""
    rem = [Fraction(c) for c in num]
    top = len(den) - 1
    quo = [Fraction(0)] * max(len(num) - top, 0)
    for i in reversed(range(len(quo))):
        c = quo[i] = rem[i + top] / den[-1]
        for j, d in enumerate(den):
            rem[i + j] -= c * d
    return quo, rem[:top]


def int_product(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def random_ints(rng, length, lead_choices):
    out = [rng.randint(-9, 9) for _ in range(length)]
    if out:
        out[-1] = rng.choice(lead_choices)
    return out


def test_pseudo_division_kernel():
    # k num = quo den + rem over Z, with quo / k and rem / k the quotient
    # and remainder of schoolbook division over Q; non-unit and negative
    # leading coefficients force the scaling
    rng = random.Random(41)
    leads = (1, -1, 2, -3, 4, -6, 9)
    for _ in range(400):
        den = random_ints(rng, rng.randint(1, 5), leads)
        num = random_ints(rng, rng.randint(0, 10), leads + (0,))
        k, quo, rem = _pseudo_divide(num, den)
        assert k != 0 and den[-1] ** len(quo) % k == 0
        assert len(rem) < len(den)
        lhs = [k * c for c in num]
        rhs = int_product(quo, den)
        rhs += [0] * (len(lhs) - len(rhs))
        for j, c in enumerate(rem):
            rhs[j] += c
        assert lhs == rhs, (num, den)
        school_quo, school_rem = schoolbook_divide(num, den)
        assert [Fraction(c, k) for c in quo] == school_quo
        assert [Fraction(c, k) for c in rem] == school_rem
        assert (k == 1) == all(c.denominator == 1 for c in school_quo)
    # mod a prime p, on lifts that are not reduced: k = 1, and quo and
    # rem are the schoolbook quotient and remainder read mod p
    for p in (2, 3, 7, 2**61 - 1):
        def residues(values):
            return [c.numerator * pow(c.denominator, -1, p) % p
                    for c in values]

        units = [c for c in leads + (p + 1, 1 - 2 * p) if c % p]
        for _ in range(200):
            den = random_ints(rng, rng.randint(1, 5), units)
            num = random_ints(rng, rng.randint(0, 10), leads + (0, p))
            k, quo, rem = _pseudo_divide(num, den, p)
            assert k == 1 and len(rem) < len(den), (p, num, den)
            school_quo, school_rem = schoolbook_divide(num, den)
            assert quo == residues(school_quo), (p, num, den)
            assert rem == residues(school_rem), (p, num, den)
    # mod 7 the second top coefficient 8 - 1 = 7 cancels only after % p,
    # so its quotient term is 0, not 7 as over Q
    assert _pseudo_divide([5, 8, 1], [1, 1], 7) == (1, [0, 1], [5])
    assert _pseudo_divide([5, 8, 1], [1, 1]) == (1, [7, 1], [-2])


def test_rational_division_matches_schoolbook():
    # Laurent division over Q, with denominators and valuations, against
    # schoolbook division of the coefficient lists
    rng = random.Random(43)
    for _ in range(300):
        a, b = ([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                 for _ in range(rng.randint(1, 9))] for _ in "ab")
        b[-1] = b[-1] or Fraction(-5, 3)
        pa = LaurentPoly(QQ, rng.randint(-4, 4), a)
        pb = LaurentPoly(QQ, rng.randint(-4, 4), b)
        quo, rem = pa.divrem(pb)
        a, b = list(pa.coeffs), list(pb.coeffs)
        school_quo, school_rem = schoolbook_divide(a, b)
        assert quo == LaurentPoly(QQ, pa.val - pb.val, school_quo)
        assert rem == LaurentPoly(QQ, pa.val, school_rem)
        assert pa == quo * pb + rem


def test_pseudo_division_and_xgcd_over_z():
    rng = random.Random(47)
    leads = (1, -1, 2, -3, 5)
    for _ in range(200):
        a, b = (LaurentPoly(ZZ, rng.randint(-3, 3), random_ints(
            rng, rng.randint(0, 6), leads)) for _ in "ab")
        if not b.is_zero():
            k, quo, rem = a.pseudo_divrem(b)
            assert k != 0 and LaurentPoly.constant(ZZ, k) * a == \
                quo * b + rem
            assert rem.span < b.span
        g, s, t, c = a.pseudo_xgcd(b)
        assert c != 0 and s * a + t * b == g.scale(c)
        if a.is_zero() and b.is_zero():
            assert g.is_zero()
            continue
        # the primitive associate of the gcd over Q
        assert math.gcd(*g.coeffs) == 1
        field_g = LaurentPoly(QQ, 0, a.coeffs).xgcd(
            LaurentPoly(QQ, 0, b.coeffs))[0]
        assert LaurentPoly(QQ, 0, g.coeffs).normalized()[1] == \
            field_g.normalized()[1]
        a.divexact(g)
        b.divexact(g)


def test_xgcd_property_seeded():
    rng = random.Random(17)
    for dom in (QQ, GF(5)):
        for _ in range(60):
            a, b = (LaurentPoly(dom, rng.randint(-3, 3),
                                tuple(rng.randint(-5, 5) for _ in range(
                                    rng.randint(0, 6)))) for _ in "ab")
            g, s, t = a.xgcd(b)
            assert s * a + t * b == g
            if b.is_zero():
                assert g == a
                continue
            assert g.coeffs[-1] == dom.one
            a.divexact(g)
            b.divexact(g)


def termwise(dom, *pairs):
    """The sum of the products x y over ``pairs``, each term added and
    normalized in turn; the reference for ``*`` and ``lincomb``."""
    out = {}
    for x, y in pairs:
        for e, c in x.items():
            for f, d in y.items():
                out[e + f] = dom.normalize(out.get(e + f, dom.zero) + c * d)
    return LaurentPoly.from_dict(dom, out)


def test_products_match_termwise():
    # the one convolution behind * (over Q on integers over common
    # denominators, over GF(p) reduced once) and the fused row update
    # lincomb(a, x, b, y), both against the termwise sum of products in
    # the domain; on rows with zero entries, on the Bezout pair of
    # determinant c over Z that a 2x2 step of a Smith form applies, and
    # on coefficients that cancel only after % p
    rng = random.Random(5)

    def poly(dom, den, zero=0.2):
        if rng.random() < zero:
            return LaurentPoly.zero(dom)
        return LaurentPoly(dom, rng.randint(-3, 3), [
            Fraction(rng.randint(-9, 9), rng.randint(1, den))
            for _ in range(rng.randint(1, 6))])

    for dom, den in ((QQ, 6), (ZZ, 1), (GF(2), 1), (GF(3), 1), (GF(7), 6)):
        for _ in range(50):
            a, b = poly(dom, den), poly(dom, den)
            assert a * b == termwise(dom, (a, b)), dom
        for _ in range(30):
            a, b = poly(dom, den, 0.1), poly(dom, den, 0.1)
            for x, y in zip(*([poly(dom, den) for _ in range(6)]
                              for _ in "xy")):
                assert lincomb(a, x, b, y) == termwise(dom, (a, x), (b, y))
    one = LaurentPoly.one(ZZ)
    for _ in range(40):
        a, b = poly(ZZ, 1, 0), poly(ZZ, 1, 0)
        g, s, u, c = a.pseudo_xgcd(b)
        M = (s, u, -b.divexact(g), a.divexact(g))
        for x, y in zip(*([poly(ZZ, 1) for _ in range(6)] for _ in "xy")):
            x2, y2 = lincomb(M[0], x, M[1], y), lincomb(M[2], x, M[3], y)
            assert (x2, y2) == (termwise(ZZ, (s, x), (u, y)),
                                termwise(ZZ, (M[2], x), (M[3], y)))
            # the adjugate (a/g, -u; b/g, s) takes the pair back times c
            back = (lincomb(M[3], x2, -u, y2), lincomb(-M[2], x2, s, y2))
            assert back == (x.scale(c), y.scale(c))
            assert lincomb(one, x, one.scale(-1), x).is_zero()
    # over GF(7): 6 + 7q + q^2 loses its middle term, and in lincomb the
    # top term 3q + 4q, or every term, 15q + 20q
    f7 = GF(7)
    assert (parse_poly("1 + q", f7) * parse_poly("6 + q", f7)
            == LaurentPoly(f7, 0, [6, 0, 1]))
    three, four = LaurentPoly.constant(f7, 3), LaurentPoly.constant(f7, 4)
    q = LaurentPoly.q_power(f7, 1)
    assert lincomb(three, LaurentPoly(f7, 0, [1, 1]), four, q) == three
    assert lincomb(three, q.scale(5), four, q.scale(5)).is_zero()
    assert (parse_poly("1 + q", GF(2)) * parse_poly("1 + q", GF(2))
            == LaurentPoly(GF(2), 0, [1, 0, 1]))


def test_integer_lift_round_trip():
    # over Q a row is lifted to Z over the lcm of its denominators; over
    # Z and GF(p) it is its own lift, over 1.  Rows may be empty, and
    # entries zero.
    rng = random.Random(53)
    for dom in (QQ, ZZ, GF(3), GF(7)):
        dens = (1, 2, 3, 6) if dom is QQ else (1,)
        for _ in range(60):
            row = [LaurentPoly.zero(dom) if rng.random() < 0.2 else
                   LaurentPoly(dom, rng.randint(-3, 3), [
                       Fraction(rng.randint(-9, 9), rng.choice(dens))
                       for _ in range(rng.randint(1, 5))])
                   for _ in range(rng.randint(0, 5))]
            den, lifts = integer_lift(row, dom)
            assert [from_integers(dom, p, den) for p in lifts] == row, dom
            if dom is QQ:
                assert den == math.lcm(*(c.denominator for p in row
                                         for c in p.coeffs))
                assert all(p.domain is ZZ and all(type(c) is int
                                                  for c in p.coeffs)
                           for p in lifts)
            else:
                assert den == 1 and len(lifts) == len(row), dom
                assert all(p is e for p, e in zip(lifts, row)), dom
        assert integer_lift([], dom) == (1, [])


def test_divexact():
    a = parse_poly("1 - q^3", QQ)
    b = parse_poly("1 - q", QQ)
    assert a.divexact(b) == parse_poly("1 + q + q^2", QQ)
    with pytest.raises(NotDivisible):
        parse_poly("1 + q^2", QQ).divexact(b)
    # works over Z as long as the division is exact
    assert parse_poly("2 - 2q^2", ZZ).divexact(parse_poly("1 + q", ZZ)) == \
        parse_poly("2 - 2q", ZZ)
    # over Z a quotient that is not integral (k != 1) is told apart from
    # a nonzero remainder
    with pytest.raises(NotDivisible, match=r"\(2\) does not divide "
                                           r"\(-q \+ 1\) over Z$"):
        parse_poly("1 - q", ZZ).divexact(parse_poly("2", ZZ))
    with pytest.raises(NotDivisible, match=r"\(q \+ 1\) does not divide "
                                           r"\(q\^2 \+ 1\)$"):
        parse_poly("1 + q^2", ZZ).divexact(parse_poly("1 + q", ZZ))


def test_normalized():
    rng = random.Random(7)
    for _ in range(100):
        p = LaurentPoly(QQ, rng.randint(-3, 3),
                        tuple(rng.randint(-4, 4) for _ in range(
                            rng.randint(1, 5))))
        if p.is_zero():
            continue
        unit, monic = p.normalized()
        assert unit.is_unit
        assert monic.val == 0 and monic.coeffs[-1] == QQ.one
        assert unit * monic == p


def test_parse_format_round_trip():
    # canonical form lists terms by descending exponent
    cases = ["0", "1", "-1", "q", "-q + 1", "q^2 - q + 1",
             "q + 1/2*q^-3", "2*q^10 - 7", "q^-1", "q^5 - 3*q^-2"]
    for text in cases:
        p = parse_poly(text, QQ)
        assert format_poly(p) == text
        assert parse_poly(format_poly(p), QQ) == p
    rng = random.Random(77)
    for dom in (QQ, ZZ, GF(5)):
        for _ in range(150):
            p = LaurentPoly(dom, rng.randint(-5, 5),
                            tuple(rng.randint(-6, 6) for _ in range(
                                rng.randint(0, 6))))
            assert parse_poly(format_poly(p), dom) == p


def test_parse_syntax():
    assert parse_poly("(1+q)(1-q)", QQ) == parse_poly("1 - q^2", QQ)
    assert parse_poly("(1+q)^2", QQ) == parse_poly("1 + 2q + q^2", QQ)
    assert parse_poly("2q^3", QQ) == parse_poly("2*q^3", QQ)
    assert parse_poly("q^-3", QQ) == LaurentPoly.q_power(QQ, -3)
    assert parse_poly("(1 - q^2)/(1 - q)", QQ) == parse_poly("1 + q", QQ)
    assert parse_poly("1/2", QQ) == LaurentPoly.constant(
        QQ, Fraction(1, 2))
    assert parse_poly("1/2", GF(3)) == LaurentPoly.constant(GF(3), 2)
    # '/' is exact division, so this cannot parse over the integers
    with pytest.raises(ParseError):
        parse_poly("1/2", ZZ)
    with pytest.raises(ParseError):
        parse_poly("", QQ)
    with pytest.raises(ParseError):
        parse_poly("q^", QQ)
    with pytest.raises(ParseError):
        parse_poly("1 +", QQ)
    with pytest.raises(ParseError):
        parse_poly("(1 + q", QQ)
    with pytest.raises(ParseError):
        parse_poly("x + 1", QQ)
    # digits are ASCII only: str.isdigit() holds for these too, and int()
    # refuses a superscript and reads an Arabic-Indic or fullwidth digit
    for text in ("q\u00b2", "\u0663q", "q^\u0663", "\uff11"):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_poly(text, QQ)


def test_parse_exponent_bound():
    assert MAX_DIHEDRAL_ORDER - 1 <= MAX_EXPONENT
    top = parse_poly(f"q^{MAX_EXPONENT} - q^-{MAX_EXPONENT}", QQ)
    assert top.span == 2 * MAX_EXPONENT
    assert parse_poly(f"(1 - q)^{MAX_EXPONENT}", GF(2)).span == MAX_EXPONENT
    start = time.perf_counter()
    for text in (f"1 - q^{MAX_EXPONENT + 1}", f"q^-{MAX_EXPONENT + 1}",
                 "1 - q^300000000", "1 - q^99999999999999999999999",
                 f"(1 - q)^{MAX_EXPONENT + 1}", f"(q)^-{10**30}"):
        with pytest.raises(ParseError, match="exponent"):
            parse_poly(text, QQ)
    assert time.perf_counter() - start < 0.5


def test_parse_numeral_length_bound():
    # a digit run longer than CPython's default int_max_str_digits is
    # refused before int() sees it, as a coefficient and as an exponent
    assert parse_poly("1" * MAX_NUMERAL_DIGITS, QQ).degree == 0
    for text in ("1" * 5000, "q^" + "1" * 5000):
        with pytest.raises(ParseError, match="numeral of 5000 digits"):
            parse_poly(text)


def test_parse_size_bound():
    # (1 - q)^e has span e and, by the bound |c| <= 2^e, 4e-bit
    # coefficients over Q: (e + 1) 4e fits the cap up to e = 511
    assert 512 * 4 * 511 <= MAX_PARSE_SIZE < 513 * 4 * 512
    assert parse_poly("(1 - q)^511", QQ).span == 511
    start = time.perf_counter()
    for text, dom in (("(1 - q)^512", QQ), ("(1 - q)^2000", QQ),
                      ("(1 + q^100000)^100000", QQ),
                      ("(1 + q^100000)^100000", GF(2)),
                      ("(1 - q)^400 * (1 - q)^400 * (1 - q)^400", QQ),
                      ("(2*q)^-100000 * (1 - q)^300", QQ)):
        with pytest.raises(ParseError, match="product or power"):
            parse_poly(text, dom)
    assert time.perf_counter() - start < 1.0
    # residues never outgrow the prime
    assert parse_poly("(1 - q)^2000", GF(5)).span == 2000


def test_parse_work_bound():
    # over Z/p the size cap does not bound time: a dense power squares in
    # quadratic time, so each product's convolution work is capped
    start = time.perf_counter()
    with pytest.raises(ParseError, match="product or power"):
        parse_poly("(1 + q + q^2)^20000", GF(3))
    assert time.perf_counter() - start < 1.0
    assert parse_poly("(1 + q + q^2)^200", GF(3)).span == 400
    # a sparse factor costs its nonzero terms only
    assert parse_poly(f"(1 - q^{MAX_EXPONENT})*(1 + q)^400", GF(3)).span \
        == MAX_EXPONENT + 400


def test_parse_inexact_division_fails_fast():
    # the division is first run modulo 2^61 - 1, where the remainder of
    # an inexact one shows without the growth of its coefficients over Q
    for dom in (QQ, ZZ):
        start = time.perf_counter()
        with pytest.raises(ParseError, match="does not divide"):
            parse_poly("(1 - q^100000)/(3 - q)", dom)
        assert time.perf_counter() - start < 1.0, dom
        assert parse_poly("(1 - q^100000)/(1 - q)", dom) == q_bracket(
            100000, dom)
    # exact over Q but not over Z
    assert parse_poly("(2 - 2q^2)/(4 + 4q)", QQ) == parse_poly(
        "1/2 - 1/2q", QQ)
    with pytest.raises(ParseError):
        parse_poly("(1 - q^2)/(2 + 2q)", ZZ)
    # a divisor whose constant term vanishes modulo the prime is divided
    # there as it is, so an exact division passes and an inexact one is
    # refused by the test
    prime = 2**61 - 1
    assert parse_poly(f"(q - {prime})^2/(q - {prime})", QQ) == \
        parse_poly(f"q - {prime}", QQ)
    assert parse_poly(f"(q^2/2 - {prime}q)/(q/3 - 2/3*{prime})", QQ) == \
        parse_poly("3/2q", QQ)
    for dom in (QQ, ZZ):
        with pytest.raises(ParseError, match=r"does not divide \(q \+ 1\)$"):
            parse_poly(f"(1 + q)/(q - {prime})", dom)
    # a leading coefficient that vanishes modulo the prime skips the test
    assert parse_poly(f"({prime}q - 1)(1 + q)/({prime}q - 1)", QQ) == \
        parse_poly("1 + q", QQ)


def test_extremes_invertible():
    assert extremes_invertible(parse_poly("1 - q", ZZ))
    assert not extremes_invertible(parse_poly("2 - q", ZZ))
    assert not extremes_invertible(parse_poly("1 - 2q", ZZ))
    assert extremes_invertible(parse_poly("2 - q", QQ))
    assert not extremes_invertible(LaurentPoly.zero(QQ))


def test_q_bracket():
    assert q_bracket(1, QQ) == parse_poly("1", QQ)
    assert q_bracket(4, QQ) == parse_poly("1 + q + q^2 + q^3", QQ)
    assert q_bracket(3, GF(2)) == parse_poly("1 + q + q^2", GF(2))


def test_cyclotomic_small():
    assert cyclotomic_poly(1, QQ) == parse_poly("q - 1", QQ)
    assert cyclotomic_poly(2, QQ) == parse_poly("q + 1", QQ)
    assert cyclotomic_poly(3, QQ) == parse_poly("q^2 + q + 1", QQ)
    assert cyclotomic_poly(4, QQ) == parse_poly("q^2 + 1", QQ)
    assert cyclotomic_poly(6, QQ) == parse_poly("q^2 - q + 1", QQ)
    assert cyclotomic_poly(12, QQ) == parse_poly("q^4 - q^2 + 1", QQ)


def test_cyclotomic_product_law():
    # q^n - 1 is the product of Phi_d over divisors d of n
    for n in range(1, 16):
        prod = LaurentPoly.one(QQ)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_poly(d, QQ)
        assert prod == parse_poly(f"q^{n} - 1", QQ)


def test_cyclotomic_value_at_one():
    # Phi_n(1) is p when n is a prime power p^k, else 1 (n > 1)
    def smallest_prime_factor(n):
        d = 2
        while d * d <= n:
            if n % d == 0:
                return d
            d += 1
        return n

    for n in range(2, 31):
        value = cyclotomic_poly(n, QQ).evaluate(QQ.one)
        m, p = n, smallest_prime_factor(n)
        while m % p == 0:
            m //= p
        expected = p if m == 1 else 1
        assert value == QQ.normalize(expected), n


def test_factor_cyclotomic():
    p = (cyclotomic_poly(1, QQ) ** 2 * cyclotomic_poly(6, QQ)
         * cyclotomic_poly(4, QQ)).shift(-1) * LaurentPoly.constant(QQ, 3)
    unit, factors, rest = factor_cyclotomic(p)
    assert factors == [(1, 2), (4, 1), (6, 1)]
    assert rest == LaurentPoly.one(QQ)
    recon = unit
    for n, mult in factors:
        recon = recon * cyclotomic_poly(n, QQ) ** mult
    assert recon * rest == p

    mixed = cyclotomic_poly(3, QQ) * parse_poly("q^2 - 2", QQ)
    unit, factors, rest = factor_cyclotomic(mixed)
    assert factors == [(3, 1)]
    assert unit * cyclotomic_poly(3, QQ) * rest == mixed

    unit, factors, rest = factor_cyclotomic(LaurentPoly.one(QQ))
    assert factors == [] and rest == LaurentPoly.one(QQ)
    with pytest.raises(UnsupportedDomain):
        factor_cyclotomic(parse_poly("q - 1", GF(2)))


def test_factor_cyclotomic_high_order():
    # orders are bounded by the span of the input, not by a constant
    unit, factors, rest = factor_cyclotomic(cyclotomic_poly(1)
                                            * cyclotomic_poly(262))
    assert factors == [(1, 1), (262, 1)]
    assert rest == LaurentPoly.one(QQ) and unit == LaurentPoly.one(QQ)


def test_prime_field_large_primes():
    start = time.perf_counter()
    assert GF(10**18 + 3).p == 10**18 + 3
    assert time.perf_counter() - start < 0.5
    for n in (10**18 + 1, 3215031751, 3825123056546413051, 1, 0):
        with pytest.raises(UnsupportedDomain):
            GF(n)
    # beyond the proven range of the fixed Miller-Rabin bases
    with pytest.raises(UnsupportedDomain, match="not a prime below"):
        GF(2**89 - 1)

    def constructs(n):
        try:
            return GF(n).p == n
        except UnsupportedDomain:
            return False

    assert [n for n in range(2, 3000) if constructs(n)] == \
        [n for n in range(2, 3000) if all(n % d for d in range(2, n))]


def test_prime_field_arithmetic_wraps():
    f2 = GF(2)
    p = parse_poly("1 + q", f2)
    assert p + p == LaurentPoly.zero(f2)
    assert p * p == parse_poly("1 + q^2", f2)
