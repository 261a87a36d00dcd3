"""LaurentPoly as a value: immutable, hashable and picklable, a product
with a zero operand, and every arithmetic result in canonical form."""

import pickle
import random
from fractions import Fraction

import pytest

from artinfib.domains import GF, QQ, ZZ
from artinfib.errors import UnsupportedDomain
from artinfib.laurent import LaurentPoly, lincomb

DOMAINS = (QQ, ZZ, GF(5))


def test_attributes_cannot_be_set():
    p = LaurentPoly(QQ, 1, (1, 2))
    # a name that is not a field included: there is no slot for it
    for name, value in (("val", 0), ("coeffs", ()), ("domain", ZZ),
                        ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(p, name, value)
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert not hasattr(p, "__dict__")
    assert (p.val, p.coeffs) == (1, (1, 2))


def test_equal_polynomials_hash_equal():
    for dom in DOMAINS:
        a = LaurentPoly(dom, -1, (0, 1, 2, 0))
        b = LaurentPoly(dom, 0, (1, 2))
        assert a == b and hash(a) == hash(b), dom
        assert len({a, b, a * b, b * a}) == 2, dom
    assert LaurentPoly(GF(5), 0, (6, 2)) == LaurentPoly(GF(5), 0, (1, 2))
    assert LaurentPoly(QQ, 0, (1,)) != LaurentPoly(ZZ, 0, (1,))


def test_pickle_round_trip():
    for dom, coeffs in ((QQ, (Fraction(1, 2), -3, 4)), (ZZ, (1, -3, 4)),
                        (GF(5), (1, 2, 4))):
        p = LaurentPoly(dom, -2, coeffs)
        back = pickle.loads(pickle.dumps(p))
        assert back == p and hash(back) == hash(p), dom
        assert back.domain is dom and back * p == p * p, dom


def test_product_with_zero_is_the_zero_operand():
    for dom in DOMAINS:
        p = LaurentPoly(dom, -1, (1, 2))
        zero = LaurentPoly.zero(dom)
        assert p * zero is zero and zero * p is zero, dom
        assert (p * zero).domain is dom and (p * zero).is_zero(), dom
        assert zero * zero == LaurentPoly.zero(dom), dom
    for a, b in ((LaurentPoly.zero(QQ), LaurentPoly.one(GF(5))),
                 (LaurentPoly.one(QQ), LaurentPoly.zero(GF(5))),
                 (LaurentPoly.zero(GF(3)), LaurentPoly.zero(GF(5)))):
        with pytest.raises(UnsupportedDomain):
            a * b



def _reference(p):
    """{exponent: Fraction} of the nonzero terms of a polynomial."""
    return {e: Fraction(c) for e, c in p.items() if c}


def _ref_products(*pairs):
    """The sum of the products f g over (f, g) pairs of {exponent:
    Fraction} dicts, unreduced: the reference arithmetic."""
    out = {}
    for f, g in pairs:
        for e, c in f.items():
            for k, d in g.items():
                out[e + k] = out.get(e + k, 0) + c * d
    return out


def _reduced(ref, dom):
    """The reference read in ``dom``: residues mod p, zeros dropped."""
    p = dom.characteristic
    ref = {e: c % p if p else c for e, c in ref.items()}
    return {e: c for e, c in ref.items() if c}


def _assert_canonical(p):
    """Nonzero end coefficients, and each one canonical in its domain."""
    dom = p.domain
    assert type(p.coeffs) is tuple
    if not p.coeffs:
        assert p.val == 0
        return
    assert p.coeffs[0] and p.coeffs[-1], p
    for c in p.coeffs:
        if dom is QQ:
            assert type(c) is Fraction, p
        else:
            assert type(c) is int, p
            assert dom is ZZ or 0 <= c < dom.p, p


def test_arithmetic_results_are_canonical():
    # seeded random sequences of every operation over each domain, each
    # result checked against dict arithmetic on Fractions reduced at the
    # end; operands are drawn from the results so far, zero among them,
    # and a term of an operand is cancelled at either end or inside
    rng = random.Random(29)
    one, minus = {0: Fraction(1)}, {0: Fraction(-1)}
    for dom in (QQ, ZZ, GF(2), GF(3), GF(7)):
        den = 4 if dom is QQ else 1

        def rand():
            return LaurentPoly(dom, rng.randint(-3, 3), [
                Fraction(rng.randint(-5, 5), rng.randint(1, den))
                for _ in range(rng.randint(0, 5))])

        pool = [LaurentPoly.zero(dom), LaurentPoly.one(dom)]
        pool += [rand() for _ in range(6)]
        for step in range(400):
            a, b, x, y = (rng.choice(pool) for _ in range(4))
            ra, rb = _reference(a), _reference(b)
            op = rng.choice(("add", "sub", "neg", "mul", "scale", "shift",
                             "lincomb", "cancel", "divrem", "xgcd"))
            if op in ("divrem", "xgcd") and not dom.is_field:
                op = "mul"
            if op == "add":
                out, ref = [a + b], [_ref_products((ra, one), (rb, one))]
            elif op == "sub":
                out, ref = [a - b], [_ref_products((ra, one), (rb, minus))]
            elif op == "neg":
                out, ref = [-a], [_ref_products((ra, minus))]
            elif op == "mul":
                out, ref = [a * b], [_ref_products((ra, rb))]
            elif op == "scale":
                c = rng.randint(-3, 3)
                out, ref = [a.scale(c)], [_ref_products((ra, {0: c}))]
            elif op == "shift":
                k = rng.randint(-4, 4)
                out, ref = [a.shift(k)], [_ref_products((ra, {k: 1}))]
            elif op == "lincomb":
                out = [lincomb(a, x, b, y)]
                ref = [_ref_products((ra, _reference(x)),
                                     (rb, _reference(y)))]
            elif op == "cancel":
                if not a.coeffs:
                    continue
                e, c = rng.choice(a.items())
                m = LaurentPoly(dom, e, (c,))
                out, ref = [a - m, a + -m], [_ref_products(
                    (ra, one), ({e: Fraction(c)}, minus))] * 2
            elif op == "divrem":
                if not b.coeffs:
                    continue
                quo, rem = a.divrem(b)
                assert rem.span < b.span
                assert _reduced(_ref_products((_reference(quo), rb),
                                              (_reference(rem), one)),
                                dom) == _reduced(ra, dom)
                out, ref = [quo, rem], [_reference(quo), _reference(rem)]
            else:
                g, s, t = a.xgcd(b)
                assert _reduced(_ref_products((_reference(s), ra),
                                              (_reference(t), rb)),
                                dom) == _reference(g)
                out = [g, s, t]
                ref = [_reference(g), _reference(s), _reference(t)]
            for p, r in zip(out, ref):
                _assert_canonical(p)
                assert _reference(p) == _reduced(r, dom), (op, dom, step)
                # operands stay small, so that Q stays quick
                if p.span < 10 and all(
                        abs(c.numerator) < 10**6 and c.denominator < 10**6
                        for c in map(Fraction, p.coeffs)):
                    pool.append(p)
            pool = pool[:2] + pool[-24:]
        zero = LaurentPoly.zero(dom)
        for p in pool:
            assert p + zero == p == zero + p and p - p == zero, dom
            assert lincomb(p, zero, zero, p).is_zero(), dom
            if p.coeffs:
                assert p * zero is zero and zero * p is zero, dom
