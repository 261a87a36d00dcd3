"""LaurentPoly as a value: immutable, hashable and picklable, and a
product with a zero operand."""

import pickle
from fractions import Fraction

import pytest

from artinfib.domains import GF, QQ, ZZ
from artinfib.errors import UnsupportedDomain
from artinfib.laurent import LaurentPoly

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
