"""Laurent polynomials A[q, q^-1] with exact coefficient arithmetic.

A polynomial is a valuation together with a dense coefficient tuple; the
zero polynomial is the empty tuple with valuation 0.  Canonical form (no
zero coefficients at either end, each coefficient canonical in its
domain) is enforced by the constructor, so equality and hashing are
structural.  Arithmetic runs on Python's operators over the coefficient
values and, over GF(p), reduces each coefficient it produces once.

    >>> from artinfib.domains import QQ
    >>> p = LaurentPoly(QQ, 0, [1, -1, 1])
    >>> str(p)
    'q^2 - q + 1'
    >>> p * LaurentPoly(QQ, 0, [1, 1]) == LaurentPoly(QQ, 0, [1, 0, 0, 1])
    True
    >>> parse_poly("1/2*q^-3 + q", QQ).valuation
    -3
"""

from __future__ import annotations

import dataclasses
import math
import operator

from .domains import GF, QQ, ZZ, Domain
from .errors import (
    DivisionByZero,
    NotDivisible,
    NotUnit,
    ParseError,
    UnsupportedDomain,
)


@dataclasses.dataclass(init=False, frozen=True, slots=True)
class LaurentPoly:
    """Element of A[q, q^-1]: ``sum(coeffs[i] * q**(val+i))``."""

    domain: Domain
    val: int
    coeffs: tuple

    def __init__(self, domain, val, coeffs):
        # values of the domain's own type are canonical already; anything
        # else goes through normalize, which refuses what is not an int
        # or a Fraction.  The valuation is an int in the same way: a float
        # raises TypeError and a numpy integer becomes an int.
        own = domain.element_type
        val = operator.index(val)
        self._store(domain, val, [c if type(c) is own
                                  else domain.normalize(c) for c in coeffs])

    def _store(self, domain, val, coeffs):
        """Trim zero coefficients off both ends and set the fields; the
        coefficients are canonical, so a zero one is falsy."""
        if not (coeffs and coeffs[0] and coeffs[-1]):
            lo, hi = 0, len(coeffs)
            while lo < hi and not coeffs[lo]:
                lo += 1
            while hi > lo and not coeffs[hi - 1]:
                hi -= 1
            val, coeffs = (val + lo, coeffs[lo:hi]) if lo < hi else (0, ())
        _set_domain(self, domain)
        _set_val(self, val)
        _set_coeffs(self, coeffs if type(coeffs) is tuple else tuple(coeffs))

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, domain):
        return cls(domain, 0, ())

    @classmethod
    def one(cls, domain):
        return cls(domain, 0, (domain.one,))

    @classmethod
    def q_power(cls, domain, k):
        return cls(domain, k, (domain.one,))

    @classmethod
    def constant(cls, domain, c):
        return cls(domain, 0, (domain.normalize(c),))

    @classmethod
    def from_dict(cls, domain, d):
        """Build from {exponent: coefficient}."""
        if not d:
            return cls.zero(domain)
        lo = min(d)
        hi = max(d)
        zero = domain.zero
        coeffs = [d.get(e, zero) for e in range(lo, hi + 1)]
        return cls(domain, lo, coeffs)

    # -- structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def valuation(self) -> int:
        """Lowest exponent (0 for the zero polynomial, by convention)."""
        return self.val

    @property
    def degree(self) -> int:
        """Highest exponent (-1 for the zero polynomial, by convention)."""
        return self.val + len(self.coeffs) - 1

    @property
    def span(self) -> int:
        """degree - valuation; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, e: int):
        """Coefficient of q^e."""
        i = e - self.val
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.domain.zero

    def items(self):
        """(exponent, coefficient) pairs, ascending, nonzero ends only."""
        return [(self.val + i, c) for i, c in enumerate(self.coeffs)]

    def is_unit(self) -> bool:
        """Unit of A[q,q^-1]: a single term with unit coefficient."""
        return len(self.coeffs) == 1 and self.domain.is_unit(self.coeffs[0])

    # -- arithmetic ---------------------------------------------------

    def _check(self, other):
        if self.domain is not other.domain and self.domain != other.domain:
            raise UnsupportedDomain(
                f"mixed domains {self.domain} and {other.domain}")

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        if not self.coeffs:
            return other
        return self._combine(other, operator.add)

    def __neg__(self):
        p = self.domain.characteristic
        return _canonical(self.domain, self.val,
                          [-c % p for c in self.coeffs] if p
                          else [-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        if not self.coeffs:
            return -other
        return self._combine(other, operator.sub)

    def _combine(self, other, op):
        """self op other coefficientwise, for nonzero self; ``op`` is
        operator.add or operator.sub."""
        b = other.coeffs
        if not b:
            return self
        dom, a = self.domain, self.coeffs
        lo = min(self.val, other.val)
        out = [dom.zero] * (max(self.val + len(a), other.val + len(b)) - lo)
        start = self.val - lo
        out[start:start + len(a)] = a
        start = other.val - lo
        end = start + len(b)
        p = dom.characteristic
        out[start:end] = ([op(x, y) % p for x, y in zip(out[start:end], b)]
                          if p else map(op, out[start:end], b))
        return _canonical(dom, lo, out)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        # the domains are equal, so a zero operand is the product itself
        if self.is_zero():
            return self
        if other.is_zero():
            return other
        dom = self.domain
        return _canonical(dom, self.val + other.val,
                          dom.poly_mul(self.coeffs, other.coeffs))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = LaurentPoly.one(self.domain)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self):
        """Inverse of a unit c*q^k."""
        if not self.is_unit():
            raise NotUnit(f"{self} is not a unit of {self.domain}[q,q^-1]")
        return LaurentPoly(self.domain, -self.val,
                           (self.domain.inv(self.coeffs[0]),))

    def shift(self, k: int):
        """Multiply by q^k."""
        k = operator.index(k)
        if self.is_zero():
            return self
        return _canonical(self.domain, self.val + k, self.coeffs)

    def scale(self, c):
        dom = self.domain
        c = dom.normalize(c)
        p = dom.characteristic
        return _canonical(dom, self.val,
                          [c * a % p for a in self.coeffs] if p
                          else [c * a for a in self.coeffs])

    def subs_neg_q(self):
        """Substitute q -> -q."""
        neg = (-self).coeffs
        return _canonical(self.domain, self.val,
                          [neg[i] if (self.val + i) % 2 else c
                           for i, c in enumerate(self.coeffs)])

    def subs_q_inverse(self):
        """Substitute q -> q^-1."""
        return LaurentPoly(self.domain, -self.degree,
                           tuple(reversed(self.coeffs)))

    def evaluate(self, x):
        """Value at q = x (x must be invertible if valuation < 0)."""
        dom = self.domain
        x = dom.normalize(x)
        p = dom.characteristic
        acc = dom.zero
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p if p else acc * x + c
        if self.val:
            base = x if self.val > 0 else dom.inv(x)
            acc = dom.normalize(acc * (pow(base, abs(self.val), p) if p
                                       else base ** abs(self.val)))
        return acc

    def divrem(self, other):
        """Division with remainder; needs a field.  span(r) < span(other)."""
        if not self.domain.is_field:
            raise UnsupportedDomain(
                f"division with remainder needs a field, not {self.domain}")
        return _divide(self, other)

    def xgcd(self, other):
        """(g, s, t) with s*self + t*other = g; needs a field.

        g is a gcd, monic unless ``other`` is zero (then g = self).
        Extended Euclid on the two polynomials alone, so the cost of a
        long remainder sequence is paid on two entries, not on the rows
        of a matrix that carry them.
        """
        if not self.domain.is_field:
            raise UnsupportedDomain(
                f"extended gcd needs a field, not {self.domain}")
        dom = self.domain
        r0, s0 = self, LaurentPoly.one(dom)
        r1, s1 = other, LaurentPoly.zero(dom)
        while not r1.is_zero():
            # a monic remainder is the monic associate of a subresultant,
            # so its coefficients stay ratios of Sylvester minors instead
            # of compounding from step to step
            c = dom.inv(r1.coeffs[-1])
            r1, s1 = r1.scale(c), s1.scale(c)
            quo, rem = r0.divrem(r1)
            r0, s0, r1, s1 = r1, s1, rem, s0 - quo * s1
        # one exact division gives t, cheaper than carrying it through
        # every step as s is
        t = (r0 - s0 * self).divexact(other) if not other.is_zero() \
            else LaurentPoly.zero(dom)
        return r0, s0, t

    def pseudo_divrem(self, other):
        """(k, quo, rem) with k*self = quo*other + rem, span(rem) < span(other).

        Over a field k = 1 and this is ``divrem``.  Over Z, k is a nonzero
        integer dividing a power of the leading coefficient of ``other``,
        and it is 1 exactly when the quotient over Q is integral.
        """
        dom = self.domain
        if dom.is_field:
            return (dom.one,) + self.divrem(other)
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        if self.is_zero():
            return 1, self, self
        k, quo, rem = _pseudo_divide(self.coeffs, other.coeffs)
        return (k, _canonical(dom, self.val - other.val, quo),
                _canonical(dom, self.val, rem))

    def pseudo_xgcd(self, other):
        """(g, s, t, c) with s*self + t*other = c*g for a nonzero constant c.

        Over a field c = 1 and (g, s, t) is ``xgcd``.  Over Z, g is the
        primitive gcd and s, t and c are integral, so the 2x2 step
        (s, t; -other/g, self/g) has the constant determinant c, a unit
        over Q.  The remainder sequence is kept primitive, each remainder
        r carrying an integer c_r with c_r r = s_r self modulo ``other``.
        """
        dom = self.domain
        if dom.is_field:
            return self.xgcd(other) + (dom.one,)
        c0, r0 = _content(self)
        c0, s0 = max(c0, 1), LaurentPoly.one(dom)
        r1, s1, c1 = _content(other)[1], LaurentPoly.zero(dom), 1
        while not r1.is_zero():
            k, quo, rem = r0.pseudo_divrem(r1)
            # k r0 = quo r1 + rem, so c0 c1 rem = s self modulo other
            s = s0.scale(k * c1) - (quo * s1).scale(c0)
            g, rem = _content(rem)
            c = c0 * c1 * max(g, 1)
            h = math.gcd(c, *s.coeffs)
            r0, s0, c0 = r1, s1, c1
            r1, s1, c1 = rem, _content_divided(s, h), c // h
        if other.is_zero():
            return r0, s0, other, c0
        # one exact division gives t; over the primitive part of other it
        # is integral (Gauss's lemma), so scale s and c by other's content
        m, prim = _content(other)
        t = (r0.scale(c0) - s0 * self).divexact(prim)
        return r0, s0.scale(m), t, c0 * m

    def divexact(self, other):
        """Exact quotient; NotDivisible if ``other`` does not divide."""
        q, r = _divide(self, other)
        if not r.is_zero():
            raise NotDivisible(f"({other}) does not divide ({self})")
        return q

    def normalized(self):
        """Split p = unit * monic with monic of valuation 0.

        Returns (unit, monic); the unit is c*q^val with c the leading
        coefficient.  Needs leading coefficient invertible.
        """
        if self.is_zero():
            raise DivisionByZero("cannot normalize the zero polynomial")
        dom = self.domain
        lead = self.coeffs[-1]
        if not dom.is_unit(lead):
            raise NotUnit(f"leading coefficient {dom.to_str(lead)} not a unit")
        monic = self.shift(-self.val).scale(dom.inv(lead))
        unit = LaurentPoly(dom, self.val, (lead,))
        return unit, monic

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"<{format_poly(self)} over {self.domain}>"


def _refuse(self, name, *value):
    raise dataclasses.FrozenInstanceError(
        f"cannot set or delete {name!r}: a LaurentPoly is immutable")


# the frozen __setattr__ and __delattr__ that dataclass generates call
# super() on the class from before slots were added, which raises
# TypeError for a name that is not a field
LaurentPoly.__setattr__ = LaurentPoly.__delattr__ = _refuse

# ``_store`` sets the fields through their slot descriptors, which
# __setattr__ does not guard
_set_domain = LaurentPoly.domain.__set__
_set_val = LaurentPoly.val.__set__
_set_coeffs = LaurentPoly.coeffs.__set__


def lincomb(a, x, b, y):
    """a x + b y for LaurentPolys over one domain, built in one pass.

    Both products are accumulated into one coefficient list, each
    coefficient reduced once over GF(p), and one polynomial is made of
    it; neither product nor their sum is formed on its own.  A row
    operation of a Smith form is this kernel on every entry of its rows.
    """
    dom = x.domain
    if not (a.domain is dom and b.domain is dom and y.domain is dom):
        for other in (a, b, y):
            x._check(other)
    f1, g1, f2, g2 = a.coeffs, x.coeffs, b.coeffs, y.coeffs
    e1, e2 = a.val + x.val, b.val + y.val
    # a vanishing product becomes the empty one at the other's exponent
    if not (f1 and g1):
        if not (f2 and g2):
            return _canonical(dom, 0, ())
        f1, g1, e1 = (), (), e2
    elif not (f2 and g2):
        f2, g2, e2 = (), (), e1
    lo = min(e1, e2)
    out = [dom.zero] * (max(e1 + len(f1) + len(g1),
                            e2 + len(f2) + len(g2)) - lo - 1)
    if len(f1) == 1:
        # the list is still zero: a constant multiple (a row update's
        # 1 x) is written in
        c = f1[0]
        out[e1 - lo:e1 - lo + len(g1)] = g1 if c == 1 else [c * d for d in g1]
        f1 = ()
    for e, f, g in ((e1 - lo, f1, g1), (e2 - lo, f2, g2)):
        # the longer factor in the inner loop
        if len(f) > len(g):
            f, g = g, f
        for i, c in enumerate(f, e):
            if c:
                for k, d in enumerate(g, i):
                    out[k] += c * d
    p = dom.characteristic
    return _canonical(dom, lo, [c % p for c in out] if p else out)


def integer_lift(polys, domain):
    """(den, lifts): the sequence ``polys`` over ``domain`` as ``lifts``
    over one positive common denominator den.

    Over Q the lifts are over Z, through ``QQ.to_ints``, and den is the
    lcm of every coefficient's denominator.  Over Z and Z/p the lifts
    are the polynomials themselves and den is 1.  ``from_integers``
    reads a lift back.
    """
    if domain.characteristic or not domain.is_field:
        return 1, list(polys)
    den, nums = domain.to_ints([c for p in polys for c in p.coeffs])
    nums = iter(nums)
    return den, [_canonical(ZZ, p.val, [next(nums) for _ in p.coeffs])
                 for p in polys]


def from_integers(domain, p, den=1, shift=0):
    """q^shift p / den read in ``domain``, for p over Z (over GF(p) its
    coefficients and den are residues already)."""
    if not p.coeffs:
        return LaurentPoly.zero(domain)
    return LaurentPoly(domain, p.val + shift, domain.from_ints(p.coeffs, den))


def _canonical(domain, val, coeffs):
    """A LaurentPoly from coefficients already in the domain's canonical
    form, as arithmetic on canonical operands leaves them; skips the
    normalizing pass of the constructor."""
    p = object.__new__(LaurentPoly)
    p._store(domain, val, coeffs)
    return p


def _content(p):
    """(content, primitive part) of a polynomial over Z; the content is
    positive, and 0 for the zero polynomial."""
    g = math.gcd(*p.coeffs)
    return g, _content_divided(p, g)


def _content_divided(p, g):
    """p / g over Z, for a positive g dividing every coefficient of p."""
    if g <= 1:
        return p
    return _canonical(p.domain, p.val, [c // g for c in p.coeffs])


def _divide(a: LaurentPoly, b: LaurentPoly):
    """Shared long division from the top.  Over Q and Z it is one integer
    pseudo-division of the numerators over common denominators; over Z a
    quotient that is not integral raises NotDivisible."""
    dom = a.domain
    if b.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if a.is_zero():
        return LaurentPoly.zero(dom), LaurentPoly.zero(dom)
    val = a.val - b.val
    if dom.characteristic == 0:
        if not dom.is_field:
            k, quo, rem = a.pseudo_divrem(b)
            if k != 1:
                raise NotDivisible(f"({b}) does not divide ({a}) over {dom}")
            return quo, rem
        da, num = dom.to_ints(a.coeffs)
        db, den = dom.to_ints(b.coeffs)
        k, quo, rem = _pseudo_divide(num, den)
        # a = num / da and b = den / db, so a = (quo db / (k da)) b +
        # rem / (k da): one rational per result coefficient
        return (_canonical(dom, val, dom.from_ints([c * db for c in quo],
                                                   k * da)),
                _canonical(dom, a.val, dom.from_ints(rem, k * da)))
    # a prime field: one inverse, then each step is exact.  The running
    # remainder is reduced mod p only where it is read: at the top
    # coefficient of each step, and once at the end.
    p = dom.characteristic
    rem = list(a.coeffs)
    binv = dom.inv(b.coeffs[-1])
    quo = [0] * max(len(rem) - len(b.coeffs) + 1, 0)
    top = len(b.coeffs) - 1
    tail = b.coeffs[:-1]
    for i in reversed(range(len(quo))):
        c = rem[i + top] % p
        if not c:
            continue
        c = quo[i] = c * binv % p
        for j, bc in enumerate(tail, i):
            rem[j] -= c * bc
    return (_canonical(dom, val, quo),
            _canonical(dom, a.val, [c % p for c in rem[:top]]))


def _pseudo_divide(num, den):
    """(k, quo, rem) with k num = quo den + rem, for integer coefficient
    lists (constant term first) and a nonzero top coefficient of den.

    Pseudo-division (Knuth, TAOCP vol. 2, 4.6.1), with each step scaled
    only by what it needs: a top coefficient c of the running remainder
    takes the quotient term c / l when the leading coefficient l of den
    divides it, and otherwise scales the remainder and the quotient so
    far by l / gcd(c, l).  So k divides a power of l, is 1 exactly when
    the quotient over Q is integral, and rem has fewer coefficients than
    den.
    """
    rem = list(num)
    top = len(den) - 1
    lead = den[-1]
    tail = den[:-1]
    k = 1
    quo = [0] * max(len(rem) - top, 0)
    for i in reversed(range(len(quo))):
        c = rem[i + top]
        if not c:
            continue
        if c % lead:
            g = math.gcd(c, lead)
            s, c = lead // g, c // g
            k *= s
            rem = [x * s for x in rem[:i + top]]
            for j in range(i + 1, len(quo)):
                quo[j] *= s
        else:
            c //= lead
        quo[i] = c
        for j, d in enumerate(tail, i):
            if d:
                rem[j] -= c * d
    return k, quo, rem[:top]


# -- named constructions ------------------------


def extremes_invertible(p: LaurentPoly) -> bool:
    """True iff p is nonzero and both extreme coefficients are units of A."""
    if p.is_zero():
        return False
    dom = p.domain
    return dom.is_unit(p.coeffs[0]) and dom.is_unit(p.coeffs[-1])


def q_bracket(n: int, domain: Domain = QQ) -> LaurentPoly:
    """[n]_q = 1 + q + ... + q^(n-1)."""
    if n < 1:
        raise ValueError(f"[n]_q needs n >= 1, got {n}")
    return LaurentPoly(domain, 0, [domain.one] * n)


_cyclo_int_cache: dict[int, tuple[int, ...]] = {1: (-1, 1)}


def _cyclotomic_int(n: int) -> tuple[int, ...]:
    """Integer coefficient tuple of the n-th cyclotomic polynomial."""
    if n not in _cyclo_int_cache:
        num = [-1] + [0] * (n - 1) + [1]  # q^n - 1
        for d in range(1, n):
            if n % d == 0:
                # Phi_d is monic, so k = 1 and the division is exact
                num = _pseudo_divide(num, _cyclotomic_int(d))[1]
        _cyclo_int_cache[n] = tuple(num)
    return _cyclo_int_cache[n]


def cyclotomic_poly(n: int, domain: Domain = QQ) -> LaurentPoly:
    """The n-th cyclotomic polynomial mapped into ``domain``."""
    if n < 1:
        raise ValueError(f"cyclotomic index must be >= 1, got {n}")
    return LaurentPoly(domain, 0, _cyclotomic_int(n))


def _totient(n: int) -> int:
    out, rest, d = n, n, 2
    while d * d <= rest:
        if rest % d == 0:
            out -= out // d
            while rest % d == 0:
                rest //= d
        d += 1
    return out - out // rest if rest > 1 else out


def factor_cyclotomic(p: LaurentPoly):
    """Split p = unit * prod(Phi_n ^ mult) * remainder over the rationals.

    Returns ``(unit, factors, remainder)`` where ``factors`` is a sorted
    list of (n, multiplicity), ``unit`` is c*q^k, and the monic
    valuation-0 ``remainder`` has no cyclotomic factor.  Phi_n has span
    phi(n) >= sqrt(n/2), so only n <= 2 span^2 can divide.
    """
    if p.domain is not QQ and p.domain != QQ:
        raise UnsupportedDomain(
            "cyclotomic factorization is canonical over Q only")
    if p.is_zero():
        raise DivisionByZero("cannot factor the zero polynomial")
    _, rem = p.normalized()
    # scaled to integer coefficients; dividing by the monic integer Phi_n
    # keeps them integral
    den, coeffs = QQ.to_ints(rem.coeffs)
    factors = []
    n = 0
    while n < 2 * (len(coeffs) - 1) ** 2:
        n += 1
        if _totient(n) > len(coeffs) - 1:
            continue
        phi = _cyclotomic_int(n)
        mult = 0
        # Phi_n is monic, so k = 1: an integer quotient or a remainder
        while not any((step := _pseudo_divide(coeffs, phi))[2]):
            coeffs, mult = step[1], mult + 1
        if mult:
            factors.append((n, mult))
    rem = LaurentPoly(QQ, 0, QQ.from_ints(coeffs, den))
    unit = LaurentPoly(QQ, p.val, (p.coeffs[-1],))
    return unit, factors, rem


# -- text format -------------------------------------------------------

_TOKEN_CHARS = set("+-*/^()q")

# ASCII only: str.isdigit() is also true of Unicode digits, which int()
# refuses (superscripts) or reads (other scripts)
_DIGITS = frozenset("0123456789")

# largest |e| that parse_poly accepts in q^e and (...)^e: a dense
# polynomial stores one coefficient per exponent in its span.  Equal to
# coxeter.MAX_DIHEDRAL_ORDER, so the family of every accepted I2(m)
# (entries of span m - 1) parses back from its text form.
MAX_EXPONENT = 10**5

# largest (span + 1) x coefficient bit size that a product or power in
# polynomial text may predict for its result; it is refused before it is
# computed.  (1 - q)^511 over Q fits, and (1 - q)^MAX_EXPONENT over Z/2.
MAX_PARSE_SIZE = 2**20

# largest convolution work, nonzero terms of one factor x length of the
# other, of one product in polynomial text (a power is computed by
# squaring, each product checked); over Z/p the size cap alone lets a
# dense power square in quadratic time.
MAX_PARSE_WORK = 2**22

# longest digit run that polynomial text may hold, CPython's default
# int_max_str_digits: a longer one is refused before int() converts it,
# which is quadratic in its length where the interpreter sets no limit
MAX_NUMERAL_DIGITS = 4300

# 2^61 - 1, a prime: a division in polynomial text over Q or Z is first
# tried modulo it, where an inexact one shows without coefficient growth
_CHECK_PRIME = (1 << 61) - 1


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            if j - i > MAX_NUMERAL_DIGITS:
                raise ParseError(f"numeral of {j - i} digits is longer "
                                 f"than {MAX_NUMERAL_DIGITS}")
            tokens.append(("num", int(text[i:j])))
            i = j
        elif ch in _TOKEN_CHARS:
            tokens.append((ch, ch))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r} in polynomial")
    return tokens


class _Parser:
    """Recursive descent over +, -, *, /, ^, parentheses and q powers.

    ``/`` is exact polynomial division (so ``1/2`` works over Q and fails
    over Z); juxtaposition like ``2q^3`` multiplies.
    """

    def __init__(self, tokens, domain):
        self.tokens = tokens
        self.pos = 0
        self.domain = domain

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        p = self.expr()
        if self.pos != len(self.tokens):
            raise ParseError(f"trailing input at token {self.pos}")
        return p

    def expr(self):
        # summed by exponent, so a sum of n terms costs n, not n x span
        dom = self.domain
        total = {}
        op = "+"
        while True:
            for e, c in self.term().items():
                # the constructor in from_dict reduces the sums
                total[e] = total.get(e, 0) + (c if op == "+" else -c)
            if self.peek() not in ("+", "-"):
                return LaurentPoly.from_dict(dom, total)
            op = self.take()[0]

    def term(self):
        p = self.factor()
        while True:
            nxt = self.peek()
            if nxt in ("*", "/"):
                op = self.take()[0]
                rhs = self.factor()
                if op == "*":
                    p = self.mul(p, rhs)
                else:
                    p = self.divide(p, rhs)
            elif nxt in ("num", "q", "("):
                p = self.mul(p, self.factor())
            else:
                return p

    def factor(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take()[0] == "-":
                sign = -sign
        p = self.primary()
        if sign < 0:
            p = -p
        return p

    def primary(self):
        kind = self.peek()
        if kind == "num":
            n = self.take()[1]
            return LaurentPoly.constant(self.domain, n)
        if kind == "q":
            self.take()
            e = 1
            if self.peek() == "^":
                self.take()
                e = self.signed_int()
            return LaurentPoly.q_power(self.domain, e)
        if kind == "(":
            self.take()
            p = self.expr()
            if self.peek() != ")":
                raise ParseError("missing closing parenthesis")
            self.take()
            if self.peek() == "^":
                self.take()
                e = self.signed_int()
                # |c| <= (len(p) max|c_p|)^|e| for each coefficient c
                self.check_size(abs(e) * p.span, abs(e) * (
                    _bits(p) + len(p.coeffs).bit_length()))
                p = self.power(p, e)
            return p
        if kind is None:
            raise ParseError("unexpected end of polynomial text")
        raise ParseError(f"unexpected token {kind!r}")

    def mul(self, a, b):
        self.check_size(a.span + b.span, _bits(a) + _bits(b) + min(
            len(a.coeffs), len(b.coeffs)).bit_length())
        # the convolution runs over the nonzero terms of its left factor
        work_a = _nonzeros(a) * len(b.coeffs)
        work_b = _nonzeros(b) * len(a.coeffs)
        if min(work_a, work_b) > MAX_PARSE_WORK:
            raise ParseError(
                f"product or power of {min(work_a, work_b)} term products "
                f"is beyond {MAX_PARSE_WORK}")
        return a * b if work_a <= work_b else b * a

    def power(self, p, e):
        """p^e by squaring, each product checked by ``mul``."""
        if e < 0:
            try:
                p, e = p.inverse(), -e
            except NotUnit as exc:
                raise ParseError(str(exc)) from exc
        result = LaurentPoly.one(self.domain)
        while e:
            if e & 1:
                result = self.mul(result, p)
            e >>= 1
            if e:
                p = self.mul(p, p)
        return result

    def divide(self, a, b):
        """The exact quotient a / b; ParseError if there is none."""
        if self.domain.characteristic == 0 and not _divides_mod_prime(a, b):
            raise ParseError(f"({b}) does not divide ({a})")
        try:
            return a.divexact(b)
        except (NotDivisible, DivisionByZero) as exc:
            raise ParseError(str(exc)) from exc

    def check_size(self, span, bits):
        """Refuse a result of predicted ``span`` and coefficient ``bits``
        beyond ``MAX_PARSE_SIZE``."""
        if self.domain.characteristic:
            # residues never outgrow the prime
            bits = self.domain.characteristic.bit_length()
        if (span + 1) * bits > MAX_PARSE_SIZE:
            raise ParseError(
                f"product or power of predicted span {span} with {bits}-bit "
                f"coefficients is beyond {MAX_PARSE_SIZE} bits")

    def signed_int(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take()[0] == "-":
                sign = -sign
        tok = self.take()
        if tok[0] != "num":
            raise ParseError("expected integer exponent")
        if tok[1] > MAX_EXPONENT:
            raise ParseError(f"exponent {sign * tok[1]} beyond "
                             f"+-{MAX_EXPONENT}")
        return sign * tok[1]


def _nonzeros(p: LaurentPoly) -> int:
    return sum(map(bool, p.coeffs))


def _divides_mod_prime(a: LaurentPoly, b: LaurentPoly) -> bool:
    """False when b does not divide a over Q, seen modulo ``_CHECK_PRIME``.

    With a and b scaled to integer coefficients, and the leading one of
    b a unit modulo the prime, an exact quotient over Q is integral at
    the prime and reduces to one there; so a nonzero remainder there
    proves the division inexact.  True when the remainder there is zero
    or the leading coefficient of b vanishes there.
    """
    if b.is_zero():
        return True
    # a and b over their denominators: rescaling keeps divisibility
    field = GF(_CHECK_PRIME)
    am, bm = (_canonical(field, p.val, [c % field.p for c in
                                        QQ.to_ints(p.coeffs)[1]])
              for p in (a, b))
    return bm.degree != b.degree or am.divrem(bm)[1].is_zero()


def _bits(p: LaurentPoly) -> int:
    """Bit size of p's largest coefficient, numerator plus denominator."""
    return max((c.numerator.bit_length() + c.denominator.bit_length()
                for c in p.coeffs),
               default=0)


def parse_poly(text: str, domain: Domain = QQ) -> LaurentPoly:
    """Parse textual syntax like ``1 - q + q^2`` or ``1/2*q^-3 + q``.

    An exponent above ``MAX_EXPONENT`` in absolute value raises
    ParseError, as does a numeral of more than ``MAX_NUMERAL_DIGITS``
    digits, a product or power whose predicted result has
    (span + 1) x coefficient bits above ``MAX_PARSE_SIZE``, a product
    whose convolution work is above ``MAX_PARSE_WORK`` (so
    ``(1 + q + q^2)^20000`` over Z/3), and a ``/`` that is not exact
    in ``domain`` (so ``(1 - q^5)/(3 - q)`` over Q).
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text")
    try:
        return _Parser(tokens, domain).parse()
    except IndexError:
        raise ParseError(f"unexpected end of input in {text!r}") from None


def _coeff_str(dom, c):
    """(is_negative, magnitude string) for display."""
    s = dom.to_str(c)
    if s.startswith("-"):
        return True, s[1:]
    return False, s


def format_poly(p: LaurentPoly) -> str:
    """Canonical text, descending exponents; parse_poly round-trips it."""
    if p.is_zero():
        return "0"
    dom = p.domain
    parts = []
    for e, c in reversed(p.items()):
        if not c:
            continue
        neg, mag = _coeff_str(dom, c)
        if e == 0:
            body = mag
        else:
            qs = "q" if e == 1 else f"q^{e}"
            body = qs if mag == "1" else f"{mag}*{qs}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)
