"""Coefficient domains for Laurent polynomial arithmetic.

Three domains are supported: the rationals ``QQ``, the integers ``ZZ`` and
prime fields ``GF(p)``.  Elements are plain Python values in a canonical
form: a ``Fraction`` over Q, an ``int`` over Z, a residue in [0, p) over
GF(p).  So an element is zero exactly when it is falsy, and ``+ - *`` are
Python's own operators on the values; over GF(p) a result is reduced
once, ``% p`` per coefficient produced (``characteristic`` is p there
and 0 over Q and Z).  The domain object maps values in (``normalize``),
inverts units and holds the integer convolution.

Rationals are ``fractions.Fraction``.  The hot loops over Q (the
product and long division of Laurent polynomials, every Smith form over
Q with its transforms and their inverses, the d^2 check of a family,
and the series-window elimination in ``linalg``) run on plain ints
instead: ``to_ints`` writes the elements over one common denominator
and ``from_ints`` reads them back, through ``laurent.integer_lift`` and
``laurent.from_integers`` for rows of Laurent polynomials.  Over Z and
GF(p) the elements are ints already, so the same code runs with
denominator 1.  ``poly_mul`` is the one integer convolution.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NotUnit, UnsupportedDomain


class Domain:
    """A commutative ring whose elements are canonical Python values.

    Subclasses fix the canonical form; ``zero`` and ``one`` are canonical
    elements, and ``normalize`` maps an int or a Fraction into that form;
    anything else raises TypeError.  Canonical elements are added,
    subtracted and multiplied with Python's operators, and a result is
    canonical as it is over Q and Z, and after one ``% characteristic``
    over GF(p).  A zero element is falsy.
    """

    name = "?"
    is_field = False
    characteristic = 0
    # the type of canonical elements that need no normalize, if any
    element_type = None
    zero = 0
    one = 1

    def from_int(self, n: int):
        raise NotImplementedError

    def from_fraction(self, fr):
        """Map a rational number into the domain; may fail over ZZ / GF(p)."""
        raise NotImplementedError

    def normalize(self, x):
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, Fraction):
            return self.from_fraction(x)
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def to_ints(self, values):
        """(den, nums): the elements of the sequence ``values`` as the
        integers nums over den; the inverse of ``from_ints``.  Elements
        of Z and Z/p are ints already, so den is 1."""
        return 1, list(values)

    def from_ints(self, nums, den=1):
        """The elements n / den for the integers n of ``nums``."""
        inv = self.inv(self.from_int(den))
        return [self.from_int(n * inv) for n in nums]

    def poly_mul(self, a, b):
        """Coefficients of the product of two dense coefficient lists: the
        plain convolution, as over Z; Q and GF(p) run it on integers."""
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return out

    def to_str(self, a) -> str:
        return str(a)

    def __repr__(self):
        return self.name


class RationalField(Domain):
    name = "Q"
    is_field = True
    element_type = Fraction
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def from_fraction(self, fr):
        return fr

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise NotUnit("0 is not invertible")
        return 1 / Fraction(a)

    def __reduce__(self):
        # unpickle to the module's one instance, which equality relies on
        return "QQ"

    def poly_mul(self, a, b):
        # one integer convolution over common denominators: a rational
        # product per term would cost a gcd per term
        da, na = self.to_ints(a)
        db, nb = self.to_ints(b)
        return self.from_ints(super().poly_mul(na, nb), da * db)

    def to_ints(self, values):
        """(den, nums): the rationals of the sequence ``values`` (ints
        too) as the integers nums over den, the lcm of their
        denominators; the inverse of ``from_ints``."""
        den = math.lcm(*(c.denominator for c in values))
        return den, [c.numerator * (den // c.denominator) for c in values]

    def from_ints(self, nums, den=1):
        """The rationals n / den for the integers n of ``nums``."""
        if den == 1:
            return [Fraction(n) for n in nums]
        return [Fraction(n, den) for n in nums]


class IntegerRing(Domain):
    name = "Z"
    is_field = False
    element_type = int

    def from_int(self, n):
        return int(n)

    def from_fraction(self, fr):
        if fr.denominator != 1:
            raise UnsupportedDomain(f"{fr} is not an integer")
        return fr.numerator

    def is_unit(self, a):
        return a in (1, -1)

    def inv(self, a):
        if a in (1, -1):
            return a
        raise NotUnit(f"{a} is not a unit in Z")

    def __reduce__(self):
        return "ZZ"


# Miller-Rabin to the thirteen prime bases up to 41 decides primality
# for every n below this bound (Sorenson and Webster, Math. Comp. 86 (2017))
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic primality for n below ``_MILLER_RABIN_LIMIT``."""
    if n < 2 or any(n % b == 0 for b in _MILLER_RABIN_BASES):
        return n in _MILLER_RABIN_BASES
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    # b witnesses compositeness unless b^odd = 1 or some b^(odd 2^i) = -1
    return not any(pow(b, odd, n) != 1 and all(
        pow(b, odd << i, n) != n - 1 for i in range(twos))
        for b in _MILLER_RABIN_BASES)


class PrimeField(Domain):
    is_field = True

    def __init__(self, p: int):
        if not (p < _MILLER_RABIN_LIMIT and _is_prime(p)):
            raise UnsupportedDomain(
                f"{p} is not a prime below {_MILLER_RABIN_LIMIT}")
        self.p = p
        self.name = f"Z/{p}"
        self.characteristic = p

    def from_int(self, n):
        return n % self.p

    def from_fraction(self, fr):
        den = fr.denominator % self.p
        if den == 0:
            raise UnsupportedDomain(f"denominator of {fr} vanishes mod {self.p}")
        return fr.numerator * pow(den, -1, self.p) % self.p

    def poly_mul(self, a, b):
        # plain integer convolution, reduced once per coefficient
        p = self.p
        return [c % p for c in super().poly_mul(a, b)]

    def is_unit(self, a):
        return a % self.p != 0

    def inv(self, a):
        if a % self.p == 0:
            raise NotUnit(f"0 is not invertible mod {self.p}")
        return pow(a, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __reduce__(self):
        return GF, (self.p,)


QQ = RationalField()
ZZ = IntegerRing()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """The prime field with p elements (instances are cached)."""
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def domain_from_spec(spec: str) -> Domain:
    """Parse a coefficient choice: ``Q``, ``Z`` or ``Zp:<p>``."""
    spec = spec.strip()
    if spec == "Q":
        return QQ
    if spec == "Z":
        return ZZ
    if spec.startswith("Zp:"):
        try:
            p = int(spec[3:])
        except ValueError:
            raise UnsupportedDomain(
                f"prime in {spec!r} is not an integer") from None
        return GF(p)
    raise UnsupportedDomain(f"unknown coefficient spec {spec!r}")
