"""Small helpers for matrices over A[q, q^-1].

Matrices are tuples of row tuples of LaurentPoly; empty dimensions are
legal (a 0 x m matrix is ``()``, an m x 0 matrix has m empty rows).
"""

from __future__ import annotations

from .domains import Domain
from .laurent import LaurentPoly


def mat_shape(mat):
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    return rows, cols


def mat_identity(n: int, domain: Domain):
    one = LaurentPoly.one(domain)
    zero = LaurentPoly.zero(domain)
    return tuple(tuple(one if i == j else zero for j in range(n))
                 for i in range(n))


def mat_mul(a, b, domain: Domain):
    """The exact product a b.

    Each row of ``a`` and each column of ``b`` is written once as
    integers over one denominator (``Domain.to_ints``), every entry is
    summed from integer convolutions, and each of its coefficients is
    read back once, over the product of the two denominators.
    """
    if not a:
        # a row-free factor cannot carry its column count, so it fits any b
        return ()
    ra, ca = mat_shape(a)
    rb, cb = mat_shape(b)
    if ca != rb:
        raise ValueError(f"shape mismatch {ra}x{ca} times {rb}x{cb}")
    rows = [_integer_vector(row, domain) for row in a]
    cols = [_integer_vector(col, domain) for col in zip(*b)]
    return tuple(tuple(_dot(row, col, domain) for col in cols)
                 for row in rows)


def _integer_vector(entries, domain):
    """(den, terms): ``entries`` as integer polynomials over the common
    denominator den, each a (valuation, coefficients) pair or None for
    zero."""
    den, nums = domain.to_ints([c for e in entries for c in e.coeffs])
    terms, start = [], 0
    for e in entries:
        end = start + len(e.coeffs)
        terms.append((e.val, nums[start:end]) if e.coeffs else None)
        start = end
    return den, terms


def _dot(row, col, domain):
    """The entry sum(row[t] col[t]) of two ``_integer_vector`` results."""
    (dr, xs), (dc, ys) = row, col
    pairs = [(x, y) for x, y in zip(xs, ys) if x and y]
    if not pairs:
        return LaurentPoly.zero(domain)
    lo = min(x[0] + y[0] for x, y in pairs)
    acc = [0] * (max(x[0] + len(x[1]) + y[0] + len(y[1])
                     for x, y in pairs) - 1 - lo)
    for (xv, xc), (yv, yc) in pairs:
        for i, u in enumerate(xc, xv + yv - lo):
            if u:
                for k, w in enumerate(yc, i):
                    acc[k] += u * w
    return LaurentPoly(domain, lo, domain.from_ints(acc, dr * dc))


def mat_is_zero(mat) -> bool:
    return all(e.is_zero() for row in mat for e in row)


def mat_eq(a, b) -> bool:
    return mat_shape(a) == mat_shape(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def det_bareiss(mat, domain: Domain) -> LaurentPoly:
    """Exact determinant by fraction-free elimination.

    Works over any integral domain since every division in the Bareiss
    scheme is exact.  Row swaps flip the sign.
    """
    n, m = mat_shape(mat)
    if n != m:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return LaurentPoly.one(domain)
    a = [list(row) for row in mat]
    sign = 1
    prev = LaurentPoly.one(domain)
    for k in range(n - 1):
        if a[k][k].is_zero():
            for i in range(k + 1, n):
                if not a[i][k].is_zero():
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return LaurentPoly.zero(domain)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = num.divexact(prev)
            a[i][k] = LaurentPoly.zero(domain)
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det
