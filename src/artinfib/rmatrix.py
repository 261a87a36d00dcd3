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
    if not a:
        # a row-free factor cannot carry its column count, so it fits any b
        return ()
    ra, ca = mat_shape(a)
    rb, cb = mat_shape(b)
    if ca != rb:
        raise ValueError(f"shape mismatch {ra}x{ca} times {rb}x{cb}")
    out = []
    for i in range(ra):
        row = []
        for j in range(cb):
            # sum the products' coefficients by exponent, so each entry
            # is built as a LaurentPoly once
            acc = {}
            for t in range(ca):
                e = a[i][t]
                f = b[t][j]
                if not (e.is_zero() or f.is_zero()):
                    for k, c in enumerate(domain.poly_mul(e.coeffs, f.coeffs),
                                          e.val + f.val):
                        acc[k] = domain.add(acc[k], c) if k in acc else c
            row.append(LaurentPoly.from_dict(domain, acc))
        out.append(tuple(row))
    return tuple(out)


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
