"""Small helpers for matrices over A[q, q^-1].

Matrices are tuples of row tuples of LaurentPoly; empty dimensions are
legal (a 0 x m matrix is ``()``, an m x 0 matrix has m empty rows).
"""

from __future__ import annotations

import functools
import operator

from .domains import Domain
from .laurent import LaurentPoly, from_integers, integer_lift


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

    Each row of ``a`` and each column of ``b`` is lifted once
    (``integer_lift``: over Q to Z, over one denominator), every entry
    is summed from products of the lifts, and it is read back once,
    over the product of the two denominators.
    """
    if not a:
        # a row-free factor cannot carry its column count, so it fits any b
        return ()
    ra, ca = mat_shape(a)
    rb, cb = mat_shape(b)
    if ca != rb:
        raise ValueError(f"shape mismatch {ra}x{ca} times {rb}x{cb}")
    rows = [integer_lift(row, domain) for row in a]
    # b has a column only if it has rows, so no sum below is empty
    cols = [integer_lift(col, domain) for col in zip(*b)]
    return tuple(tuple(from_integers(domain, functools.reduce(
        operator.add, map(operator.mul, xs, ys)), dr * dc)
        for dc, ys in cols) for dr, xs in rows)


def mat_is_zero(mat) -> bool:
    return all(e.is_zero() for row in mat for e in row)


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
