"""Smith normal form over k[q, q^-1] and the invariants built on it.

Over a field k the Laurent ring is a Euclidean domain (size = span,
units = c q^j), so any matrix has a diagonal form U A V = D with unit
transforms and a divisibility chain on the diagonal.  Cohomology and
homology of a complex of free modules both fall out of one such
diagonal form per differential: only its invariant factors are read, so
it is computed without the transforms.

``verify_shift_theorem`` compares, degree by degree, the windowed
series-module cohomology dimension with the torsion A-dimension of the
next cohomology group up, which is the computable content of the
degree-shift isomorphism for well filtered complexes.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

from .complexes import CochainComplex, is_well_filtered
from .domains import ZZ, Domain
from .errors import (GroupTooLarge, NotStabilized, NotWellFiltered,
                     RankMismatch, UnsupportedDomain)
from .laurent import (LaurentPoly, factor_cyclotomic, format_poly,
                      from_integers, integer_lift, lincomb, rescale)
from .rmatrix import mat_shape
from .series import (WINDOW_DOUBLINGS, m_cohomology_dim_window,
                     window_radius)


@dataclasses.dataclass(frozen=True)
class SmithDecomposition:
    """U A V = D with D diagonal and a divisibility chain.

    U and V are square with unit determinant; Uinv and Vinv are their
    exact inverses.  Nonzero diagonal entries are normalized to monic
    valuation 0 and occupy the leading positions.
    """

    domain: Domain
    shape: tuple
    U: tuple
    Uinv: tuple
    V: tuple
    Vinv: tuple
    D: tuple

    @property
    def diagonal(self) -> tuple:
        m, n = self.shape
        return tuple(self.D[t][t] for t in range(min(m, n)))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if not d.is_zero())

    @property
    def invariant_factors(self) -> tuple:
        return tuple(d for d in self.diagonal if not d.is_zero())


def smith_normal_form(A, domain: Domain,
                      shape: Optional[tuple] = None) -> SmithDecomposition:
    """Diagonalize a matrix over k[q, q^-1], Hermite form first.

    The rows of [D | U] are brought to echelon form, then the columns of
    [D ; V] (a row pass on the transposes), alternating until D is
    diagonal; a pair on the diagonal that breaks the divisibility chain
    is merged and the alternation resumed.  The pass starts on the long
    side, so a tall input of full column rank with D = [I ; 0] keeps V a
    permutation (and a wide one keeps U one).

    What each pass bounds:

    * an entry of D above a pivot is reduced modulo the pivot, so its
      span is below the pivot's;
    * the rows of U that vanish on D (a basis of the left kernel) get
      pivots of their own, and every other row of U is reduced modulo
      them, so in each such pivot column the other entries of U have
      span below the pivot's; likewise the kernel columns of V;
    * over Q, D, U and V hold integers, and a row of [D | U] (column
      of [D ; V]) is divided by its integer content after every
      elimination step, so none carries a rational common factor;
    * a column is cleared by one 2x2 Bezout step per entry, with the
      cofactors from an extended Euclid on the two entries alone.

    Bit sizes have no bound beyond what these give.  Over Q, D, U and
    V stay on integers throughout, and Uinv and Vinv on integer vectors
    over one denominator each (``_Inverse``).  The diagonal is
    normalized on these, and every entry is read over Q once, as the
    decomposition is returned.  Cohomology reads only D and runs the
    same passes without transforms (see ``_groups``).
    Only field coefficients are supported; the integer Laurent ring has
    no Smith form in general.  A row-free matrix cannot carry its own
    column count, so pass ``shape`` explicitly when either dimension is
    zero.
    """
    if not domain.is_field:
        raise UnsupportedDomain(
            f"Smith normal form needs field coefficients, not {domain}")
    A = tuple(tuple(row) for row in A)
    m, n = mat_shape(A) if shape is None else shape
    if len(A) != m or any(len(row) != n for row in A):
        raise RankMismatch(f"matrix does not have shape {m}x{n}")
    D, U, Uinv, V, Vinv = _diagonalize(A, m, n, domain, transforms=True)
    # d_t = c q^v times a monic polynomial of valuation 0: the unit c q^v
    # leaves row t of U (column t of V) and enters vector t of Uinv (Vinv)
    units = {}
    for t in range(min(m, n)):
        d = D[t][t]
        if not d.is_zero():
            units[t] = (d.coeffs[-1], -d.val)
            (Uinv if m >= n else Vinv).rescale(t, 1, d.coeffs[-1], d.val)
    # every entry is read over the field once, here
    over = lambda e, t=None: from_integers(domain, e,
                                           *units.get(t, (1, 0)))
    D = [[over(e, i) for e in r] for i, r in enumerate(D)]
    U = [[over(e, i if m >= n else None) for e in r]
         for i, r in enumerate(U)]
    V = [[over(e, None if m >= n else j) for j, e in enumerate(r)]
         for r in V]
    Uinv, Vinv = _transpose(Uinv.over(domain), m), Vinv.over(domain)
    freeze = lambda mat: tuple(tuple(r) for r in mat)
    return SmithDecomposition(domain=domain, shape=(m, n), U=freeze(U),
                              Uinv=freeze(Uinv), V=freeze(V),
                              Vinv=freeze(Vinv), D=freeze(D))


def _diagonalize(A, m, n, domain, transforms):
    """(D, U, Uinv, V, Vinv) with U A V = D diagonal, a divisibility chain.

    The diagonal is not normalized.  With ``transforms`` false, U and
    Vinv have no columns and Uinv and V no rows: every row operation
    then touches D alone, and ``_echelon`` has no kernel rows to keep
    small.  Over Q, D, U and V are returned over Z: row i of [A | I]
    enters times the lcm l_i of its denominators (``integer_lift``), so
    U starts as diag(l), and every step, the divisibility check and the
    merge run on ints.  Each is the step over Q times a nonzero rational
    per row (per column in the column pass), which Uinv (Vinv) takes
    inverted on the matching vector.  So the pivots are those over Q, and the
    diagonal entries are the invariant factors up to units of
    Q[q, q^-1].  Uinv and Vinv are ``_Inverse`` objects, which hold
    the columns of Uinv and the rows of Vinv (None without
    ``transforms``), starting at diag(1/l) and I.
    """
    ring, lam, D = domain if domain.characteristic else ZZ, [], []
    for r in A:
        k, row = integer_lift(r, domain)
        lam.append(k)
        D.append(row)
    if transforms:
        U, V = _diag(ring, lam), _diag(ring, [1] * n)
        Uinv = _Inverse(_diag(ring, [1] * m), lam)
        Vinv = _Inverse(_diag(ring, [1] * n), [1] * n)
    else:
        U, Uinv, V, Vinv = [[] for _ in range(m)], None, [], None
    one = LaurentPoly.one(ring)
    # A cap on the passes turns a faulty elimination step, which would
    # alternate forever, into an error.  No count is proved for this pivot
    # rule (least span first, wherever it sits), so the cap is set well
    # above the longest runs found, in terms of S, the total span of A.
    # Random matrices up to 6x6, shifted by up to q^60 or not, and the
    # Salvetti complexes A3-H4 end within 4 passes.  The longest family
    # found is diagonal, d_i = (q - 2)^(k-i) (q - 3)^i, whose chain needs
    # a repair per step: k^2 = S passes.  No repair was followed by more
    # than 3 passes, and 2 (min(m, n) + 1) (S + 1) is at least 4 times
    # the passes of every input tried.
    limit = 2 * (min(m, n) + 1) * (
        sum(e.span for r in A for e in r if e.coeffs) + 1)
    # start on the long side, where the kernel is, and leave the other
    # transform as close to a permutation as the input allows
    by_rows = m >= n
    for _ in range(limit):
        if by_rows:
            _echelon(D, U, Uinv, V, Vinv, domain)
        else:
            # the column pass is the row pass on the transposes, with the
            # roles of U and V exchanged; the inverses are indexed by the
            # rows of their transform either way
            T = [_transpose(M, k) for M, k in ((D, n), (V, n), (U, m))]
            _echelon(T[0], T[1], Vinv, T[2], Uinv, domain)
            D, V, U = [_transpose(M, k) for M, k in zip(T, (m, n, m))]
        by_rows = not by_rows
        if not _is_diagonal(D):
            continue
        diag = [D[t][t] for t in range(min(m, n))]
        bad = next((t for t in range(len(diag) - 1)
                    if not diag[t + 1].is_zero() and not
                    diag[t + 1].pseudo_divrem(diag[t])[2].is_zero()), None)
        if bad is None:
            return D, U, Uinv, V, Vinv
        # d_t does not divide d_(t+1): put d_(t+1) into row t, where the
        # column pass replaces d_t by their gcd
        _row_addmul(D, U, Uinv, bad, bad + 1, one)
        by_rows = False
    raise RuntimeError(f"{m}x{n} Smith form not diagonal after {limit} "
                       f"passes: an elimination step is at fault")


def _diag(ring, xs):
    """The diagonal matrix with the integers ``xs`` on its diagonal."""
    zero = LaurentPoly.zero(ring)
    return [[LaurentPoly.constant(ring, x) if i == j else zero
             for j in range(len(xs))] for i, x in enumerate(xs)]


def _transpose(mat, cols):
    """Transpose of a list-of-rows matrix with ``cols`` columns."""
    return [list(c) for c in zip(*mat)] if mat else [[] for _ in range(cols)]


def _is_diagonal(D):
    return all(e.is_zero() for i, row in enumerate(D)
               for j, e in enumerate(row) if i != j)


class _Inverse:
    """The inverse of a transform T under row operations, on integers.

    Vector i is the column of T^-1 that row i of T meets in T T^-1 = I:
    Laurent polynomials over Z, to be read over its positive integer
    denominator.  Over GF(p) the polynomials are over GF(p) and every
    denominator stays 1.  Each row operation on T is the inverse column
    operation here, brought to the lcm of the denominators it meets,
    after which a vector and its denominator are divided by their
    common factor.  So no rational is formed until ``over``.
    """

    def __init__(self, vecs, dens):
        self.vecs, self.dens = vecs, list(dens)

    def over(self, domain):
        """The vectors read in ``domain``."""
        return [[from_integers(domain, e, den) for e in vec]
                for vec, den in zip(self.vecs, self.dens)]

    def swap(self, i, j):
        self.vecs[i], self.vecs[j] = self.vecs[j], self.vecs[i]
        self.dens[i], self.dens[j] = self.dens[j], self.dens[i]

    def addmul(self, i, j, c):
        """For row i += c * row j of T: vector j -= c * vector i."""
        (si, sj), den = self._lcm(i, j)
        c = rescale(c, -si)
        s = LaurentPoly.constant(c.domain, sj)
        self.vecs[j] = [b if sj == 1 and not a.coeffs else lincomb(s, b, c, a)
                        for a, b in zip(self.vecs[i], self.vecs[j])]
        self._settle(j, den)

    def combine(self, i, j, M, det):
        """For (row i, row j) := M (row i, row j) of T, M = (a, b, c, d)
        of constant determinant ``det``: (vector i, vector j) :=
        (vector i, vector j) (d, -b; -c, a) / det.  Over GF(p) det is 1
        (``LaurentPoly.pseudo_xgcd``)."""
        a, b, c, d = M
        (si, sj), den = self._lcm(i, j)
        sign = -1 if det < 0 else 1
        a, c = rescale(a, sign * sj), rescale(c, -sign * sj)
        b, d = rescale(b, -sign * si), rescale(d, sign * si)
        x, y = self.vecs[i], self.vecs[j]
        self.vecs[i] = [lincomb(d, u, c, v) for u, v in zip(x, y)]
        self.vecs[j] = [lincomb(a, v, b, u) for u, v in zip(x, y)]
        self._settle(i, den * abs(det))
        self._settle(j, den * abs(det))

    def rescale(self, i, k, g, shift=0):
        """For row i *= k / (g q^shift) of T, k and g nonzero integers
        (residues over GF(p)): vector i *= g q^shift / k."""
        if k < 0:
            k, g = -k, -g
        h = math.gcd(g, self.dens[i])
        vec = [rescale(e, g // h) for e in self.vecs[i]]
        self.vecs[i] = [e.shift(shift) for e in vec] if shift else vec
        self._settle(i, self.dens[i] // h * k)

    def _lcm(self, i, j):
        """((l / den_i, l / den_j), l) for l the lcm of the two."""
        di, dj = self.dens[i], self.dens[j]
        g = math.gcd(di, dj)
        return (dj // g, di // g), di // g * dj

    def _settle(self, i, den):
        """Denominator ``den`` for vector i, both divided by their gcd."""
        if den > 1:
            g = math.gcd(den, *(c for e in self.vecs[i] for c in e.coeffs))
            if g > 1:
                self.vecs[i] = [rescale(e, 1, g) for e in self.vecs[i]]
                den //= g
        self.dens[i] = den


# Row operations on D, mirrored on the rows of the transform T and,
# inverted, on the vectors of Tinv (an ``_Inverse``, or None without
# transforms), so that T A (...) = D and T Tinv = I stay true.

def _row_swap(D, T, Tinv, i, j):
    D[i], D[j] = D[j], D[i]
    T[i], T[j] = T[j], T[i]
    if Tinv is not None:
        Tinv.swap(i, j)


def _row_addmul(D, T, Tinv, i, j, c):
    """Row i += c * row j."""
    one = LaurentPoly.one(c.domain)
    for X in (D, T):
        X[i] = [x if not y.coeffs else lincomb(one, x, c, y)
                for x, y in zip(X[i], X[j])]
    if Tinv is not None:
        Tinv.addmul(i, j, c)


def _row_combine(D, T, Tinv, i, j, M, det):
    """(row i, row j) := M (row i, row j) for M = (a, b, c, d) of constant
    determinant ``det``, whose inverse is (d, -b; -c, a) / det."""
    a, b, c, d = M
    for X in (D, T):
        X[i], X[j] = ([lincomb(a, x, b, y) for x, y in zip(X[i], X[j])],
                      [lincomb(c, x, d, y) for x, y in zip(X[i], X[j])])
    if Tinv is not None:
        Tinv.combine(i, j, M, det)


def _row_rescale(D, T, Tinv, i, k, g):
    """Row i *= k / g over Z, for integers k and g with g dividing it."""
    for X in (D, T):
        X[i] = [rescale(e, k, g) for e in X[i]]
    if Tinv is not None:
        Tinv.rescale(i, k, g)


def _echelon(D, T, Tinv, S, Sinv, domain):
    """Row echelon form of [D | T] by unimodular row ops.

    T, Tinv take the row ops; the columns of D are only permuted, which
    S, Sinv (the column transform) take, so that D's pivots land on its
    diagonal.  Each pivot is the entry of minimal span left in the block;
    the entries below it are cleared (by division where it divides them,
    else by one Bezout step each) and those above it reduced modulo it, so
    a unit pivot leaves its column clear.  The rows of T that vanish on D
    are the left kernel; they get pivots of their own in T, and the other
    rows are reduced modulo those.  A T with no columns skips that phase.

    Over Q (``domain``) D and T hold integers, and the same steps run
    on them, each equal to the step over Q times a nonzero rational per
    row, a unit over Q: a division is a pseudo-division, row i := k row
    i - quo row t, and a Bezout step has determinant c
    (``LaurentPoly.pseudo_divrem`` and ``pseudo_xgcd``).  After each
    step a row of [D | T] is divided by its integer content.  Tinv and
    Sinv are ``_Inverse`` objects (None without transforms); Tinv takes
    each rational inverted on the matching vector.  Spans and zero
    patterns are those over Q, and so are the pivots.
    """
    m = len(D)
    n = len(D[0]) if m else 0

    def shrink(i):
        # over Z, the content of the whole row of [D | T] keeps both
        # integral and primitive (D's row alone when T has no columns)
        if domain.characteristic:
            return
        g = math.gcd(*(c for e in D[i] + T[i] for c in e.coeffs))
        if g > 1:
            _row_rescale(D, T, Tinv, i, 1, g)

    def clear(t, col):
        # zero col(.) below row t, leaving a gcd in row t, then reduce
        # the rows above modulo it
        for i in range(t + 1, m):
            b = col(i)
            if b.is_zero():
                continue
            a = col(t)
            k, quo, rem = b.pseudo_divrem(a)
            if rem.is_zero():
                reduce(i, t, k, quo)
                continue
            # one 2x2 Bezout step instead of a Euclidean chain of row ops
            g, s, u, c = a.pseudo_xgcd(b)
            _row_combine(D, T, Tinv, t, i, (s, u, -b.divexact(g),
                                            a.divexact(g)), c)
            shrink(t)
            shrink(i)
        for i in range(t):
            if not col(i).is_zero():
                reduce(i, t, *col(i).pseudo_divrem(col(t))[:2])

    def reduce(i, t, k, quo):
        # row i := k row i - quo row t, where k = 1 but over Z
        if quo.is_zero():
            return
        if k != 1:
            _row_rescale(D, T, Tinv, i, k, 1)
        _row_addmul(D, T, Tinv, i, t, -quo)
        shrink(i)

    def best(rows, cols, entry):
        # minimal span, then fewest entries in its column to clear
        found = None
        for j in cols:
            # len(coeffs) is span + 1 on a nonzero entry
            col = [(len(e.coeffs), i) for i in rows
                   if (e := entry(i, j)).coeffs]
            for size, i in col:
                key = (size, len(col))
                if found is None or key < found[0]:
                    found = (key, i, j)
        return found

    t = 0
    while t < min(m, n):
        found = best(range(t, m), range(t, n), lambda i, j: D[i][j])
        if found is None:
            break
        _, i, j = found
        if i != t:
            _row_swap(D, T, Tinv, t, i)
        if j != t:
            for r in D:
                r[t], r[j] = r[j], r[t]
            for r in S:
                r[t], r[j] = r[j], r[t]
            if Sinv is not None:
                Sinv.swap(t, j)
        clear(t, lambda i: D[i][t])
        t += 1
    if not any(T):
        # no transform, so no kernel rows to keep small
        return
    # rows t.. vanish on D; T is invertible, so each has a pivot left in
    # a column of T that no earlier kernel row took
    free = set(range(m))
    for k in range(t, m):
        _, i, j = best(range(k, m), free, lambda i, j: T[i][j])
        if i != k:
            _row_swap(D, T, Tinv, k, i)
        free.discard(j)
        clear(k, lambda i: T[i][j])


@dataclasses.dataclass(frozen=True)
class InvariantFactors:
    """H^degree = R^free_rank + sum of R/(f) over the torsion chain.

    Torsion factors are normalized (monic, valuation 0), nonconstant,
    and each divides the next.  The A-dimension of the torsion part is
    the sum of the spans.
    """

    degree: int
    free_rank: int
    torsion: tuple

    @property
    def torsion_dim(self) -> int:
        return sum(f.span for f in self.torsion)

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        if self.free_rank == 1:
            parts.append("R")
        elif self.free_rank:
            parts.append(f"R^{self.free_rank}")
        parts.extend(f"R/({format_poly(f)})" for f in self.torsion)
        return " + ".join(parts)


# the most cells a complex may have for its Smith forms to run: A9 over
# Q (2^9 cells) takes about 66 s on a 2-core Intel Xeon VM under Python
# 3.11, and A10 (2^10) did not finish in 240 s with its memory still
# growing
MAX_SMITH_CELLS = 2 ** 9


def check_smith_cells(cells: int) -> None:
    """Raise GroupTooLarge for a complex of more than ``MAX_SMITH_CELLS``."""
    if cells > MAX_SMITH_CELLS:
        raise GroupTooLarge(
            f"complex has {cells} cells, more than the {MAX_SMITH_CELLS} "
            f"whose Smith forms are within reach")


def _groups(C: CochainComplex, homological: bool) -> tuple:
    """Invariant factors of C in degrees 0..top, one Smith form per map.

    The image of d^k is free, so coker d^(k-1) is H^k plus a free
    module: the torsion of H^k is the nonunit invariant factors of
    d^(k-1), and the free rank is r_k - rank d^k - rank d^(k-1).  A
    matrix and its transpose share their invariant factors, so H_k
    takes its torsion from d^k with the same free rank.

    Only the diagonal is read, so the Smith forms run without
    transforms.  Of ``smith_normal_form``'s bounds, those on D hold as
    they are: entries above a pivot have span below the pivot's, and
    over Q each row (column) of D is kept as primitive integers.  The
    monic factors over Q are built once, from the final diagonal.
    Nothing bounds U or V, since neither is built.  A complex of more
    than ``MAX_SMITH_CELLS`` cells raises GroupTooLarge before any
    Smith form runs.
    """
    dom = C.domain
    if not dom.is_field:
        raise UnsupportedDomain(
            f"cohomology needs field coefficients, not {dom}")
    check_smith_cells(sum(C.ranks))
    # factors[k] belongs to d^(k-1); d^-1 and d^top are zero maps
    factors = [()] + [_invariant_factors(d, C.ranks[k + 1], C.ranks[k], dom)
                      for k, d in enumerate(C.diffs)] + [()]
    return tuple(InvariantFactors(
        degree=k,
        free_rank=C.ranks[k] - len(factors[k]) - len(factors[k + 1]),
        torsion=tuple(f for f in factors[k + 1 if homological else k]
                      if f.span > 0))
        for k in range(C.top_degree + 1))


def _invariant_factors(A, m, n, domain) -> tuple:
    """Nonzero diagonal of a transform-free Smith form, monic, valuation 0."""
    D = _diagonalize(A, m, n, domain, transforms=False)[0]
    diag = [D[t][t] for t in range(min(m, n))]
    # over Q the diagonal comes back over Z; each entry is read over the
    # field already monic, with valuation 0
    return tuple(from_integers(domain, d, d.coeffs[-1], -d.val)
                 for d in diag if d.coeffs)


def cohomology(C: CochainComplex) -> tuple:
    """Invariant factors of every H^k = ker d^k / im d^(k-1).

    The torsion of H^k is the nonunit invariant factors of d^(k-1).
    """
    return _groups(C, homological=False)


def homology(C: CochainComplex) -> tuple:
    """Invariant factors of every H_k of the complex, read as chains.

    Returned in homological degrees 0..top, so entry k describes H_k;
    its torsion is the nonunit invariant factors of d^k.
    """
    return _groups(C, homological=True)


@dataclasses.dataclass(frozen=True)
class DegreeShift:
    """One degree of the shift comparison.

    ``m_dim`` is the windowed dimension of H^degree of the series-module
    complex; ``shifted_torsion_dim`` is the torsion A-dimension of
    H^(degree+1) of the Laurent complex.  ``match`` needs the dimensions
    equal and both free ranks zero, since a free summand on either side
    would make the module infinite-dimensional over A.
    """

    degree: int
    m_dim: int
    shifted_torsion_dim: int
    free_rank_here: int
    free_rank_above: int
    radius: int
    match: bool


@dataclasses.dataclass(frozen=True)
class ShiftReport:
    """The per-degree comparison, with the Laurent cohomology it used."""

    degrees: tuple
    cohomology: tuple

    @property
    def ok(self) -> bool:
        return all(d.match for d in self.degrees)


def verify_shift_theorem(C: CochainComplex, radius: Optional[int] = None,
                         progress=None) -> ShiftReport:
    """Certify H^k(series side) = H^(k+1)(Laurent side) in each degree.

    Each degree starts at window ``radius`` (None: 4x the largest entry
    reach); on a non-stabilized answer the radius doubles, at most
    ``WINDOW_DOUBLINGS`` times, before giving up.  Before any work is
    done, the initial radius is read by ``series.window_radius`` for
    every degree: one that is not an integer raises TypeError; one
    beyond the last the default schedule tries, 2^WINDOW_DOUBLINGS
    times the default, or at which some degree's window would hold too
    many entries or rows raises WindowTooLarge; one that leaves some
    degree no window interior raises WindowTooSmall.

    Raises NotWellFiltered (with the failing trace attached) when the
    complex does not satisfy the filtration conditions the shift
    argument needs, and NotStabilized, carrying the (radius, dim) pairs
    it tried, when the window dimensions keep changing after the allowed
    doublings.  ``progress``, if given, is called with each DegreeShift
    as soon as it is known, so long runs can stream results.
    """
    radius = window_radius(C, radius, range(C.top_degree + 1),
                           WINDOW_DOUBLINGS)[0]
    wf = is_well_filtered(C)
    if not wf.ok:
        raise NotWellFiltered(
            f"complex is not well filtered: condition ({wf.condition}) "
            f"at path {list(wf.path)}: {wf.message}", trace=wf)
    co = cohomology(C)
    top = C.top_degree
    degrees = []
    for k in range(top + 1):
        history = []
        for r in (radius * 2 ** i for i in range(WINDOW_DOUBLINGS + 1)):
            dim, stable = m_cohomology_dim_window(C, k, r)
            history.append((r, dim))
            if stable:
                break
        else:
            raise NotStabilized(
                f"window dimension for degree {k} still moving at radius "
                f"{r} (radius, dim: {history})", radius=r, history=history)
        above = co[k + 1] if k + 1 <= top else None
        shifted = above.torsion_dim if above else 0
        free_above = above.free_rank if above else 0
        record = DegreeShift(
            degree=k, m_dim=dim, shifted_torsion_dim=shifted,
            free_rank_here=co[k].free_rank, free_rank_above=free_above,
            radius=r,
            match=(dim == shifted and free_above == 0
                   and co[k].free_rank == 0))
        if progress is not None:
            progress(record)
        degrees.append(record)
    return ShiftReport(degrees=tuple(degrees), cohomology=co)


@dataclasses.dataclass(frozen=True)
class MonodromyDegree:
    """q-action on one degree of the finite-dimensional quotient.

    ``charpoly`` is the characteristic polynomial of multiplication by
    q on the torsion A-module (the product of the normalized invariant
    factors, via their companion matrices).  Over the rationals it is
    split into cyclotomic factors (order, multiplicity) plus whatever
    non-cyclotomic part remains; over other fields both factor fields
    are None.
    """

    degree: int
    charpoly: LaurentPoly
    cyclotomic: Optional[tuple]
    non_cyclotomic: Optional[LaurentPoly]

    @property
    def betti(self) -> int:
        """Torsion A-dimension of H^(degree+1): the fiber's Betti number.

        Every factor of ``charpoly`` is monic with valuation 0, so its
        degree is the sum of their spans.
        """
        return self.charpoly.degree


def monodromy_char_poly(H, domain: Domain) -> tuple:
    """Per-degree monodromy data from a cohomology sequence over ``domain``.

    Entry k of the result describes degree k of the space whose
    cohomology is the input shifted up one degree, so it is built from
    H[k+1]; the last input degree has no successor and is dropped.
    Empty torsion gives the constant characteristic polynomial 1.
    """
    factors = list(H)
    one = LaurentPoly.one(domain)
    rational = domain.is_field and domain.characteristic == 0
    out = []
    for k in range(len(factors) - 1):
        char = one
        for f in factors[k + 1].torsion:
            char = char * f
        if rational:
            # char is monic with valuation 0, so the unit part is 1
            _, cyc, rest = factor_cyclotomic(char)
            cyc = tuple(cyc)
            rest = None if rest == one else rest
        else:
            cyc, rest = None, None
        out.append(MonodromyDegree(degree=k, charpoly=char,
                                   cyclotomic=cyc, non_cyclotomic=rest))
    return tuple(out)
