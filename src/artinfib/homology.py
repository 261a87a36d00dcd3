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
from typing import Optional

from .complexes import CochainComplex, is_well_filtered
from .domains import Domain
from .errors import (NotStabilized, NotWellFiltered, RankMismatch,
                     UnsupportedDomain)
from .laurent import (LaurentPoly, factor_cyclotomic, format_poly)
from .rmatrix import mat_identity, mat_shape
from .series import default_window_radius, m_cohomology_dim_window


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
    * over Q, a row of [D | U] (column of [D ; V]) is rescaled to
      integral primitive form after every elimination step, so none
      carries a rational common factor;
    * a column is cleared by one 2x2 Bezout step per entry, with the
      cofactors from an extended Euclid on the two entries alone.

    Bit sizes have no bound beyond what these give.  Cohomology reads
    only D and runs the same passes without transforms (see ``_groups``).
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
    for t in range(min(m, n)):
        d = D[t][t]
        if d.is_zero():
            continue
        u = d.normalized()[0].inverse()
        if m >= n:
            _row_scale(D, U, Uinv, t, u)
        else:
            D[t][t] = d * u
            for r in V:
                r[t] = r[t] * u
            Vinv[t] = [a * u.inverse() for a in Vinv[t]]
    freeze = lambda mat: tuple(tuple(r) for r in mat)
    return SmithDecomposition(domain=domain, shape=(m, n), U=freeze(U),
                              Uinv=freeze(Uinv), V=freeze(V),
                              Vinv=freeze(Vinv), D=freeze(D))


def _diagonalize(A, m, n, domain, transforms):
    """(D, U, Uinv, V, Vinv) with U A V = D diagonal, a divisibility chain.

    The diagonal is not normalized.  With ``transforms`` false, U and
    Vinv have no columns and Uinv and V no rows: every row operation
    then touches D alone, and ``_echelon`` has no kernel rows to keep
    small.
    """
    if transforms:
        ident = lambda k: [list(r) for r in mat_identity(k, domain)]
        U, Uinv, V, Vinv = ident(m), ident(m), ident(n), ident(n)
    else:
        U, Uinv, V, Vinv = [[] for _ in range(m)], [], [], \
            [[] for _ in range(n)]
    D = [list(r) for r in A]
    one = LaurentPoly.one(domain)
    # start on the long side, where the kernel is, and leave the other
    # transform as close to a permutation as the input allows
    by_rows = m >= n
    while True:
        if by_rows:
            _echelon(D, U, Uinv, V, Vinv, domain)
        else:
            # the column pass is the row pass on the transposes, with the
            # roles of U and V exchanged
            T = [_transpose(M, k) for M, k in
                 ((D, n), (V, n), (Vinv, n), (U, m), (Uinv, m))]
            _echelon(*T, domain)
            D, V, Vinv, U, Uinv = [_transpose(M, k) for M, k in
                                   zip(T, (m, n, n, m, m))]
        by_rows = not by_rows
        if not _is_diagonal(D):
            continue
        diag = [D[t][t] for t in range(min(m, n))]
        bad = next((t for t in range(len(diag) - 1)
                    if not diag[t + 1].is_zero()
                    and not diag[t + 1].divrem(diag[t])[1].is_zero()), None)
        if bad is None:
            return D, U, Uinv, V, Vinv
        # d_t does not divide d_(t+1): put d_(t+1) into row t, where the
        # column pass replaces d_t by their gcd
        _row_addmul(D, U, Uinv, bad, bad + 1, one)
        by_rows = False


def _transpose(mat, cols):
    """Transpose of a list-of-rows matrix with ``cols`` columns."""
    return [list(c) for c in zip(*mat)] if mat else [[] for _ in range(cols)]


def _is_diagonal(D):
    return all(e.is_zero() for i, row in enumerate(D)
               for j, e in enumerate(row) if i != j)


# Row operations on D, mirrored on the rows of the transform T and,
# inverted, on the columns of Tinv, so that T A (...) = D and T Tinv = I
# stay true.

def _row_swap(D, T, Tinv, i, j):
    D[i], D[j] = D[j], D[i]
    T[i], T[j] = T[j], T[i]
    for r in Tinv:
        r[i], r[j] = r[j], r[i]


def _row_addmul(D, T, Tinv, i, j, c):
    """Row i += c * row j."""
    D[i] = [a if b.is_zero() else a + c * b for a, b in zip(D[i], D[j])]
    T[i] = [a if b.is_zero() else a + c * b for a, b in zip(T[i], T[j])]
    for r in Tinv:
        if not r[i].is_zero():
            r[j] = r[j] - c * r[i]


def _row_combine(D, T, Tinv, i, j, M):
    """(row i, row j) := M (row i, row j) for M = (a, b, c, d) of det 1."""
    a, b, c, d = M
    for X in (D, T):
        X[i], X[j] = ([a * x + b * y for x, y in zip(X[i], X[j])],
                      [c * x + d * y for x, y in zip(X[i], X[j])])
    for r in Tinv:
        r[i], r[j] = r[i] * d - r[j] * c, r[j] * a - r[i] * b


def _row_scale(D, T, Tinv, i, u):
    """Row i *= u for a unit u."""
    uinv = u.inverse()
    D[i] = [a * u for a in D[i]]
    T[i] = [a * u for a in T[i]]
    for r in Tinv:
        r[i] = r[i] * uinv


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
    """
    m = len(D)
    n = len(D[0]) if m else 0

    def shrink(i):
        # a rational rescaling is unimodular; taking the content of the
        # whole row of [D | T] keeps both integral and primitive (D's row
        # alone when T has no columns)
        s = domain.content_unit(c for e in D[i] + T[i] for c in e.coeffs)
        if s is not None:
            _row_scale(D, T, Tinv, i, LaurentPoly(domain, 0, (s,)))

    def clear(t, col):
        # zero col(.) below row t, leaving a gcd in row t, then reduce
        # the rows above modulo it
        for i in range(t + 1, m):
            b = col(i)
            if b.is_zero():
                continue
            a = col(t)
            quo, rem = b.divrem(a)
            if rem.is_zero():
                reduce(i, t, quo)
                continue
            # one 2x2 Bezout step instead of a Euclidean chain of row ops
            g, s, u = a.xgcd(b)
            _row_combine(D, T, Tinv, t, i, (s, u, -b.divexact(g),
                                            a.divexact(g)))
            shrink(t)
            shrink(i)
        for i in range(t):
            if not col(i).is_zero():
                reduce(i, t, col(i).divrem(col(t))[0])

    def reduce(i, t, quo):
        # row i -= quo * row t
        if quo.is_zero():
            return
        _row_addmul(D, T, Tinv, i, t, -quo)
        shrink(i)

    def best(rows, cols, entry):
        # minimal span, then fewest entries in its column to clear
        found = None
        for j in cols:
            col = [i for i in rows if not entry(i, j).is_zero()]
            for i in col:
                key = (entry(i, j).span, len(col))
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
            Sinv[t], Sinv[j] = Sinv[j], Sinv[t]
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
    over Q each row (column) of D is integral and primitive after every
    step, its content now taken over D alone.  Nothing bounds U or V,
    since neither is built.
    """
    dom = C.domain
    if not dom.is_field:
        raise UnsupportedDomain(
            f"cohomology needs field coefficients, not {dom}")
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
    return tuple(D[t][t].normalized()[1] for t in range(min(m, n))
                 if not D[t][t].is_zero())


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


WINDOW_DOUBLINGS = 3


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
    cohomology: tuple = ()

    @property
    def ok(self) -> bool:
        return all(d.match for d in self.degrees)


def verify_shift_theorem(C: CochainComplex, radius: Optional[int] = None,
                         progress=None) -> ShiftReport:
    """Certify H^k(series side) = H^(k+1)(Laurent side) in each degree.

    Each degree starts at window ``radius`` (None: 8x the largest entry
    reach); on a non-stabilized answer the radius doubles, at most
    ``WINDOW_DOUBLINGS`` times, before giving up.

    Raises NotWellFiltered (with the failing trace attached) when the
    complex does not satisfy the filtration conditions the shift
    argument needs, and NotStabilized, carrying the (radius, dim) pairs
    it tried, when the window dimensions keep changing after the allowed
    doublings.  ``progress``, if given, is called with each DegreeShift
    as soon as it is known, so long runs can stream results.
    """
    wf = is_well_filtered(C)
    if not wf.ok:
        raise NotWellFiltered(
            f"complex is not well filtered: condition ({wf.condition}) "
            f"at path {list(wf.path)}: {wf.message}", trace=wf)
    co = cohomology(C)
    if radius is None:
        radius = default_window_radius(C)
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


def monodromy_char_poly(H, domain: Optional[Domain] = None) -> tuple:
    """Per-degree monodromy data from a cohomology sequence.

    Entry k of the result describes degree k of the space whose
    cohomology is the input shifted up one degree, so it is built from
    H[k+1]; the last input degree has no successor and is dropped.
    Empty torsion gives the constant characteristic polynomial 1.
    """
    factors = list(H)
    if domain is None:
        for g in factors:
            if g.torsion:
                domain = g.torsion[0].domain
                break
        else:
            from .domains import QQ
            domain = QQ
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
