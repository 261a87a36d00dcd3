"""Bi-infinite Laurent series, truncated to windows.

An element of the module A[[q, q^-1]] of formal series with coefficients
in both directions is never stored whole; computations work on a window
[lo, hi] of coefficients plus the recurrences that extend them.  For a
polynomial p with invertible extreme coefficients, multiplication by p on
the series module is surjective with kernel of dimension span(p).  The
window side of that statement rests on one recurrence and one product:
the rightward recurrence forced by p*m = 0 (``recurrence_extend``; the
leftward one is the same after q -> q^-1), and ``LaurentPoly``
multiplication of p by a window read as a polynomial.
``kernel_of_scalar_mul`` runs the recurrence from unit seeds,
``poly_window_product`` slices the product, and ``solve_scalar_mul``
multiplies each half of its right-hand side by a one-sided inverse of p,
the recurrence run from one unit seed.  ``m_cohomology_dim_window`` does
the same for a full complex of series modules via banded linear algebra.

The windowed complex costs one sparse elimination per differential and
radius, which serves both windows of the stability check.  The image of
d^(k-1) on degree k's interior is spanned by the transposes of
d^(k-1)'s own equation rows, the ones whose output exponent lies in that
interior; the interior sits 3x the degree's reach in from the window's
edge, so those rows are fully determined and form a subset of the rows
degree k-1 eliminates for its kernel.  Fed first, in two shells, they
give the image ranks at both radii of the check on the way.  The wider
window's kernel extends the same elimination: ``equation_rows`` keys
every column outermost exponent first, so both windows' interiors are
trailing ranges of one order, and only the rows the wider radius adds
go in after the narrower window's (see ``m_cohomology_dim_window``).

Most equation rows are dependent, and an elimination spends most of its
row updates reducing them to zero.  Since d^(k+1) d^k = 0, each row of
d^(k+1) is a relation among the equation rows of d^k, and on a complex
with a family the standard filtration by the least generator g0 picks
one row each relation can leave out: the row at a subset without g0
whose output exponent is the largest the relation reaches there
(``window_relations``).  Such a row is skipped before it is built when
every row of its relation comes in the same stage or before it; it is
then a combination of rows that come, so the span after every stage,
and with it every rank and projected kernel read off the elimination,
is that of every row.  The relations are read from the complex's own
matrices, not from any Smith form, so the windows stay an independent
check of the Laurent side.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator

from .domains import Domain
from .errors import (
    NonInvertibleExtremes,
    SeedTooShort,
    UnsupportedDomain,
    WindowTooLarge,
    WindowTooSmall,
)
from .laurent import LaurentPoly, extremes_invertible, integer_lift
from .linalg import projected_kernel_dim, sparse_rank


@dataclasses.dataclass(frozen=True)
class WindowSeries:
    """Known coefficients of a series on the exponent window [lo, hi].

    Unlike a polynomial, trailing zeros are meaningful: they assert the
    coefficient is zero there, whereas outside the window nothing is
    claimed.  ``coeffs[i]`` is the coefficient of q^(lo+i).
    """

    domain: Domain
    lo: int
    coeffs: tuple

    def __init__(self, domain, lo, coeffs):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "lo", operator.index(lo))
        object.__setattr__(
            self, "coeffs", tuple(domain.normalize(c) for c in coeffs))

    @property
    def hi(self) -> int:
        return self.lo + len(self.coeffs) - 1

    def __len__(self):
        return len(self.coeffs)

    def coeff(self, e: int):
        i = e - self.lo
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        raise IndexError(f"exponent {e} outside window [{self.lo},{self.hi}]")

    def restrict(self, lo: int, hi: int) -> "WindowSeries":
        if lo < self.lo or hi > self.hi:
            raise IndexError("restriction exceeds the known window")
        return WindowSeries(self.domain, lo,
                            self.coeffs[lo - self.lo:hi - self.lo + 1])

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __str__(self):
        dom = self.domain
        body = ", ".join(dom.to_str(c) for c in self.coeffs)
        return f"[q^{self.lo}..q^{self.hi}: {body}]"


def _same_domain(p: LaurentPoly, domain: Domain):
    if p.domain != domain:
        raise UnsupportedDomain(
            f"({p}) is over {p.domain}, the window over {domain}")


def _extremes(p: LaurentPoly, domain: Domain):
    _same_domain(p, domain)
    if not extremes_invertible(p):
        raise NonInvertibleExtremes(
            f"({p}) needs invertible extreme coefficients over {p.domain}")
    return p.val, p.degree, p.coeffs[0], p.coeffs[-1]


def _mirror(x: WindowSeries) -> WindowSeries:
    """x after q -> q^-1: the window [-hi, -lo], read backwards."""
    return WindowSeries(x.domain, -x.hi, x.coeffs[::-1])


def _poly(x: WindowSeries) -> LaurentPoly:
    """The window as a polynomial: x taken as zero outside it."""
    return LaurentPoly(x.domain, x.lo, x.coeffs)


def recurrence_extend(seed: WindowSeries, p: LaurentPoly, direction: str,
                      steps: int) -> WindowSeries:
    """Extend a seed window by the coefficients forced by p*m = 0.

    Writing p = sum b_i q^i for i in [s, t], the relation pins

        a_k = -b_s^{-1} * sum_{i=1..t-s} b_{s+i} a_{k-i}   (rightward)

    so each new coefficient needs the previous span(p) ones.  Leftward
    is the same recurrence after q -> q^-1, which turns m into its
    mirror image and p into p(q^-1).
    """
    if direction not in ("left", "right"):
        raise ValueError(f"direction must be 'left' or 'right': {direction}")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    s, t, b_s, _ = _extremes(p, seed.domain)
    d = t - s
    if len(seed) < d:
        raise SeedTooShort(f"seed of length {len(seed)} < span {d}")
    if direction == "left":
        return _mirror(recurrence_extend(
            _mirror(seed), p.subs_q_inverse(), "right", steps))
    dom = seed.domain
    mod = dom.characteristic
    c = -dom.inv(b_s)
    tail = p.coeffs[1:]
    buf = list(seed.coeffs)
    for _ in range(steps):
        # c times the sum of b_(s+i) a_(k-i), i = 1..d, reduced once
        acc = c * sum(map(operator.mul, tail, reversed(buf[len(buf) - d:])))
        buf.append(acc % mod if mod else acc)
    return WindowSeries(dom, seed.lo, buf)


@dataclasses.dataclass(frozen=True)
class RecurrenceKernel:
    """Basis of {m : p*m = 0}, each element held as a unit seed window.

    The kernel has dimension span(p); seed j is the window on [0, span-1]
    with a 1 in slot j, extendable to any window by ``recurrence_extend``.
    """

    p: LaurentPoly
    seeds: tuple

    @property
    def dim(self) -> int:
        return len(self.seeds)

    def basis_on_window(self, lo: int, hi: int):
        """Materialize each basis element on [lo, hi]."""
        out = []
        for seed in self.seeds:
            ext = seed
            if lo < ext.lo:
                ext = recurrence_extend(ext, self.p, "left", ext.lo - lo)
            if hi > ext.hi:
                ext = recurrence_extend(ext, self.p, "right", hi - ext.hi)
            out.append(ext.restrict(lo, hi))
        return out


def kernel_of_scalar_mul(p: LaurentPoly) -> RecurrenceKernel:
    """Kernel of multiplication by p on the bi-infinite series module."""
    _extremes(p, p.domain)
    d = p.span
    dom = p.domain
    seeds = tuple(
        WindowSeries(dom, 0, [dom.one if i == j else dom.zero
                              for i in range(d)])
        for j in range(d))
    return RecurrenceKernel(p, seeds)


def poly_window_product(p: LaurentPoly, x: WindowSeries) -> WindowSeries:
    """Coefficients of p*x that the window determines.

    These are the exponents [x.lo + deg p, x.hi + val p], a slice of the
    polynomial product p * x; the slice is empty when the window is
    narrower than span(p).
    """
    dom = x.domain
    _same_domain(p, dom)
    if p.is_zero():
        return WindowSeries(dom, x.lo, [dom.zero] * len(x))
    lo, hi = x.lo + p.degree, x.hi + p.val
    if hi < lo:
        return WindowSeries(dom, 0, ())
    prod = p * _poly(x)
    return WindowSeries(dom, lo, [prod.coeff(u) for u in range(lo, hi + 1)])


def solve_scalar_mul(p: LaurentPoly, rhs: WindowSeries) -> WindowSeries:
    """A preimage x with p*x = rhs on the whole rhs window.

    Splits rhs at exponent 0 and multiplies each half by a one-sided
    inverse series of p: the nonnegative half by the one running right
    from q^-val(p), the negative half by the one running left from
    q^-deg(p).  Each inverse is the kernel recurrence run from a unit
    seed; x comes back on [rhs.lo - deg p, rhs.hi - val p] and the
    conservative product p*x reproduces rhs exactly on its window.
    """
    if len(rhs) == 0:
        raise WindowTooSmall("empty right-hand side window")
    s, t, b_s, b_t = _extremes(p, rhs.domain)
    dom = rhs.domain
    # a unit seed has length 1 even for span(p) = 0
    zeros = [dom.zero] * max(t - s - 1, 0)
    right = recurrence_extend(
        WindowSeries(dom, -s - len(zeros), zeros + [dom.inv(b_s)]),
        p, "right", max(rhs.hi, 0))
    left = recurrence_extend(
        WindowSeries(dom, -t, [dom.inv(b_t)] + zeros),
        p, "left", max(-rhs.lo, 0))
    plus = LaurentPoly(dom, rhs.lo, [c if rhs.lo + i >= 0 else dom.zero
                                     for i, c in enumerate(rhs.coeffs)])
    x = _poly(right) * plus + _poly(left) * (_poly(rhs) - plus)
    x_lo, x_hi = rhs.lo - t, rhs.hi - s
    return WindowSeries(dom, x_lo, [x.coeff(w) for w in range(x_lo, x_hi + 1)])


# -- windowed complexes of series modules ------------------------------


def matrix_reach(matrix) -> int:
    """Largest |exponent| appearing in any entry of a polynomial matrix."""
    return max((max(abs(e.val), abs(e.degree))
                for row in matrix for e in row if not e.is_zero()), default=0)


# Window vectors are flattened block by block, outermost exponent first:
# in the window [-W, W] of width w blocks, exponent v has position
# 2 (W - |v|) + [v < 0], so W, -W, W - 1, ..., -1, 0 come at 0, 1, ...,
# 2W, and block j at v is key position * w + j.  The keys fill
# range((2W + 1) * w) one to one, and the exponents |v| <= M for any
# M <= W are the trailing range from 2 (W - M) * w: elimination clears
# every exponent a window drops before any it keeps, from both edges
# inward, which also keeps banded rows banded.


def window_keys(radius: int, width: int) -> list:
    """Key of block 0 at exponent v, at index v + radius."""
    W = radius
    return [(2 * (W - abs(v)) + (v < 0)) * width for v in range(-W, W + 1)]


def equation_rows(entries, radius: int, domain: Domain, shell=None,
                  frame=None, skip=None, relations=None):
    """Sparse rows, one per fully determined output coefficient.

    Output (i, u) = sum over j and the terms c*q^exp of entry (i, j) of
    c * x_(j, u - exp).  It is usable only when every such input exponent
    lies inside [-N, N], which bounds u by the extreme exponents of row
    i's entries.  Row i's terms are laid out once, as a stencil of
    exponent offsets and blocks, and each valid u shifts it.  Rows come
    i-major, then by u.  With ``shell`` = (a, b) only the rows with
    a < |u| <= b come (b None: no upper bound).  The keys are those of
    the window of radius ``frame`` (default N; see ``window_keys``), and
    ``skip`` leaves out the rows already fully determined at that smaller
    radius.  Values are nonzero ints: over GF(p) the residues, over Q the
    row's entries lifted by ``integer_lift`` and divided by their
    content, the primitive integer multiple of the equation, which keeps
    the kernel.

    ``relations`` (``window_relations``), one per row of ``entries``,
    leaves out rows that the rows kept already span.  Row (i, u) is left
    out when row i has a relation (v, terms) and every row that relation
    holds at output exponent u + v is determined at N with |u| <= b of
    ``shell``, so that it comes here or in an earlier shell: for each
    (j, a, b) in terms, the rows (j, u + v - b) to (j, u + v - a).  The
    relation holds (i, u) with the lowest coefficient of row i's entry,
    which is nonzero, and each of its other rows is at a row with no
    relation or at row i with a smaller u; by induction on u, every row
    left out is a combination of rows that come.
    Without ``relations`` every row comes.
    """
    N = radius
    frame = N if frame is None else frame
    inner, outer = shell or (-1, None)
    keys = window_keys(frame, len(entries[0]) if entries else 0)
    stencils = []
    for row in entries:
        terms = [(j, e) for j, e in enumerate(row) if not e.is_zero()]
        if not terms:
            stencils.append(None)
            continue
        lifts = integer_lift([e for _, e in terms], domain)[1]
        g = 1 if domain.characteristic else math.gcd(
            *(c for e in lifts for c in e.coeffs))
        stencil = [(frame - exp, j, c // g) for (j, _), e in zip(terms, lifts)
                   for exp, c in e.items() if c]
        top = max(e.degree for _, e in terms)
        bottom = min(e.val for _, e in terms)
        u_lo, u_hi = -N + top, N + bottom
        if outer is not None:
            u_lo, u_hi = max(u_lo, -outer), min(u_hi, outer)
        seen = (range(-skip + top, skip + bottom + 1) if skip is not None
                else ())
        stencils.append((stencil, u_lo, u_hi, seen))
    for i, made in enumerate(stencils):
        if made is None:
            continue
        stencil, u_lo, u_hi, seen = made
        dropped = ()
        if relations is not None and relations[i] is not None:
            v, terms = relations[i]
            # a zero row of entries holds no rows, and adds 0 to the sum
            held = [(stencils[j][1:3], a, b) for j, a, b in terms
                    if stencils[j] is not None]
            dropped = range(max(lo + b for (lo, _), _, b in held) - v,
                            min(hi + a for (_, hi), a, _ in held) - v + 1)
        for u in range(u_lo, u_hi + 1):
            if abs(u) > inner and u not in seen and u not in dropped:
                yield {keys[u + off] + j: c for off, j, c in stencil}


def window_relations(complex_, k: int):
    """The relations ``equation_rows`` reads to leave out rows of d^k:
    None for a complex with no family, else one per row of d^k.

    Each row of d^(k+1), Gamma, is a relation among the equation rows of
    d^k, since d^(k+1) d^k = 0: sum over w in Gamma and the terms c*q^e
    of p[Gamma - w, w] of c * row(Gamma - w, u' - e) = 0 at every output
    exponent u'.  With g0 the least generator, the row of d^k at a
    subset Delta without g0 takes the relation of Gamma = Delta + g0,
    (val p[Delta, g0], ((j, val, degree) of each nonzero entry of row
    Gamma, j its column)); every other column of Gamma contains g0, and
    those rows, like a Delta with p[Delta, g0] = 0, have None.  The
    relations read only the complex's own matrices, whose d^2 = 0 is
    checked when it is built.
    """
    if complex_.family is None or complex_.diff(k) is None:
        return None
    basis = complex_.basis
    above = complex_.diff(k + 1)
    rows = dict(zip(basis[k + 2], above)) if above else {}
    g0 = complex_.gamma[0]
    out = []
    for i, delta in enumerate(basis[k + 1]):
        # Delta + g0 is a row of d^(k+1) exactly when g0 is not in Delta
        row = rows.get(delta | {g0})
        if row is None or row[i].is_zero():
            out.append(None)
        else:
            out.append((row[i].val, tuple((j, e.val, e.degree)
                                          for j, e in enumerate(row)
                                          if not e.is_zero())))
    return tuple(out)


# the shift check doubles a radius that has not stabilized at most this
# many times; 2^(2 * WINDOW_DOUBLINGS) times the default radius is the
# largest it can reach, and the largest a window computation accepts
WINDOW_DOUBLINGS = 3

# the most equation-row entries one window elimination may hold: they
# stay on as its pivot rows, at about 75 bytes each, so this is about
# 1.3 GB (I2(800) at its default radius holds 1.5e7, E8 1.1e6)
MAX_WINDOW_NONZEROS = 2 ** 24

# the most equation rows it may hold: each is a dict of its own, about
# 440 bytes with two entries, so this is about 0.9 GB (the family
# "- ; 1 ; 1 - q^100000" at its default radius holds 1.2e6)
MAX_WINDOW_ROWS = 2 ** 21


def default_window_radius(complex_) -> int:
    """Default truncation radius: 4x the largest entry reach."""
    return window_radius(complex_, None, (), 0)[0]


def elimination_size(radius: int, reach: int, nonzeros: int, rows: int):
    """(entries, rows) of the equation rows that the elimination of a
    differential with ``nonzeros`` nonzero coefficients in ``rows``
    nonzero rows holds at ``radius`` N (see ``_staged_pass``): its rows
    run out to N + 2 ``reach``, the reach of the degree it leaves, so
    each coefficient and row comes in 2 (N + 2 reach) + 1 shifts.  A
    window of degree k eliminates d^(k-1) and d^k, one after the other.
    Every row is counted, those that ``window_relations`` leave out too,
    so the count bounds what the elimination holds.
    """
    shifts = 2 * (radius + 2 * reach) + 1
    return shifts * nonzeros, shifts * rows


def window_radius(complex_, radius, degrees, doublings: int):
    """The radius the windows of ``degrees`` start at, ``radius`` or the
    default when it is None, and the reach of each degree.

    Each differential is read once, for its reach (``matrix_reach``),
    nonzero coefficients and nonzero rows; the rest comes from these.
    The reach of degree k is 1 or the larger reach of d^k and d^(k-1),
    and its windows discard 3x this many coefficients at each end; it
    comes back as a function of k.

    Refused before any row is built: a radius that is not an integer
    (TypeError), one beyond 2^``doublings`` times the default
    (WindowTooLarge), one that leaves a degree carrying a module no
    interior, 3x its reach plus 1 (WindowTooSmall), and one at which a
    degree's window would hold more than MAX_WINDOW_NONZEROS entries or
    MAX_WINDOW_ROWS rows in one elimination (WindowTooLarge, see
    ``elimination_size``).
    """
    sizes = [(matrix_reach(d),
              sum(1 for row in d for e in row for c in e.coeffs if c),
              sum(1 for row in d if any(e.coeffs for e in row)))
             for d in complex_.diffs]

    def reach(k):
        # d^(k-1) and d^k, where they exist
        return max([1] + [r for r, _, _ in sizes[max(k - 1, 0):max(k + 1, 0)]])

    default = 4 * max([1] + [r for r, _, _ in sizes])
    cap = default * 2 ** doublings
    radius = default if radius is None else operator.index(radius)
    if radius > cap:
        raise WindowTooLarge(
            f"window radius {radius} is beyond {cap}, 2^{doublings} times "
            f"the default {default}")
    for k in degrees:
        discard = 3 * reach(k)
        if complex_.rank(k) and radius < discard + 1:
            raise WindowTooSmall(
                f"radius {radius} leaves no interior in degree {k} beyond "
                f"the {discard} discarded boundary coefficients")
    for j in sorted({j for k in degrees for j in (k - 1, k)}):
        counts = sizes[j][1:] if 0 <= j < len(sizes) else (0, 0)
        for held, what, bound in zip(
                elimination_size(radius, reach(j), *counts),
                ("entries", "rows"), (MAX_WINDOW_NONZEROS, MAX_WINDOW_ROWS)):
            if held > bound:
                raise WindowTooLarge(
                    f"at radius {radius} the window elimination of d^{j} "
                    f"would hold {held} {what}, beyond {bound}")
    return radius, reach


@functools.lru_cache(maxsize=8)
def _staged_pass(entries, radius, width, reach, cuts, domain,
                 relations=None):
    """One elimination of the equation rows of ``entries`` at ``radius``
    N and at N + 2 * ``reach``.

    Keys are those of the wider window, W = N + 2 * reach, ``width``
    blocks per exponent, so each window's interior is a trailing range:
    |v| <= N - 3 * reach from 10 * reach * width, |v| <= W - 3 * reach
    from 6 * reach * width.  The radius-N rows go in by shells of their
    output exponent u: first those with |u| <= N - cuts[0], then out to
    N - cuts[1], and so on, then the rest; after them come the rows that
    only the wider window determines.  Returns the rank after each shell,
    then the kernel dimensions projected on the interior at N and at W.
    Memoized, so the next degree's window finds its image ranks here.

    With ``relations`` (``window_relations``) each stage leaves out the
    rows that the rows fed up to it, its own included, already span: a
    row goes only when every row of its relation lies in the same |u|
    shell or an earlier one and is determined at N, or, in the last
    stage, at N + 2 * reach.  The span after every stage is then the
    span of every row up to it, so the ranks and both projected kernels,
    which read only that span, are those of the full elimination.
    """
    wide = radius + 2 * reach
    end = (2 * wide + 1) * width
    pivots = {}
    ranks = []
    inner = -1
    for cut in cuts:
        shell = (inner, radius - cut)
        ranks.append(sparse_rank(
            equation_rows(entries, radius, domain, shell, wide,
                          relations=relations), domain, pivots))
        inner = shell[1]
    kernel = projected_kernel_dim(
        lambda: equation_rows(entries, radius, domain, (inner, None), wide,
                              relations=relations),
        domain, range(10 * reach * width, end), pivots)
    kernel_wide = projected_kernel_dim(
        lambda: equation_rows(entries, wide, domain, skip=radius,
                              relations=relations),
        domain, range(6 * reach * width, end), pivots)
    return (*ranks, kernel, kernel_wide)


def m_cohomology_dim_window(complex_, k: int, radius: int | None = None):
    """A-dimension of H^k of the complex tensored with the series module.

    Truncates every series to [-N, N], takes the solutions of all fully
    visible kernel equations of d^k, subtracts the image of windowed
    vectors under d^(k-1), and measures both only on the stable interior
    (3x the degree's reach r discarded at each end).  The computation
    runs at N and N + 2r; ``stabilized`` reports whether the two agree,
    and the dimension at the larger radius is returned.  The radius is
    read by ``window_radius``, which accepts up to 2^(2 *
    WINDOW_DOUBLINGS) times the default and refuses a window too large
    or too small before any row is built.

    The image needs no elimination of its own.  Its rank at radius M is
    the rank of its transpose: the equation rows of d^(k-1) whose output
    exponent u lies in the interior, |u| <= M - 3r.  Since r is at least
    the reach of d^(k-1), those rows read source exponents within
    |u| + r <= N, at M = N and at M = N + 2r alike (where |u| <= N - r),
    so they are rows of d^(k-1)'s own kernel elimination at N.  That
    elimination, run once with these two shells of rows first, gives
    both image ranks and degree k-1's kernels; it is memoized, so the
    windows of consecutive degrees at one radius share it.

    The two kernels share one elimination too.  Keyed in the wider
    window, outermost exponent first (``window_keys``), the interior
    |v| <= N - 3r of the narrower window and |v| <= N - r of the wider
    one are both trailing ranges of keys, and the pivots in each count
    its projected kernel whatever rows came before.  So the radius-N
    rows go in first, the kernel at N is read, then only the rows that
    N + 2r adds go in and the kernel there is read.  Each nonzero
    differential is thus eliminated once per radius, without the rows
    that the next differential proves dependent (``window_relations``),
    which change none of these counts.
    """
    dom = complex_.domain
    if not dom.is_field:
        raise UnsupportedDomain(
            f"series window computations need a field, not {dom}")
    radius, reach = window_radius(complex_, radius, (k,),
                                  2 * WINDOW_DOUBLINGS)
    ranks = complex_.ranks
    top = len(ranks) - 1
    if top < 0 or k < 0 or k > top or ranks[k] == 0:
        return 0, True

    # a missing differential is the 0-row map (): it yields no rows
    d_out = complex_.diff(k) or ()
    d_in = complex_.diff(k - 1) or ()
    here, above = reach(k), reach(k + 1)
    image = _staged_pass(d_in, radius, complex_.rank(k - 1), reach(k - 1),
                         (3 * here, here), dom,
                         window_relations(complex_, k - 1))
    kernel, kernel_wide = _staged_pass(d_out, radius, ranks[k], here,
                                       (3 * above, above), dom,
                                       window_relations(complex_, k))[-2:]
    d1 = kernel - image[0]
    d2 = kernel_wide - image[1]
    return d2, d1 == d2
