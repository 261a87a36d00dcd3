"""Cochain complexes indexed by subsets of a finite generator set.

A complex here is determined by a family of Laurent polynomials
p[Delta, w], one for every subset Delta of Gamma and every w outside
Delta.  The differential sends the basis vector e_Delta to the sum of
p[Delta, w] e_{Delta + w} over all such w, and d^2 = 0 is equivalent to
the quadratic relation

    p[Delta, w] p[Delta + w, w'] + p[Delta, w'] p[Delta + w', w] = 0

for all Delta and all pairs w != w' outside Delta.

The module also provides the standard filtration by upper sets of
suffixes of Gamma, its quotient complexes, and the recursive
well-filteredness check that the shift machinery in homology.py relies
on.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Optional

from .coxeter import MAX_TOTAL_RANK, CoxeterSystem, poincare_quotient
from .domains import QQ, Domain
from .errors import (CocycleViolation, FamilyFormatError, IndexOutOfRange,
                     MissingEntry, NotSubsetIndexed, ParseError, RankMismatch)
from .laurent import LaurentPoly, extremes_invertible, format_poly, parse_poly
from .rmatrix import mat_mul, mat_is_zero


def _colex_key(delta: frozenset) -> tuple:
    return tuple(sorted(delta, reverse=True))


def subsets_by_degree(gamma) -> tuple:
    """All subsets of gamma, grouped by size, each group in colex order."""
    gamma = tuple(sorted(gamma))
    out = []
    for k in range(len(gamma) + 1):
        level = [frozenset(c) for c in itertools.combinations(gamma, k)]
        level.sort(key=_colex_key)
        out.append(tuple(level))
    return tuple(out)


@dataclasses.dataclass(frozen=True)
class PolynomialFamily:
    """Total map (Delta, w) -> p[Delta, w] for Delta subset Gamma, w outside.

    ``entries`` must contain every such pair; ``lines`` optionally maps
    entry keys to source line numbers when the family was read from a
    file, so violations can point at the offending lines.
    """

    domain: Domain
    gamma: tuple
    entries: dict
    lines: Optional[dict] = None

    def __post_init__(self):
        gamma = tuple(sorted(self.gamma))
        object.__setattr__(self, "gamma", gamma)
        gset = set(gamma)
        if len(gset) != len(gamma):
            raise ValueError("duplicate generators")
        for delta, w in self.entries:
            if not delta <= gset or w in delta or w not in gset:
                raise ValueError(f"bad family key ({set(delta)}, {w})")
        n = len(gamma)
        expected = n * 2 ** (n - 1) if n else 0
        if len(self.entries) != expected:
            for delta in itertools.chain.from_iterable(
                    subsets_by_degree(gamma)):
                for w in gamma:
                    if w not in delta and (delta, w) not in self.entries:
                        raise MissingEntry(
                            f"family has no entry for ({set(delta) or '{}'},"
                            f" {w})")

    @property
    def rank(self) -> int:
        return len(self.gamma)

    def get(self, delta, w: int) -> LaurentPoly:
        key = (frozenset(delta), w)
        try:
            return self.entries[key]
        except KeyError:
            raise MissingEntry(
                f"family has no entry for ({set(key[0]) or '{}'}, {w})") from None

    def line_of(self, delta, w: int):
        if self.lines is None:
            return None
        return self.lines.get((frozenset(delta), w))


def check_cocycle_family(family: PolynomialFamily) -> None:
    """Raise CocycleViolation unless the quadratic d^2 relation holds."""
    gamma = family.gamma
    for delta in itertools.chain.from_iterable(subsets_by_degree(gamma)):
        outside = [w for w in gamma if w not in delta]
        for w, w2 in itertools.combinations(outside, 2):
            lhs = (family.get(delta, w) * family.get(delta | {w}, w2)
                   + family.get(delta, w2) * family.get(delta | {w2}, w))
            if not lhs.is_zero():
                lines = [ln for ln in (family.line_of(delta, w),
                                       family.line_of(delta | {w}, w2),
                                       family.line_of(delta, w2),
                                       family.line_of(delta | {w2}, w))
                         if ln is not None]
                where = f" (lines {sorted(set(lines))})" if lines else ""
                raise CocycleViolation(
                    f"cocycle relation fails at Delta = "
                    f"{sorted(delta) or '{}'}, pair ({w}, {w2}){where}",
                    delta=set(delta), w=w, w2=w2, lines=lines or None)


@dataclasses.dataclass(frozen=True)
class CochainComplex:
    """Finite complex of free R-modules with explicit matrices.

    diffs[k] maps degree k to degree k + 1 and has shape
    (ranks[k+1], ranks[k]).  Subset-indexed complexes carry their basis
    (a tuple per degree, colex-ordered) and the defining family; plain
    matrix complexes leave those as None.

    Every instance satisfies d^2 = 0, checked once at construction:
    through ``family``'s cocycle relation when there is one (else
    CocycleViolation), otherwise on the matrices (else RankMismatch).
    """

    domain: Domain
    ranks: tuple
    diffs: tuple
    gamma: Optional[tuple] = None
    basis: Optional[tuple] = None
    family: Optional[PolynomialFamily] = None

    def __post_init__(self):
        if len(self.diffs) != max(len(self.ranks) - 1, 0):
            raise RankMismatch("need exactly one differential per gap")
        for k, d in enumerate(self.diffs):
            rows = len(d)
            if rows != self.ranks[k + 1]:
                raise RankMismatch(f"d^{k} has {rows} rows, expected "
                                   f"{self.ranks[k + 1]}")
            for row in d:
                if len(row) != self.ranks[k]:
                    raise RankMismatch(f"d^{k} row width {len(row)}, "
                                       f"expected {self.ranks[k]}")
        if self.family is not None:
            check_cocycle_family(self.family)
        elif not check_d_squared(self):
            raise RankMismatch("image does not lie in the kernel, d^2 != 0")

    @property
    def top_degree(self) -> int:
        return len(self.ranks) - 1

    def rank(self, k: int) -> int:
        if 0 <= k < len(self.ranks):
            return self.ranks[k]
        return 0

    def diff(self, k: int):
        """Matrix of d^k, or None when either side has no module."""
        if 0 <= k < len(self.diffs):
            return self.diffs[k]
        return None

    def basis_index(self, k: int, delta) -> int:
        if self.basis is None:
            raise NotSubsetIndexed("complex has no subset-indexed basis")
        return self.basis[k].index(frozenset(delta))


def build_generic_complex(family: PolynomialFamily) -> CochainComplex:
    """Assemble the complex of a polynomial family.

    The complex checks the family's cocycle relation as it is built, so
    a family that breaks it raises CocycleViolation.
    """
    gamma = family.gamma
    basis = subsets_by_degree(gamma)
    ranks = tuple(len(level) for level in basis)
    zero = LaurentPoly.zero(family.domain)
    diffs = []
    for k in range(len(gamma)):
        index_above = {delta: i for i, delta in enumerate(basis[k + 1])}
        rows = [[zero] * ranks[k] for _ in range(ranks[k + 1])]
        for j, delta in enumerate(basis[k]):
            for w in gamma:
                if w in delta:
                    continue
                p = family.get(delta, w)
                if not p.is_zero():
                    rows[index_above[delta | {w}]][j] = p
        diffs.append(tuple(tuple(r) for r in rows))
    return CochainComplex(domain=family.domain, ranks=ranks,
                          diffs=tuple(diffs), gamma=gamma, basis=basis,
                          family=family)


def check_d_squared(C: CochainComplex) -> bool:
    for k in range(len(C.diffs) - 1):
        if not mat_is_zero(mat_mul(C.diffs[k + 1], C.diffs[k], C.domain)):
            return False
    return True


def _sign_count(w: int, delta) -> int:
    return sum(1 for i in delta if i < w)


def salvetti_family(system: CoxeterSystem, domain: Domain = QQ
                    ) -> PolynomialFamily:
    """Family of signed Poincare-polynomial quotients evaluated at -q.

    p[Delta, w] = (-1)^{#{i in Delta : i < w}} (W_{Delta+w} / W_Delta)(-q),
    where W_X is the Poincare polynomial of the parabolic subgroup on X.
    Every finite standard parabolic makes the quotient an honest
    polynomial, so this is defined whenever all proper parabolics are
    finite, in particular for all finite and affine types.
    """
    gamma = tuple(range(1, system.n + 1))
    entries = {}
    for delta in itertools.chain.from_iterable(subsets_by_degree(gamma)):
        for w in gamma:
            if w in delta:
                continue
            quot = poincare_quotient(system, delta, w, domain)
            p = quot.subs_neg_q()
            if _sign_count(w, delta) % 2:
                p = -p
            entries[(delta, w)] = p
    return PolynomialFamily(domain=domain, gamma=gamma, entries=entries)


def build_salvetti_complex(system: CoxeterSystem,
                           domain: Domain = QQ) -> CochainComplex:
    return build_generic_complex(salvetti_family(system, domain))


def koszul_family(gamma, polys, domain: Domain) -> PolynomialFamily:
    """Family p[Delta, w] = f_w, independent of Delta.

    Such a family satisfies the cocycle relation exactly when it is
    fed through the alternating sign (-1)^{#{i in Delta : i < w}}, which
    this constructor applies; the resulting complex is the Koszul
    complex of the scalars f_w.
    """
    gamma = tuple(sorted(gamma))
    if len(polys) != len(gamma):
        raise RankMismatch("need one polynomial per generator")
    by_gen = dict(zip(gamma, polys))
    entries = {}
    for delta in itertools.chain.from_iterable(subsets_by_degree(gamma)):
        for w in gamma:
            if w in delta:
                continue
            p = by_gen[w]
            if _sign_count(w, delta) % 2:
                p = -p
            entries[(delta, w)] = p
    return PolynomialFamily(domain=domain, gamma=gamma, entries=entries)


def random_koszul_family(rank: int, seed: int, domain: Domain = QQ,
                         span_bound: int = 3) -> PolynomialFamily:
    """Seeded random Koszul family with invertible extreme coefficients.

    Extreme coefficients are +-1 so the family works over any
    coefficient ring; middle coefficients lie in [-2, 2] and valuations
    in [-1, 1].
    """
    import random as _random
    rng = _random.Random(seed)
    polys = []
    for _ in range(rank):
        span = rng.randint(1, max(1, span_bound))
        val = rng.randint(-1, 1)
        coeffs = [rng.choice((-1, 1))]
        for _ in range(span - 1):
            coeffs.append(rng.randint(-2, 2))
        coeffs.append(rng.choice((-1, 1)))
        polys.append(LaurentPoly(domain, val, tuple(coeffs)))
    gamma = tuple(range(1, rank + 1))
    return koszul_family(gamma, polys, domain)


# -- standard filtration ---------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Filtration:
    """Decreasing chain of d-stable spans of basis subsets.

    levels[i] is the set of Delta whose span gives F_i; there are
    n + 2 levels, from F_0 (everything) down to F_{n+1} (zero).
    """

    complex: CochainComplex
    levels: tuple


def top_subset(gamma, i: int) -> frozenset:
    """The i largest generators of gamma."""
    if not 0 <= i <= len(gamma):
        raise IndexOutOfRange(f"filtration level {i} out of range")
    return frozenset(gamma[len(gamma) - i:])


def standard_filtration(C: CochainComplex) -> Filtration:
    """F_i spanned by the e_Delta with Delta containing the top i generators."""
    if C.basis is None or C.gamma is None:
        raise NotSubsetIndexed("standard filtration needs a subset basis")
    n = len(C.gamma)
    all_subsets = [delta for level in C.basis for delta in level]
    levels = []
    for i in range(n + 1):
        needed = top_subset(C.gamma, i)
        levels.append(frozenset(d for d in all_subsets if needed <= d))
    levels.append(frozenset())
    return Filtration(complex=C, levels=tuple(levels))


def _is_standard(F: Filtration) -> bool:
    C = F.complex
    if C.gamma is None or C.basis is None:
        return False
    return F.levels == standard_filtration(C).levels


def _quotient_family(family: PolynomialFamily, i: int) -> PolynomialFamily:
    """Family of F_i / F_{i+1}: entries p[Delta' + top_i, w] on the low
    generators, with the (i+1)-st largest generator left out."""
    gamma = family.gamma
    fixed = top_subset(gamma, i)
    small_gamma = gamma[:max(0, len(gamma) - i - 1)]
    entries = {}
    for delta in itertools.chain.from_iterable(subsets_by_degree(small_gamma)):
        for w in small_gamma:
            if w not in delta:
                entries[(delta, w)] = family.get(delta | fixed, w)
    return PolynomialFamily(domain=family.domain, gamma=small_gamma,
                            entries=entries)


def _connecting_scalar(family: PolynomialFamily) -> LaurentPoly:
    """p[top n-1 generators, lowest generator], the scalar from the layer
    F_{n-1} / F_n to F_n."""
    gamma = family.gamma
    return family.get(top_subset(gamma, len(gamma) - 1), gamma[0])


def quotient_complex(F: Filtration, i: int) -> CochainComplex:
    """F_i / F_{i+1} re-expressed as a generic complex on the low generators.

    Basis vectors of the quotient are the e_Delta with Delta in
    levels[i] but not levels[i+1]; writing Delta = Delta' + (top i
    generators) identifies them with subsets Delta' of the remaining
    generators minus the (i+1)-st largest, and the induced entries are
    p[Delta' + top_i, j].
    """
    C = F.complex
    if not _is_standard(F):
        raise NotSubsetIndexed("quotients need the standard filtration")
    if C.family is None:
        raise NotSubsetIndexed("quotients need the defining family")
    n = len(C.gamma)
    if not 0 <= i <= n:
        raise IndexOutOfRange(f"quotient level {i} out of range 0..{n}")
    return build_generic_complex(_quotient_family(C.family, i))


def induced_differential(F: Filtration) -> LaurentPoly:
    """Scalar acting on the one-dimensional layer F_{n-1} / F_n.

    This is the entry p[top n-1 generators, lowest generator]; the
    kernel and cokernel of multiplication by it compute the two
    potentially nonzero cohomology groups of that layer.
    """
    C = F.complex
    if C.family is None or C.gamma is None:
        raise NotSubsetIndexed("induced differential needs the family")
    if len(C.gamma) < 1:
        raise RankMismatch("rank-zero complex has no induced differential")
    return _connecting_scalar(C.family)


@dataclasses.dataclass(frozen=True)
class WellFilteredResult:
    """Outcome of the recursive filtration check.

    ``path`` traces which nested quotient failed (empty for the top
    complex), ``condition`` is 'structure' or 'c'.
    """

    ok: bool
    path: tuple = ()
    condition: Optional[str] = None
    message: Optional[str] = None

    def __bool__(self):
        return self.ok


def _fail(path, condition, message):
    return WellFilteredResult(ok=False, path=path, condition=condition,
                              message=message)


def is_well_filtered(C: CochainComplex,
                     F: Optional[Filtration] = None) -> WellFilteredResult:
    """Check the conditions that make the shift argument valid.

    (a) the levels form a decreasing d-stable chain from everything to
    zero, (b) the two deepest layers are one-dimensional in the top two
    degrees, (c) the scalar connecting them is nonzero with invertible
    extreme coefficients, (d) every deeper quotient is recursively well
    filtered.  Only the standard filtration is accepted, and on it (a)
    and (b) hold by construction (adding w to a subset keeps the top i
    generators in it; level n is {Gamma}, level n-1 adds only the top
    n-1), so (c) is checked on the family and, recursively, on the
    family of each quotient F_i / F_{i+1}, i < n-1.
    Rank <= 1 complexes pass by convention.  Returns a value rather
    than raising, so callers can report the failing path.
    """
    if sum(C.ranks) <= 1:
        return WellFilteredResult(ok=True)
    if C.basis is None or C.gamma is None or C.family is None:
        return _fail((), "structure",
                     "complex lacks a subset-indexed basis and family")
    if F is not None and F.complex is not C:
        return _fail((), "structure",
                     "filtration belongs to a different complex")
    if F is not None and not _is_standard(F):
        return _fail((), "structure",
                     "only standard filtrations support quotient recursion")
    return _check_connecting_scalars(C.family, ())


def _check_connecting_scalars(family: PolynomialFamily,
                              path: tuple) -> WellFilteredResult:
    p = _connecting_scalar(family)
    if p.is_zero():
        return _fail(path, "c", "connecting scalar is zero")
    if not extremes_invertible(p):
        return _fail(path, "c",
                     f"connecting scalar {format_poly(p)} has non-invertible "
                     f"extreme coefficients")
    for i in range(family.rank - 1):
        sub = _check_connecting_scalars(_quotient_family(family, i),
                                        path + (i,))
        if not sub.ok:
            return sub
    return WellFilteredResult(ok=True, path=path)


def transpose_complex(C: CochainComplex) -> CochainComplex:
    """Reverse degrees and transpose every differential.

    Cohomology of the result in degree k is homology of C in degree
    top_degree - k.
    """
    n = C.top_degree
    ranks = tuple(reversed(C.ranks))
    # a row-free matrix is (), so the column counts come from the ranks
    diffs = tuple(tuple(tuple(row[i] for row in C.diffs[n - 1 - j])
                        for i in range(C.ranks[n - 1 - j]))
                  for j in range(n))
    return CochainComplex(domain=C.domain, ranks=ranks, diffs=diffs)


# -- family files ----------------------------------------------------------

def _parse_subset(text: str):
    text = text.strip()
    if text == "-":
        return frozenset()
    try:
        members = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"bad subset {text!r}")
    if len(set(members)) != len(members):
        raise ValueError(f"repeated generator in {text!r}")
    return frozenset(members)


def parse_family(text: str, domain: Domain) -> PolynomialFamily:
    """Read a family from its text form.

    One entry per line, ``Delta ; w ; polynomial`` with Delta a comma
    list of generators or ``-`` for the empty set.  ``#`` starts a
    comment.  The generator set is inferred, and more than
    ``MAX_TOTAL_RANK`` generators are refused at the line that brings
    one too many.  Totality is enforced, and the cocycle relation is
    checked with offending line numbers attached to any violation.
    """
    entries = {}
    lines = {}
    gamma = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(";")
        if len(parts) != 3:
            raise FamilyFormatError(
                f"expected 'Delta ; w ; polynomial' on line {lineno}",
                line=lineno)
        try:
            delta = _parse_subset(parts[0])
            w = int(parts[1].strip())
            poly = parse_poly(parts[2], domain)
        except (ValueError, ParseError) as exc:
            raise FamilyFormatError(f"line {lineno}: {exc}",
                                    line=lineno) from None
        if w in delta:
            raise FamilyFormatError(
                f"line {lineno}: generator {w} already in the subset",
                line=lineno)
        key = (delta, w)
        if key in entries:
            raise FamilyFormatError(
                f"line {lineno}: duplicate entry for "
                f"({sorted(delta) or '-'}, {w}), first on line {lines[key]}",
                line=lineno)
        entries[key] = poly
        lines[key] = lineno
        gamma |= delta | {w}
        if len(gamma) > MAX_TOTAL_RANK:
            raise FamilyFormatError(
                f"line {lineno}: more than {MAX_TOTAL_RANK} generators",
                line=lineno)
    if not entries:
        raise FamilyFormatError("family file has no entries", line=0)
    family = PolynomialFamily(domain=domain, gamma=tuple(sorted(gamma)),
                              entries=entries, lines=lines)
    check_cocycle_family(family)
    return family


def load_family(path, domain: Domain) -> PolynomialFamily:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_family(fh.read(), domain)


def dump_family(family: PolynomialFamily) -> str:
    """Text form of a family, inverse to parse_family."""
    out = []
    for delta in itertools.chain.from_iterable(
            subsets_by_degree(family.gamma)):
        for w in family.gamma:
            if w in delta:
                continue
            name = ",".join(str(i) for i in sorted(delta)) if delta else "-"
            out.append(f"{name} ; {w} ; {format_poly(family.get(delta, w))}")
    return "\n".join(out) + "\n"
