"""Cochain complexes indexed by subsets of a finite generator set.

A complex here is determined by a family of Laurent polynomials
p[Delta, w], one for every subset Delta of Gamma and every w outside
Delta.  The differential sends the basis vector e_Delta to the sum of
p[Delta, w] e_{Delta + w} over all such w, and d^2 = 0 is equivalent to
the quadratic relation

    p[Delta, w] p[Delta + w, w'] + p[Delta, w'] p[Delta + w', w] = 0

for all Delta and all pairs w != w' outside Delta.

The family is the one description of such a complex: its generators,
its basis and its standard filtration (F_i spanned by the e_Delta with
Delta containing the i largest generators) are read off the family, and
a complex that carries a family must have exactly the family's matrices.
The module also gives the well-filteredness check that the shift
machinery in homology.py relies on: one pass over the family's entries
p[Delta, g], g the least generator.

The Salvetti family of a Coxeter matrix has integer entries: it is
computed once per matrix over Z and read into each coefficient domain.
The relation is checked once per complex, over Q on integers: on L p,
with L the lcm of the family's denominators (``laurent.integer_lift``).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import Optional

from .coxeter import MAX_TOTAL_RANK, CoxeterSystem, poincare_quotient
from .domains import QQ, Domain
from .errors import (CocycleViolation, FamilyFormatError, MissingEntry,
                     ParseError, RankMismatch, UnsupportedDomain)
from .laurent import (LaurentPoly, extremes_invertible, format_poly,
                      from_integers, integer_lift, parse_poly)
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


def _pairs(gamma):
    """Every key (Delta, w) of a family on the sorted tuple gamma: Delta
    by size and then in colex order, w ascending outside Delta."""
    for level in subsets_by_degree(gamma):
        for delta in level:
            for w in gamma:
                if w not in delta:
                    yield delta, w


def _alternating(p: LaurentPoly, delta, w: int) -> LaurentPoly:
    """p times (-1)^{#{i in Delta : i < w}}."""
    return -p if sum(1 for i in delta if i < w) % 2 else p


@dataclasses.dataclass(frozen=True)
class PolynomialFamily:
    """Total map (Delta, w) -> p[Delta, w] for Delta subset Gamma, w outside.

    ``entries`` must contain every such pair, each a polynomial over
    ``domain`` (else UnsupportedDomain); ``lines`` optionally maps
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
        for (delta, w), p in self.entries.items():
            if not delta <= gset or w in delta or w not in gset:
                raise ValueError(f"bad family key ({set(delta)}, {w})")
            if p.domain != self.domain:
                raise UnsupportedDomain(
                    f"entry ({set(delta) or '{}'}, {w}) is over {p.domain},"
                    f" not {self.domain}")
        n = len(gamma)
        expected = n * 2 ** (n - 1) if n else 0
        if len(self.entries) != expected:
            for delta, w in _pairs(gamma):
                if (delta, w) not in self.entries:
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
    """Raise CocycleViolation unless the quadratic d^2 relation holds.

    The family is lifted once (``integer_lift``).  Over Q the relation
    is checked over Z on L p, with L the lcm of every denominator in the
    family: that is the relation times L^2, so it holds exactly when
    the relation over Q does.  Over Z and Z/p L is 1 and the lifts are
    the entries themselves.
    """
    lifts = integer_lift(family.entries.values(), family.domain)[1]
    entries = dict(zip(family.entries, lifts))
    gamma = family.gamma
    for delta in itertools.chain.from_iterable(subsets_by_degree(gamma)):
        grown = {w: delta | {w} for w in gamma if w not in delta}
        for w, w2 in itertools.combinations(grown, 2):
            lhs = (entries[delta, w] * entries[grown[w], w2]
                   + entries[delta, w2] * entries[grown[w2], w])
            if not lhs.is_zero():
                lines = [ln for ln in (family.line_of(delta, w),
                                       family.line_of(grown[w], w2),
                                       family.line_of(delta, w2),
                                       family.line_of(grown[w2], w))
                         if ln is not None]
                where = f" (lines {sorted(set(lines))})" if lines else ""
                raise CocycleViolation(
                    f"cocycle relation fails at Delta = "
                    f"{sorted(delta) or '{}'}, pair ({w}, {w2}){where}",
                    delta=set(delta), w=w, w2=w2, lines=lines or None)


def _assemble(family: PolynomialFamily) -> tuple:
    """(ranks, diffs) of the family's complex, on the colex basis."""
    basis = subsets_by_degree(family.gamma)
    ranks = tuple(len(level) for level in basis)
    index = {delta: i for level in basis for i, delta in enumerate(level)}
    zero = LaurentPoly.zero(family.domain)
    rows = [[[zero] * ranks[k] for _ in range(ranks[k + 1])]
            for k in range(family.rank)]
    for delta, w in _pairs(family.gamma):
        d = rows[len(delta)]
        d[index[delta | {w}]][index[delta]] = family.entries[(delta, w)]
    return ranks, tuple(tuple(tuple(r) for r in d) for d in rows)


@dataclasses.dataclass(frozen=True)
class CochainComplex:
    """Finite complex of free R-modules with explicit matrices.

    diffs[k] maps degree k to degree k + 1 and has shape
    (ranks[k+1], ranks[k]).  A subset-indexed complex carries its
    defining family, and its generators ``gamma`` and basis (a tuple of
    subsets per degree, colex-ordered) are read off that family; a plain
    matrix complex has no family, and those are None.

    Every instance satisfies d^2 = 0, checked once at construction:
    through ``family``'s cocycle relation when there is one (else
    CocycleViolation), otherwise on the matrices (else RankMismatch).
    The domain and matrices of a complex with a family must be exactly
    the family's, else RankMismatch.
    """

    domain: Domain
    ranks: tuple
    diffs: tuple
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
            if ((self.domain, self.ranks, self.diffs)
                    != (self.family.domain, *_assemble(self.family))):
                raise RankMismatch("matrices are not those of the family")
        elif not check_d_squared(self):
            raise RankMismatch("image does not lie in the kernel, d^2 != 0")

    @property
    def gamma(self) -> Optional[tuple]:
        """Generators of the family, None for a matrix complex."""
        return None if self.family is None else self.family.gamma

    @property
    def basis(self) -> Optional[tuple]:
        """Subsets of gamma per degree, colex-ordered as the matrices are;
        None for a matrix complex."""
        return None if self.family is None else subsets_by_degree(self.gamma)

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


def build_generic_complex(family: PolynomialFamily) -> CochainComplex:
    """Assemble the complex of a polynomial family.

    The complex checks the family's cocycle relation as it is built, so
    a family that breaks it raises CocycleViolation.
    """
    ranks, diffs = _assemble(family)
    return CochainComplex(family.domain, ranks, diffs, family)


def check_d_squared(C: CochainComplex) -> bool:
    for k in range(len(C.diffs) - 1):
        if not mat_is_zero(mat_mul(C.diffs[k + 1], C.diffs[k], C.domain)):
            return False
    return True


def salvetti_family(system: CoxeterSystem, domain: Domain = QQ
                    ) -> PolynomialFamily:
    """Family of signed Poincare-polynomial quotients evaluated at -q.

    p[Delta, w] = (-1)^{#{i in Delta : i < w}} (W_{Delta+w} / W_Delta)(-q),
    where W_X is the Poincare polynomial of the parabolic subgroup on X.
    The quotients are integer polynomials, computed once per Coxeter
    matrix over Z (``_salvetti_integers``) and read into ``domain``;
    reduction mod p commutes with q -> -q and the sign.  The family
    needs W_Gamma itself to be finite: a system whose full generating
    set is not of finite type, an affine one included, raises
    NotFiniteType.
    """
    entries = {key: from_integers(domain, p)
               for key, p in _salvetti_integers(system.matrix)}
    return PolynomialFamily(domain=domain, gamma=system.generators,
                            entries=entries)


@functools.lru_cache(maxsize=None)
def _salvetti_integers(matrix) -> tuple:
    """((Delta, w), p[Delta, w]) over Z for every entry of the Salvetti
    family of the Coxeter matrix ``matrix``."""
    system = CoxeterSystem(matrix)
    return tuple(((delta, w), _alternating(
        poincare_quotient(system, delta, w).subs_neg_q(), delta, w))
        for delta, w in _pairs(system.generators))


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
    entries = {(delta, w): _alternating(by_gen[w], delta, w)
               for delta, w in _pairs(gamma)}
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


@dataclasses.dataclass(frozen=True)
class WellFilteredResult:
    """Outcome of the filtration check.

    ``path`` names the nested quotient whose connecting scalar failed
    (empty for the top complex), ``condition`` is 'structure' or 'c'.
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


def is_well_filtered(C: CochainComplex) -> WellFilteredResult:
    """Check the conditions that make the shift argument valid on the
    standard filtration, which is read off C's family.

    (a) the levels form a decreasing d-stable chain from everything to
    zero, (b) the two deepest layers are one-dimensional in the top two
    degrees, (c) the scalar connecting them is nonzero with invertible
    extreme coefficients, (d) every deeper quotient F_i / F_{i+1}, i <
    n-1, is recursively well filtered.  On the standard filtration (a)
    and (b) hold by construction (adding w to a subset keeps the top i
    generators in it; level n is {Gamma}, level n-1 adds only the top
    n-1).  With g the least generator, the quotient reached by leaving
    out the generators E, a subset of Gamma - g, top down has connecting
    scalar p[Gamma - g - E, g], and each E is reached exactly once.  So
    (c) and (d) hold exactly when every entry p[Delta, g] with g not in
    Delta is nonzero with invertible extreme coefficients, and those
    entries are what is checked.

    They are checked in the recursion's order, so the failure reported
    is the recursion's first.  Write E top down, e_1 > e_2 > ..., with
    e_0 above every generator: its quotient path is (i_1, i_2, ...),
    i_t the number of generators strictly between e_t and e_(t-1), and
    paths go in sorted order, each prefix before its extensions.  A
    complex with no family fails with condition 'structure'; one of at
    most one cell passes.  Returns a value rather than raising, so
    callers can report the failing path.
    """
    if sum(C.ranks) <= 1:
        return WellFilteredResult(ok=True)
    if C.family is None:
        return _fail((), "structure", "complex has no defining family")
    gamma = C.family.gamma
    n = len(gamma)
    scalars = {}
    for k in range(n):
        for out in itertools.combinations(range(n - 1, 0, -1), k):
            path = tuple(a - b - 1 for a, b in zip((n,) + out, out))
            delta = frozenset(gamma[1:]) - {gamma[j] for j in out}
            scalars[path] = C.family.entries[delta, gamma[0]]
    for path in sorted(scalars):
        p = scalars[path]
        if p.is_zero():
            return _fail(path, "c", "connecting scalar is zero")
        if not extremes_invertible(p):
            return _fail(path, "c",
                         f"connecting scalar {format_poly(p)} has "
                         f"non-invertible extreme coefficients")
    return WellFilteredResult(ok=True)


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


def parse_family(text: str, domain: Domain,
                 max_generators: int = MAX_TOTAL_RANK) -> PolynomialFamily:
    """Read a family from its text form.

    One entry per line, ``Delta ; w ; polynomial`` with Delta a comma
    list of generators or ``-`` for the empty set.  ``#`` starts a
    comment.  The generator set is inferred, and more than
    ``max_generators`` generators are refused at the line that brings
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
        if len(gamma) > max_generators:
            raise FamilyFormatError(
                f"line {lineno}: more than {max_generators} generators",
                line=lineno)
    if not entries:
        raise FamilyFormatError("family file has no entries", line=0)
    family = PolynomialFamily(domain=domain, gamma=tuple(sorted(gamma)),
                              entries=entries, lines=lines)
    check_cocycle_family(family)
    return family


def load_family(path, domain: Domain,
                max_generators: int = MAX_TOTAL_RANK) -> PolynomialFamily:
    """Read a family file, which must be UTF-8 text (else
    FamilyFormatError at the line of the first bad byte); see
    ``parse_family``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise FamilyFormatError(f"line {lineno}: not UTF-8 text",
                                line=lineno) from None
    return parse_family(text, domain, max_generators)


def dump_family(family: PolynomialFamily) -> str:
    """Text form of a family, inverse to parse_family."""
    out = []
    for delta, w in _pairs(family.gamma):
        name = ",".join(str(i) for i in sorted(delta)) if delta else "-"
        out.append(f"{name} ; {w} ; {format_poly(family.get(delta, w))}")
    return "\n".join(out) + "\n"
