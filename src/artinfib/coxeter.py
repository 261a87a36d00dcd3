"""Finite Coxeter systems, parabolic subgroups and Poincare polynomials.

Generators are labeled 1..n.  The Poincare polynomial of a standard
parabolic W_Delta is the length generating function

    W_Delta(q) = sum_{w in W_Delta} q^{l(w)} = prod_i [d_i]_q

with d_i the degrees of the component types, so every Poincare polynomial
here is over Z.  ``poincare_poly`` uses the degree tables,
``poincare_poly_bruteforce`` is the independent cross-check: it walks,
on plain Python integers, the orbit of one point on which the group
acts simply transitively (a point of the open chamber of an exact
reflection representation over Z[phi], or one of the 2m chambers of
I2(m)'s mirrors).

Each Dynkin diagram is written once, in ``finite_type_system``, with
these numbering conventions:

    A_n   chain 1-2-...-n
    B_n   chain with the double edge last: m(n-1, n) = 4
    D_n   chain 1-...-(n-2) plus leaf n attached at n-2 (D_2 = A_1 x A_1,
          D_3 = A_3 with the branch numbering)
    E_n   chain 1-3-4-5-6[-7-8] with node 2 attached at node 4
    F_4   chain 1-2-3-4 with m(2, 3) = 4
    H_n   chain with the 5-edge first: m(1, 2) = 5
    I2(m) two generators, m(1, 2) = m

``parabolic_components`` lists each component's generators in ascending
order and names it by matching: the first of A, B, D, E, F, H (then
I2(m) in rank 2) whose diagram of that rank is the component's labelled
tree up to renumbering.  The brute-force side reads every edge's Cartan
values from one table, ``_CARTAN``.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import re

from .domains import ZZ
from .errors import (
    GroupTooLarge,
    InfiniteGroup,
    InvalidRank,
    NotFiniteType,
)
from .laurent import LaurentPoly, q_bracket

DEFAULT_GROUP_BOUND = 10**6

# caps on what ``system_from_string`` accepts: A12 already has a
# 4096-cell complex, and I2(m) work grows with m.  Labels of rank 10-12
# pass the cap, but the CLI refuses them (exit 2) before their complex
# is built, at ``homology.MAX_SMITH_CELLS``
MAX_TOTAL_RANK = 12
MAX_DIHEDRAL_ORDER = 10**5


# -- labels ------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class FiniteTypeLabel:
    """An irreducible finite type: family letter, rank, and the edge
    label m for the dihedral family I2(m)."""

    family: str
    rank: int
    order: int | None = None

    def __post_init__(self):
        # a float or a string raises TypeError, as in ``LaurentPoly``
        object.__setattr__(self, "rank", operator.index(self.rank))
        if self.order is not None:
            object.__setattr__(self, "order", operator.index(self.order))
        fam, n = self.family, self.rank
        ok = (
            (fam == "A" and n >= 1)
            or (fam == "B" and n >= 2)
            or (fam == "D" and n >= 2)
            or (fam == "E" and n in (6, 7, 8))
            or (fam == "F" and n == 4)
            or (fam == "H" and n in (3, 4))
            or (fam == "I" and n == 2 and self.order is not None
                and self.order >= 3)
        )
        if not ok:
            raise InvalidRank(f"no finite type {self}")
        if fam != "I" and self.order is not None:
            raise InvalidRank(f"order parameter only valid for I2: {self}")

    def __str__(self):
        if self.family == "I":
            return f"I2({self.order})"
        return f"{self.family}{self.rank}"

    def degrees(self) -> tuple[int, ...]:
        fam, n = self.family, self.rank
        if fam == "A":
            return tuple(range(2, n + 2))
        if fam == "B":
            return tuple(range(2, 2 * n + 1, 2))
        if fam == "D":
            return tuple(range(2, 2 * n - 1, 2)) + (n,)
        if fam == "E":
            return {6: (2, 5, 6, 8, 9, 12),
                    7: (2, 6, 8, 10, 12, 14, 18),
                    8: (2, 8, 12, 14, 18, 20, 24, 30)}[n]
        if fam == "F":
            return (2, 6, 8, 12)
        if fam == "H":
            return (2, 6, 10) if n == 3 else (2, 12, 20, 30)
        return (2, self.order)

    def group_order(self) -> int:
        out = 1
        for d in self.degrees():
            out *= d
        return out


_LABEL_RE = re.compile(r"^([ABDEFH])\s*(\d+)$|^I\s*2\s*\((\d+)\)$")


def parse_label(text: str) -> FiniteTypeLabel:
    m = _LABEL_RE.match(text.strip())
    try:
        if m and m.group(3) is not None:
            return FiniteTypeLabel("I", 2, int(m.group(3)))
        if m:
            return FiniteTypeLabel(m.group(1), int(m.group(2)))
    except ValueError:  # more digits than int() converts
        pass
    raise InvalidRank(f"cannot parse type label {text[:40]!r}")


# -- Coxeter systems ---------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CoxeterSystem:
    """Coxeter matrix with generators 1..n; m(i,i) = 1, m(i,j) >= 2, and
    an entry above ``MAX_DIHEDRAL_ORDER`` raises InvalidRank, and one
    that is not an integer (a float, a string) TypeError."""

    matrix: tuple

    def __post_init__(self):
        mat = tuple(tuple(operator.index(x) for x in row)
                    for row in self.matrix)
        object.__setattr__(self, "matrix", mat)
        n = len(mat)
        for i in range(n):
            if len(mat[i]) != n:
                raise ValueError("Coxeter matrix must be square")
            if mat[i][i] != 1:
                raise ValueError("diagonal of a Coxeter matrix is 1")
            for j in range(n):
                if i != j and (mat[i][j] < 2 or mat[i][j] != mat[j][i]):
                    raise ValueError(
                        f"invalid Coxeter matrix entry at ({i+1},{j+1})")
                if mat[i][j] > MAX_DIHEDRAL_ORDER:
                    raise InvalidRank(
                        f"Coxeter matrix entry m({i+1},{j+1}) = {mat[i][j]} "
                        f"is above {MAX_DIHEDRAL_ORDER}")

    @property
    def n(self) -> int:
        return len(self.matrix)

    @property
    def generators(self) -> tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    def m(self, i: int, j: int) -> int:
        return self.matrix[i - 1][j - 1]

    def is_irreducible(self) -> bool:
        if self.n == 0:
            return False
        comps = _connected_components(self, set(self.generators))
        return len(comps) == 1


def _edges(system: CoxeterSystem, verts):
    out = {}
    vs = sorted(verts)
    for a_pos, a in enumerate(vs):
        for b in vs[a_pos + 1:]:
            m = system.m(a, b)
            if m >= 3:
                out[(a, b)] = m
    return out


def _connected_components(system: CoxeterSystem, verts: set):
    comps = []
    left = set(verts)
    while left:
        start = min(left)
        comp = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in left - comp:
                if system.m(v, w) >= 3:
                    comp.add(w)
                    frontier.append(w)
        comps.append(tuple(sorted(comp)))
        left -= comp
    return comps


def finite_type_system(label) -> CoxeterSystem:
    """The Coxeter system of an irreducible finite type label."""
    if isinstance(label, str):
        label = parse_label(label)
    n = label.rank
    mat = [[1 if i == j else 2 for j in range(n)] for i in range(n)]

    def set_m(a, b, m):
        mat[a - 1][b - 1] = m
        mat[b - 1][a - 1] = m

    fam = label.family
    if fam == "A":
        for i in range(1, n):
            set_m(i, i + 1, 3)
    elif fam == "B":
        for i in range(1, n - 1):
            set_m(i, i + 1, 3)
        set_m(n - 1, n, 4)
    elif fam == "D":
        if n >= 3:
            for i in range(1, n - 1):
                set_m(i, i + 1, 3)
            set_m(n - 2, n, 3)
        # D_2 stays edgeless: A_1 x A_1
    elif fam == "E":
        chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        for a, b in zip(chain, chain[1:]):
            set_m(a, b, 3)
        set_m(2, 4, 3)
    elif fam == "F":
        set_m(1, 2, 3)
        set_m(2, 3, 4)
        set_m(3, 4, 3)
    elif fam == "H":
        set_m(1, 2, 5)
        for i in range(2, n):
            set_m(i, i + 1, 3)
    else:  # I2(m)
        set_m(1, 2, label.order)
    return CoxeterSystem(tuple(tuple(row) for row in mat))


def system_from_string(text: str) -> CoxeterSystem:
    """Build a system from a label, allowing products like ``A1xA1``.

    Raises InvalidRank, before any matrix is built, when a factor is
    empty (``A1x``, ``A1xxB2``) or the total rank exceeds
    ``MAX_TOTAL_RANK``; an I2(m) with m > ``MAX_DIHEDRAL_ORDER`` is
    refused by ``CoxeterSystem``.
    """
    parts = text.replace(" ", "").split("x")
    if parts == [""]:
        raise InvalidRank(f"empty type string {text!r}")
    labels = []
    total = 0
    for part in parts:
        if not part:
            raise InvalidRank(f"type {text[:40]!r} has an empty factor")
        label = parse_label(part)
        total += label.rank
        if total > MAX_TOTAL_RANK:
            raise InvalidRank(f"type {text[:40]!r} has total rank above "
                              f"{MAX_TOTAL_RANK}")
        labels.append(label)
    systems = [finite_type_system(label) for label in labels]
    mat = [[1 if i == j else 2 for j in range(total)] for i in range(total)]
    off = 0
    for s in systems:
        for i in range(s.n):
            for j in range(s.n):
                if i != j:
                    mat[off + i][off + j] = s.matrix[i][j]
        off += s.n
    return CoxeterSystem(tuple(tuple(row) for row in mat))


# -- component classification -------------------------------------------


def _shape(system: CoxeterSystem, verts) -> tuple:
    """The least rooted encoding of the labelled tree on ``verts``: equal
    for two trees exactly when they are isomorphic with their labels."""
    nbrs = {v: [] for v in verts}
    for (a, b), m in _edges(system, verts).items():
        nbrs[a].append((b, m))
        nbrs[b].append((a, m))

    def rooted(v, parent):
        return tuple(sorted((m, rooted(w, v)) for w, m in nbrs[v]
                            if w != parent))

    return min(rooted(v, None) for v in verts)


@functools.lru_cache(maxsize=None)
def _names_of_rank(k: int) -> dict:
    """{shape: label} of the ``finite_type_system`` diagrams of rank k;
    of A, B, D, E, F and H the first keeps a shape they share (A3, not
    D3)."""
    names = {}
    for family in "ABDEFH":
        try:
            label = FiniteTypeLabel(family, k)
        except InvalidRank:
            continue
        system = finite_type_system(label)
        names.setdefault(_shape(system, system.generators), label)
    return names


@functools.lru_cache(maxsize=None)
def _classify_component(system: CoxeterSystem, verts: tuple
                        ) -> FiniteTypeLabel:
    """The finite type of the connected diagram on ``verts``.

    A circuit raises NotFiniteType.  Otherwise the component's shape
    (``_shape``) is looked up among the ``finite_type_system`` diagrams
    of its rank (``_names_of_rank``); a rank-2 component that is not A2
    or B2 is I2(m) for its edge label m.  NotFiniteType if none matches.
    """
    k = len(verts)
    edges = _edges(system, verts)
    if len(edges) != k - 1:
        raise NotFiniteType(
            f"component {list(verts)} contains a circuit; not finite type")
    label = _names_of_rank(k).get(_shape(system, verts))
    if label is None and k == 2:
        label = FiniteTypeLabel("I", 2, *edges.values())
    if label is None:
        raise NotFiniteType(
            f"component {list(verts)} with edge labels "
            f"{sorted(edges.values())} in rank {k} is not finite type")
    return label


def parabolic_components(system: CoxeterSystem, delta) -> list:
    """Split Delta into connected components and name each.

    Returns a list of (FiniteTypeLabel, ascending generator tuple), each
    label found by matching the component against the
    ``finite_type_system`` diagrams (``_classify_component``); raises
    NotFiniteType if any component is not of finite type.
    """
    delta = set(delta)
    for v in delta:
        if not 1 <= v <= system.n:
            raise InvalidRank(f"generator {v} outside 1..{system.n}")
    return [(_classify_component(system, comp), comp)
            for comp in _connected_components(system, delta)]


# -- Poincare polynomials via degree tables ------------------------------


@functools.lru_cache(maxsize=None)
def _poincare_cached(matrix, delta):
    out = LaurentPoly.one(ZZ)
    for label, _gens in parabolic_components(CoxeterSystem(matrix), delta):
        for d in label.degrees():
            out = out * q_bracket(d, ZZ)
    return out


def poincare_poly(system: CoxeterSystem, delta=None) -> LaurentPoly:
    """Length generating polynomial of W_Delta via the degree tables."""
    if delta is None:
        delta = system.generators
    return _poincare_cached(system.matrix, tuple(sorted(set(delta))))


def poincare_quotient(system: CoxeterSystem, delta, j: int) -> LaurentPoly:
    """W_{Delta + {j}}(q) / W_Delta(q); exact for finite types."""
    delta = set(delta)
    if j in delta:
        raise InvalidRank(f"generator {j} already in {sorted(delta)}")
    num = poincare_poly(system, delta | {j})
    den = poincare_poly(system, delta)
    return num.divexact(den)


# -- brute force enumeration ---------------------------------------------


def _bfs_level_counts(start, moves, bound):
    """Level sizes of the BFS over the orbit of the hashable ``start``.

    ``moves`` takes a point to its image under each generator.  The
    group acts simply transitively on the orbit, so its BFS levels are
    the Cayley graph's.  Exceeding ``bound`` distinct points raises
    GroupTooLarge.
    """
    visited = {start}
    frontier = [start]
    counts = [1]
    while True:
        fresh = []
        for point in frontier:
            for move in moves:
                image = move(point)
                if image not in visited:
                    visited.add(image)
                    fresh.append(image)
                    if len(visited) > bound:
                        raise GroupTooLarge(
                            f"more than {bound} elements enumerated")
        if not fresh:
            return counts
        counts.append(len(fresh))
        frontier = fresh


# Cartan pairing (c_ab, c_ba) of an edge a < b labelled m, over Z[phi]
# as (integer part, phi part): c_ab * c_ba = 4 cos^2(pi / m)
_CARTAN = {3: ((-1, 0), (-1, 0)), 4: ((-1, 0), (-2, 0)),
           5: ((0, -1), (0, -1))}


def _reflection_moves(system, verts):
    """The dual reflections v -> v - v_i c_i of the ``_CARTAN`` pairing c
    on ``verts``.  A point is the flat tuple (a_1, b_1, ..., a_k, b_k) of
    its coordinates v_i = a_i + b_i phi, with phi^2 = phi + 1."""
    pos = {v: i for i, v in enumerate(verts)}
    row = [[] for _ in verts]  # off-diagonal entries of c_i; c_ii = 2
    for (a, b), m in _edges(system, verts).items():
        row[pos[a]].append((pos[b], _CARTAN[m][0]))
        row[pos[b]].append((pos[a], _CARTAN[m][1]))

    def reflection(i):
        def move(v):
            out = list(v)
            x = out[2 * i] = -v[2 * i]
            y = out[2 * i + 1] = -v[2 * i + 1]
            for j, (c, d) in row[i]:
                out[2 * j] += x * c + y * d
                out[2 * j + 1] += x * d + y * c + y * d
            return tuple(out)
        return move

    return [reflection(i) for i in range(len(verts))]


def _component_length_counts(system, verts, bound):
    labels = set(_edges(system, verts).values())
    if len(verts) == 2:
        # the 2m chambers of I2(m)'s m mirrors, numbered around the
        # circle: s and t cross the two walls of chamber 0
        two_m = 2 * max(labels)
        return _bfs_level_counts(0, [lambda x: (-1 - x) % two_m,
                                     lambda x: (1 - x) % two_m], bound)
    if labels <= {3, 4} or labels <= {3, 5}:
        # the all-ones vector lies in the open chamber of the dual
        # action, so its orbit is the group
        return _bfs_level_counts((1, 0) * len(verts),
                                 _reflection_moves(system, verts), bound)
    # a finite irreducible group of rank >= 3 carries edge labels from
    # {3, 4} or from {3, 5}; anything else cannot close up
    raise InfiniteGroup(
        f"component {sorted(verts)} with edge labels {sorted(labels)} "
        f"in rank {len(verts)} generates an infinite group")


def poincare_poly_bruteforce(system: CoxeterSystem, delta=None,
                             bound: int = DEFAULT_GROUP_BOUND) -> LaurentPoly:
    """Length generating polynomial by exact group enumeration.

    Each connected component of Delta is enumerated as the orbit of one
    point it acts on simply transitively: in rank 2, one of the 2m
    chambers of I2(m); otherwise the all-ones vector under the dual of
    an exact reflection representation over the golden integers Z[phi].
    A component of rank >= 3 whose edge labels lie neither in {3, 4}
    nor in {3, 5} raises InfiniteGroup before enumerating.  Lengths are
    BFS distances in the orbit.  Components multiply since they commute.
    """
    if delta is None:
        delta = system.generators
    delta = set(delta)
    out = LaurentPoly.one(ZZ)
    for comp in _connected_components(system, delta):
        out = out * LaurentPoly(ZZ, 0, _component_length_counts(
            system, comp, bound))
    return out
