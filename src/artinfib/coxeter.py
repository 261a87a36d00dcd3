"""Finite Coxeter systems, parabolic subgroups and Poincare polynomials.

Generators are labeled 1..n.  The Poincare polynomial of a standard
parabolic W_Delta is the length generating function

    W_Delta(q) = sum_{w in W_Delta} q^{l(w)} = prod_i [d_i]_q

with d_i the degrees of the component types, so every Poincare polynomial
here is over Z.  ``poincare_poly`` uses the degree tables,
``poincare_poly_bruteforce`` enumerates the group through an exact
reflection representation and is the independent cross-check.

Diagram numbering conventions, which belong to ``finite_type_system``
alone (``parabolic_components`` names each component by its type and
lists its generators in ascending order):

    A_n   chain 1-2-...-n
    B_n   chain with the double edge last: m(n-1, n) = 4
    D_n   chain 1-...-(n-2) plus leaf n attached at n-2 (D_2 = A_1 x A_1,
          D_3 = A_3 with the branch numbering)
    E_n   chain 1-3-4-5-6[-7-8] with node 2 attached at node 4
    F_4   chain 1-2-3-4 with m(2, 3) = 4
    H_n   chain with the 5-edge first: m(1, 2) = 5
    I2(m) two generators, m(1, 2) = m
"""

from __future__ import annotations

import dataclasses
import functools
import re

import numpy as np

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
# pass the cap, but their cohomology does not finish in minutes (A10
# ran for more than 200 s over Z/3 and 240 s over Q); see ROADMAP.md,
# item 1
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
    """Coxeter matrix with generators 1..n; m(i,i) = 1, m(i,j) >= 2."""

    matrix: tuple

    def __post_init__(self):
        mat = tuple(tuple(int(x) for x in row) for row in self.matrix)
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
        comps.append(sorted(comp))
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

    Raises InvalidRank, before any matrix is built, when the total rank
    exceeds ``MAX_TOTAL_RANK`` or an I2(m) has m > ``MAX_DIHEDRAL_ORDER``.
    """
    parts = [p for p in text.replace(" ", "").split("x") if p]
    if not parts:
        raise InvalidRank(f"empty type string {text!r}")
    labels = []
    total = 0
    for part in parts:
        label = parse_label(part)
        total += label.rank
        if total > MAX_TOTAL_RANK:
            raise InvalidRank(f"type {text[:40]!r} has total rank above "
                              f"{MAX_TOTAL_RANK}")
        if label.order is not None and label.order > MAX_DIHEDRAL_ORDER:
            raise InvalidRank(f"{label}: m above {MAX_DIHEDRAL_ORDER}")
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


def _classify_component(system: CoxeterSystem, verts) -> FiniteTypeLabel:
    """The finite type of the connected diagram on ``verts``.

    A, D and E are told apart by the arm lengths at the branch node, B, F
    and H by where the one edge labeled above 3 sits.  NotFiniteType if
    the diagram is not of finite type.
    """
    k = len(verts)
    edges = _edges(system, verts)
    if len(edges) != k - 1:
        raise NotFiniteType(
            f"component {verts} contains a circuit; not finite type")
    degs = {v: 0 for v in verts}
    for a, b in edges:
        degs[a] += 1
        degs[b] += 1
    branch = [v for v in verts if degs[v] >= 3]
    heavy = [(m, e) for e, m in edges.items() if m > 3]

    if not heavy:
        if not branch:
            return FiniteTypeLabel("A", k)
        if len(branch) > 1 or degs[branch[0]] > 3:
            raise NotFiniteType(
                f"component {verts} has more than one branch point")
        arms = sorted(len(c) for c in
                      _connected_components(system, set(verts) - {branch[0]}))
        if arms[:2] == [1, 1]:
            return FiniteTypeLabel("D", k)
        if arms[:2] == [1, 2] and arms[2] <= 4:
            return FiniteTypeLabel("E", k)
        raise NotFiniteType(
            f"component {verts} branches with arm lengths {tuple(arms)}")

    if len(heavy) > 1:
        raise NotFiniteType(
            f"component {verts} has several edges labeled above 3")
    if branch:
        raise NotFiniteType(
            f"component {verts} mixes a branch point with a labeled edge")
    m, (a, b) = heavy[0]
    if k == 2:
        return FiniteTypeLabel("B", 2) if m == 4 else FiniteTypeLabel("I", 2, m)
    at_leaf = 1 in (degs[a], degs[b])
    if m == 4 and at_leaf:
        return FiniteTypeLabel("B", k)
    if m == 4 and k == 4:  # the middle edge of a path of four
        return FiniteTypeLabel("F", 4)
    if m == 5 and k in (3, 4) and at_leaf:
        return FiniteTypeLabel("H", k)
    raise NotFiniteType(
        f"component {verts}: edge label {m} in rank {k} is not finite type")


def parabolic_components(system: CoxeterSystem, delta) -> list:
    """Split Delta into connected components and classify each.

    Returns a list of (FiniteTypeLabel, ascending generator tuple);
    raises NotFiniteType if any component is not of finite type.
    """
    delta = set(delta)
    for v in delta:
        if not 1 <= v <= system.n:
            raise InvalidRank(f"generator {v} outside 1..{system.n}")
    return [(_classify_component(system, comp), tuple(comp))
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


def _bfs_level_counts(gen_mats, mul, bound):
    """Level sizes of the Cayley-graph BFS from the identity.

    ``gen_mats`` is an (g, n, n[, 2]) integer array; ``mul`` multiplies a
    batch (f, ...) by one generator.  Exceeding ``bound`` distinct
    elements raises GroupTooLarge.
    """
    ident = np.eye(gen_mats.shape[1], dtype=np.int64)
    if gen_mats.ndim == 4:
        ident = np.stack([ident, np.zeros_like(ident)], axis=-1)
    frontier = ident[None]
    visited = {ident.tobytes()}
    counts = [1]
    while len(frontier):
        cands = np.concatenate([mul(frontier, g) for g in gen_mats])
        if np.abs(cands).max() > 2**40:
            raise GroupTooLarge("entry growth exceeds exact integer range")
        fresh = []
        for idx in range(len(cands)):
            key = cands[idx].tobytes()
            if key not in visited:
                visited.add(key)
                fresh.append(idx)
                if len(visited) > bound:
                    raise GroupTooLarge(
                        f"more than {bound} elements enumerated")
        if not fresh:
            break
        frontier = np.ascontiguousarray(cands[fresh])
        counts.append(len(fresh))
    return counts


def _int_mul(batch, g):
    return batch @ g


def _golden_mul(batch, g):
    """Multiply matrices over Z[phi], phi^2 = phi + 1, stored as (..., 2)."""
    a1, b1 = batch[..., 0], batch[..., 1]
    a2, b2 = g[..., 0], g[..., 1]
    ra = a1 @ a2 + b1 @ b2
    rb = a1 @ b2 + b1 @ a2 + b1 @ b2
    return np.stack([ra, rb], axis=-1)


_CRYSTAL_OFF = {2: (0, 0), 3: (-1, -1), 4: (-1, -2), 6: (-1, -3)}


def _reflection_gens_crystal(system, verts):
    """Integer reflection matrices from a Cartan-style pairing."""
    k = len(verts)
    pos = {v: i for i, v in enumerate(verts)}
    c = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        c[i][i] = 2
    for (a, b), m in _edges(system, verts).items():
        ca, cb = _CRYSTAL_OFF[m]
        c[pos[a]][pos[b]] = ca
        c[pos[b]][pos[a]] = cb
    gens = []
    for i in range(k):
        g = np.eye(k, dtype=np.int64)
        g[i, :] -= c[i, :]
        gens.append(g)
    return np.stack(gens)


def _reflection_gens_golden(system, verts):
    """Reflection matrices over Z[phi] for diagrams with edges in {3, 5}."""
    k = len(verts)
    pos = {v: i for i, v in enumerate(verts)}
    ca = np.zeros((k, k), dtype=np.int64)
    cb = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        ca[i][i] = 2
    for (a, b), m in _edges(system, verts).items():
        i, j = pos[a], pos[b]
        if m == 3:
            ca[i][j] = ca[j][i] = -1
        else:  # m == 5: pairing value -phi on both sides
            cb[i][j] = cb[j][i] = -1
    gens = []
    for i in range(k):
        ga = np.eye(k, dtype=np.int64)
        gb = np.zeros((k, k), dtype=np.int64)
        ga[i, :] -= ca[i, :]
        gb[i, :] -= cb[i, :]
        gens.append(np.stack([ga, gb], axis=-1))
    return np.stack(gens)


def _dihedral_level_counts(m, bound):
    """BFS of I2(m) acting exactly on the m vertices of a regular polygon."""
    if 2 * m > bound:
        raise GroupTooLarge(f"dihedral group of order {2*m} exceeds {bound}")
    s = tuple((-x) % m for x in range(m))
    t = tuple((1 - x) % m for x in range(m))
    ident = tuple(range(m))
    visited = {ident}
    frontier = [ident]
    counts = [1]
    while frontier:
        nxt = []
        for w in frontier:
            for g in (s, t):
                x = tuple(w[g[v]] for v in range(m))
                if x not in visited:
                    visited.add(x)
                    nxt.append(x)
        if nxt:
            counts.append(len(nxt))
        frontier = nxt
    return counts


def _component_length_counts(system, verts, bound):
    labels = {m for m in _edges(system, verts).values()}
    if labels <= {3, 4, 6}:
        gens = _reflection_gens_crystal(system, sorted(verts))
        return _bfs_level_counts(gens, _int_mul, bound)
    if labels <= {3, 5}:
        gens = _reflection_gens_golden(system, sorted(verts))
        return _bfs_level_counts(gens, _golden_mul, bound)
    if len(verts) == 2:
        return _dihedral_level_counts(max(labels), bound)
    # finite irreducible groups of rank >= 3 only carry edge labels
    # 3, 4, 5; anything else cannot close up
    raise InfiniteGroup(
        f"component {sorted(verts)} with edge labels {sorted(labels)} "
        f"in rank {len(verts)} generates an infinite group")


def poincare_poly_bruteforce(system: CoxeterSystem, delta=None,
                             bound: int = DEFAULT_GROUP_BOUND) -> LaurentPoly:
    """Length generating polynomial by exact group enumeration.

    Each connected component of Delta is enumerated through a faithful
    exact reflection representation (integers, golden integers, or a
    polygon-vertex action for the remaining dihedral groups); lengths are
    Cayley graph distances.  Components multiply since they commute.
    """
    if delta is None:
        delta = system.generators
    delta = set(delta)
    out = LaurentPoly.one(ZZ)
    for comp in _connected_components(system, delta):
        out = out * LaurentPoly(ZZ, 0, _component_length_counts(
            system, comp, bound))
    return out
