"""Sparse exact Gaussian elimination over Q or a prime field, on integers.

Rows are dicts {column key: nonzero int}: over GF(p) the residues of the
entries in [1, p), over Q any nonzero integer multiple of the row, such
as its entries times the lcm of their denominators (``QQ.to_ints``);
scaling a row keeps the rank and the pivot columns.
Elimination proceeds by increasing key, always clearing the current
minimum key, so banded inputs (the window rows in this package) stay
banded and the cost is rows x band^2 rather than cubic.  Everything is
exact; no floats.

An elimination can run in stages: ``echelon``, ``sparse_rank`` and
``projected_kernel_dim`` each take the pivot dict of an earlier stage
and extend it, so the pivot count after each stage is the rank of every
row added so far.  Pivot columns are where the rank of the leading
columns grows, a property of the span alone, so how many pivots land in
a trailing block of keys does not depend on the order the rows came in,
nor on the order of the keys inside the block.  Two trailing blocks,
one inside the other, therefore give a projected kernel each from one
elimination, after any stage.  The series windows use this for one
elimination per differential and radius, with the column order their
keys already carry (see ``series``).
"""

from __future__ import annotations

import heapq
import math

from .errors import UnsupportedDomain


def echelon(rows, domain, pivots=None):
    """Reduce an iterable of sparse rows; returns {pivot column: row}.

    Rows hold nonzero ints (nonzero residues over GF(p)) and are
    consumed.  With ``pivots``, the result of an earlier call over the
    same domain, the rows are reduced against it and it is extended in
    place and returned.  Over GF(p) a pivot row is scaled to pivot
    coefficient 1 and a row with coefficient f in the pivot column
    becomes row - f*pivot, reduced mod p.  Over Q a pivot row only has
    its sign made positive: with pivot coefficient l, f as above and
    g = gcd(l, f), the row becomes (l/g)*row - (f/g)*pivot, divided by
    its content, so the entries stay small.  The number of pivots is the
    rank, and the pivot columns are where the rank of the leading
    columns grows.
    """
    if not domain.is_field:
        raise UnsupportedDomain(f"elimination needs a field, not {domain}")
    p = domain.characteristic
    gcd = math.gcd

    buckets: dict[int, list[dict]] = {}
    heap: list[int] = []

    def push(row):
        if row:
            c = min(row)
            if c not in buckets:
                buckets[c] = []
                heapq.heappush(heap, c)
            buckets[c].append(row)

    for row in rows:
        push(row)

    if pivots is None:
        pivots = {}
    while heap:
        c = heapq.heappop(heap)
        group = buckets.pop(c)
        piv = pivots.get(c)
        if piv is None:
            group.sort(key=len)
            piv = group.pop(0)
            lead = piv[c]
            # a pivot coefficient of 1 saves scaling the rows it reduces
            if p and lead != 1:
                inv = pow(lead, -1, p)
                piv = {k: v * inv % p for k, v in piv.items()}
            elif lead < 0:
                piv = {k: -v for k, v in piv.items()}
            pivots[c] = piv
        lead = piv[c]
        tail = [(k, v) for k, v in piv.items() if k != c]
        for row in group:
            f = row.pop(c)
            g = gcd(lead, f)
            a, b = lead // g, f // g
            if a != 1:
                for k in row:
                    row[k] *= a
            for k, v in tail:
                nxt = row.get(k, 0) - b * v
                if p:
                    nxt %= p
                if nxt:
                    row[k] = nxt
                else:
                    row.pop(k, None)
            if not p and row:
                g = gcd(*row.values())
                if g > 1:
                    row = {k: v // g for k, v in row.items()}
            push(row)
    return pivots


def sparse_rank(rows, domain, pivots=None) -> int:
    """Rank of the span of the given sparse rows.

    With ``pivots`` from an earlier stage, the rank of the span of its
    rows and these together; ``pivots`` is extended in place.
    """
    return len(echelon(rows, domain, pivots))


def projected_kernel_dim(row_maker, domain, keep, pivots=None):
    """dim of the kernel of A projected onto the ``keep`` coordinates.

    ``row_maker()`` yields the sparse rows of A; it is called once.
    ``keep`` is a trailing range of keys: every column of A at or past
    keep.start lies in it.  Elimination clears the keys in increasing
    order, so it clears every dropped column before any kept one, the
    pivots that land in dropped columns number rank(A with the kept
    columns deleted), and

        dim proj(ker A) = |keep| - rank(A) + rank(A with kept cols deleted)
                        = |keep| - (pivots in keep)

    because ker(A restricted to vanishing on keep) is the kernel of the
    column-deleted matrix.  With ``pivots`` from earlier stages, A is
    those rows and these together.
    """
    pivots = echelon(row_maker(), domain, pivots)
    return len(keep) - sum(1 for c in pivots if c in keep)
