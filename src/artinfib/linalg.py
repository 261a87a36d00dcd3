"""Sparse exact Gaussian elimination over Q or a prime field, on integers.

Rows are dicts {column index: element}.  ``echelon`` maps each row on
entry to plain Python ints with ``integer_row`` (residues over GF(p), the
primitive integer multiple over Q; scaling a row keeps the rank and the
pivot columns) and drops zero entries, so the rows it keeps and returns
hold nonzero ints only.  Elimination proceeds by increasing column,
always clearing the current minimum column, so banded inputs (the window
rows in this package) stay banded and the cost is rows x band^2 rather
than cubic.  Everything is exact; no floats.

An elimination can run in stages: ``echelon``, ``sparse_rank`` and
``projected_kernel_dim`` each take the pivot dict of an earlier stage
and extend it, so the pivot count after each stage is the rank of every
row added so far.  Pivot columns are where the rank of the leading
columns grows, a property of the span alone, so how many pivots land in
a trailing block of columns does not depend on the order the rows came
in.  With nested keeps both keeps are trailing blocks of one column
order, so one elimination gives a projected kernel for each, after any
stage.  The series windows use this for one elimination per
differential and radius: the image ranks of the next degree are read
off a prefix of it (those image rows are a subset of the kernel rows),
then the kernel on the narrower window's interior, then, after the rows
only the wider window determines, the kernel on the wider one's (see
``series``).
"""

from __future__ import annotations

import heapq
import math

from .errors import UnsupportedDomain


def integer_row(values, domain) -> list:
    """Integers spanning the same line as ``values`` over ``domain``.

    Over GF(p) these are the residues in [0, p).  Over Q they are the
    primitive integer multiple: the values times the lcm of their
    denominators (``QQ.to_ints``), divided by the gcd of the results.  A
    list of ints with content 1 comes back as it is.
    """
    p = domain.characteristic
    if p:
        return [x % p for x in values]
    values = list(values)
    try:
        g = math.gcd(*values)
    except TypeError:  # rationals, not ints: clear the denominators
        values = domain.to_ints(values)[1]
        g = math.gcd(*values)
    return values if g <= 1 else [x // g for x in values]


def echelon(rows, domain, pivots=None):
    """Reduce an iterable of sparse rows; returns {pivot column: row}.

    Rows are consumed.  With ``pivots``, the result of an earlier call
    over the same domain, the rows are reduced against it and it is
    extended in place and returned.  Over GF(p) a pivot row is scaled to
    pivot coefficient 1 and a row with coefficient f in the pivot column
    becomes row - f*pivot, reduced mod p.  Over Q a pivot row only has
    its sign made positive: with pivot coefficient l, f as above and
    g = gcd(l, f), the row becomes (l/g)*row - (f/g)*pivot, divided by
    its content, so every row stays primitive.  The number of pivots is
    the rank, and the pivot columns are where the rank of the leading
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
        push({k: v for k, v in zip(row, integer_row(row.values(), domain))
              if v})

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


def _kept(keep_cols):
    return (keep_cols if isinstance(keep_cols, (range, set))
            else set(keep_cols))


def _ends(outer):
    """The first and last column of the range ``outer``, and the least
    key ``dropped_columns_first`` gives a column of it."""
    a, z = (outer.start, outer.stop - 1) if outer else (0, -1)
    return a, z, a - z - 1


def dropped_columns_first(rows, keep_cols, outer=None):
    """The rows with every column outside ``keep_cols`` renumbered below 0.

    Column indices must be >= 0.  Kept columns keep their index.  A
    dropped column below min(keep) becomes c - min(keep) and any other
    ~c, so the map is one to one and, on a banded matrix with a
    contiguous keep, each boundary is cleared from its outer edge inward,
    which keeps the fill banded.  With ``outer``, a contiguous range
    holding the keep, the keeps are nested: the columns outside ``outer``
    come first, still from the outer edges inward, then those of
    ``outer`` outside the keep, then the keep, so both keeps are a
    trailing block of the order.  Rows added in stages to one elimination
    must all pass through the same renumbering.
    """
    keep = _kept(keep_cols)
    lo = min(keep, default=0)
    if outer is None:
        return ({(k if k in keep else k - lo if k < lo else ~k): v
                 for k, v in row.items()} for row in rows)
    a, z, base = _ends(outer)
    # outside outer: below a from base - a, above z from base - a - 2 down
    left, right, mid = base - a, base - a - 1 + z, a - 1
    return ({(k if k in keep else (k - lo if k < lo else mid - k)
              if k in outer else k + left if k < a else right - k): v
             for k, v in row.items()} for row in rows)


def projected_kernel_dim(row_maker, domain, keep_cols, pivots=None,
                         outer=None):
    """dim of the kernel of A projected onto the ``keep_cols`` coordinates.

    ``row_maker()`` yields the sparse rows of A; it is called once.  The
    rows go through ``dropped_columns_first``, so one elimination clears
    every dropped column before any kept one.  The pivots that land in
    dropped columns then number rank(A with the kept columns deleted),
    and

        dim proj(ker A) = |keep| - rank(A) + rank(A with kept cols deleted)
                        = |keep| - (pivots in kept columns)

    because ker(A restricted to vanishing on keep) is the kernel of the
    column-deleted matrix.  With ``pivots`` from earlier stages whose
    rows went through the same renumbering, A is those rows and these
    together.  With ``outer``, a range holding the keep, both keeps are
    trailing blocks of one column order, and the answer is the pair of
    dims, on ``keep_cols`` and on ``outer``.
    """
    keep = _kept(keep_cols)
    pivots = echelon(dropped_columns_first(row_maker(), keep, outer),
                     domain, pivots)
    dim = len(keep) - sum(1 for c in pivots if c >= 0)
    if outer is None:
        return dim
    base = _ends(outer)[2]
    return dim, len(outer) - sum(1 for c in pivots if c >= base)
