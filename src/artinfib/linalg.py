"""Sparse exact Gaussian elimination over a coefficient field.

Rows are dicts {column index: element}.  Input rows may hold zero values:
``echelon`` drops them on entry, so the rows it keeps and returns hold
nonzero elements only.  Elimination proceeds by increasing column, always
clearing the current minimum column, so banded inputs (the window rows in
this package) stay banded and the cost is rows x band^2 rather than
cubic.  Everything is exact; no floats.
"""

from __future__ import annotations

import heapq

from .errors import UnsupportedDomain


def echelon(rows, domain):
    """Reduce an iterable of sparse rows; returns {pivot column: row}.

    Rows are consumed destructively.  Pivot rows are normalized to pivot
    coefficient 1.  The number of pivots is the rank.
    """
    if not domain.is_field:
        raise UnsupportedDomain(f"elimination needs a field, not {domain}")
    is_zero = domain.is_zero
    mul = domain.mul
    sub = domain.sub
    neg = domain.neg
    inv = domain.inv

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
        push({k: v for k, v in row.items() if not is_zero(v)})

    pivots: dict[int, dict] = {}
    while heap:
        c = heapq.heappop(heap)
        group = buckets.pop(c, None)
        if not group:
            continue
        group.sort(key=len)
        piv = group[0]
        pinv = inv(piv[c])
        if pinv != domain.one:
            piv = {k: mul(pinv, v) for k, v in piv.items()}
        pivots[c] = piv
        for row in group[1:]:
            f = row.pop(c)
            for k, v in piv.items():
                if k == c:
                    continue
                cur = row.get(k)
                nxt = sub(cur, mul(f, v)) if cur is not None else \
                    neg(mul(f, v))
                if is_zero(nxt):
                    row.pop(k, None)
                else:
                    row[k] = nxt
            push(row)
    return pivots


def sparse_rank(rows, domain) -> int:
    """Rank of the span of the given sparse rows."""
    return len(echelon(rows, domain))


def projected_kernel_dim(row_maker, domain, keep_cols) -> int:
    """dim of the kernel of A projected onto the ``keep_cols`` coordinates.

    ``row_maker()`` yields the sparse rows of A; it is called once.
    Column indices must be >= 0: the dropped columns are renumbered
    below 0, so one elimination clears every dropped column before any
    kept one.  The pivots that land in dropped columns then number
    rank(A with the kept columns deleted), and

        dim proj(ker A) = |keep| - rank(A) + rank(A with kept cols deleted)
                        = |keep| - (pivots in kept columns)

    because ker(A restricted to vanishing on keep) is the kernel of the
    column-deleted matrix.  Dropped columns below min(keep) become
    c - min(keep) and the others ~c, so on a banded A with a contiguous
    keep each boundary is cleared from its outer edge inward, which
    keeps the fill banded.
    """
    keep = keep_cols if isinstance(keep_cols, range) else set(keep_cols)
    lo = min(keep, default=0)
    rows = ({(k if k in keep else k - lo if k < lo else ~k): v
             for k, v in row.items()} for row in row_maker())
    pivots = echelon(rows, domain)
    return len(keep) - sum(1 for c in pivots if c >= 0)
