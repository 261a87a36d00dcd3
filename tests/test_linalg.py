"""Sparse elimination: the projected kernel against its two-rank identity."""

import random

import artinfib.linalg as linalg
from artinfib.domains import GF, QQ
from artinfib.linalg import projected_kernel_dim, sparse_rank


def random_rows(rng, domain, n_rows, n_cols, band):
    """Rows with entries in [-3, 3]; banded rows cover ``band`` columns
    from a start that moves with the row, the others are scattered."""
    rows = []
    for r in range(n_rows):
        if band:
            start = min(r * n_cols // n_rows, n_cols - band)
            cols = range(start, start + band)
        else:
            cols = rng.sample(range(n_cols), rng.randint(1, n_cols // 2))
        row = {}
        for c in cols:
            v = domain.normalize(rng.randint(-3, 3))
            if not domain.is_zero(v):
                row[c] = v
        rows.append(row)
    return rows


def reference_dim(rows, domain, keep):
    """|keep| - rank(A) + rank(A with the kept columns deleted)."""
    pruned = [{k: v for k, v in row.items() if k not in keep}
              for row in rows]
    return (len(keep) - sparse_rank([dict(r) for r in rows], domain)
            + sparse_rank(pruned, domain))


def test_projected_kernel_dim_one_elimination(monkeypatch):
    calls = []
    echelon = linalg.echelon

    def counting(rows, domain):
        calls.append(domain)
        return echelon(rows, domain)

    monkeypatch.setattr(linalg, "echelon", counting)
    rng = random.Random("projected-kernel")
    checked = 0
    for domain in (QQ, GF(3), GF(7)):
        for trial in range(40):
            n_cols = rng.randint(6, 24)
            n_rows = rng.randint(2, n_cols + 4)
            band = rng.choice((0, 3, 5))
            rows = random_rows(rng, domain, n_rows, n_cols, band)
            lo = rng.randint(0, n_cols - 1)
            for keep in (range(lo, rng.randint(lo, n_cols)),
                         set(rng.sample(range(n_cols),
                                        rng.randint(0, n_cols)))):
                expected = reference_dim(rows, domain, set(keep))
                made = []

                def row_maker():
                    made.append(1)
                    return (dict(r) for r in rows)

                before = len(calls)
                got = projected_kernel_dim(row_maker, domain, keep)
                assert got == expected, (domain, trial, sorted(keep))
                assert len(calls) == before + 1 and len(made) == 1
                checked += 1
    assert checked == 240
