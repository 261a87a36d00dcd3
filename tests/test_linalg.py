"""Sparse elimination against a dense Gauss elimination written here, and
the projected kernel against its two-rank identity."""

import random
from fractions import Fraction

import artinfib.linalg as linalg
from artinfib.domains import GF, QQ
from artinfib.linalg import (dropped_columns_first, echelon, integer_row,
                             projected_kernel_dim, sparse_rank)


def dense_pivot_columns(rows, domain):
    """Pivot columns of a dense Gauss elimination in column order, in
    Fraction arithmetic over Q and on residues over GF(p): the columns
    where the rank of the leading columns grows.  Their number is the
    rank."""
    p = domain.characteristic
    red = (lambda x: x % p) if p else Fraction
    cols = sorted({k for row in rows for k in row})
    M = [[red(row.get(k, 0)) for k in cols] for row in rows]
    pivots = []
    for c, col in enumerate(cols):
        r = len(pivots)
        pick = next((i for i in range(r, len(M)) if M[i][c]), None)
        if pick is None:
            continue
        M[r], M[pick] = M[pick], M[r]
        inv = pow(M[r][c], -1, p) if p else 1 / M[r][c]
        M[r] = [red(x * inv) for x in M[r]]
        for i in range(r + 1, len(M)):
            f = M[i][c]
            if f:
                M[i] = [red(x - f * y) for x, y in zip(M[i], M[r])]
        pivots.append(col)
    return pivots


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
    return (len(keep) - len(dense_pivot_columns(rows, domain))
            + len(dense_pivot_columns(pruned, domain)))


def mixed_rows(rng, domain, n_rows, n_cols):
    """Sparse rows of which about a third combine two earlier rows, so
    the rank falls short.  Over Q entries are non-integral rationals with
    denominators up to 12, numerators small or near 10^6."""
    def scalar(big):
        if domain.characteristic:
            return domain.normalize(rng.randrange(domain.characteristic))
        num = rng.randint(-9, 9)
        if big:
            num = rng.choice((-1, 1)) * rng.randint(10 ** 6 - 99,
                                                    10 ** 6 + 99)
        return domain.normalize(Fraction(num, rng.randint(1, 12)))

    rows = []
    for _ in range(n_rows):
        if len(rows) >= 2 and rng.random() < 0.35:
            row = {}
            for src in rng.sample(rows, 2):
                f = scalar(False)
                for k, v in src.items():
                    row[k] = domain.add(row.get(k, domain.zero),
                                        domain.mul(f, v))
        else:
            cols = rng.sample(range(n_cols), rng.randint(1, n_cols))
            row = {k: scalar(rng.random() < 0.5) for k in cols}
        rows.append(row)
    return rows


def test_integer_row():
    assert integer_row([Fraction(1, 2), Fraction(-2, 3), Fraction(0)],
                       QQ) == [3, -4, 0]
    assert integer_row([6, -4, 10], QQ) == [3, -2, 5]
    assert integer_row([1, 0, -1], QQ) == [1, 0, -1]
    assert integer_row([], QQ) == []
    assert integer_row([4, -1, 7], GF(3)) == [1, 2, 1]
    # the rational branch runs on QQ.to_ints, the inverse of from_ints
    for values, den, nums in (
            ([Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)], 12,
             [6, -8, 15]),
            ([Fraction(-7, 6), Fraction(0), Fraction(-1, 3)], 6,
             [-7, 0, -2]),
            ([3, -2, 0], 1, [3, -2, 0]),
            ([], 1, [])):
        got = QQ.to_ints(values)
        assert got == (den, nums) and all(type(n) is int for n in got[1])
        assert QQ.from_ints(nums, den) == values


def test_echelon_matches_dense_elimination():
    rng = random.Random("dense-oracle")
    for domain in (QQ, GF(3), GF(7)):
        deficient = 0
        for trial in range(60):
            n_cols = rng.randint(1, 14)
            rows = mixed_rows(rng, domain, rng.randint(1, 12), n_cols)
            expected = dense_pivot_columns(rows, domain)
            got = echelon([dict(r) for r in rows], domain)
            assert sorted(got) == expected, (domain, trial)
            assert all(type(v) is int and v for row in got.values()
                       for v in row.values())
            assert sparse_rank([dict(r) for r in rows], domain) == \
                len(expected)
            deficient += len(expected) < min(len(rows), n_cols)
        assert deficient >= 10, domain


def test_projected_kernel_dim_one_elimination(monkeypatch):
    calls = []
    echelon = linalg.echelon

    def counting(rows, domain, pivots=None):
        calls.append(domain)
        return echelon(rows, domain, pivots)

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


def test_staged_elimination_extends_one_pivot_dict():
    # rows fed in stages to one pivot dict: after each stage the pivot
    # count is the rank of every row so far, and the projected kernel at
    # the end is the one-pass answer, whatever the split
    rng = random.Random("staged")
    for domain in (QQ, GF(3), GF(7)):
        for trial in range(40):
            n_cols = rng.randint(6, 20)
            rows = mixed_rows(rng, domain, rng.randint(2, 16), n_cols)
            lo = rng.randint(0, n_cols - 1)
            keep = range(lo, rng.randint(lo, n_cols))
            cuts = sorted(rng.sample(range(len(rows) + 1), 2))
            stages = [rows[:cuts[0]], rows[cuts[0]:cuts[1]]]
            pivots = {}
            for end, stage in zip(cuts, stages):
                got = sparse_rank(dropped_columns_first(
                    [dict(r) for r in stage], keep), domain, pivots)
                assert got == len(dense_pivot_columns(rows[:end], domain))
            got = projected_kernel_dim(
                lambda: (dict(r) for r in rows[cuts[1]:]), domain, keep,
                pivots)
            assert got == reference_dim(rows, domain, set(keep)), \
                (domain, trial)


def test_nested_keeps_give_both_kernels_from_one_elimination():
    # banded rows fed in two stages to one elimination whose columns run
    # outside ``outer`` first, then outer outside keep, then keep: after
    # the first stage the count on keep is the projected kernel of those
    # rows alone, and after the second the count on outer is that of
    # every row, each as a from-scratch elimination gives it
    rng = random.Random("nested-keeps")
    nonzero = set()
    for domain in (QQ, GF(2), GF(3)):
        for trial in range(50):
            n_cols = rng.randint(8, 28)
            rows = random_rows(rng, domain, rng.randint(2, n_cols + 4),
                               n_cols, rng.choice((3, 5)))
            a = rng.randint(0, n_cols)
            b = rng.randint(a, n_cols)
            lo = rng.randint(a, b)
            outer, keep = range(a, b), range(lo, rng.randint(lo, b))
            cut = rng.randint(0, len(rows))
            # the renumbering is one to one and puts the zones in order
            zone = {c: (c in outer) + (c in keep) for c in range(n_cols)}
            (row,) = dropped_columns_first([dict.fromkeys(zone, 1)], keep,
                                           outer)
            assert len(row) == n_cols
            order = [c for _, c in sorted(zip(row, zone))]
            assert [zone[c] for c in order] == sorted(zone.values())
            pivots = {}
            inner_dim = projected_kernel_dim(
                lambda: (dict(r) for r in rows[:cut]), domain, keep,
                pivots, outer)[0]
            outer_dim = projected_kernel_dim(
                lambda: (dict(r) for r in rows[cut:]), domain, keep,
                pivots, outer)[1]
            assert inner_dim == projected_kernel_dim(
                lambda: (dict(r) for r in rows[:cut]), domain, keep) == \
                reference_dim(rows[:cut], domain, set(keep)), (domain, trial)
            assert outer_dim == projected_kernel_dim(
                lambda: (dict(r) for r in rows), domain, outer) == \
                reference_dim(rows, domain, set(outer)), (domain, trial)
            nonzero.add((bool(inner_dim), bool(outer_dim)))
    assert nonzero == {(False, False), (False, True), (True, False),
                       (True, True)}
