"""Sparse elimination against a dense Gauss elimination written here, and
the projected kernel against its two-rank identity.

``echelon`` takes rows of nonzero ints and ``projected_kernel_dim`` a
trailing range of keys, so the tests bring their random rows and keeps
to that form here: ``int_rows`` takes each row's residues over GF(p)
and its values times the lcm of their denominators over Q, and
``relabeled`` renumbers the columns so that each keep is a trailing
block, in a random order inside every block.  The oracles still see the
rows and keeps as drawn."""

import random
from fractions import Fraction

import artinfib.linalg as linalg
from artinfib.domains import GF, QQ
from artinfib.linalg import echelon, projected_kernel_dim, sparse_rank


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
            if v:
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
                    row[k] = domain.normalize(row.get(k, domain.zero)
                                              + f * v)
        else:
            cols = rng.sample(range(n_cols), rng.randint(1, n_cols))
            row = {k: scalar(rng.random() < 0.5) for k in cols}
        rows.append(row)
    return rows


def int_rows(rows, domain):
    """Each row as ``echelon`` takes it, zeros dropped: its residues over
    GF(p), over Q its values over their common denominator
    (``QQ.to_ints``)."""
    p = domain.characteristic
    return [{k: v for k, v in zip(row, [v % p for v in row.values()] if p
                                  else domain.to_ints(row.values())[1])
             if v} for row in rows]


def relabeled(rng, rows, domain, n_cols, *keeps):
    """The rows as nonzero ints, columns renumbered in blocks: first the
    columns in no keep, then those in the last keep only, and so on, the
    first keep's last; the order inside a block is random.  ``keeps``
    are nested, each inside the next.  Returns the rows and each keep as
    the trailing range of keys it became."""
    depth = {c: sum(c in keep for keep in keeps) for c in range(n_cols)}
    order = sorted(range(n_cols), key=lambda c: (depth[c], rng.random()))
    key = {c: i for i, c in enumerate(order)}
    out = [{key[c]: v for c, v in row.items()}
           for row in int_rows(rows, domain)]
    return out, [range(n_cols - len(keep), n_cols) for keep in keeps]


def test_to_ints_round_trip():
    # QQ.to_ints, which ``int_rows`` feeds the rows through, is the
    # inverse of from_ints
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
            got = echelon(int_rows(rows, domain), domain)
            assert sorted(got) == expected, (domain, trial)
            assert all(type(v) is int and v for row in got.values()
                       for v in row.values())
            assert sparse_rank(int_rows(rows, domain), domain) == \
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
                keyed, (trailing,) = relabeled(rng, rows, domain, n_cols,
                                               set(keep))
                made = []

                def row_maker():
                    made.append(1)
                    return iter(keyed)

                before = len(calls)
                got = projected_kernel_dim(row_maker, domain, trailing)
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
            keyed, (trailing,) = relabeled(rng, rows, domain, n_cols, keep)
            cuts = sorted(rng.sample(range(len(rows) + 1), 2))
            stages = [keyed[:cuts[0]], keyed[cuts[0]:cuts[1]]]
            pivots = {}
            for end, stage in zip(cuts, stages):
                got = sparse_rank(stage, domain, pivots)
                assert got == len(dense_pivot_columns(rows[:end], domain))
            got = projected_kernel_dim(lambda: keyed[cuts[1]:], domain,
                                       trailing, pivots)
            assert got == reference_dim(rows, domain, set(keep)), \
                (domain, trial)


def test_nested_keeps_give_both_kernels_from_one_elimination():
    # banded rows fed in two stages to one elimination whose columns run
    # outside ``outer`` first, then outer outside keep, then keep: after
    # each stage the pivots in each keep give the projected kernel of the
    # rows so far on that keep, as the dense two-rank identity gives it
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
            keyed, keeps = relabeled(rng, rows, domain, n_cols, keep, outer)
            cut = rng.randint(0, len(rows))
            pivots = {}
            seen = []  # dims on keep, then on outer, after each stage
            for stage, end in ((keyed[:cut], cut), (keyed[cut:], len(rows))):
                seen.append(projected_kernel_dim(lambda: iter(stage), domain,
                                                 keeps[0], pivots))
                seen.append(projected_kernel_dim(lambda: (), domain,
                                                 keeps[1], pivots))
                assert seen[-2:] == [reference_dim(rows[:end], domain, set(z))
                                     for z in (keep, outer)], (domain, trial)
            # the narrower keep after the first stage, the wider after both
            nonzero.add((bool(seen[0]), bool(seen[3])))
    assert nonzero == {(False, False), (False, True), (True, False),
                       (True, True)}
