"""Window series, recurrences, and the banded window cohomology."""

import collections
import importlib
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from artinfib.domains import GF, QQ, ZZ
from artinfib.errors import (NonInvertibleExtremes, SeedTooShort,
                             UnsupportedDomain, WindowTooLarge,
                             WindowTooSmall)
from artinfib.laurent import LaurentPoly, parse_poly
from artinfib.linalg import projected_kernel_dim, sparse_rank
from artinfib.series import (WINDOW_DOUBLINGS, WindowSeries,
                             default_window_radius, equation_rows,
                             kernel_of_scalar_mul, m_cohomology_dim_window,
                             matrix_reach, poly_window_product,
                             recurrence_extend, solve_scalar_mul,
                             window_keys)
from artinfib.complexes import (CochainComplex, build_generic_complex,
                                build_salvetti_complex, koszul_family,
                                parse_family,
                                random_koszul_family, transpose_complex)
from artinfib.coxeter import finite_type_system, system_from_string
from artinfib.homology import verify_shift_theorem

series = importlib.import_module("artinfib.series")
linalg = importlib.import_module("artinfib.linalg")


def test_window_series_basics():
    w = WindowSeries(QQ, -2, (1, 0, 3))
    assert w.hi == 0 and len(w) == 3
    assert w.coeff(-2) == QQ.one and w.coeff(-1) == QQ.zero
    with pytest.raises(IndexError):
        w.coeff(1)
    assert w.restrict(-1, 0).coeffs == (QQ.zero, QQ.normalize(3))
    with pytest.raises(IndexError):
        w.restrict(-3, 0)
    assert not w.is_zero()
    assert WindowSeries(QQ, 4, (0, 0)).is_zero()
    # numbers of other types are refused, not stored
    for dom in (QQ, ZZ, GF(5)):
        for foreign in (np.int64(2), 0.5):
            with pytest.raises(TypeError):
                WindowSeries(dom, 0, (1, foreign))
    # and so is a window start that is not an integer
    with pytest.raises(TypeError):
        WindowSeries(QQ, 2.7, (1,))
    lo = WindowSeries(QQ, np.int64(-2), (1,)).lo
    assert lo == -2 and type(lo) is int


def test_recurrence_geometric():
    # q - 2 forces a_k = a_{k-1} / 2 going right
    p = parse_poly("q - 2", QQ)
    ext = recurrence_extend(WindowSeries(QQ, 0, (1,)), p, "right", 4)
    assert ext.coeffs == tuple(QQ.normalize(Fraction(1, 2 ** i))
                               for i in range(5))
    # and a_k = 2 a_{k+1} going left
    ext = recurrence_extend(WindowSeries(QQ, 0, (1,)), p, "left", 3)
    assert ext.lo == -3
    assert ext.coeffs == tuple(QQ.normalize(c) for c in (8, 4, 2, 1))


def test_recurrence_period_six():
    p = parse_poly("1 - q + q^2", QQ)
    ext = recurrence_extend(WindowSeries(QQ, 0, (1, 1)), p, "right", 10)
    pattern = [1, 1, 0, -1, -1, 0]
    assert [int(c) for c in ext.coeffs] == [pattern[i % 6]
                                            for i in range(12)]
    back = recurrence_extend(ext, p, "left", 6)
    assert back.lo == -6
    assert [int(c) for c in back.coeffs[:6]] == pattern


def test_recurrence_contract_errors():
    p = parse_poly("1 - q + q^2", QQ)
    with pytest.raises(SeedTooShort):
        recurrence_extend(WindowSeries(QQ, 0, (1,)), p, "right", 1)
    with pytest.raises(NonInvertibleExtremes):
        recurrence_extend(WindowSeries(ZZ, 0, (1, 1)),
                          parse_poly("2 - q", ZZ), "right", 1)
    with pytest.raises(ValueError):
        recurrence_extend(WindowSeries(QQ, 0, (1, 1)), p, "up", 1)
    # integer coefficients are fine when the extremes are units
    ext = recurrence_extend(WindowSeries(ZZ, 0, (1, 1)),
                            parse_poly("1 - q + q^2", ZZ), "right", 4)
    assert [int(c) for c in ext.coeffs] == [1, 1, 0, -1, -1, 0]


def test_kernel_dimension_and_annihilation():
    rng = random.Random(5)
    for _ in range(40):
        span = rng.randint(1, 6)
        coeffs = [rng.choice((-1, 1, 2, 3))] + \
            [rng.randint(-3, 3) for _ in range(span - 1)] + \
            [rng.choice((-2, -1, 1))]
        p = LaurentPoly(QQ, rng.randint(-3, 3), tuple(coeffs))
        ker = kernel_of_scalar_mul(p)
        assert ker.dim == p.span == span
        for basis in ker.basis_on_window(-12, 12):
            assert poly_window_product(p, basis).is_zero()
    with pytest.raises(NonInvertibleExtremes):
        kernel_of_scalar_mul(LaurentPoly.zero(QQ))


def test_window_product_modes():
    p = parse_poly("1 + q", QQ)
    x = WindowSeries(QQ, 0, (1, 1, 1))
    cons = poly_window_product(p, x)
    assert cons.lo == 1 and cons.hi == 2
    assert [int(c) for c in cons.coeffs] == [2, 2]
    # the determined part is empty when the input is narrow
    narrow = poly_window_product(parse_poly("1 + q^5", QQ),
                                 WindowSeries(QQ, 0, (1, 1)))
    assert len(narrow) == 0


def test_mixed_domains_raise_one_error():
    # p over Q against windows over Z/3, short and long: every helper
    # refuses the pair before it computes anything
    p = parse_poly("1 - q + q^2", QQ)
    for x in (WindowSeries(GF(3), 0, (1,)),
              WindowSeries(GF(3), -4, (1, 2, 0, 1, 1, 2, 1, 0, 1))):
        with pytest.raises(UnsupportedDomain):
            recurrence_extend(x, p, "right", 2)
        with pytest.raises(UnsupportedDomain):
            recurrence_extend(x, p, "left", 2)
        with pytest.raises(UnsupportedDomain):
            solve_scalar_mul(p, x)
        with pytest.raises(UnsupportedDomain):
            poly_window_product(p, x)


def test_solve_round_trip_seeded():
    rng = random.Random(19)
    for dom in (QQ, GF(3)):
        for _ in range(60):
            span = rng.randint(1, 5)
            coeffs = [rng.choice((-1, 1, 2))] + \
                [rng.randint(-3, 3) for _ in range(span - 1)] + \
                [rng.choice((-1, 1))]
            p = LaurentPoly(dom, rng.randint(-3, 3), tuple(coeffs))
            rhs = WindowSeries(dom, rng.randint(-7, 1),
                               [rng.randint(-5, 5)
                                for _ in range(rng.randint(1, 10))])
            x = solve_scalar_mul(p, rhs)
            assert x.lo == rhs.lo - p.degree and x.hi == rhs.hi - p.val
            back = poly_window_product(p, x)
            assert back.lo == rhs.lo and back.hi == rhs.hi
            assert back.coeffs == rhs.coeffs
    with pytest.raises(WindowTooSmall):
        solve_scalar_mul(parse_poly("1 - q", QQ), WindowSeries(QQ, 0, ()))


def test_span_zero_round_trip():
    # a monomial c*q^k is a unit: no kernel, and x = c^-1 q^-k * rhs
    for dom in (QQ, GF(3), ZZ):
        for c, k in ((1, 0), (-1, 3), (2 if dom is not ZZ else -1, -2)):
            p = LaurentPoly(dom, k, (c,))
            ker = kernel_of_scalar_mul(p)
            assert ker.dim == 0 and ker.basis_on_window(-5, 5) == []
            for lo in (-6, -1, 0, 2):
                rhs = WindowSeries(dom, lo, (1, -2, 0, 4, 5))
                x = solve_scalar_mul(p, rhs)
                assert (x.lo, x.hi) == (lo - k, rhs.hi - k)
                assert x.coeffs == tuple(
                    dom.normalize(dom.inv(p.coeffs[0]) * a)
                    for a in rhs.coeffs)
                back = poly_window_product(p, x)
                assert (back.lo, back.coeffs) == (rhs.lo, rhs.coeffs)


def test_kernel_matches_koszul_window():
    # the recurrence side and the elimination side are independent: the
    # kernel of p on the series module is H^0 of the one-generator
    # Koszul complex R --p--> R tensored with it, and p is onto
    rng = random.Random(23)
    for dom in (QQ, GF(3)):
        for _ in range(40):
            span = rng.randint(0, 5)
            coeffs = [rng.choice((-1, 1, 2))] + \
                [rng.randint(-3, 3) for _ in range(span - 1)] + \
                ([rng.choice((-1, 1))] if span else [])
            p = LaurentPoly(dom, rng.randint(-3, 3), tuple(coeffs))
            K = build_generic_complex(koszul_family((1,), [p], dom))
            dim = kernel_of_scalar_mul(p).dim
            assert dim == m_cohomology_dim_window(K, 0)[0] == p.span
            assert m_cohomology_dim_window(K, 1)[0] == 0


def test_window_radius_cap():
    C = build_salvetti_complex(finite_type_system("A1"))
    cap = default_window_radius(C) * 2 ** (2 * WINDOW_DOUBLINGS)
    # the largest radius the shift check's doublings reach still runs
    assert m_cohomology_dim_window(C, 0, cap) == (1, True)
    with pytest.raises(WindowTooLarge):
        m_cohomology_dim_window(C, 0, cap + 1)
    # and a huge radius fails before any row is built
    start = time.perf_counter()
    with pytest.raises(WindowTooLarge):
        m_cohomology_dim_window(C, 0, 10**8)
    assert time.perf_counter() - start < 1.0


def test_window_too_large_refused_before_any_row(monkeypatch):
    # I2(3200) holds about 2.5e8 equation-row entries at its default
    # radius and a dense rank-1 family about 1.9e8, far past what memory
    # takes; both are refused before any Smith form or row.  So are
    # I2(1600) (6.1e7, four times I2(800)) and I2(837), the least
    # dihedral order past the bound.
    homology = importlib.import_module("artinfib.homology")

    def never(*args, **kwargs):
        raise AssertionError("ran before the window was sized")

    monkeypatch.setattr(homology, "cohomology", never)
    monkeypatch.setattr(series, "equation_rows", never)
    dense = build_generic_complex(
        parse_family("- ; 1 ; (1 - q^4000)/(1 - q)", QQ))
    for C in (build_salvetti_complex(finite_type_system("I2(3200)")),
              build_salvetti_complex(finite_type_system("I2(1600)")),
              build_salvetti_complex(finite_type_system("I2(837)")),
              dense):
        start = time.perf_counter()
        with pytest.raises(WindowTooLarge, match="window elimination"):
            verify_shift_theorem(C)
        with pytest.raises(WindowTooLarge, match="window elimination"):
            m_cohomology_dim_window(C, 1)
        assert time.perf_counter() - start < 1.0
    # the cap on the radius is still read first
    with pytest.raises(WindowTooLarge, match="window radius 10000000 is"):
        verify_shift_theorem(dense, 10**7)


def test_window_rows_bounded_before_any_row(monkeypatch):
    # a sparse family of 2 entries a row: at 8x its default radius, the
    # last its shift check tries, the elimination's 1.36e7 entries are
    # within their cap, but its 6.8e6 rows, a dict each, would take
    # about 2.7 GB; refused before any Smith form or row
    homology = importlib.import_module("artinfib.homology")

    def never(*args, **kwargs):
        raise AssertionError("ran before the window was sized")

    monkeypatch.setattr(homology, "cohomology", never)
    monkeypatch.setattr(series, "equation_rows", never)
    sparse = build_generic_complex(parse_family("- ; 1 ; 1 - q^100000", QQ))
    radius = 2 ** WINDOW_DOUBLINGS * default_window_radius(sparse)
    assert held_entries(sparse, radius, 0) < series.MAX_WINDOW_NONZEROS
    start = time.perf_counter()
    with pytest.raises(WindowTooLarge, match="6800001 rows, beyond"):
        verify_shift_theorem(sparse, radius)
    with pytest.raises(WindowTooLarge, match="6800001 rows, beyond"):
        m_cohomology_dim_window(sparse, 0, radius)
    assert time.perf_counter() - start < 1.0


def test_window_size_admits_the_largest_runs(monkeypatch):
    # counted through the size check alone, no window run: E8 at its
    # default radius (1.1e6 entries) and at 8x it, the last radius its
    # shift check tries (8.4e6); E7; I2(800) (1.5e7) and I2(836), the
    # largest dihedral order admitted; a sparse family of reach 10^5
    # (2.4e6)
    cases = [("E8", QQ, (1, 2 ** WINDOW_DOUBLINGS)), ("E7", QQ, (1,)),
             ("E7", GF(3), (1,)), ("I2(800)", QQ, (1,)),
             ("I2(836)", QQ, (1,))]
    sizes = {}
    for name, dom, factors in cases:
        C = build_salvetti_complex(finite_type_system(name), dom)
        N = default_window_radius(C)
        degrees = range(C.top_degree + 1)
        for f in factors:
            assert series.window_radius(C, f * N, degrees,
                                        WINDOW_DOUBLINGS)[0] == f * N
            sizes[name, f] = max(held_entries(C, f * N, k) for k in degrees)
    assert max(sizes.values()) < series.MAX_WINDOW_NONZEROS
    assert sizes["E8", 1] > 10**6 and sizes["I2(800)", 1] > 1.5e7
    sparse = build_generic_complex(parse_family("- ; 1 ; 1 - q^100000", QQ))
    assert series.window_radius(sparse, None, (0, 1), WINDOW_DOUBLINGS)[0] \
        == default_window_radius(sparse) == 400000

    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(series, "equation_rows", reached)
    with pytest.raises(Reached):
        m_cohomology_dim_window(sparse, 0)


def test_non_integer_window_radius_fails_before_any_work(monkeypatch):
    # a float or string radius is refused when it is read, before any
    # Smith form, window or equation row is built
    homology = importlib.import_module("artinfib.homology")

    def never(*args, **kwargs):
        raise AssertionError("ran before the radius was read")

    C = build_salvetti_complex(finite_type_system("A2"))
    monkeypatch.setattr(homology, "cohomology", never)
    monkeypatch.setattr(homology, "m_cohomology_dim_window", never)
    monkeypatch.setattr(series, "equation_rows", never)
    for radius in (10.5, 12.0, "30"):
        with pytest.raises(TypeError):
            verify_shift_theorem(C, radius)
        for k in (1, 5):  # degree 5 carries no module
            with pytest.raises(TypeError):
                m_cohomology_dim_window(C, k, radius)


def test_window_stability_check_runs_two_windows(monkeypatch):
    # the stability verdict compares two full windows, at the default
    # radius N and at N + 2 * reach: a speed-up that drops the second one
    # must fail here.  Degree 1 of A3 eliminates d^0 and d^1 once each,
    # both numbered in the wider window of their degree: the radius-N
    # rows in three shells (the next degree's two image ranks, then the
    # rest for the kernel at N), then the rows only N + 2 * reach
    # determines, for the kernel there
    calls = collections.Counter()
    rows_at = collections.Counter()

    def counted(name):
        original = getattr(series, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    C = build_salvetti_complex(finite_type_system("A3"))
    original_rows = series.equation_rows

    def at_radius(entries, radius, domain, shell=None, frame=None,
                  skip=None, relations=None):
        rows_at[C.diffs.index(entries), radius, frame, skip] += 1
        return original_rows(entries, radius, domain, shell, frame, skip,
                             relations)

    for name in ("projected_kernel_dim", "sparse_rank"):
        monkeypatch.setattr(series, name, counted(name))
    monkeypatch.setattr(series, "equation_rows", at_radius)
    series._staged_pass.cache_clear()
    N = default_window_radius(C)
    wide = [N + 2 * reach_of(C, k) for k in (0, 1)]
    assert m_cohomology_dim_window(C, 1) == (2, True)
    assert calls == {"projected_kernel_dim": 4, "sparse_rank": 4}
    assert rows_at == {(0, N, wide[0], None): 3, (0, wide[0], None, N): 1,
                       (1, N, wide[1], None): 3, (1, wide[1], None, N): 1}
    monkeypatch.undo()

    # and the shift check reports that default, 4 * reach, in every degree
    A2 = build_salvetti_complex(finite_type_system("A2"))
    reach = max(matrix_reach(d) for d in A2.diffs)
    report = verify_shift_theorem(A2)
    assert report.ok
    assert all(d.radius == 4 * reach for d in report.degrees)


def test_verify_eliminates_each_differential_once(monkeypatch):
    # an elimination is one pivot dict, however many stages feed it; one
    # verify of A3 eliminates each nonzero differential once at the start
    # radius N, for both windows of its degree's stability check, and no
    # other elimination sees a row
    fed = []  # [pivot dict, rows fed to it over every stage]
    echelon = linalg.echelon

    def counting(rows, domain, pivots=None):
        n = [0]

        def stream():
            for row in rows:
                n[0] += 1
                yield row
        out = echelon(stream(), domain, pivots)
        entry = next((e for e in fed if e[0] is out), None)
        if entry is None:
            entry = [out, 0]
            fed.append(entry)
        entry[1] += n[0]
        return out

    monkeypatch.setattr(linalg, "echelon", counting)
    series._staged_pass.cache_clear()
    C = build_salvetti_complex(finite_type_system("A3"))
    report = verify_shift_theorem(C)
    N = default_window_radius(C)
    assert report.ok and all(d.radius == N for d in report.degrees)
    nonzero = sum(1 for d in C.diffs
                  if any(not e.is_zero() for row in d for e in row))
    assert nonzero == 3
    assert sum(1 for _, n in fed if n) == nonzero


def test_window_sizing_reads_each_differential_once(monkeypatch):
    # a window is sized from one read of each differential, for its
    # reach, nonzero coefficients and nonzero rows: E6 has 6, and one
    # window reads each once.  The shift check sizes every degree up
    # front and then each of its 7 windows, all at the default radius
    C = build_salvetti_complex(finite_type_system("E6"), GF(3))
    N = default_window_radius(C)
    calls = [0]
    original = series.matrix_reach

    def counted(matrix):
        calls[0] += 1
        return original(matrix)

    monkeypatch.setattr(series, "matrix_reach", counted)
    assert len(C.diffs) == 6
    m_cohomology_dim_window(C, 3)
    assert 0 < calls[0] <= 6
    calls[0] = 0
    report = verify_shift_theorem(C)
    assert report.ok and all(d.radius == N for d in report.degrees)
    assert 0 < calls[0] <= 48


def test_window_dims_a2():
    C = build_salvetti_complex(finite_type_system("A2"))
    for k, expect in ((0, 1), (1, 2), (2, 0)):
        dim, stable = m_cohomology_dim_window(C, k)
        assert stable and dim == expect
    # out-of-range degrees carry no module
    assert m_cohomology_dim_window(C, -1) == (0, True)
    assert m_cohomology_dim_window(C, 3) == (0, True)


def test_window_dims_koszul():
    fam = koszul_family((1, 2), [parse_poly("1 - q", QQ)] * 2, QQ)
    C = build_generic_complex(fam)
    assert m_cohomology_dim_window(C, 0) == (1, True)
    assert m_cohomology_dim_window(C, 1) == (1, True)
    assert m_cohomology_dim_window(C, 2) == (0, True)


def test_window_dims_with_free_quotient():
    # one Koszul scalar equal to zero: kernel and image both have
    # infinite dimension but the quotient stays finite
    fam = koszul_family((1, 2), [parse_poly("1 - q", QQ),
                                 LaurentPoly.zero(QQ)], QQ)
    C = build_generic_complex(fam)
    assert m_cohomology_dim_window(C, 0) == (1, True)
    assert m_cohomology_dim_window(C, 1) == (1, True)


def test_window_rejects_bad_input():
    C = build_salvetti_complex(finite_type_system("A2"), ZZ)
    with pytest.raises(UnsupportedDomain):
        m_cohomology_dim_window(C, 1)
    CQ = build_salvetti_complex(finite_type_system("A2"))
    with pytest.raises(WindowTooSmall):
        m_cohomology_dim_window(CQ, 1, radius=3)


def test_window_dims_zero_rank_degree():
    # d^1 of C is the 0-row map and d^0 of its transpose has no columns
    f = parse_poly("1 - q", QQ)
    C = CochainComplex(QQ, (1, 1, 0), (((f,),), ()))
    assert [m_cohomology_dim_window(C, k) for k in range(3)] == \
        [(1, True), (0, True), (0, True)]
    T = transpose_complex(C)
    assert [m_cohomology_dim_window(T, k) for k in range(3)] == \
        [(0, True), (1, True), (0, True)]


def primitive_scale(values, dom):
    """Over Q, the positive rational s that makes s * values primitive
    integers: lcm of the denominators over gcd of the numerators.  Over
    GF(p), or for no nonzero values, 1."""
    vals = [Fraction(v) for v in values if v]
    if dom.characteristic or not vals:
        return 1
    den = math.lcm(*(v.denominator for v in vals))
    return Fraction(den, math.gcd(*(v.numerator * den // v.denominator
                                    for v in vals)))


def scaled(row, s):
    """The row's items times s, sorted, with ints for integral values."""
    return tuple(sorted((k, int(s * c)) for k, c in row.items()))


def fold_key(v, W, n, j):
    """Key of block j at exponent v in the window [-W, W] of n blocks:
    exponents numbered outermost first, W, -W, W - 1, ..., -1, 0."""
    return (2 * (W - abs(v)) + (v < 0)) * n + j


def test_window_keys_put_every_interior_last():
    # the table numbers the window one to one onto range((2W + 1) * w),
    # and the exponents |v| <= M of every M <= W are a trailing range
    for W in (0, 1, 2, 7):
        for w in (1, 2, 3):
            table = window_keys(W, w)
            assert len(table) == 2 * W + 1
            key = {(v, j): table[v + W] + j
                   for v in range(-W, W + 1) for j in range(w)}
            assert sorted(key.values()) == list(range((2 * W + 1) * w))
            for M in range(W + 1):
                inside = sorted(k for (v, _), k in key.items() if abs(v) <= M)
                assert inside == list(range(2 * (W - M) * w, (2 * W + 1) * w))
            # and it is the numbering the reference rows below use
            assert all(k == fold_key(v, W, w, j) for (v, j), k in key.items())


def reference_equation_rows(entries, N, dom, shell=(-1, None)):
    """Output (i, u) = sum of c * x_(j, u - exp), kept when every input
    exponent lies in [-N, N] and a < |u| <= b for ``shell`` = (a, b);
    x_(j, v) is column ``fold_key(v, N, n, j)``.  Over Q each row is
    scaled to primitive integer form."""
    n = len(entries[0]) if entries else 0
    a, b = shell
    rows = []
    for entry_row in entries:
        # wide enough for every exponent the test matrices use
        for u in range(-4 * N - 8, 4 * N + 9):
            if abs(u) <= a or (b is not None and abs(u) > b):
                continue
            row, inside = {}, True
            for j, e in enumerate(entry_row):
                for exp in range(e.val, e.degree + 1):
                    c = e.coeff(exp)
                    if not c:
                        continue
                    inside = inside and -N <= u - exp <= N
                    col = fold_key(u - exp, N, n, j)
                    row[col] = dom.normalize(row.get(col, dom.zero) + c)
            row = {k: c for k, c in row.items() if c}
            if row and inside:
                rows.append(scaled(row, primitive_scale(row.values(), dom)))
    return rows


def transposed_image_rows(entries, N, dom, lo, hi):
    """Image of the unit vector at (j, v), v in [-N, N], cut to exponents
    [lo, hi]: the rows of the image's transpose, as ``echelon`` takes
    them, residues over GF(p) and over Q the entries times the lcm of
    their denominators.  y_(i, u) is column (u - lo) * m + i."""
    m = len(entries)
    n = len(entries[0]) if entries else 0
    p = dom.characteristic
    rows = []
    for v in range(-N, N + 1):
        for j in range(n):
            row = {}
            for i in range(m):
                e = entries[i][j]
                for u in range(lo, hi + 1):
                    c = e.coeff(u - v)
                    if c:
                        row[(u - lo) * m + i] = c
            if row:
                ints = ([c % p for c in row.values()] if p
                        else dom.to_ints(row.values())[1])
                rows.append(dict(zip(row, ints)))
    return rows


def random_poly_matrix(rng, dom, m, n):
    def entry():
        if rng.random() < 0.3:
            return LaurentPoly.zero(dom)
        span = rng.randint(0, 4)
        coeffs = [rng.randint(-3, 3) for _ in range(span + 1)]
        coeffs[0] = coeffs[-1] = rng.choice((-2, -1, 1, 2))
        return LaurentPoly(dom, rng.randint(-3, 3), coeffs)
    return tuple(tuple(entry() for _ in range(n)) for _ in range(m))


def test_window_rows_match_reference():
    rng = random.Random(20)
    fixed = [
        ((parse_poly("1 + q^2", QQ), LaurentPoly.zero(QQ)),
         (parse_poly("q^-2 - 1", QQ), parse_poly("q^-1 + 2*q", QQ))),
        ((parse_poly("1/2 - 2/3*q", QQ), parse_poly("4 + 6*q^-1", QQ)),
         (LaurentPoly.zero(QQ), parse_poly("3/4*q^2", QQ))),
        (),
        ((), ()),
    ]
    cases = [(QQ, mat) for mat in fixed]
    for dom in (QQ, GF(3), GF(7)):
        for _ in range(25):
            m, n = rng.randint(0, 3), rng.randint(0, 3)
            cases.append((dom, random_poly_matrix(rng, dom, m, n)))
    for dom, mat in cases:
        reach = max(1, matrix_reach(mat))
        for N in (4, 7):
            got = [tuple(sorted(r.items()))
                   for r in equation_rows(mat, N, dom)]
            assert got == reference_equation_rows(mat, N, dom)
            assert all(type(c) is int and c for r in got for _, c in r)
            for shell in ((-1, 2), (2, N - 1), (N - 1, None), (N, N + 3)):
                got = [tuple(sorted(r.items()))
                       for r in equation_rows(mat, N, dom, shell)]
                assert got == reference_equation_rows(mat, N, dom, shell)
            # the rows with |u| <= N - 3 * reach span the transpose of
            # the image of the window, cut to those exponents
            lo, hi = -N + 3 * reach, N - 3 * reach
            if lo <= hi:
                rows = equation_rows(mat, N, dom, (-1, hi))
                assert sparse_rank(rows, dom) == sparse_rank(
                    transposed_image_rows(mat, N, dom, lo, hi), dom)


def reach_of(C, k):
    """1, or the larger reach of the differentials out of and into k."""
    return max(1, matrix_reach(C.diff(k) or ()),
               matrix_reach(C.diff(k - 1) or ()))


def held_entries(C, radius, k):
    """Equation-row entries the elimination of d^k holds at ``radius``,
    its nonzero coefficients counted here."""
    nonzeros = sum(1 for row in C.diff(k) or () for e in row
                   for c in e.coeffs if c)
    return series.elimination_size(radius, reach_of(C, k), nonzeros, 0)[0]


def reference_window_dim(C, k, N):
    """dim H^k of the window at radius N, from a projected kernel of its
    own and the rank of the transposed image, rows built here."""
    dom = C.domain
    reach = reach_of(C, k)
    lo, hi = -N + 3 * reach, N - 3 * reach
    n = C.rank(k)
    kernel = projected_kernel_dim(
        lambda: (dict(r) for r in reference_equation_rows(
            C.diff(k) or (), N, dom)),
        dom, range(6 * reach * n, (2 * N + 1) * n))
    image = sparse_rank(
        transposed_image_rows(C.diff(k - 1) or (), N, dom, lo, hi), dom)
    return kernel - image


def staged_reference(C, k, N):
    """What degree k's elimination at N gives, from the references: the
    image ranks of degree k + 1 at N and N + 2 * its reach, then degree
    k's own projected kernel dims at N and N + 2 * its reach."""
    dom = C.domain
    n = C.rank(k)
    reach, above = reach_of(C, k), reach_of(C, k + 1)
    kernels = tuple(
        projected_kernel_dim(
            lambda: (dict(r) for r in reference_equation_rows(
                C.diff(k) or (), M, dom)),
            dom, range(6 * reach * n, (2 * M + 1) * n))
        for M in (N, N + 2 * reach))
    images = tuple(
        sparse_rank(transposed_image_rows(C.diff(k) or (), M, dom,
                                          -M + 3 * above, M - 3 * above),
                    dom)
        for M in (N, N + 2 * above))
    return (*images, *kernels)


def test_staged_elimination_matches_separate_windows():
    # one elimination per differential and radius gives what separate
    # eliminations give: the image ranks read off its first shells equal
    # the ranks of the image's transpose, and its kernels at N and at
    # N + 2 * reach equal a projected kernel of their own, rows built
    # here.  The complexes' degrees have unequal reach; the radii are the
    # smallest every degree admits (where some windows have not settled),
    # the default, and one doubling of it, the shift check's fallback
    complexes = [build_salvetti_complex(system_from_string(label), dom)
                 for label, dom in (("I2(5)", QQ), ("I2(12)", QQ),
                                    ("A1xB2", QQ), ("B3", GF(3)),
                                    ("H3", QQ))]
    for rank, seed, dom, span in ((3, 0, QQ, 2), (3, 1, QQ, 3),
                                  (2, 0, GF(2), 2), (3, 18, GF(3), 1),
                                  (2, 0, GF(5), 2)):
        complexes.append(build_generic_complex(
            random_koszul_family(rank, seed, dom, span_bound=span)))
    reaches, verdicts, dims = set(), set(), set()
    for C in complexes:
        series._staged_pass.cache_clear()
        degrees = [k for k in range(C.top_degree + 1) if C.rank(k)]
        default = default_window_radius(C)
        smallest = max(3 * reach_of(C, k) + 1 for k in degrees)
        for N in (smallest, default, 2 * default):
            # degree -> its image ranks at N and N + 2 * its reach; a
            # degree after one of rank 0 has none
            images = {}
            for k in degrees:
                reach, above = reach_of(C, k), reach_of(C, k + 1)
                want = staged_reference(C, k, N)
                got = series._staged_pass(
                    C.diff(k) or (), N, C.rank(k), reach,
                    (3 * above, above), C.domain)
                assert got == want, (C.ranks, str(C.domain), N, k)
                images[k + 1] = want[:2]
                image = images.get(k, (0, 0))
                d1, d2 = want[2] - image[0], want[3] - image[1]
                assert m_cohomology_dim_window(C, k, N) == (d2, d1 == d2)
                reaches.add((reach, above))
                verdicts.add(d1 == d2)
                dims.add(d2)
    assert any(r != a for r, a in reaches)
    assert verdicts == {True, False} and len(dims) > 2


def test_window_cache_keeps_domains_apart():
    # A3 over Q and then over Z/3 in one process: the second run gets
    # its own answer from its own eliminations, none read from the
    # first's, though the two fields give the same ranks here
    series._staged_pass.cache_clear()
    for dom in (QQ, GF(3)):
        C = build_salvetti_complex(finite_type_system("A3"), dom)
        N = default_window_radius(C)
        misses = series._staged_pass.cache_info().misses
        for k in range(4):
            d1 = reference_window_dim(C, k, N)
            d2 = reference_window_dim(C, k, N + 2 * reach_of(C, k))
            assert m_cohomology_dim_window(C, k) == (d2, d1 == d2)
        # d^-1 and d^3 are empty, so their passes are trivial
        assert series._staged_pass.cache_info().misses - misses == 5


def test_dropped_rows_leave_every_stage_unchanged():
    # the rows that d^(k+1) d^k = 0 proves dependent are left out of the
    # window eliminations: each shell's rank and both projected kernels
    # are those of the elimination of every row, at the smallest radius
    # every degree admits, the default, and twice it.  The Salvetti
    # complexes lose rows; a family whose entries p[Delta, g0] are all 0
    # and a complex with no family lose none
    salvetti = [build_salvetti_complex(finite_type_system(label), dom)
                for label, dom in (("E6", QQ), ("E6", GF(3)), ("F4", QQ))]
    koszul = [build_generic_complex(
        random_koszul_family(rank, seed, dom, span_bound=3))
        for rank, seed, dom in ((3, 0, QQ), (3, 1, QQ), (3, 2, GF(2)),
                                (4, 3, GF(3)), (3, 4, GF(5)))]
    polys = [LaurentPoly.zero(QQ), parse_poly("1 - q", QQ),
             parse_poly("q^-1 + 2 + q", QQ)]
    zero_g0 = build_generic_complex(koszul_family((1, 2, 3), polys, QQ))
    no_family = transpose_complex(salvetti[-1])
    assert series.window_relations(no_family, 1) is None
    assert set(series.window_relations(zero_g0, 1)) == {None}
    cases = ([(C, True) for C in salvetti + koszul]
             + [(zero_g0, False), (no_family, False)])
    for C, drops in cases:
        degrees = [k for k in range(C.top_degree + 1) if C.rank(k)]
        default = default_window_radius(C)
        smallest = max(3 * reach_of(C, k) + 1 for k in degrees)
        rows = kept = 0
        for N in (smallest, default, 2 * default):
            for k in degrees:
                entries = C.diff(k) or ()
                relations = series.window_relations(C, k)
                above = reach_of(C, k + 1)
                args = (entries, N, C.rank(k), reach_of(C, k),
                        (3 * above, above), C.domain)
                assert series._staged_pass.__wrapped__(*args, relations) \
                    == series._staged_pass.__wrapped__(*args), (C.ranks, N, k)
                rows += sum(1 for _ in equation_rows(entries, N, C.domain))
                kept += sum(1 for _ in equation_rows(
                    entries, N, C.domain, relations=relations))
        assert (kept < rows) if drops else (kept == rows), (C.ranks, drops)
