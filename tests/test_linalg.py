"""Exactness, canonicity, and subspace arithmetic of the linear algebra core."""

import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from hocohom.linalg import (
    Field, Matrix, Subspace, QuotientMap,
    rref, rank, kernel, solve_column,
    rank_of_int_rows, InconsistentSystem, LinalgError,
    _rref_int,
)

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)


def random_matrix(rng, field, rows, cols, span=5):
    return Matrix(field, [[rng.randrange(-span, span + 1) for _ in range(cols)]
                          for _ in range(rows)])


def test_field_names_and_parse():
    assert Field.from_name("Q") == Q
    assert Field.from_name("F2") == F2
    assert Field.from_name("F17").characteristic == 17
    with pytest.raises(LinalgError):
        Field.from_name("F4")
    with pytest.raises(LinalgError):
        Field.from_name("R")


def test_field_coerce_canonical():
    assert F5.coerce(-1) == 4
    assert F5.coerce("7") == 2
    assert F5.coerce("1/2") == 3  # 2 * 3 = 6 = 1 mod 5
    assert Q.coerce("-3/6") == Fraction(-1, 2)
    with pytest.raises(LinalgError):
        F2.coerce("1/2")


def test_rref_empty_matrix():
    res = rref(Matrix.zeros(Q, 0, 0))
    assert res.rank == 0
    assert res.pivots == ()


def test_rref_identity():
    m = Matrix.identity(Q, 3)
    res = rref(m)
    assert res.rank == 3
    assert res.reduced == m
    assert res.pivots == (0, 1, 2)


def test_rref_f2_duplicate_rows():
    m = Matrix(F2, [[1, 1], [1, 1]])
    res = rref(m)
    assert res.rank == 1
    assert res.reduced.entries == ((1, 1), (0, 0))
    assert res.pivots == (0,)


def test_rref_rational_leading_ones():
    m = Matrix(Q, [[2, 4, 6], [1, 2, 4]])
    res = rref(m)
    assert res.rank == 2
    assert res.reduced.entries == (
        (Fraction(1), Fraction(2), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    )


@pytest.mark.parametrize("field", [Q, F2, F3, F5])
def test_rref_idempotent_and_rank_nullity(field):
    rng = random.Random(20240 + field.characteristic)
    for _ in range(25):
        rows = rng.randrange(0, 7)
        cols = rng.randrange(0, 7)
        m = random_matrix(rng, field, rows, cols)
        res = rref(m)
        again = rref(res.reduced)
        assert again.reduced == res.reduced
        assert again.pivots == res.pivots
        assert res.rank + kernel(m).dim == m.cols
        assert rank(m) == res.rank


@pytest.mark.parametrize("field", [Q, F3])
def test_modular_law_of_dimensions(field):
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(1, 6)
        a = Subspace.from_vectors(field, n, [
            [rng.randrange(-3, 4) for _ in range(n)] for _ in range(rng.randrange(0, 4))])
        b = Subspace.from_vectors(field, n, [
            [rng.randrange(-3, 4) for _ in range(n)] for _ in range(rng.randrange(0, 4))])
        s = a + b
        t = a.intersect(b)
        assert a.dim + b.dim == s.dim + t.dim
        assert s.contains_subspace(a) and s.contains_subspace(b)
        assert a.contains_subspace(t) and b.contains_subspace(t)


def test_subspace_intersection_absorbing():
    whole = Subspace.whole(Q, 4)
    b = Subspace.from_vectors(Q, 4, [[1, 2, 0, 0], [0, 0, 1, 1]])
    assert whole.intersect(b) == b
    assert (whole + b) == whole


def test_orthogonal_sum_dims():
    a = Subspace.from_vectors(Q, 4, [[1, 0, 0, 0]])
    b = Subspace.from_vectors(Q, 4, [[0, 1, 0, 0], [0, 0, 1, 0]])
    assert (a + b).dim == 3
    assert a.intersect(b).dim == 0


def test_kernel_of_sum_row_f2():
    m = Matrix(F2, [[1, 1]])
    k = kernel(m)
    assert k.dim == 1
    assert k.basis.entries == ((1, 1),)


def test_kernel_by_enumeration_f2():
    rng = random.Random(99)
    for _ in range(10):
        rows, cols = rng.randrange(1, 4), rng.randrange(1, 5)
        m = random_matrix(rng, F2, rows, cols)
        k = kernel(m)
        members = set()
        for mask in range(2 ** cols):
            v = tuple((mask >> i) & 1 for i in range(cols))
            if all(x == 0 for x in m.apply(v)):
                members.add(v)
        assert len(members) == 2 ** k.dim
        for row in k.basis.entries:
            assert row in members


def test_determinism_bit_identical():
    rng = random.Random(5)
    m = random_matrix(rng, Q, 6, 8)
    r1 = rref(m)
    r2 = rref(Matrix(Q, [list(r) for r in m.entries]))
    assert r1.reduced.entries == r2.reduced.entries
    assert repr(r1.reduced.entries) == repr(r2.reduced.entries)


def test_solve_and_inconsistent():
    m = Matrix(Q, [[1, 2], [3, 4]])
    x = solve_column(m, (5, 6))
    assert m.apply(x) == (Fraction(5), Fraction(6))
    sing = Matrix(Q, [[1, 1], [1, 1]])
    with pytest.raises(InconsistentSystem):
        solve_column(sing, (0, 1))


def test_solve_underdetermined_is_canonical():
    m = Matrix(F3, [[1, 2, 0]])
    x = solve_column(m, (1,))
    assert m.apply(x) == (1,)
    assert x == (1, 0, 0)  # free variables pinned to zero


def test_matmul_and_apply_agree():
    rng = random.Random(11)
    for field in (Q, F5):
        a = random_matrix(rng, field, 3, 4)
        b = random_matrix(rng, field, 4, 2)
        prod = a @ b
        for j in range(2):
            assert prod.column(j) == a.apply(b.column(j))


def test_rank_of_int_rows_matches_matrix_rank():
    rng = random.Random(13)
    for field in (Q, F2, F3):
        rows = [[rng.randrange(-4, 5) for _ in range(6)] for _ in range(5)]
        assert rank_of_int_rows(field, rows, 6) == rank(Matrix(field, rows))


def test_quotient_map_full_space():
    sup = Subspace.whole(F2, 3)
    sub = Subspace.from_vectors(F2, 3, [[1, 1, 0]])
    q = QuotientMap(sup, sub)
    assert q.dim == 2
    # kernel of the projection restricted to sup is exactly sub
    assert q.coords((1, 1, 0)) == (0, 0)
    v = (1, 0, 0)
    w = (0, 1, 0)  # differ by (1,1,0), same class
    assert q.coords(v) == q.coords(w)
    for k in range(q.dim):
        assert q.coords(q.reps.entries[k]) == tuple(1 if j == k else 0 for j in range(2))


def test_quotient_map_nested():
    sup = Subspace.from_vectors(Q, 4, [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 2]])
    sub = Subspace.from_vectors(Q, 4, [[0, 1, 0, 0]])
    q = QuotientMap(sup, sub)
    assert q.dim == 2
    amb = q.lift((Fraction(2), Fraction(3)))
    assert sup.contains_vector(amb)
    assert q.coords(amb) == (Fraction(2), Fraction(3))
    assert q.coords(sub.basis.entries[0]) == (Fraction(0), Fraction(0))


def test_quotient_map_rejects_non_nested():
    sup = Subspace.from_vectors(Q, 3, [[1, 0, 0]])
    sub = Subspace.from_vectors(Q, 3, [[0, 1, 0]])
    with pytest.raises(LinalgError):
        QuotientMap(sup, sub)


def test_subspace_reduce_membership():
    s = Subspace.from_vectors(F3, 4, [[1, 2, 0, 1], [0, 0, 1, 1]])
    assert s.contains_vector((1, 2, 1, 2))
    assert not s.contains_vector((0, 1, 0, 0))
    c = s.coords((1, 2, 1, 2))
    assert s.lift(c) == (1, 2, 1, 2)


# --- canonical construction --------------------------------------------------

def test_public_constructor_still_coerces():
    m = Matrix(F5, [[7, -1, "1/2"]])
    assert m.entries == ((2, 4, 3),)
    assert Matrix(Q, [[1, "2/4"]]).entries == ((Fraction(1), Fraction(1, 2)),)
    with pytest.raises(LinalgError):
        Matrix(F5, [["1/5"]])


def test_internal_producers_stay_canonical():
    rng = random.Random(7)
    a = random_matrix(rng, F5, 3, 4)
    b = random_matrix(rng, F5, 4, 2)
    for m in (a + a, a - a, -a, a.scale(-3), a @ b, a.transpose(), rref(a).reduced,
              Matrix.block(F5, [[a, None]], [3], [4, 2])):
        assert all(type(x) is int and 0 <= x < 5 for row in m.entries for x in row)
        assert Matrix(F5, m.entries) == m


# --- array storage -----------------------------------------------------------

F_BIG = Field.prime(4294967311)   # past every int64 product: the object-dtype path


def test_matrix_storage_is_read_only():
    m = Matrix(F5, [[1, 2], [3, 4]])
    for stored in (m, m.transpose(), m.take_columns([1, 0]), m @ m, rref(m).reduced,
                   Matrix.identity(Q, 2)):
        with pytest.raises(ValueError):
            stored.array[0, 0] = 0
    with pytest.raises(AttributeError):
        m.array = m.array.copy()


def test_entries_are_python_scalars():
    grid = [[7, -1, "1/2"], [0, 3, "-2/3"]]
    for field in (F5, F_BIG, Q):
        m = Matrix(field, grid)
        for derived in (m, m @ m.transpose(), -m, m - m.scale(3), rref(m).reduced,
                        kernel(m).basis):
            for x in (x for row in derived.entries for x in row):
                if field.is_rational:
                    assert type(x) is Fraction
                else:
                    assert type(x) is int and 0 <= x < field.p


def test_equal_matrices_compare_and_hash_equal_across_routes():
    for field in (F3, F_BIG, Q):
        grid = [[1, -1, 0], [2, 0, "1/2"]]
        a = Matrix(field, grid)
        routes = (Matrix(field, grid), a @ Matrix.identity(field, 3),
                  a.transpose().transpose(), a.take_columns([0, 1, 2]),
                  Matrix.hstack(field, [a.take_columns([0]), a.take_columns([1, 2])]),
                  Matrix(field, a.entries))
        for b in routes:
            assert b == a and hash(b) == hash(a)
        assert a != a.scale(2) and a != a.take_columns([0, 1])


def test_f2_and_f3_are_stored_as_uint8():
    for field in (F2, F3):
        m = Matrix(field, [[1, 2], [0, 1]])
        for stored in (m, m @ m, m + m, -m, rref(m).reduced, kernel(m).basis,
                       Matrix.identity(field, 2), Matrix.zeros(field, 1, 2)):
            assert stored.array.dtype == np.uint8


# --- large primes against a pure-Python reference -----------------------------

LARGE_PRIMES = (1000000007, 2147483647, 4294967311)


def _reference_matmul(a, b, p):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in zip(*b))
                 for row in a)


def _reference_rref(grid, p):
    grid = [[x % p for x in row] for row in grid]
    r = 0
    for c in range(len(grid[0]) if grid else 0):
        sel = next((i for i in range(r, len(grid)) if grid[i][c]), None)
        if sel is None:
            continue
        grid[r], grid[sel] = grid[sel], grid[r]
        inv = pow(grid[r][c], -1, p)
        grid[r] = [x * inv % p for x in grid[r]]
        for i in range(len(grid)):
            if i != r and grid[i][c]:
                f = grid[i][c]
                grid[i] = [(x - f * y) % p for x, y in zip(grid[i], grid[r])]
        r += 1
    return r, tuple(tuple(row) for row in grid)


def test_large_prime_matmul_overflow_case():
    p = 1000000007
    field = Field.prime(p)
    m = Matrix(field, [[p - 1] * 12 for _ in range(12)])
    assert (m @ m).entries[0][0] == 12
    assert m.apply((p - 1,) * 12) == (12,) * 12


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_large_prime_kernels_match_reference(p):
    field = Field.prime(p)
    rng = random.Random(p)
    for rows, cols, inner in ((5, 7, 6), (8, 4, 9), (6, 6, 3)):
        a = [[rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(inner)]
             for _ in range(rows)]
        b = [[rng.choice((0, p - 1, rng.randrange(p))) for _ in range(cols)]
             for _ in range(inner)]
        ma, mb = Matrix(field, a), Matrix(field, b)
        assert (ma @ mb).entries == _reference_matmul(a, b, p)
        vec = tuple(row[0] for row in b)
        assert ma.apply(vec) == tuple(row[0] for row in _reference_matmul(a, b, p))
        # a deficient-rank stack: the last row is a combination of two others
        a.append([(x * (p - 1) + y * 3) % p for x, y in zip(a[0], a[1])])
        r, reduced = _reference_rref(a, p)
        res = rref(Matrix(field, a))
        assert res.rank == r == rank(Matrix(field, a))
        assert res.reduced.entries == reduced
        assert rank_of_int_rows(field, a, inner) == r


# --- the blocked odd-prime rank -------------------------------------------------

def _tall_deficient(rng, p, rows=2000, cols=20):
    """rows x cols of rank 13 over two blocks of `_row_space_modp`: the first
    block spans 12 directions and the rest combines only directions 11 and
    12, so the rank needs the basis carried from one block to the next."""
    import numpy as np
    from hocohom.linalg import _BLOCK_CELLS
    first_block = _BLOCK_CELLS // cols
    assert first_block < rows
    left = [[rng.randrange(p) if (k < 12 if i < first_block else k >= 11) else 0
             for k in range(13)] for i in range(rows)]
    right = [[rng.randrange(p) for _ in range(cols)] for _ in range(13)]
    return (np.array(left, dtype=object) @ np.array(right, dtype=object) % p).tolist()


@pytest.mark.parametrize("p", [3, 4294967311])
def test_blocked_odd_prime_rank_matches_reference(p):
    import numpy as np
    field = Field.prime(p)
    grid = _tall_deficient(random.Random(p), p)
    expected, _ = _reference_rref(grid, p)
    assert expected == 13
    assert rank(Matrix(field, grid)) == expected
    assert rank_of_int_rows(field, grid, 20) == expected
    assert rank_of_int_rows(field, np.array(grid, dtype=object), 20) == expected


def test_blocked_odd_prime_rank_of_int8_coboundaries():
    # bar coboundaries arrive as int8 arrays with entries -1, 0, 1 and more
    import numpy as np
    rng = np.random.default_rng(3)
    a = rng.integers(-2, 3, size=(1800, 24)).astype(np.int8)
    a[:, 5] = a[:, 0] - a[:, 1]                      # a dependent column
    for p in (3, 5, 127):
        expected, _ = _reference_rref(a.tolist(), p)
        assert rank_of_int_rows(Field.prime(p), a.copy(), 24) == expected


def test_blocked_odd_prime_rank_stops_once_the_space_is_full(monkeypatch):
    # the first block already spans F_3^20: the second is never eliminated
    import numpy as np
    import hocohom.linalg as linalg
    calls = []
    rref_modp = linalg._rref_modp

    def spy(a, p):
        calls.append(a.shape)
        return rref_modp(a, p)

    monkeypatch.setattr(linalg, "_rref_modp", spy)
    a = np.vstack([np.eye(20, dtype=np.int64), np.ones((1990, 20), dtype=np.int64)])
    assert rank_of_int_rows(F3, a, 20) == 20
    assert len(calls) == 1
    assert rank(Matrix(F3, a.tolist())) == 20
    assert len(calls) == 2


# --- the packed F2 kernel ------------------------------------------------------

@pytest.mark.parametrize("cols", [1, 2, 7, 63, 64, 65, 100, 127, 128, 129, 200])
def test_packed_f2_rank_matches_int64_elimination(cols):
    import numpy as np
    from hocohom.linalg import _rank_f2, _rref_modp
    rng = np.random.default_rng(cols)
    for rows in (1, 3, cols // 2 + 1, cols, cols + 5):
        for density in (0.05, 0.5):
            a = (rng.random((rows, cols)) < density).astype(np.int64)
            a *= rng.integers(-3, 4, size=(rows, cols))    # negative and >= 2 entries
            a[rng.integers(0, rows)] = 0                    # a zero row
            expected = _rref_modp(a % 2, 2)[0]
            assert _rank_f2(a.copy()) == expected
            assert rank_of_int_rows(F2, a.tolist(), cols) == expected
    full = np.eye(cols, dtype=np.int64)
    assert _rank_f2(full.copy()) == cols
    deficient = np.vstack([full, full[:1] + full[-1:]])
    assert _rank_f2(deficient) == cols
    assert _rank_f2(np.zeros((4, cols), dtype=np.int64)) == 0


# --- the certified rational rank -------------------------------------------------

CERTIFICATE_PRIMES = (2147483647, 2147483629, 2147483587)


def _exact_rank(rows, cols):
    """Rank by exact elimination, bound at import so that no spy counts it."""
    return _rref_int([list(map(int, row)) for row in rows], cols)[0]


@pytest.fixture
def certificate_spy(monkeypatch):
    """Records the primes tried and the calls that reach exact elimination."""
    import hocohom.linalg as linalg
    seen = {"primes": [], "exact": 0}
    row_space, exact = linalg._row_space_modp, linalg._rref_int

    def spy_row_space(a, p):
        seen["primes"].append(p)
        return row_space(a, p)

    def spy_exact(work, cols):
        seen["exact"] += 1
        return exact(work, cols)

    monkeypatch.setattr(linalg, "_row_space_modp", spy_row_space)
    monkeypatch.setattr(linalg, "_rref_int", spy_exact)
    return seen


def test_certified_rank_matches_exact_elimination():
    # dense random rows: wide ones have kernel entries past the reconstruction
    # bound and reach exact elimination, the others are certified mod p
    import numpy as np
    rng = np.random.default_rng(5)
    for cols in range(1, 61):
        rows = int(rng.integers(1, 9)) if cols > 12 else cols + 3
        full = rng.integers(-4, 5, size=(rows, cols))
        k = int(rng.integers(0, min(rows, cols) + 1))
        deficient = rng.integers(-3, 4, size=(rows, k)) @ rng.integers(-3, 4, size=(k, cols))
        deficient[int(rng.integers(0, rows))] = 0                       # a zero row
        for a in (full, deficient, np.zeros((rows, cols), dtype=np.int64)):
            expected = _exact_rank(a.tolist(), cols)
            assert rank_of_int_rows(Q, a.tolist(), cols) == expected
            assert rank_of_int_rows(Q, a.astype(np.int8), cols) == expected
            assert rank(Matrix(Q, a.tolist())) == expected


def test_certified_rank_decides_the_rational_bar_oracle(certificate_spy):
    # the S3 coboundaries over Q have small kernel entries: the first prime
    # certifies every rank and exact elimination never runs
    from hocohom.algebra import GroupAlgebra
    from hocohom.groups import Permutation, close_generators
    from hocohom.modules import make_module, regular_module
    from hocohom.resolution import bar_dimension
    g = close_generators([Permutation([1, 2, 0]), Permutation([1, 0, 2])])
    regular = regular_module(GroupAlgebra(g, Q))
    sign = make_module(g, Q, [Matrix(Q, [[1]]), Matrix(Q, [[-1]])])
    assert [bar_dimension(g, regular, p) for p in range(3)] == [1, 0, 0]
    assert [bar_dimension(g, sign, p) for p in range(3)] == [0, 0, 0]
    assert certificate_spy["exact"] == 0
    assert set(certificate_spy["primes"]) == {CERTIFICATE_PRIMES[0]}


def test_certified_rank_passes_a_bad_prime(certificate_spy):
    # the rows agree mod 2^31 - 1, so that prime sees rank 1 and its kernel
    # vector (-1, 1) fails the exact check; the second prime sees rank 2
    assert rank_of_int_rows(Q, [[1, 1], [1, 1 + 2147483647]], 2) == 2
    assert certificate_spy["primes"] == list(CERTIFICATE_PRIMES[:2])
    assert certificate_spy["exact"] == 0


def test_certified_rank_falls_back_when_the_kernel_cannot_be_lifted(certificate_spy):
    # the kernel vector (-2^40, 1) has no reconstruction within sqrt(p/2)
    assert rank_of_int_rows(Q, [[1, 2 ** 40]], 2) == 1
    assert certificate_spy["primes"] == list(CERTIFICATE_PRIMES)
    assert certificate_spy["exact"] == 1


def test_certified_rank_sends_huge_entries_to_exact_elimination(certificate_spy):
    assert rank_of_int_rows(Q, [[2 ** 62, 1], [2 ** 63, 2]], 2) == 1
    assert rank(Matrix(Q, [[2 ** 70, 1], [1, 0]])) == 2
    assert rank(Matrix(Q, [[Fraction(2 ** 80, 3), 1], [1, Fraction(3, 2 ** 80)]])) == 1
    assert certificate_spy["primes"] == []
    assert certificate_spy["exact"] == 3


def test_certified_rank_past_int64_products(certificate_spy):
    # entries just below 2^62: the exact check a @ K runs on Python ints
    assert rank_of_int_rows(Q, [[2 ** 61, 2 ** 61], [2 ** 61, 2 ** 61]], 2) == 1
    # kernel denominators 2, 3, ..., 29 have an lcm past 2^31: K holds Python ints
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    rows = [[p if j == i else 0 for j, _ in enumerate(primes)] + [1]
            for i, p in enumerate(primes)]
    assert rank_of_int_rows(Q, rows, len(primes) + 1) == len(primes)
    assert certificate_spy["exact"] == 0


def test_certified_rank_of_fraction_matrices():
    rng = random.Random(29)
    for _ in range(30):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        grid = [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 12)) for _ in range(cols)]
                for _ in range(rows)]
        if rows > 1:
            grid[-1] = [x * Fraction(2, 7) - y for x, y in zip(grid[0], grid[1 % rows])]
        scaled = [[x * lcm(*(y.denominator for y in row)) for x in row] for row in grid]
        assert rank(Matrix(Q, grid)) == _exact_rank(scaled, cols)
        assert rank_of_int_rows(Q, grid, cols) == rank(Matrix(Q, grid))
    half = Matrix(Q, [["1/2", "1/3", "1/5"], ["3/2", "1", "3/5"], ["1/7", 0, "-1/9"]])
    assert rank(half) == 2
