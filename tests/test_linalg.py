"""Exactness, canonicity, and subspace arithmetic of the linear algebra core."""

import random
import re
from fractions import Fraction
from math import gcd, lcm

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


def _scaled(m, s):
    """s times m, as the product with the diagonal matrix s I."""
    return m @ Matrix(m.field, [[s if i == j else 0 for j in range(m.cols)]
                                for i in range(m.cols)])


def random_matrix(rng, field, rows, cols, span=5):
    return Matrix(field, [[rng.randrange(-span, span + 1) for _ in range(cols)]
                          for _ in range(rows)])


def test_field_names_and_parse():
    assert Field.from_name("Q") == Q
    assert Field.from_name("F2") == F2
    assert Field.from_name("F17").p == 17
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
    for field in (Q, F5):
        for bad in ("1/0", "x", "1.5e"):
            with pytest.raises(LinalgError, match=re.escape(repr(bad))):
                field.coerce(bad)
            with pytest.raises(LinalgError, match=re.escape(repr(bad))):
                Matrix(field, [[bad]])


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
    rng = random.Random(20240 + (field.p or 0))
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


def _intersect(a, b):
    """a and b meet in the annihilator of ann(a) + ann(b), for ann(s) = kernel(s.basis)."""
    return kernel(Matrix.vstack(a.field, [kernel(a.basis).basis, kernel(b.basis).basis]))


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
        t = _intersect(a, b)
        assert a.dim + b.dim == s.dim + t.dim
        assert s.contains_subspace(a) and s.contains_subspace(b)
        assert a.contains_subspace(t) and b.contains_subspace(t)


def test_subspace_intersection_absorbing():
    whole = Subspace.whole(Q, 4)
    b = Subspace.from_vectors(Q, 4, [[1, 2, 0, 0], [0, 0, 1, 1]])
    assert _intersect(whole, b) == b
    assert (whole + b) == whole


def test_orthogonal_sum_dims():
    a = Subspace.from_vectors(Q, 4, [[1, 0, 0, 0]])
    b = Subspace.from_vectors(Q, 4, [[0, 1, 0, 0], [0, 0, 1, 0]])
    assert (a + b).dim == 3
    assert _intersect(a, b).dim == 0


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
            if (m @ Matrix(F2, [v]).transpose()).is_zero():
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
    b = Matrix(Q, [[5], [6]])
    x = solve_column(m, b)
    assert m @ x == b
    assert x.entries == ((Fraction(-4),), (Fraction(9, 2),))
    sing = Matrix(Q, [[1, 1], [1, 1]])
    with pytest.raises(InconsistentSystem):
        solve_column(sing, Matrix(Q, [[0], [1]]))
    # one inconsistent column among consistent ones
    with pytest.raises(InconsistentSystem):
        solve_column(sing, Matrix(Q, [[1, 0], [1, 1]]))


def test_solve_underdetermined_is_canonical():
    m = Matrix(F3, [[1, 2, 0]])
    x = solve_column(m, Matrix(F3, [[1, 2]]))
    assert m @ x == Matrix(F3, [[1, 2]])
    assert x.entries == ((1, 2), (0, 0), (0, 0))  # free variables pinned to zero


def test_matmul_matches_entrywise_products():
    rng = random.Random(11)
    for field in (Q, F5):
        a = random_matrix(rng, field, 3, 4)
        b = random_matrix(rng, field, 4, 2)
        expected = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b.entries)]
                    for row in a.entries]
        assert a @ b == Matrix(field, expected)


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
    assert (q.matrix @ sub.basis.transpose()).is_zero()
    v = Matrix(F2, [[1], [0], [0]])
    w = Matrix(F2, [[0], [1], [0]])  # differ by (1,1,0), same class
    assert q.matrix @ v == q.matrix @ w
    assert q.matrix @ q.reps.transpose() == Matrix.identity(F2, 2)


def test_quotient_map_nested():
    sup = Subspace.from_vectors(Q, 4, [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 2]])
    sub = Subspace.from_vectors(Q, 4, [[0, 1, 0, 0]])
    q = QuotientMap(sup, sub)
    assert q.dim == 2
    coords = Matrix(Q, [[2, 3]])
    amb = coords @ q.reps
    assert sup.first_outside(amb) is None
    assert q.matrix @ amb.transpose() == coords.transpose()
    assert (q.matrix @ sub.basis.transpose()).is_zero()


def test_quotient_map_rejects_non_nested():
    sup = Subspace.from_vectors(Q, 3, [[1, 0, 0]])
    sub = Subspace.from_vectors(Q, 3, [[0, 1, 0]])
    with pytest.raises(LinalgError):
        QuotientMap(sup, sub)


def test_subspace_reduce_membership():
    s = Subspace.from_vectors(F3, 4, [[1, 2, 0, 1], [0, 0, 1, 1]])
    assert s.first_outside(Matrix(F3, [[1, 2, 1, 2], [0, 1, 0, 0]])) == 1
    member = Matrix(F3, [[1, 2, 1, 2]])
    # a member is its entries at the pivot columns times the RREF basis
    assert member.take_columns(s.pivots) @ s.basis == member


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
    for m in (a - (-a), a - a, -a, _scaled(a, -3), a @ b, a.transpose(), rref(a).reduced,
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
        for derived in (m, m @ m.transpose(), -m, m - _scaled(m, 3), rref(m).reduced,
                        kernel(m).basis):
            for x in (x for row in derived.entries for x in row):
                if field.p is None:
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
        assert a != _scaled(a, 2) and a != a.take_columns([0, 1])


def test_f2_and_f3_are_stored_as_uint8():
    for field in (F2, F3):
        m = Matrix(field, [[1, 2], [0, 1]])
        for stored in (m, m @ m, m - (-m), -m, rref(m).reduced, kernel(m).basis,
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
    assert m @ Matrix(field, [[p - 1]] * 12) == Matrix(field, [[12]] * 12)


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
        assert (ma @ mb.take_columns([0])).entries == tuple(
            row[:1] for row in _reference_matmul(a, b, p))
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


# --- the F2 kernel: a reduced XOR basis of bit rows --------------------------

def _assert_f2_matches_generic(a):
    """rank, rank_of_int_rows and rref over F2 of an integer array agree with
    the generic elimination of a % 2."""
    from hocohom.linalg import _rref_modp
    rows, cols = a.shape
    expected, reduced, pivots = _rref_modp(a % 2, 2)
    assert rank_of_int_rows(F2, a.copy(), cols) == expected
    assert rank_of_int_rows(F2, a.tolist(), cols) == expected
    m = Matrix(F2, (a % 2).tolist(), rows, cols)
    assert rank(m) == expected
    res = rref(m)
    assert (res.rank, res.pivots) == (expected, pivots)
    assert res.reduced.array.dtype == np.uint8
    assert np.array_equal(res.reduced.array, reduced)


@pytest.mark.parametrize("cols", [1, 2, 7, 63, 64, 65, 100, 127, 128, 129, 200])
def test_packed_f2_rank_matches_int64_elimination(cols):
    rng = np.random.default_rng(cols)
    for rows in (1, 3, cols // 2 + 1, cols, cols + 5):
        for density in (0.05, 0.5):
            a = (rng.random((rows, cols)) < density).astype(np.int64)
            a *= rng.integers(-3, 4, size=(rows, cols))    # negative and >= 2 entries
            a[rng.integers(0, rows)] = 0                    # a zero row
            _assert_f2_matches_generic(a)
            _assert_f2_matches_generic(np.vstack([a, a[::-1]]))    # duplicate rows
    full = np.eye(cols, dtype=np.int64)
    _assert_f2_matches_generic(full)
    _assert_f2_matches_generic(np.vstack([full, full[:1] + full[-1:]]))
    _assert_f2_matches_generic(np.zeros((4, cols), dtype=np.int64))


def test_f2_rank_of_int8_bar_coboundaries():
    from hocohom.groups import Permutation, close_generators
    from hocohom.modules import coinduced_module
    from hocohom.resolution import _bar_coboundary
    d4 = close_generators([Permutation([1, 2, 3, 0]), Permutation([0, 3, 2, 1])])
    v = coinduced_module(d4, F2, 1)
    for i in (0, 1, 2):
        delta = _bar_coboundary(d4, v, i)
        assert delta.dtype == np.int8 and delta.min() == -1
        _assert_f2_matches_generic(delta.astype(np.int64))
        assert rank_of_int_rows(F2, delta, delta.shape[1]) == rank(Matrix(F2, (delta % 2).tolist()))


def test_f2_rref_and_rank_leave_the_stored_array_unchanged():
    rng = np.random.default_rng(5)
    m = Matrix(F2, rng.integers(0, 2, size=(30, 70)).tolist())
    before = m.array.copy()
    assert rref(m).rank == rank(m) == _reference_rref(before.tolist(), 2)[0]
    assert not m.array.flags.writeable
    assert np.array_equal(m.array, before)


def test_f2_echelon_stops_once_the_pivots_fill_every_column(monkeypatch):
    # the first 20 rows already span F_2^20: the other 1990 are never reduced
    import hocohom.linalg as linalg
    consumed = []
    bit_rows = linalg._bit_rows

    def spy(a):
        for x in bit_rows(a):
            consumed.append(x)
            yield x

    monkeypatch.setattr(linalg, "_bit_rows", spy)
    a = np.vstack([np.eye(20, dtype=np.int64), np.ones((1990, 20), dtype=np.int64)])
    assert rank_of_int_rows(F2, a.copy(), 20) == 20
    assert len(consumed) == 20
    res = rref(Matrix(F2, a.tolist()))
    assert res.rank == 20 and res.reduced.take_rows(range(20)) == Matrix.identity(F2, 20)
    assert len(consumed) == 40


def test_f2_never_reaches_the_generic_kernel(monkeypatch):
    import hocohom.linalg as linalg
    rref_modp = linalg._rref_modp
    calls = []

    def spy(a, p):
        calls.append(p)
        return rref_modp(a, p)

    monkeypatch.setattr(linalg, "_rref_modp", spy)
    rng = np.random.default_rng(7)
    a = rng.integers(-3, 4, size=(300, 40))
    m = Matrix(F2, a.tolist())
    rank(m)
    rank_of_int_rows(F2, a.copy(), 40)
    rank_of_int_rows(F2, a.tolist(), 40)
    res = rref(m)
    kernel(m)
    solve_column(m.transpose(), res.reduced.take_rows([0]).transpose())
    Subspace._spanned_by(m) + Subspace._spanned_by(m.take_rows(range(5)))
    assert calls == []
    rank(Matrix(F3, a.tolist()))
    assert calls == [3]


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


def test_certified_rank_matches_exact_elimination(certificate_spy):
    # dense random rows: the wide ones have kernel entries past the bound of
    # one prime, about 2^15, and are certified by joining the primes by CRT;
    # none reaches exact elimination
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
    assert certificate_spy["exact"] == 0
    assert CERTIFICATE_PRIMES[1] in certificate_spy["primes"]


def test_certified_rank_decides_the_rational_bar_oracle(certificate_spy):
    # the S3 coboundaries over Q have small kernel entries: the first prime
    # certifies every rank and exact elimination never runs
    from hocohom.groups import Permutation, close_generators
    from hocohom.modules import make_module, regular_module
    from hocohom.resolution import bar_dimension
    g = close_generators([Permutation([1, 2, 0]), Permutation([1, 0, 2])])
    regular = regular_module(g, Q)
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
    # the kernel vector (-2^50, 1) has no reconstruction within sqrt(P/2),
    # even for P the product of all three primes (about 2^93)
    assert rank_of_int_rows(Q, [[1, 2 ** 50]], 2) == 1
    assert certificate_spy["primes"] == list(CERTIFICATE_PRIMES)
    assert certificate_spy["exact"] == 1


def test_certified_rank_joins_primes_by_crt(certificate_spy):
    # the kernel vector (-2^20, 1) is past the bound of one prime but within
    # that of two; (-2^40, 1) needs all three
    assert rank_of_int_rows(Q, [[1, 2 ** 20]], 2) == 1
    assert certificate_spy["primes"] == list(CERTIFICATE_PRIMES[:2])
    certificate_spy["primes"].clear()
    assert rank_of_int_rows(Q, [[1, 2 ** 40]], 2) == 1
    assert certificate_spy["primes"] == list(CERTIFICATE_PRIMES)
    assert certificate_spy["exact"] == 0


def test_certified_rank_joins_only_primes_that_agree_on_pivots(certificate_spy):
    # mod 2^31 - 1 the second row vanishes and the rank drops to 1; the other
    # two primes see pivots (0, 1) and the kernel vector (2^20, -1, 1), which
    # only their joint modulus reconstructs
    p = CERTIFICATE_PRIMES[0]
    assert rank_of_int_rows(Q, [[1, 2 ** 20, 0], [0, p, p]], 3) == 2
    assert certificate_spy["primes"] == list(CERTIFICATE_PRIMES)
    assert certificate_spy["exact"] == 0


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


# --- rational matrices: integer numerators over one denominator ------------------

def _fraction_grid(rng, rows, cols, big):
    """Entries n/d with d up to 2^20, many zeros and small integers; with
    `big`, numerators up to 2^70, past int64."""
    top = 2 ** 70 if big else 2 ** 10

    def entry():
        kind = rng.randrange(4)
        if kind == 0:
            return Fraction(0)
        if kind == 1:
            return Fraction(rng.randint(-3, 3))
        return Fraction(rng.randint(-top, top), rng.randint(1, 2 ** 20))

    return [[entry() for _ in range(cols)] for _ in range(rows)]


def _reference_product(a, b, inner):
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0))
             for j in range(len(b[0]) if b else 0)] for i in range(len(a))]


def _reference_echelon(grid, cols):
    """Gauss-Jordan on Fractions: (reduced rows, zero rows included, pivots)."""
    grid = [list(row) for row in grid]
    r, pivots = 0, []
    for c in range(cols):
        sel = next((i for i in range(r, len(grid)) if grid[i][c]), None)
        if sel is None:
            continue
        grid[r], grid[sel] = grid[sel], grid[r]
        lead = grid[r][c]
        grid[r] = [x / lead for x in grid[r]]
        for i in range(len(grid)):
            if i != r and grid[i][c]:
                factor = grid[i][c]
                grid[i] = [x - factor * y for x, y in zip(grid[i], grid[r])]
        pivots.append(c)
        r += 1
    return tuple(map(tuple, grid)), tuple(pivots)


def _reference_kernel(grid, cols):
    reduced, pivots = _reference_echelon(grid, cols)
    vectors = []
    for j in (j for j in range(cols) if j not in pivots):
        v = [Fraction(0)] * cols
        v[j] = Fraction(1)
        for k, c in enumerate(pivots):
            v[c] = -reduced[k][j]
        vectors.append(v)
    basis, _ = _reference_echelon(vectors, cols)
    return basis[:len(vectors)]


def _assert_canonical(m):
    nums = m.array.tolist()
    flat = [x for row in nums for x in row]
    assert m.den >= 1 and gcd(m.den, *flat) == 1
    fits = all(abs(x) < 2 ** 63 for x in flat)
    assert m.array.dtype == (np.int64 if fits else object)
    rebuilt = Matrix(Q, m.entries, m.rows, m.cols)
    assert rebuilt == m and hash(rebuilt) == hash(m)
    assert rebuilt.den == m.den and rebuilt.array.dtype == m.array.dtype


@pytest.mark.parametrize("big", [False, True])
def test_rational_arithmetic_matches_fraction_reference(big):
    rng = random.Random(61 + big)
    for _ in range(40):
        rows, inner, cols = rng.randrange(0, 5), rng.randrange(1, 5), rng.randrange(0, 5)
        a, c = (_fraction_grid(rng, rows, inner, big) for _ in range(2))
        b = _fraction_grid(rng, inner, cols, big)
        s = Fraction(rng.randint(-2 ** 70, 2 ** 70), rng.randint(1, 2 ** 20)) if big else \
            Fraction(rng.randint(-5, 5), rng.randint(1, 7))
        ma, mc = Matrix(Q, a, rows, inner), Matrix(Q, c, rows, inner)
        mb = Matrix(Q, b, inner, cols)
        expected = (
            (ma @ mb, _reference_product(a, b, inner)),
            (ma - (-mc), [[x + y for x, y in zip(r, t)] for r, t in zip(a, c)]),
            (ma - mc, [[x - y for x, y in zip(r, t)] for r, t in zip(a, c)]),
            (-ma, [[-x for x in r] for r in a]),
            (_scaled(ma, s), [[x * s for x in r] for r in a]),
            (ma.transpose(), [[a[i][j] for i in range(rows)] for j in range(inner)]),
        )
        for got, want in expected:
            assert got.entries == tuple(map(tuple, want))
            _assert_canonical(got)


@pytest.mark.parametrize("big", [False, True])
def test_rational_elimination_matches_fraction_reference(big):
    rng = random.Random(71 + big)
    for _ in range(30):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        grid = _fraction_grid(rng, rows, cols, big)
        if rows > 2:   # a dependent row
            t = Fraction(rng.randint(-9, 9), rng.randint(1, 2 ** 20))
            grid[-1] = [x * t - y for x, y in zip(grid[0], grid[1])]
        m = Matrix(Q, grid, rows, cols)
        reduced, pivots = _reference_echelon(grid, cols)
        res = rref(m)
        assert (res.reduced.entries, res.pivots, res.rank) == (reduced, pivots, len(pivots))
        assert rank(m) == len(pivots)
        ker = kernel(m)
        assert ker.basis.entries == _reference_kernel(grid, cols)
        for out in (res.reduced, ker.basis):
            _assert_canonical(out)
        # two consistent right-hand sides m x for random x, solved in one elimination
        x0 = Matrix(Q, _fraction_grid(rng, cols, 2, big), cols, 2)
        rhs = m @ x0
        x = solve_column(m, rhs)
        aug, aug_pivots = _reference_echelon(
            [list(r) + list(t) for r, t in zip(grid, rhs.entries)], cols + 2)
        want = [[Fraction(0)] * 2 for _ in range(cols)]
        for k, c in enumerate(aug_pivots):
            want[c] = list(aug[k][cols:])
        assert x.entries == tuple(map(tuple, want))
        assert m @ x == rhs
        _assert_canonical(x)
        # rows of the row space and rows off it, in a shuffled order
        span = Subspace.from_vectors(Q, cols, grid)
        probes = [list(r) for r in (Matrix(Q, _fraction_grid(rng, 3, rows, big), 3, rows)
                                    @ m).entries] + _fraction_grid(rng, 2, cols, big)
        rng.shuffle(probes)
        outside = [i for i, v in enumerate(probes)
                   if len(_reference_echelon(list(grid) + [v], cols)[1]) > len(pivots)]
        assert span.first_outside(Matrix(Q, probes, len(probes), cols)) == \
            (outside[0] if outside else None)


def test_rational_storage_is_canonical_across_routes():
    half = Matrix(Q, [[1, "1/2", 0], ["-3/4", 0, 2]])
    huge = Matrix(Q, [[2 ** 70, "1/3"], [0, -1]])
    for a in (half, huge, Matrix.zeros(Q, 2, 3)):
        n = a.cols
        routes = (
            Matrix(Q, a.entries),
            a @ Matrix.identity(Q, n),
            (a - (-a)) - a,
            _scaled(_scaled(a, 2 ** 70), Fraction(1, 2 ** 70)),    # through Python ints
            _scaled(_scaled(a, Fraction(3, 2 ** 20)), Fraction(2 ** 20, 3)),
            Matrix.vstack(Q, [a.take_rows([0]), a.take_rows([1])]),
            Matrix.hstack(Q, [a.take_columns([0]), a.take_columns(range(1, n))]),
            Matrix.block(Q, [[a.take_columns([0]), a.take_columns(range(1, n))]],
                         [a.rows], [1, n - 1]),
            a.transpose().transpose(),
        )
        for b in routes:
            assert b == a and hash(b) == hash(a)
            assert b.den == a.den and b.array.dtype == a.array.dtype
    assert half.den == 4 and half.array.dtype == np.int64
    assert huge.den == 3 and huge.array.dtype == object
    # a row taken out of a matrix comes back in lowest terms, as int64
    assert huge.take_rows([1]).den == 1 and huge.take_rows([1]).array.dtype == np.int64
    assert Matrix.zeros(Q, 2, 3).den == 1 and (half - half).den == 1
    # int64 operands whose product or sum leaves int64 go through Python ints
    wide = Matrix(Q, [[2 ** 40, -(2 ** 40)]])
    assert wide.array.dtype == np.int64
    square = wide @ wide.transpose()
    assert square.entries == ((Fraction(2 ** 81),),) and square.array.dtype == object
    top = Matrix(Q, [[2 ** 62, "1/5"]])
    assert (top - (-top)).entries == ((Fraction(2 ** 63), Fraction(2, 5)),)
    assert (top - (-top)).array.dtype == object and (top - top).array.dtype == np.int64


def test_rational_kernels_create_no_fraction(monkeypatch):
    import fractions
    rng = random.Random(83)
    a = Matrix(Q, _fraction_grid(rng, 5, 6, False), 5, 6)
    b = Matrix(Q, _fraction_grid(rng, 6, 4, True), 6, 4)
    made = []
    original = fractions.Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(counting_new))
    a @ b
    rref(a)
    kernel(a)
    kernel(b.transpose())
    assert made == []
    a.entries    # the one place that builds Fractions
    assert made
