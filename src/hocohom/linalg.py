"""Exact dense linear algebra over the rationals and prime fields.

Scalars are `fractions.Fraction` over Q and plain ints in [0, p) over F_p.
Everything here is immutable after construction and every operation is a
pure function with canonical output: the row reduction below computes the
unique reduced row-echelon form of its input (leading entries 1, pivot
columns cleared, pivots strictly increasing), so subspace bases are
bit-identical across runs and directly diffable.

Canonical data.  The public constructor `Matrix(field, entries)` is the
only place where entries are coerced into the field.  Every matrix this
module produces (zeros, identities, stacks, blocks, row selections,
transposes, sums, scalings, products, row-reduced forms) is built from
entries that are already canonical and goes through `Matrix._canonical`,
which wraps them without touching a single entry.

Kernels.  Prime-field products and eliminations run on numpy arrays.  They
use int64 only while no intermediate can overflow: a product with inner
dimension k needs k*(p-1)^2 < 2^63, and an elimination step needs
(p-1)^2 + p < 2^63.  Past those bounds the same code runs on Python-int
(`object`) arrays.  Ranks over F_2 pack each row into uint64 words and
eliminate by XOR of whole rows.  Every path is exact.

Rational rank.  A rank over Q is taken of an integer matrix M (rows of a
rational matrix are scaled by the lcm of their denominators) and is
certified, never estimated.  r = rank of M mod p is a lower bound for
rank_Q(M), for the fixed primes 2^31 - 1, 2^31 - 19 and 2^31 - 61 in
turn.  The reduced echelon rows mod p give cols - r kernel vectors, one
per free column; their entries are lifted to Q by rational reconstruction
(Wang 1981) and their denominators cleared.  If M K = 0 holds exactly,
those independent vectors give rank_Q(M) <= r, so the rank is r.  A prime
for which reconstruction or the check fails gives way to the next one;
after the last prime, and for entries of 2^62 or more, exact elimination
on integer rows with gcd normalization decides.  Rational row reduction
(`rref`) runs on the same integer-scaled rows, so Fraction arithmetic
never enters the inner loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np


class LinalgError(ValueError):
    pass


class DimensionMismatch(LinalgError):
    pass


class InconsistentSystem(LinalgError):
    """Raised when a linear system A x = b has no solution."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Field:
    """A coefficient field: the rationals (p is None) or F_p for prime p."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not _is_prime(self.p):
            raise LinalgError(f"characteristic {self.p} is not prime")

    @staticmethod
    def rationals() -> "Field":
        return Field(None)

    @staticmethod
    def prime(p: int) -> "Field":
        return Field(p)

    @staticmethod
    def from_name(name: str) -> "Field":
        """Parse a field name: "Q" for the rationals, "F<p>" for a prime field."""
        text = name.strip()
        if text == "Q":
            return Field.rationals()
        if text.startswith("F") and text[1:].isdigit():
            return Field.prime(int(text[1:]))
        raise LinalgError(f"unknown field name {name!r} (expected 'Q' or 'F<p>')")

    @property
    def name(self) -> str:
        return "Q" if self.p is None else f"F{self.p}"

    @property
    def is_rational(self) -> bool:
        return self.p is None

    @property
    def characteristic(self) -> int:
        return 0 if self.p is None else self.p

    def zero(self):
        return Fraction(0) if self.p is None else 0

    def one(self):
        return Fraction(1) if self.p is None else 1

    def coerce(self, x):
        """Coerce an int, string, or Fraction to a canonical scalar."""
        p = self.p
        kind = type(x)
        if p is None:
            return x if kind is Fraction else Fraction(x)
        if kind is int:
            return x % p
        if kind is str:
            x = Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % p == 0:
                raise LinalgError(f"{x} has no image in F_{p}")
            return x.numerator * pow(x.denominator, -1, p) % p
        return int(x) % p

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if self.p is None:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return 1 / a
        return pow(a, -1, self.p)

    def format(self, a) -> str:
        return str(a)


_INT64_BOUND = 2 ** 63


# Cells of one temporary in the blocked elimination updates and kernel checks.
_BLOCK_CELLS = 1 << 15

# The certified rational rank eliminates modulo these primes in turn.  Each
# is below 2^31, so an elimination update (p-1)^2 + p stays inside int64.
_CERTIFICATE_PRIMES = (2147483647, 2147483629, 2147483587)

# Integer matrices with an entry this large go straight to exact elimination.
_CERTIFICATE_ENTRY_BOUND = 2 ** 62


def _product_dtype(p: int, k: int):
    """int64 while a length-k dot product of residues cannot overflow."""
    return np.int64 if k * (p - 1) ** 2 < _INT64_BOUND else object


def _elimination_dtype(p: int):
    """int64 while an elimination update x - a*b of residues cannot overflow."""
    return np.int64 if (p - 1) ** 2 + p < _INT64_BOUND else object


class Matrix:
    """Immutable dense matrix with exact entries over a fixed field."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, entries, rows: int | None = None, cols: int | None = None):
        coerce = field.coerce
        data = tuple(tuple(map(coerce, row)) for row in entries)
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if len(data) != rows or any(len(r) != cols for r in data):
            raise DimensionMismatch("ragged or mis-sized entry grid")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", data)

    @classmethod
    def _canonical(cls, field: Field, data: tuple, rows: int, cols: int) -> "Matrix":
        """Wrap a tuple of row tuples of canonical scalars, unchecked."""
        m = object.__new__(cls)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "entries", data)
        return m

    @classmethod
    def _from_array(cls, field: Field, a: np.ndarray) -> "Matrix":
        """Wrap a 2-d array of residues in [0, p)."""
        return cls._canonical(field, tuple(map(tuple, a.tolist())), *a.shape)

    def _array(self, dtype=np.int64) -> np.ndarray:
        """The entries of an F_p matrix as a fresh rows x cols array."""
        return np.array(self.entries, dtype=dtype).reshape(self.rows, self.cols)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        row = (field.zero(),) * cols
        return Matrix._canonical(field, (row,) * rows, rows, cols)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        zero, one = field.zero(), field.one()
        data = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        return Matrix._canonical(field, data, n, n)

    @staticmethod
    def from_columns(field: Field, columns, rows: int | None = None) -> "Matrix":
        columns = [list(c) for c in columns]
        if not columns:
            if rows is None:
                raise DimensionMismatch("row count required for a matrix with no columns")
            return Matrix.zeros(field, rows, 0)
        n = len(columns[0])
        grid = [[columns[j][i] for j in range(len(columns))] for i in range(n)]
        return Matrix(field, grid, n, len(columns))

    @staticmethod
    def vstack(field: Field, mats, cols: int | None = None) -> "Matrix":
        mats = list(mats)
        if not mats:
            if cols is None:
                raise DimensionMismatch("column count required for an empty stack")
            return Matrix.zeros(field, 0, cols)
        width = mats[0].cols
        grid = []
        for m in mats:
            if m.cols != width or m.field != field:
                raise DimensionMismatch("vstack width or field mismatch")
            grid.extend(m.entries)
        return Matrix._canonical(field, tuple(grid), len(grid), width)

    @staticmethod
    def hstack(field: Field, mats) -> "Matrix":
        mats = list(mats)
        if not mats:
            raise DimensionMismatch("hstack of nothing")
        height = mats[0].rows
        if any(m.rows != height or m.field != field for m in mats):
            raise DimensionMismatch("hstack height or field mismatch")
        grid = tuple(sum(parts, ()) for parts in zip(*(m.entries for m in mats)))
        return Matrix._canonical(field, grid, height, sum(m.cols for m in mats))

    @staticmethod
    def block(field: Field, grid, row_dims, col_dims) -> "Matrix":
        """Assemble a block matrix; None blocks are zero of the declared shape."""
        rows = []
        for bi, block_row in enumerate(grid):
            strips = []
            for bj, blk in enumerate(block_row):
                if blk is None:
                    blk = Matrix.zeros(field, row_dims[bi], col_dims[bj])
                if blk.rows != row_dims[bi] or blk.cols != col_dims[bj]:
                    raise DimensionMismatch("block shape mismatch")
                strips.append(blk)
            rows.append(Matrix.hstack(field, strips) if strips else Matrix.zeros(field, row_dims[bi], 0))
        return Matrix.vstack(field, rows, cols=sum(col_dims))

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[tuple]:
        return list(zip(*self.entries)) if self.rows else [() for _ in range(self.cols)]

    def take_rows(self, indices) -> "Matrix":
        data = tuple(self.entries[i] for i in indices)
        return Matrix._canonical(self.field, data, len(data), self.cols)

    def take_columns(self, indices) -> "Matrix":
        indices = tuple(indices)
        data = tuple(tuple(row[j] for j in indices) for row in self.entries)
        return Matrix._canonical(self.field, data, self.rows, len(indices))

    def transpose(self) -> "Matrix":
        return Matrix._canonical(self.field, tuple(self.columns()), self.cols, self.rows)

    def is_zero(self) -> bool:
        zero = self.field.zero()
        return all(x == zero for row in self.entries for x in row)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.field, self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"Matrix({self.field.name}, {self.rows}x{self.cols})"

    def _entrywise(self, op, *others: "Matrix") -> "Matrix":
        for other in others:
            self._check_same_shape(other)
        data = tuple(tuple(map(op, *rows)) for rows in zip(self.entries, *(o.entries for o in others)))
        return Matrix._canonical(self.field, data, self.rows, self.cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(self.field.add, other)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(self.field.sub, other)

    def __neg__(self) -> "Matrix":
        return self._entrywise(self.field.neg)

    def scale(self, s) -> "Matrix":
        f = self.field
        s = f.coerce(s)
        return self._entrywise(lambda a: f.mul(s, a))

    def _check_same_shape(self, other: "Matrix"):
        if self.field != other.field or self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("shape or field mismatch")

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field or self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        f = self.field
        if self.rows == 0 or other.cols == 0 or self.cols == 0:
            return Matrix.zeros(f, self.rows, other.cols)
        if f.p is not None:
            dtype = _product_dtype(f.p, self.cols)
            return Matrix._from_array(f, (self._array(dtype) @ other._array(dtype)) % f.p)
        bt = other.columns()
        grid = []
        for row in self.entries:
            out = []
            for col in bt:
                acc = Fraction(0)
                for x, y in zip(row, col):
                    if x and y:
                        acc += x * y
                out.append(acc)
            grid.append(tuple(out))
        return Matrix._canonical(f, tuple(grid), self.rows, other.cols)

    def apply(self, vec) -> tuple:
        """Matrix times column vector, returned as a tuple."""
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length mismatch")
        f = self.field
        if f.p is not None:
            if self.rows == 0:
                return ()
            if self.cols == 0:
                return (0,) * self.rows
            dtype = _product_dtype(f.p, self.cols)
            v = np.array([f.coerce(x) for x in vec], dtype=dtype)
            return tuple(((self._array(dtype) @ v) % f.p).tolist())
        out = []
        for row in self.entries:
            acc = Fraction(0)
            for x, y in zip(row, vec):
                if x and y:
                    acc += x * y
            out.append(acc)
        return tuple(out)


def vec_is_zero(field: Field, v) -> bool:
    zero = field.zero()
    return all(a == zero for a in v)

def unit_vector(field: Field, n: int, i: int) -> tuple:
    zero, one = field.zero(), field.one()
    return tuple(one if j == i else zero for j in range(n))


# ---------------------------------------------------------------------------
# row reduction

@dataclass(frozen=True)
class RrefResult:
    rank: int
    reduced: Matrix
    pivots: tuple[int, ...]


def _clear_column(a: np.ndarray, targets: np.ndarray, r: int, c: int, p: int):
    """Subtract a[t, c] times pivot row r from each row t in targets, mod p.

    Only columns c onward change.  The rows are updated in blocks, so no
    temporary exceeds _BLOCK_CELLS cells however tall the array is.
    """
    pivot = a[r, c:]
    step = max(1, _BLOCK_CELLS // pivot.size)
    for start in range(0, targets.size, step):
        block = targets[start:start + step]
        t = a[block, c:]
        t -= np.multiply.outer(t[:, 0], pivot)
        np.remainder(t, p, out=t)
        a[block, c:] = t


def _rref_modp(a: np.ndarray, p: int):
    """Reduced row-echelon form over F_p of an array of residues, in place."""
    rows, cols = a.shape
    r = 0
    pivots = []
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, p)
        if inv != 1:
            a[r, c:] = (a[r, c:] * inv) % p
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            _clear_column(a, others, r, c, p)
        pivots.append(c)
        r += 1
    return r, a, tuple(pivots)


def _row_lcm_scale(row):
    """Integer multiple of a row of ints and Fractions, by the lcm of its denominators."""
    den = 1
    for x in row:
        d = x.denominator
        if d != 1:
            den = den * d // gcd(den, d)
    if den == 1:
        return [x.numerator for x in row]
    return [x.numerator * (den // x.denominator) for x in row]


def _normalize_int_row(row):
    g = 0
    for x in row:
        g = gcd(g, x)
        if g == 1:
            break
    if g > 1:
        row = [x // g for x in row]
    return row


def _rref_rational(entries, rows: int, cols: int):
    work = [_row_lcm_scale(row) for row in entries]
    r = 0
    pivots = []
    for c in range(cols):
        if r == rows:
            break
        sel = None
        for i in range(r, rows):
            if work[i][c]:
                sel = i
                break
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        piv = work[r]
        a = piv[c]
        for i in range(rows):
            if i == r:
                continue
            b = work[i][c]
            if b:
                row = work[i]
                work[i] = _normalize_int_row([a * x - b * y for x, y in zip(row, piv)])
        pivots.append(c)
        r += 1
    out = []
    for i in range(rows):
        if i < r:
            lead = work[i][pivots[i]]
            out.append([Fraction(x, lead) for x in work[i]])
        else:
            out.append([Fraction(0)] * cols)
    return r, out, tuple(pivots)


def rref(m: Matrix) -> RrefResult:
    """The unique reduced row-echelon form of m, with rank and pivot columns."""
    if m.rows == 0 or m.cols == 0:
        return RrefResult(0, m, ())
    p = m.field.p
    if p is not None:
        rank, a, pivots = _rref_modp(m._array(_elimination_dtype(p)), p)
        return RrefResult(rank, Matrix._from_array(m.field, a), pivots)
    rank, grid, pivots = _rref_rational(m.entries, m.rows, m.cols)
    return RrefResult(rank, Matrix._canonical(m.field, tuple(map(tuple, grid)),
                                              m.rows, m.cols), pivots)


def rank(m: Matrix) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    if m.field.p is not None:
        return _rank_modp(np.array(m.entries, dtype=_elimination_dtype(m.field.p)), m.field.p)
    return _rank_rational(_integer_array([_row_lcm_scale(row) for row in m.entries]))


def _integer_array(rows) -> np.ndarray:
    """Rows of Python ints as an int64 array, or an object array past int64."""
    big = max((abs(x) for row in rows for x in row), default=0)
    return np.array(rows, dtype=np.int64 if big < _INT64_BOUND else object)


def _rank_modp(a: np.ndarray, p: int) -> int:
    """Rank over F_p of an integer array, destroying it: F_2 goes to the packed kernel."""
    if p == 2:
        return _rank_f2(a)
    dtype = _elimination_dtype(p)
    if a.dtype != dtype:
        a = a.astype(dtype)
    np.remainder(a, p, out=a)
    return _rank_modp_array(a, p)


def _rank_modp_array(a: np.ndarray, p: int) -> int:
    """Rank over F_p of an array of residues, in place; forward elimination only.

    Rows 0 .. rank-1 are left in echelon form with leading entries 1.
    """
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, p)
        if inv != 1:
            a[r, c:] = (a[r, c:] * inv) % p
        # the rows below the pivot with a nonzero entry in column c; the swap
        # moved a row with a zero there, so the indices past nz[0] still hold
        below = r + nz[1:]
        if below.size:
            _clear_column(a, below, r, c, p)
        r += 1
    return r


def _rank_f2(a: np.ndarray) -> int:
    """Rank over F_2 of an integer array (int8 or int64), destroying it.

    Each row is packed into uint64 words (column j is bit j % 64 of word
    j // 64), the layout of M4RI, and a pivot clears its column below it by
    one XOR of whole rows.
    """
    rows, cols = a.shape
    a &= 1
    packed = np.packbits(a, axis=1, bitorder="little")
    words = -(-cols // 64)
    if packed.shape[1] != 8 * words:
        packed = np.concatenate(
            [packed, np.zeros((rows, 8 * words - packed.shape[1]), dtype=np.uint8)], axis=1)
    w = packed.view("<u8")
    r = 0
    for c in range(cols):
        if r == rows:
            break
        word, bit = divmod(c, 64)
        nz = np.flatnonzero((w[r:, word] >> np.uint64(bit)) & np.uint64(1))
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            w[[r, i]] = w[[i, r]]
        below = r + nz[1:]
        if below.size:
            w[below, word:] ^= w[r, word:]
        r += 1
    return r


def _rank_rational(a: np.ndarray) -> int:
    """Rank over Q of an integer array, certified by an exactly checked kernel.

    `a` is left unchanged.  See the module docstring for the certificate.
    """
    rows, cols = a.shape
    bound = max(int(a.max()), -int(a.min()))
    if bound == 0:
        return 0
    if bound < _CERTIFICATE_ENTRY_BOUND:
        for p in _CERTIFICATE_PRIMES:
            reduced, pivots = _row_space_modp(a, p)
            r = len(pivots)
            if r == cols:
                return r
            certificate = _lifted_kernel(reduced, pivots, p)
            if certificate is not None and _annihilates(a, bound, certificate):
                return r
    return _rank_int_rows(a.tolist(), cols)


def _row_space_modp(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced echelon basis and pivot columns of the row space of a mod p.

    The rows of a are taken in blocks, each reduced together with the basis
    so far, so the work array never holds more than cols + a block of rows.
    Stops early once the basis spans the whole row space F_p^cols.
    """
    rows, cols = a.shape
    basis, pivots = np.zeros((0, cols), dtype=np.int64), ()
    step = max(1, _BLOCK_CELLS // cols)
    for start in range(0, rows, step):
        work = np.vstack([basis, a[start:start + step]]).astype(np.int64, copy=False)
        np.remainder(work, p, out=work)
        r, work, pivots = _rref_modp(work, p)
        basis = work[:r]
        if r == cols:
            break
    return basis, pivots


def _lifted_kernel(reduced: np.ndarray, pivots: tuple[int, ...], p: int) -> np.ndarray | None:
    """Integer kernel vectors lifted from a reduced echelon basis mod p, as columns.

    The vector of free column j has entry 1 at j and -R[k, j] at pivot k of
    the reduced rows R.  Its entries are lifted to fractions by rational
    reconstruction and multiplied by the lcm of their denominators, so
    column j of the result is nonzero at free column j and zero at the
    other free columns.  Returns None when some entry has no reconstruction.
    """
    cols = reduced.shape[1]
    free = np.ones(cols, dtype=bool)
    free[list(pivots)] = False
    free = np.flatnonzero(free)
    lifted = _rational_reconstruction((-reduced[:, free]) % p, p)
    if lifted is None:
        return None
    num, den = lifted
    scales = [lcm(*column) for column in den.T.tolist()]
    if max(scales) < 2 ** 31:
        # |num| and den are below 2^15, so every entry stays below 2^46
        out = np.zeros((cols, free.size), dtype=np.int64)
        scale = np.array(scales, dtype=np.int64)
    else:
        out = np.zeros((cols, free.size), dtype=object)
        scale = np.array(scales, dtype=object)
        num, den = num.astype(object), den.astype(object)
    out[list(pivots)] = num * (scale // den)
    out[free, np.arange(free.size)] = scale
    return out


def _rational_reconstruction(u: np.ndarray, p: int):
    """Fractions n/d = u mod p with |n|, d <= sqrt((p-1)/2), entrywise, or None.

    The extended Euclidean algorithm on (p, u) runs for all entries at once
    and stops for each entry at the first remainder within the bound (Wang
    1981); remainder r and cofactor t satisfy r = t u mod p throughout.
    None when a cofactor ends past the bound.
    """
    bound = isqrt((p - 1) // 2)
    r0 = np.full(u.shape, p, dtype=np.int64)
    r1 = u.astype(np.int64)
    t0 = np.zeros(u.shape, dtype=np.int64)
    t1 = np.ones(u.shape, dtype=np.int64)
    live = r1 > bound
    while live.any():
        q = r0[live] // r1[live]
        r0[live], r1[live] = r1[live], r0[live] - q * r1[live]
        t0[live], t1[live] = t1[live], t0[live] - q * t1[live]
        live &= r1 > bound
    if (np.abs(t1) > bound).any():
        return None
    sign = np.where(t1 < 0, -1, 1)
    return sign * r1, sign * t1


def _annihilates(a: np.ndarray, bound: int, k: np.ndarray) -> bool:
    """Whether a @ k == 0 exactly, checked in blocks of rows of a.

    int64 while bound * max|k| * cols < 2^62 bounds every partial sum,
    Python ints past that.
    """
    rows, cols = a.shape
    k_bound = max(int(k.max()), -int(k.min()))
    dtype = np.int64 if bound * k_bound * cols < _CERTIFICATE_ENTRY_BOUND else object
    k = k.astype(dtype)
    step = max(1, _BLOCK_CELLS // cols)
    for start in range(0, rows, step):
        if (a[start:start + step].astype(dtype) @ k).any():
            return False
    return True


def _rank_int_rows(work, cols: int) -> int:
    """Rank over Q of integer rows by exact elimination; destructive.

    The pivot of each column is an entry of smallest absolute value.
    """
    rows = len(work)
    r = 0
    for c in range(cols):
        if r == rows:
            break
        sel = None
        best = None
        for i in range(r, rows):
            v = work[i][c]
            if v:
                if best is None or abs(v) < best:
                    best = abs(v)
                    sel = i
                    if best == 1:
                        break
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        piv = work[r]
        a = piv[c]
        for i in range(r + 1, rows):
            b = work[i][c]
            if b:
                row = work[i]
                work[i] = _normalize_int_row([a * x - b * y for x, y in zip(row, piv)])
        r += 1
    return r


def rank_of_int_rows(field: Field, rows, cols: int) -> int:
    """Rank of an integer matrix, interpreted in the field.

    Fast path of the brute-force cochain computations, which build their
    matrices as integer numpy arrays (int8, int64 or Python ints); such an
    array is used as it is and may be overwritten.  Rows given as lists
    hold ints for prime fields and ints or Fractions over Q, where each row
    is first scaled by the lcm of its denominators.  Over Q the rank is the
    certified one of `_rank_rational`.
    """
    if len(rows) == 0 or cols == 0:
        return 0
    p = field.p
    if isinstance(rows, np.ndarray):
        return _rank_modp(rows, p) if p is not None else _rank_rational(rows)
    if p is not None:
        return _rank_modp(np.array(rows, dtype=_elimination_dtype(p)), p)
    return _rank_rational(_integer_array([_row_lcm_scale(row) for row in rows]))


def kernel(m: Matrix) -> "Subspace":
    """Right null space {x : m x = 0} as a subspace of the column space."""
    res = rref(m)
    n = m.cols
    piv = set(res.pivots)
    free = [j for j in range(n) if j not in piv]
    f = m.field
    zero, one = f.zero(), f.one()
    vectors = []
    red = res.reduced.entries
    for j in free:
        v = [zero] * n
        v[j] = one
        for r_i, c in enumerate(res.pivots):
            v[c] = f.neg(red[r_i][j])
        vectors.append(tuple(v))
    return Subspace._spanned_by(Matrix._canonical(f, tuple(vectors), len(vectors), n))


def column_space(m: Matrix) -> "Subspace":
    return Subspace._spanned_by(m.transpose())


def solve_column(m: Matrix, b) -> tuple:
    """A canonical particular solution x of m x = b (free variables zero)."""
    f = m.field
    aug = Matrix.hstack(f, [m, Matrix.from_columns(f, [list(b)])])
    res = rref(aug)
    if res.pivots and res.pivots[-1] == m.cols:
        raise InconsistentSystem("no solution")
    zero = f.zero()
    x = [zero] * m.cols
    for r_i, c in enumerate(res.pivots):
        x[c] = res.reduced.entries[r_i][m.cols]
    return tuple(x)


def solve_columns(m: Matrix, rhs: Matrix) -> Matrix:
    """Solve m X = rhs column by column; canonical particular solutions."""
    cols = [solve_column(m, rhs.column(j)) for j in range(rhs.cols)]
    return Matrix.from_columns(m.field, cols, rows=m.cols)


# ---------------------------------------------------------------------------
# subspaces

class Subspace:
    """An R-linear subspace of a coordinate space, stored by its unique RREF basis."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: Matrix, pivots: tuple[int, ...]):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", pivots)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @staticmethod
    def from_vectors(field: Field, ambient_dim: int, vectors) -> "Subspace":
        vectors = [list(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionMismatch("vector does not live in the ambient space")
        return Subspace._spanned_by(Matrix(field, vectors, len(vectors), ambient_dim))

    @staticmethod
    def _spanned_by(m: Matrix) -> "Subspace":
        """The span of the rows of m."""
        if m.rows == 0:
            return Subspace.zero(m.field, m.cols)
        res = rref(m)
        return Subspace(m.cols, res.reduced.take_rows(range(res.rank)), res.pivots)

    @staticmethod
    def zero(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.zeros(field, 0, ambient_dim), ())

    @staticmethod
    def whole(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(field, ambient_dim),
                        tuple(range(ambient_dim)))

    @property
    def field(self) -> Field:
        return self.basis.field

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.dim == 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.ambient_dim}, {self.field.name})"

    def reduce(self, vec) -> tuple:
        """Residue of vec after eliminating this subspace's pivot coordinates."""
        f = self.field
        v = [f.coerce(x) for x in vec]
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector/ambient mismatch")
        for row, c in zip(self.basis.entries, self.pivots):
            coeff = v[c]
            if coeff:
                for j in range(c, self.ambient_dim):
                    if row[j]:
                        v[j] = f.sub(v[j], f.mul(coeff, row[j]))
        return tuple(v)

    def contains_vector(self, vec) -> bool:
        return vec_is_zero(self.field, self.reduce(vec))

    def first_outside(self, m: Matrix) -> int | None:
        """Index of the first row of m outside this subspace, or None."""
        if m.cols != self.ambient_dim:
            raise DimensionMismatch("vector/ambient mismatch")
        residue = m - m.take_columns(self.pivots) @ self.basis
        for i, row in enumerate(residue.entries):
            if any(row):
                return i
        return None

    def contains_subspace(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimension mismatch")
        return self.first_outside(other.basis) is None

    def coords(self, vec) -> tuple:
        """Coordinates of a member vector in the RREF basis (pivot extraction)."""
        return tuple(vec[c] for c in self.pivots)

    def lift(self, coords) -> tuple:
        """The member vector with the given basis coordinates."""
        return _row_combination(self.basis, coords)

    def __add__(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimension mismatch")
        return Subspace._spanned_by(Matrix.vstack(self.field, [self.basis, other.basis]))

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimension mismatch")
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.field, self.ambient_dim)
        stacked = Matrix.vstack(self.field, [self.basis, other.basis])
        ker = kernel(stacked.transpose())
        # a kernel vector (a, b) gives a*basis = -b*basis(other), a common vector
        coeffs = ker.basis.take_columns(range(self.dim))
        return Subspace._spanned_by(coeffs @ self.basis)


class QuotientMap:
    """Canonical coordinates on sup/sub for nested subspaces sub <= sup.

    The quotient coordinates are taken with respect to the complement of the
    pivot columns of sub (expressed in sup's basis coordinates).  `matrix`
    is a dim x ambient_dim linear map whose restriction to sup has kernel
    exactly sub; `reps` holds one canonical lift per quotient coordinate,
    and applying `matrix` to `reps` gives the identity.
    """

    __slots__ = ("sup", "sub", "dim", "matrix", "reps", "_sub_in_sup")

    def __init__(self, sup: Subspace, sub: Subspace):
        if sup.ambient_dim != sub.ambient_dim:
            raise DimensionMismatch("ambient dimension mismatch")
        if not sup.contains_subspace(sub):
            raise LinalgError("sub is not contained in sup")
        f = sup.field
        s = sup.dim
        sub_in_sup = Subspace._spanned_by(sub.basis.take_columns(sup.pivots))
        sub_pivots = set(sub_in_sup.pivots)
        comp = [i for i in range(s) if i not in sub_pivots]
        dim = len(comp)
        # complement coordinate i of a vector c (in sup coordinates, read off
        # at sup's pivot columns) after reduction modulo sub:
        # c_i - sum_r c_{piv_r} S[r][i]
        zero, one = f.zero(), f.one()
        rows = []
        for i in comp:
            row = [zero] * sup.ambient_dim
            row[sup.pivots[i]] = one
            for r_i, c in enumerate(sub_in_sup.pivots):
                row[sup.pivots[c]] = f.sub(row[sup.pivots[c]], sub_in_sup.basis.entries[r_i][i])
            rows.append(tuple(row))
        matrix = Matrix._canonical(f, tuple(rows), dim, sup.ambient_dim)
        reps = sup.basis.take_rows(comp)
        object.__setattr__(self, "sup", sup)
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "reps", reps)
        object.__setattr__(self, "_sub_in_sup", sub_in_sup)
        if matrix @ reps.transpose() != Matrix.identity(f, dim):
            raise LinalgError("quotient coordinate construction failed")

    def __setattr__(self, name, value):
        raise AttributeError("QuotientMap is immutable")

    def coords(self, vec) -> tuple:
        return self.matrix.apply(vec)

    def lift(self, coords) -> tuple:
        return _row_combination(self.reps, coords)


def _row_combination(m: Matrix, coeffs) -> tuple:
    """sum_i coeffs[i] * (row i of m)."""
    f = m.field
    row = tuple(f.coerce(x) for x in coeffs)
    if len(row) != m.rows:
        raise DimensionMismatch("coefficient vector length mismatch")
    return (Matrix._canonical(f, (row,), 1, m.rows) @ m).entries[0]
