"""Exact dense linear algebra over the rationals and prime fields.

Scalars are `fractions.Fraction` over Q and plain ints in [0, p) over F_p.
Everything here is immutable after construction and every operation is a
pure function with canonical output: the row reduction below computes the
unique reduced row-echelon form of its input (leading entries 1, pivot
columns cleared, pivots strictly increasing), so subspace bases are
bit-identical across runs and directly diffable.

Canonical data.  A matrix stores one read-only 2-d numpy array, `array`.
Over F_p its entries are residues in [0, p) in the narrowest unsigned dtype
that holds p - 1 (uint8 for p <= 256, then uint16, uint32 and uint64),
and Python ints (`object`) for p past int64; over Q they are Fractions in
an `object` array.  Arithmetic widens to `_product_dtype` or
`_elimination_dtype` only inside a product or an elimination and stores
the reduced result in the narrow dtype again.  `entries` is a derived
tuple-of-tuples view for reports and tests.  The public constructor
`Matrix(field, entries)` is the only place where entries are coerced into
the field; every other matrix is wrapped from an array of canonical
entries by `Matrix._wrap`, which never reads them.

Kernels.  Each field has one elimination kernel.  Over F_p it is
`_rref_modp` on numpy arrays; ranks and the certificate primes below feed
it the rows in blocks through `_row_space_modp`.  Ranks over F_2 instead
pack each row into uint64 words and eliminate by XOR of whole rows
(`_rank_f2`).  Over Q it is one fraction-free elimination of integer rows
(`_rref_int`).  Prime-field products and eliminations use int64 only while
no intermediate can overflow: a product with inner dimension k needs
k*(p-1)^2 < 2^63, and an elimination step needs (p-1)^2 + p < 2^63.  Past
those bounds the same code runs on Python-int (`object`) arrays.  Every
path is exact.

Rational rank.  A rank over Q is taken of an integer matrix M (rows of a
rational matrix are scaled by the lcm of their denominators) and is
certified, never estimated.  r = rank of M mod p is a lower bound for
rank_Q(M), for the fixed primes 2^31 - 1, 2^31 - 19 and 2^31 - 61 in
turn.  The reduced echelon rows mod p give cols - r kernel vectors, one
per free column; their entries are lifted to Q by rational reconstruction
(Wang 1981) and their denominators cleared.  If M K = 0 holds exactly,
those independent vectors give rank_Q(M) <= r, so the rank is r.  A prime
for which reconstruction or the check fails gives way to the next one;
after the last prime, and for entries of 2^62 or more, `_rref_int`
decides.  Rational row reduction (`rref`) runs the same kernel on the
integer-scaled rows, so Fraction arithmetic never enters the inner loops.
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


def _storage_dtype(p: int | None):
    """The dtype of stored entries: the narrowest unsigned integer dtype that
    holds p - 1, Python ints (`object`) past int64, Fractions over Q."""
    if p is None or p >= _INT64_BOUND:
        return object
    return (np.uint8 if p <= 2 ** 8 else np.uint16 if p <= 2 ** 16
            else np.uint32 if p <= 2 ** 32 else np.uint64)


def _filled(field: Field, shape, value) -> np.ndarray:
    return np.full(shape, value, dtype=_storage_dtype(field.p))


def contract(field: Field, coeffs: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """sum_g coeffs[..., g] * mats[g], for canonical arrays, as a canonical array.

    Over Q both factors are scaled to Python integers by the lcm of their
    denominators, so the contraction multiplies ints, not Fractions.
    """
    p = field.p
    if p is None:
        (c, c_den), (m, m_den) = _integer_scaled(coeffs), _integer_scaled(mats)
        out = np.tensordot(c, m, axes=1)
        den = c_den * m_den
        return np.array([Fraction(x, den) for x in out.flat],
                        dtype=object).reshape(out.shape)
    dtype = _product_dtype(p, mats.shape[0])
    out = np.tensordot(coeffs.astype(dtype), mats.astype(dtype), axes=1) % p
    return out.astype(_storage_dtype(p), copy=False)


def _integer_scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(a * den, den) for an array of Fractions, den the lcm of their denominators."""
    den = lcm(*(x.denominator for x in a.flat))
    return np.array([x.numerator * (den // x.denominator) for x in a.flat],
                    dtype=object).reshape(a.shape), den


class Matrix:
    """Immutable dense matrix with exact entries over a fixed field.

    `array` is the one read-only 2-d array of entries, in the field's
    storage dtype; `entries` is a tuple-of-tuples view of it.
    """

    __slots__ = ("field", "array")

    def __init__(self, field: Field, entries, rows: int | None = None, cols: int | None = None):
        coerce = field.coerce
        data = [list(map(coerce, row)) for row in entries]
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if len(data) != rows or any(len(r) != cols for r in data):
            raise DimensionMismatch("ragged or mis-sized entry grid")
        a = _filled(field, (rows, cols), field.zero())
        if rows and cols:
            a[:] = data
        self._own(field, a)

    def _own(self, field: Field, a: np.ndarray):
        a.flags.writeable = False
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "array", a)

    @classmethod
    def _wrap(cls, field: Field, a: np.ndarray) -> "Matrix":
        """Take a 2-d array of canonical entries, unchecked; nothing may write to it later."""
        m = object.__new__(cls)
        m._own(field, a.astype(_storage_dtype(field.p), copy=False))
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    @property
    def entries(self) -> tuple:
        return tuple(map(tuple, self.array.tolist()))

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        return Matrix._wrap(field, _filled(field, (rows, cols), field.zero()))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        a = _filled(field, (n, n), field.zero())
        np.fill_diagonal(a, field.one())
        return Matrix._wrap(field, a)

    @staticmethod
    def from_columns(field: Field, columns, rows: int | None = None) -> "Matrix":
        columns = [list(c) for c in columns]
        if not columns:
            if rows is None:
                raise DimensionMismatch("row count required for a matrix with no columns")
            return Matrix.zeros(field, rows, 0)
        return Matrix(field, columns, len(columns), len(columns[0])).transpose()

    @staticmethod
    def vstack(field: Field, mats, cols: int | None = None) -> "Matrix":
        mats = list(mats)
        if not mats:
            if cols is None:
                raise DimensionMismatch("column count required for an empty stack")
            return Matrix.zeros(field, 0, cols)
        if any(m.cols != mats[0].cols or m.field != field for m in mats):
            raise DimensionMismatch("vstack width or field mismatch")
        return Matrix._wrap(field, np.concatenate([m.array for m in mats]))

    @staticmethod
    def hstack(field: Field, mats) -> "Matrix":
        mats = list(mats)
        if not mats:
            raise DimensionMismatch("hstack of nothing")
        if any(m.rows != mats[0].rows or m.field != field for m in mats):
            raise DimensionMismatch("hstack height or field mismatch")
        return Matrix._wrap(field, np.concatenate([m.array for m in mats], axis=1))

    @staticmethod
    def block(field: Field, grid, row_dims, col_dims) -> "Matrix":
        """Assemble a block matrix; None blocks are zero of the declared shape."""
        out = _filled(field, (sum(row_dims), sum(col_dims)), field.zero())
        r0 = 0
        for bi, block_row in enumerate(grid):
            c0 = 0
            for bj, blk in enumerate(block_row):
                if blk is not None:
                    if blk.rows != row_dims[bi] or blk.cols != col_dims[bj] or blk.field != field:
                        raise DimensionMismatch("block shape mismatch")
                    out[r0:r0 + blk.rows, c0:c0 + blk.cols] = blk.array
                c0 += col_dims[bj]
            r0 += row_dims[bi]
        return Matrix._wrap(field, out)

    def column(self, j: int) -> tuple:
        return tuple(self.array[:, j].tolist())

    def columns(self) -> list[tuple]:
        return list(map(tuple, self.array.T.tolist()))

    def take_rows(self, indices) -> "Matrix":
        return Matrix._wrap(self.field, self.array[_index(indices)])

    def take_columns(self, indices) -> "Matrix":
        return Matrix._wrap(self.field, self.array[:, _index(indices)])

    def transpose(self) -> "Matrix":
        return Matrix._wrap(self.field, self.array.T)

    def is_zero(self) -> bool:
        return not self.array.any()

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.field == other.field
                and np.array_equal(self.array, other.array))

    def __hash__(self) -> int:
        a = self.array
        return hash((self.field, a.shape, a.tobytes() if a.dtype != object else tuple(a.flat)))

    def __repr__(self) -> str:
        return f"Matrix({self.field.name}, {self.rows}x{self.cols})"

    def _pointwise(self, ufunc, *operands) -> "Matrix":
        """ufunc(array, *operands) reduced into the field."""
        p = self.field.p
        if p is None:
            return Matrix._wrap(self.field, ufunc(self.array, *operands))
        wide = ufunc(self.array, *operands, dtype=_elimination_dtype(p))
        return Matrix._wrap(self.field, wide % p)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return self._pointwise(np.add, other.array)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return self._pointwise(np.subtract, other.array)

    def __neg__(self) -> "Matrix":
        return self._pointwise(np.negative)

    def scale(self, s) -> "Matrix":
        return self._pointwise(np.multiply, self.field.coerce(s))

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
            return Matrix._wrap(f, (self.array.astype(dtype) @ other.array.astype(dtype)) % f.p)
        bt = other.array.T.tolist()
        out = np.empty((self.rows, other.cols), dtype=object)
        for i, row in enumerate(self.array.tolist()):
            for j, col in enumerate(bt):
                acc = Fraction(0)
                for x, y in zip(row, col):
                    if x and y:
                        acc += x * y
                out[i, j] = acc
        return Matrix._wrap(f, out)

    def apply(self, vec) -> tuple:
        """Matrix times column vector, returned as a tuple."""
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length mismatch")
        column = Matrix(self.field, [vec], 1, self.cols).transpose()
        return tuple((self @ column).array[:, 0].tolist())


def _index(indices) -> np.ndarray:
    return np.fromiter(indices, dtype=np.intp)


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


def _rref_int(work, cols: int):
    """Reduced echelon form over Q of integer rows, by fraction-free elimination.

    Works in place on the list of rows `work`.  The pivot of each column is
    its first nonzero entry at or below the current row; every other row is
    cleared by an integer combination and divided by the gcd of its entries.
    Returns (rank, work, pivots): row i < rank is a rational multiple of row
    i of the reduced echelon form, led by column pivots[i], and the other
    rows are zero.
    """
    rows = len(work)
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
    return r, work, tuple(pivots)


def rref(m: Matrix) -> RrefResult:
    """The unique reduced row-echelon form of m, with rank and pivot columns."""
    if m.rows == 0 or m.cols == 0:
        return RrefResult(0, m, ())
    p = m.field.p
    if p is not None:
        rank, a, pivots = _rref_modp(m.array.astype(_elimination_dtype(p)), p)
        return RrefResult(rank, Matrix._wrap(m.field, a), pivots)
    rank, work, pivots = _rref_int([_row_lcm_scale(row) for row in m.array.tolist()], m.cols)
    out = _filled(m.field, m.array.shape, Fraction(0))
    for i, c in enumerate(pivots):
        out[i] = [Fraction(x, work[i][c]) for x in work[i]]
    return RrefResult(rank, Matrix._wrap(m.field, out), pivots)


def rank(m: Matrix) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    if m.field.p is not None:
        return _rank_modp(m.array.copy(), m.field.p)
    return _rank_rational(_integer_array([_row_lcm_scale(row) for row in m.array.tolist()]))


def _integer_array(rows) -> np.ndarray:
    """Rows of Python ints as an int64 array, or an object array past int64."""
    big = max((abs(x) for row in rows for x in row), default=0)
    return np.array(rows, dtype=np.int64 if big < _INT64_BOUND else object)


def _rank_modp(a: np.ndarray, p: int) -> int:
    """Rank over F_p of an integer array (signed, or unsigned residues): F_2
    goes to the packed kernel, which destroys it, and odd primes to the
    blocked row space, which leaves it."""
    if p == 2:
        return _rank_f2(a)
    return len(_row_space_modp(a, p)[1])


def _rank_f2(a: np.ndarray) -> int:
    """Rank over F_2 of an integer array (int8, uint8 or int64), destroying it.

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
    return _rref_int(a.tolist(), cols)[0]


def _row_space_modp(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced echelon basis and pivot columns of the row space of a mod p.

    The rows of a are taken in blocks, each reduced together with the basis
    so far, so the work array never holds more than cols + a block of rows.
    Stops early once the basis spans the whole row space F_p^cols.
    """
    rows, cols = a.shape
    dtype = _elimination_dtype(p)
    basis, pivots = np.zeros((0, cols), dtype=dtype), ()
    step = max(1, _BLOCK_CELLS // cols)
    for start in range(0, rows, step):
        work = np.vstack([basis, a[start:start + step]]).astype(dtype, copy=False)
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
    f = m.field
    free = [j for j in range(m.cols) if j not in set(res.pivots)]
    # the vector of free column j: 1 at j, minus column j of the reduced rows at the pivots
    vectors = _filled(f, (len(free), m.cols), f.zero())
    vectors[np.arange(len(free)), free] = f.one()
    vectors[:, list(res.pivots)] = (-res.reduced.take_rows(range(res.rank))).array[:, free].T
    return Subspace._spanned_by(Matrix._wrap(f, vectors))


def column_space(m: Matrix) -> "Subspace":
    return Subspace._spanned_by(m.transpose())


def solve_column(m: Matrix, b) -> tuple:
    """A canonical particular solution x of m x = b (free variables zero)."""
    f = m.field
    aug = Matrix.hstack(f, [m, Matrix.from_columns(f, [list(b)])])
    res = rref(aug)
    if res.pivots and res.pivots[-1] == m.cols:
        raise InconsistentSystem("no solution")
    x = _filled(f, m.cols, f.zero())
    x[list(res.pivots)] = res.reduced.array[:res.rank, m.cols]
    return tuple(x.tolist())


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

    def contains_vector(self, vec) -> bool:
        if len(vec) != self.ambient_dim:
            raise DimensionMismatch("vector/ambient mismatch")
        return self.first_outside(Matrix(self.field, [vec], 1, self.ambient_dim)) is None

    def first_outside(self, m: Matrix) -> int | None:
        """Index of the first row of m outside this subspace, or None."""
        if m.cols != self.ambient_dim:
            raise DimensionMismatch("vector/ambient mismatch")
        # a row minus its pivot coordinates times the RREF basis is zero exactly for members
        outside = np.nonzero((m - m.take_columns(self.pivots) @ self.basis).array)[0]
        return int(outside[0]) if outside.size else None

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

    __slots__ = ("sup", "sub", "dim", "matrix", "reps")

    def __init__(self, sup: Subspace, sub: Subspace):
        if sup.ambient_dim != sub.ambient_dim:
            raise DimensionMismatch("ambient dimension mismatch")
        if not sup.contains_subspace(sub):
            raise LinalgError("sub is not contained in sup")
        f = sup.field
        sub_in_sup = Subspace._spanned_by(sub.basis.take_columns(sup.pivots))
        comp = [i for i in range(sup.dim) if i not in set(sub_in_sup.pivots)]
        dim = len(comp)
        # complement coordinate i of a vector c (in sup coordinates, read off
        # at sup's pivot columns) after reduction modulo sub:
        # c_i - sum_r c_{piv_r} S[r][i]
        in_sup = _filled(f, (dim, sup.dim), f.zero())
        in_sup[np.arange(dim), comp] = f.one()
        in_sup[:, list(sub_in_sup.pivots)] = (-sub_in_sup.basis).array[:, comp].T
        rows = _filled(f, (dim, sup.ambient_dim), f.zero())
        rows[:, list(sup.pivots)] = in_sup
        matrix = Matrix._wrap(f, rows)
        reps = sup.basis.take_rows(comp)
        object.__setattr__(self, "sup", sup)
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "reps", reps)
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
    if len(coeffs) != m.rows:
        raise DimensionMismatch("coefficient vector length mismatch")
    return (Matrix(f, [coeffs], 1, m.rows) @ m).entries[0]
