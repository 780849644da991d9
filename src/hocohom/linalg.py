"""Exact dense linear algebra over the rationals and prime fields.

A matrix over Q is an integer numerator array over one denominator and a
matrix over F_p an array of residues in [0, p); `fractions.Fraction`
appears only where entries are coerced in and in the `entries` view.
Everything here is immutable after construction and every operation is a
pure function with canonical output: the row reduction below computes the
unique reduced row-echelon form of its input (leading entries 1, pivot
columns cleared, pivots strictly increasing), so subspace bases are
bit-identical across runs and directly diffable.

Canonical data.  A matrix stores one read-only 2-d integer array, `array`,
over one positive denominator, `den`.  Over F_p the entries are residues in
[0, p) in the narrowest unsigned dtype that holds p - 1 (uint8 for p <= 256,
then uint16, uint32 and uint64), Python ints (`object`) for p past int64,
and `den` is 1.  Over Q the matrix is array / den in lowest terms
(gcd(den, every numerator) = 1, so a zero matrix has den 1); the numerators
are int64 when every one fits and Python ints (`object`) past that.  The
dtype depends on the values alone, so equal matrices built by different
routes compare and hash equal.  Arithmetic widens to `_product_dtype` or
`_elimination_dtype` only inside a product or an elimination over F_p; over
Q a product or a difference runs in int64 while its bound says that no
partial result can overflow, on Python ints past that, and is reduced to
lowest terms.  `entries` is a derived tuple-of-tuples view (Fractions over
Q) for reports and tests, and the only place where Fractions are built
from stored data.  The public constructor `Matrix(field, entries)` is the
only place where entries are coerced into the field; every other matrix is
wrapped from canonical integers by `Matrix._wrap`.  `Matrix.block(field,
grid)` assembles a grid of matrices, every block given, and reads each
block row's height and block column's width off the blocks.

Kernels.  Each field has one elimination kernel.  Over F_2 it is
`_echelon_f2`: each row becomes one Python int (column j at bit j, packed
by `np.packbits`), and an echelon sweep keyed by each row's lowest set bit
XORs a new row with the basis row at that bit until the bit is a new pivot
or the row is zero.  Only `rref` back-reduces the basis, once; a rank runs
the sweep on the shorter side (the transpose of a tall matrix), since
rank(a) = rank(a.T) and fewer rows reduce to zero; an `Echelon` continues
the sweep batch by batch on the basis it holds.  Over odd primes it is
`_rref_modp` on numpy arrays; ranks and the certificate primes below feed
it the rows in blocks through `_row_space_modp`.  Over Q it is one
fraction-free elimination of the numerator rows (`_rref_int`); a rational
matrix and its numerators have the same reduced echelon form.  Prime-field
products and eliminations use int64 only
while no intermediate can overflow: a product with inner dimension k needs
k*(p-1)^2 < 2^63, and an elimination step needs (p-1)^2 + p < 2^63.  Past
those bounds the same code runs on Python-int (`object`) arrays.  Every
path is exact.  Over F_2 a difference is an XOR of the stored bits and a
negation the identity, so neither widens.

Row, null and column spaces.  `rref`, `kernel` and `column_space` each
return a `Subspace`: the row space, the null space and the column space of
their matrix, held by its unique RREF basis (the nonzero rows of the
reduced row-echelon form) and its pivot columns, `Subspace(basis,
pivots)`; its ambient dimension is the basis's column count.  A sum of subspaces, a
span of vectors and the span an `Echelon` grows are each one `rref` of
stacked rows.

`kernel` eliminates once.  The pivot columns of an RREF
are the greedy-first basis of its matrix's column matroid: each column
that is independent of the columns before it.  The pivot set of the
kernel's RREF is therefore the greedy-first basis of the dual matroid
(the kernel is the row space whose column matroid is the dual of m's),
and the bases of the dual are the complements of the bases of m's
columns, so the greedy-first basis of the dual is the complement of the
greedy-last basis of m's columns.  That greedy-last basis is the pivot set
of the RREF of m with its columns reversed.  The free-column rows of that
one elimination, with rows and columns reversed, are the kernel's RREF.

Quotients.  `QuotientMap(sup, spanning)` is sup / B for B the row span of
`spanning`, and the one quotient construction of the package: the modules
A/J_q and J_q/J_{q+1}, the H_q^0 recursion and each cohomology space
Z^p / B^p of the long exact sequence.  It certifies B <= sup once
(`CertificateError` otherwise), then eliminates once: a vector of sup is
determined by its entries at sup's pivot columns, so the free-column rows
of the row space of `spanning` read at those columns give coordinates
whose kernel is exactly B, and the unit rows of sup's basis at the free
columns lift them.  When B or sup is zero that row space is zero and its
free-column rows are the identity.  Coordinates are read at the pivots,
never through an ambient dim x n matrix.

Rational rank.  A rank over Q is taken of an integer matrix M (the
numerators of a rational matrix) and is certified, never estimated.
r = rank of M mod p is a lower bound for rank_Q(M), for the fixed primes
2^31 - 1, 2^31 - 19 and 2^31 - 61 in turn.  The reduced echelon rows mod p
give cols - r kernel vectors, one per free column; their entries are lifted
to Q by rational reconstruction (Wang 1981) and their denominators cleared.
If M K = 0 holds exactly, those independent vectors give rank_Q(M) <= r, so
the rank is r.  The first prime is tried alone.  When it fails, each later
prime with the same pivot columns is joined to it by the Chinese remainder
theorem, which raises the reconstruction bound from about 2^15 to about
2^30 and then 2^46; a prime with a larger rank, or the same rank at earlier
pivots, replaces the primes before it.  After the last prime, and for
entries of 2^62 or more, `_rref_int` decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, isqrt, lcm

import numpy as np


class LinalgError(ValueError):
    pass


class DimensionMismatch(LinalgError):
    pass


class InconsistentSystem(LinalgError):
    """Raised when a linear system A x = b has no solution."""


class CertificateError(RuntimeError):
    """An internal certificate failed: a constructed object lacks a property
    the construction guarantees, which no input can cause.  The CLI reports
    it as a failed verification, exit 1."""


# Miller-Rabin to the first twelve prime bases decides primality exactly below
# this bound (Sorenson and Webster, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_TEST_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; LinalgError at or above _PRIME_TEST_BOUND."""
    if n >= _PRIME_TEST_BOUND:
        raise LinalgError(f"characteristic {n} is too large: primality is decided "
                          f"only below {_PRIME_TEST_BOUND}")
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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

    def coerce(self, x):
        """Coerce an int, string, or Fraction to a canonical scalar; a string
        that names no exact rational raises LinalgError."""
        p = self.p
        kind = type(x)
        if kind is str:
            try:
                x = Fraction(x)
            except (ValueError, ZeroDivisionError):
                raise LinalgError(f"{x!r} is not an exact rational") from None
        if p is None:
            return x if type(x) is Fraction else Fraction(x)
        if kind is int:
            return x % p
        if isinstance(x, Fraction):
            if x.denominator % p == 0:
                raise LinalgError(f"{x} has no image in F_{p}")
            return x.numerator * pow(x.denominator, -1, p) % p
        return int(x) % p


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
    """The dtype of stored entries: int64 numerators over Q (Python ints when
    a matrix needs them); over F_p the narrowest unsigned integer dtype that
    holds p - 1, and Python ints (`object`) past int64."""
    if p is None:
        return np.int64
    if p >= _INT64_BOUND:
        return object
    return (np.uint8 if p <= 2 ** 8 else np.uint16 if p <= 2 ** 16
            else np.uint32 if p <= 2 ** 32 else np.uint64)


def _int_bound(a: np.ndarray) -> int:
    """max |x| over an integer array; 0 for an empty one."""
    if a.size == 0:
        return 0
    return max(int(a.max()), -int(a.min()))


def _widened(bound: int, *arrays):
    """The integer arrays as they are while `bound` on every result of an
    operation on them is below 2^63, as Python-int arrays past that."""
    if bound < _INT64_BOUND:
        return arrays
    return tuple(a.astype(object) for a in arrays)


def _times(a: np.ndarray, k: int) -> np.ndarray:
    """a * k exactly, for an integer array a."""
    if k == 1:
        return a
    bound = _int_bound(a)
    if bound == 0:
        return a
    (a,) = _widened(bound * abs(k), a)
    return a * k


def _lowest_terms(a: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """(a / g, den / g) for g = gcd(den, every entry of a), with the
    numerators in int64 when every one fits and Python ints past that."""
    if a.dtype != object:
        a = a.astype(np.int64, copy=False)
    if den != 1:
        g = gcd(den, gcd(*a.flat) if a.dtype == object else int(np.gcd.reduce(a, axis=None)))
        if g != 1:
            # g divides every entry, so it exceeds int64 only for a zero array
            a, den = (a // g if a.any() else a), den // g
    if a.dtype == object and _int_bound(a) < _INT64_BOUND:
        a = a.astype(np.int64)
    return a, den


def common_denominator(mats) -> tuple[list[np.ndarray], int]:
    """The arrays of the matrices rescaled to the lcm of their denominators,
    and that lcm.  Over F_p every denominator is 1 and the arrays come back
    as they are."""
    den = lcm(*(m.den for m in mats))
    return [_times(m.array, den // m.den) for m in mats], den


def contract(field: Field, coeffs: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """sum_g coeffs[..., g] * mats[g], for stored arrays, as a stored array.

    Over F_p the result is reduced mod p.  Over Q the arguments are integer
    numerators and so is the result; its denominator is the product of
    theirs.  The contraction runs in int64 while no partial sum can
    overflow and on Python ints past that.
    """
    p = field.p
    if p is None:
        coeffs, mats = _widened(mats.shape[0] * _int_bound(coeffs) * _int_bound(mats),
                                coeffs, mats)
        return np.tensordot(coeffs, mats, axes=1)
    dtype = _product_dtype(p, mats.shape[0])
    out = np.tensordot(coeffs.astype(dtype), mats.astype(dtype), axes=1) % p
    return out.astype(_storage_dtype(p), copy=False)


class Matrix:
    """Immutable dense matrix with exact entries over a fixed field.

    `array` is the one read-only 2-d integer array of the matrix and `den`
    its denominator (always 1 over F_p); `entries` is a tuple-of-tuples view
    of array / den.
    """

    __slots__ = ("field", "array", "den")

    def __init__(self, field: Field, entries, rows: int | None = None, cols: int | None = None):
        coerce = field.coerce
        data = [list(map(coerce, row)) for row in entries]
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if len(data) != rows or any(len(r) != cols for r in data):
            raise DimensionMismatch("ragged or mis-sized entry grid")
        if field.p is None:
            # numerators over the lcm of the denominators: already in lowest terms
            den = lcm(*(x.denominator for row in data for x in row))
            a = np.zeros((rows, cols), dtype=object)
            if rows and cols:
                a[:] = [[x.numerator * (den // x.denominator) for x in row] for row in data]
            self._own(field, *_lowest_terms(a, den))
        else:
            a = np.zeros((rows, cols), dtype=_storage_dtype(field.p))
            if rows and cols:
                a[:] = data
            self._own(field, a, 1)

    def _own(self, field: Field, a: np.ndarray, den: int):
        a.flags.writeable = False
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "array", a)
        object.__setattr__(self, "den", den)

    @classmethod
    def _wrap(cls, field: Field, a: np.ndarray, den: int = 1) -> "Matrix":
        """Take a 2-d array of canonical residues over F_p, or of integer
        numerators over the positive den over Q, unchecked; nothing may write
        to it later.  Over Q the matrix is brought to lowest terms."""
        m = object.__new__(cls)
        if field.p is None:
            m._own(field, *_lowest_terms(a, den))
        else:
            m._own(field, a.astype(_storage_dtype(field.p), copy=False), 1)
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
        rows = self.array.tolist()
        if self.field.p is not None:
            return tuple(map(tuple, rows))
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in rows)

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        return Matrix._wrap(field, np.zeros((rows, cols), dtype=_storage_dtype(field.p)))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        a = np.zeros((n, n), dtype=_storage_dtype(field.p))
        np.fill_diagonal(a, 1)
        return Matrix._wrap(field, a)

    @staticmethod
    def vstack(field: Field, mats, cols: int | None = None) -> "Matrix":
        mats = list(mats)
        if not mats:
            if cols is None:
                raise DimensionMismatch("column count required for an empty stack")
            return Matrix.zeros(field, 0, cols)
        if any(m.cols != mats[0].cols or m.field != field for m in mats):
            raise DimensionMismatch("vstack width or field mismatch")
        arrays, den = common_denominator(mats)
        return Matrix._wrap(field, np.concatenate(arrays), den)

    @staticmethod
    def hstack(field: Field, mats) -> "Matrix":
        mats = list(mats)
        if not mats:
            raise DimensionMismatch("hstack of nothing")
        if any(m.rows != mats[0].rows or m.field != field for m in mats):
            raise DimensionMismatch("hstack height or field mismatch")
        arrays, den = common_denominator(mats)
        return Matrix._wrap(field, np.concatenate(arrays, axis=1), den)

    @staticmethod
    def block(field: Field, grid) -> "Matrix":
        """Assemble a block matrix from a grid of matrices: the blocks of a
        grid row share their row count, and those of a grid column their
        column count, read off the first column and the first row."""
        grid = [list(row) for row in grid]
        if not grid or not grid[0] or any(len(row) != len(grid[0]) for row in grid):
            raise DimensionMismatch("empty or ragged block grid")
        row_dims = [row[0].rows for row in grid]
        col_dims = [blk.cols for blk in grid[0]]
        if any(blk.rows != r or blk.cols != c or blk.field != field
               for row, r in zip(grid, row_dims) for blk, c in zip(row, col_dims)):
            raise DimensionMismatch("block shape or field mismatch")
        arrays, den = common_denominator([blk for row in grid for blk in row])
        out = np.zeros((sum(row_dims), sum(col_dims)),
                       dtype=np.result_type(_storage_dtype(field.p), *arrays))
        blocks = iter(arrays)
        for r0, r in zip(accumulate(row_dims, initial=0), row_dims):
            for c0, c in zip(accumulate(col_dims, initial=0), col_dims):
                out[r0:r0 + r, c0:c0 + c] = next(blocks)
        return Matrix._wrap(field, out, den)

    def take_rows(self, indices) -> "Matrix":
        return Matrix._wrap(self.field, self.array[_index(indices)], self.den)

    def take_columns(self, indices) -> "Matrix":
        return Matrix._wrap(self.field, self.array[:, _index(indices)], self.den)

    def transpose(self) -> "Matrix":
        return Matrix._wrap(self.field, self.array.T, self.den)

    def is_zero(self) -> bool:
        return not self.array.any()

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.field == other.field
                and self.den == other.den and np.array_equal(self.array, other.array))

    def __hash__(self) -> int:
        a = self.array
        return hash((self.field, a.shape, self.den,
                     a.tobytes() if a.dtype != object else tuple(a.flat)))

    def __repr__(self) -> str:
        return f"Matrix({self.field.name}, {self.rows}x{self.cols})"

    def _pointwise(self, ufunc, *operands) -> "Matrix":
        """ufunc(array, *operands) reduced mod p, over F_p."""
        p = self.field.p
        wide = ufunc(self.array, *operands, dtype=_elimination_dtype(p))
        return Matrix._wrap(self.field, wide % p)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field or self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("shape or field mismatch")
        p = self.field.p
        if p == 2:
            # subtraction of bits is XOR, in the storage dtype
            return Matrix._wrap(self.field, self.array ^ other.array)
        if p is not None:
            return self._pointwise(np.subtract, other.array)
        (a, b), den = common_denominator([self, other])
        a, b = _widened(_int_bound(a) + _int_bound(b), a, b)
        return Matrix._wrap(self.field, a - b, den)

    def __neg__(self) -> "Matrix":
        p = self.field.p
        if p == 2:
            return self      # -x = x over F_2, and a matrix is immutable
        if p is not None:
            return self._pointwise(np.negative)
        return Matrix._wrap(self.field, -self.array, self.den)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field or self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        f = self.field
        if self.rows == 0 or other.cols == 0 or self.cols == 0:
            return Matrix.zeros(f, self.rows, other.cols)
        if f.p is not None:
            dtype = _product_dtype(f.p, self.cols)
            return Matrix._wrap(f, (self.array.astype(dtype) @ other.array.astype(dtype)) % f.p)
        a, b = _widened(self.cols * _int_bound(self.array) * _int_bound(other.array),
                        self.array, other.array)
        return Matrix._wrap(f, a @ b, self.den * other.den)


def _index(indices) -> np.ndarray:
    return np.fromiter(indices, dtype=np.intp)


# ---------------------------------------------------------------------------
# row reduction

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


def _normalize_int_row(row):
    g = gcd(*row)
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


def rref(m: Matrix) -> "Subspace":
    """The row space of m in its unique RREF basis: the nonzero rows of m's
    reduced row-echelon form, led by its pivot columns."""
    f = m.field
    if m.rows == 0 or m.cols == 0:
        return Subspace.zero(f, m.cols)
    p = f.p
    if p == 2:
        return _rref_f2(m)
    if p is not None:
        r, a, pivots = _rref_modp(m.array.astype(_elimination_dtype(p)), p)
        return Subspace(Matrix._wrap(f, a[:r]), pivots)
    # row i of the echelon form is work[i] / lead_i, or work[i] * (den / lead_i) over den
    r, work, pivots = _rref_int(m.array.tolist(), m.cols)
    leads = [work[i][c] for i, c in enumerate(pivots)]
    den = lcm(*leads)
    out = np.zeros((r, m.cols), dtype=object)
    for i, lead in enumerate(leads):
        out[i] = [x * (den // lead) for x in work[i]]
    return Subspace(Matrix._wrap(f, out, den), pivots)


def _rref_f2(m: Matrix) -> "Subspace":
    """rref over F_2: the basis of `_echelon_f2` back-reduced once, highest
    pivot first, then unpacked into storage."""
    basis = _echelon_f2(m.array)
    bits = sorted(basis)
    pivmask = sum(bits)
    for b in reversed(bits):
        x = basis[b]
        above = (x & pivmask) ^ b
        while above:
            low = above & -above
            x ^= basis[low]
            above ^= low
        basis[b] = x
    width = -(-m.cols // 8)
    packed = np.frombuffer(b"".join(basis[b].to_bytes(width, "little") for b in bits),
                           dtype=np.uint8).reshape(len(bits), width)
    out = np.unpackbits(packed, axis=1, count=m.cols, bitorder="little")
    return Subspace(Matrix._wrap(m.field, out), tuple(b.bit_length() - 1 for b in bits))


def rank(m: Matrix) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    return _rank_array(m.field, m.array)


def _rank_array(field: Field, a: np.ndarray) -> int:
    """Rank in the field of an integer array, which is left unchanged; over
    F_2 every entry must be 0 or 1."""
    p = field.p
    if p == 2:
        # rank(a) = rank(a.T): fewer rows means fewer that reduce to zero
        return len(_echelon_f2(a.T if a.shape[0] > a.shape[1] else a))
    if p is not None:
        return len(_row_space_modp(a, p)[1])
    return _rank_rational(a)


def _bit_rows(a: np.ndarray):
    """The rows of a 0/1 array as Python ints, column j at bit j, packed in
    blocks of rows so that no temporary exceeds _BLOCK_CELLS bits."""
    step = max(1, _BLOCK_CELLS // a.shape[1])
    for start in range(0, a.shape[0], step):
        # packbits is slow on a strided view such as a transpose; copy one block
        block = np.ascontiguousarray(a[start:start + step])
        packed = np.packbits(block, axis=1, bitorder="little")
        width = packed.shape[1]
        data = packed.tobytes()
        for i in range(0, len(data), width):
            yield int.from_bytes(data[i:i + width], "little")


def _echelon_f2(a: np.ndarray, basis: dict[int, int] | None = None) -> dict[int, int]:
    """An echelon basis over F_2 of the rows of a 0/1 array, as
    {pivot bit: row} with rows as the bit integers of `_bit_rows`; a given
    `basis` is continued, in place, so that it spans its rows and a's.

    The pivot of a row is its lowest set bit, and no two rows share one.  A
    new row is XORed with the basis row at its lowest bit until that bit is
    a new pivot or the row is zero.  The basis is not back-reduced (a rank
    never needs it; `_rref_f2` does it once).  Stops early once the pivots
    fill every column.
    """
    full = (1 << a.shape[1]) - 1
    if basis is None:
        basis = {}
    pivmask = sum(basis)
    for x in _bit_rows(a):
        while x:
            low = x & -x
            if not pivmask & low:
                basis[low] = x
                pivmask |= low
                break
            x ^= basis[low]
        if pivmask == full:
            break
    return basis


def _rank_rational(a: np.ndarray) -> int:
    """Rank over Q of an integer array, certified by an exactly checked kernel.

    `a` is left unchanged.  See the module docstring for the certificate.
    """
    rows, cols = a.shape
    bound = _int_bound(a)
    if bound == 0:
        return 0
    if bound < _CERTIFICATE_ENTRY_BOUND:
        best = None     # (pivots, kernel residues, modulus) of the primes joined so far
        for p in _CERTIFICATE_PRIMES:
            reduced, pivots = _row_space_modp(a, p)
            if len(pivots) == cols:
                return cols
            residues = (-reduced[:, _free_columns(cols, pivots)]) % p
            if best is None or _better_profile(pivots, best[0]):
                best = (pivots, residues, p)
            elif pivots == best[0]:
                best = (pivots, _crt(best[1], best[2], residues, p), best[2] * p)
            else:
                continue    # pivots worse than those joined: this prime adds nothing
            certificate = _lifted_kernel(*best, cols)
            if certificate is not None and _annihilates(a, bound, certificate):
                return len(pivots)
    return _rref_int(a.tolist(), cols)[0]


def _free_columns(cols: int, pivots) -> np.ndarray:
    free = np.ones(cols, dtype=bool)
    free[list(pivots)] = False
    return np.flatnonzero(free)


def _better_profile(pivots, other) -> bool:
    """Whether the pivot columns mod one prime are closer to those over Q than
    `other`: the rank mod p of every leading block of columns is at most its
    rank over Q, so a larger rank, or the same rank at earlier pivots, wins."""
    return len(pivots) > len(other) or (len(pivots) == len(other) and pivots < other)


def _crt(u: np.ndarray, m: int, v: np.ndarray, p: int) -> np.ndarray:
    """The residues mod m*p that are u mod m and v mod p, as Python ints."""
    u = u.astype(object)
    return u + m * ((v.astype(object) - u) * pow(m, -1, p) % p)


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


def _lifted_kernel(pivots: tuple[int, ...], residues: np.ndarray, modulus: int,
                   cols: int) -> np.ndarray | None:
    """Integer kernel vectors lifted from a reduced echelon basis R mod
    `modulus`, as the columns of a Python-int array.

    `residues` holds -R[k, j] mod the modulus for the free columns j.  The
    vector of free column j has entry 1 at j and -R[k, j] at pivot k.  Its
    entries are lifted to fractions by rational reconstruction and
    multiplied by the lcm of their denominators, so column j of the result
    is nonzero at free column j and zero at the other free columns.
    Returns None when some entry has no reconstruction.
    """
    free = _free_columns(cols, pivots)
    lifted = _rational_reconstruction(residues, modulus)
    if lifted is None:
        return None
    num, den = (x.astype(object) for x in lifted)
    scales = np.array([lcm(*column) for column in den.T.tolist()], dtype=object)
    out = np.zeros((cols, free.size), dtype=object)
    out[list(pivots)] = num * (scales // den)
    out[free, np.arange(free.size)] = scales
    return out


def _rational_reconstruction(u: np.ndarray, modulus: int):
    """Fractions n/d = u mod the modulus with |n|, d <= sqrt((modulus-1)/2),
    entrywise, or None.

    The extended Euclidean algorithm on (modulus, u) runs for all entries at
    once and stops for each entry at the first remainder within the bound
    (Wang 1981); remainder r and cofactor t satisfy r = t u mod the modulus
    throughout, and every |t| stays below the modulus.  int64 for a modulus
    below 2^63, Python ints past it.  None when a cofactor ends past the
    bound.
    """
    bound = isqrt((modulus - 1) // 2)
    dtype = np.int64 if modulus < _INT64_BOUND else object
    r0 = np.full(u.shape, modulus, dtype=dtype)
    r1 = u.astype(dtype)
    t0 = np.zeros(u.shape, dtype=dtype)
    t1 = np.ones(u.shape, dtype=dtype)
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
    dtype = np.int64 if bound * _int_bound(k) * cols < _CERTIFICATE_ENTRY_BOUND else object
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
    hold ints for prime fields and ints or Fractions over Q; they are
    coerced into the field first.  Over Q the rank is the certified one of
    `_rank_rational`.
    """
    if len(rows) == 0 or cols == 0:
        return 0
    if not isinstance(rows, np.ndarray):
        return _rank_array(field, Matrix(field, rows, len(rows), cols).array)
    if field.p == 2:
        rows &= 1
    return _rank_array(field, rows)


def _free_column_rows(reduced: Matrix, pivots: tuple[int, ...]) -> Matrix:
    """One row per free column j of a reduced echelon basis: 1 at j and
    minus column j of the basis at the pivots, so the basis kills it.  Only
    the free columns are negated, and over F_2 nothing is (-x = x)."""
    f, den = reduced.field, reduced.den
    free = _free_columns(reduced.cols, pivots)
    read = reduced.array[:, free]
    if f.p is None:
        read = -read        # numerators in lowest terms: |x| < 2^63 still fits
    elif f.p != 2:
        read = (f.p - read) % f.p
    out = np.zeros((free.size, reduced.cols),
                   dtype=object if den >= _INT64_BOUND else reduced.array.dtype)
    out[np.arange(free.size), free] = den
    out[:, list(pivots)] = read.T
    return Matrix._wrap(f, out, den)


def _view(m: Matrix, view: np.ndarray) -> Matrix:
    """A matrix over `view`, a view of m's array that holds the same
    entries in another order: already canonical, so not reduced again."""
    out = object.__new__(Matrix)
    out._own(m.field, view, m.den)
    return out


def kernel(m: Matrix) -> "Subspace":
    """Right null space {x : m x = 0} as a subspace of the column space, in
    its RREF basis.

    One elimination, of m with its columns reversed (a view, not a copy).
    Its pivots are the lexicographically last basis of m's columns, and
    their complement is the pivot set of the kernel's RREF (see the module
    docstring).  The free-column rows of that elimination kill m.  In the
    reversed order the row of free column j is 1 at j and nonzero
    elsewhere only at pivots before j, so reversed back it leads at j's
    column of m and is zero at the other free columns.  Reversing rows and
    columns therefore gives the kernel's RREF, with no second elimination.
    """
    n = m.cols
    res = rref(_view(m, m.array[:, ::-1]))
    rows = _free_column_rows(res.basis, res.pivots)
    pivots = tuple(n - 1 - int(j) for j in _free_columns(n, res.pivots)[::-1])
    return Subspace(_view(rows, rows.array[::-1, ::-1]), pivots)


def column_space(m: Matrix) -> "Subspace":
    """The span of the columns of m, in its RREF basis."""
    return rref(m.transpose())


def solve_column(m: Matrix, b: Matrix) -> Matrix:
    """The canonical solutions x of m x = b (free variables zero), one column
    of x per column of b, all from one elimination of [m | b]."""
    f = m.field
    res = rref(Matrix.hstack(f, [m, b]))
    if res.pivots and res.pivots[-1] >= m.cols:
        raise InconsistentSystem("no solution")
    basis = res.basis
    x = np.zeros((m.cols, b.cols), dtype=basis.array.dtype)
    x[list(res.pivots)] = basis.array[:, m.cols:]
    return Matrix._wrap(f, x, basis.den)


def node_exact(incoming: Matrix, incoming_rank: int,
               outgoing: Matrix, outgoing_rank: int) -> bool:
    """Whether image(incoming) = kernel(outgoing) at the node between them,
    given the ranks of the two maps.

    The image lies in the kernel exactly when outgoing @ incoming = 0, and
    a subspace of the kernel is all of it exactly when its dimension is
    dim kernel = node dimension - rank(outgoing), by rank-nullity.
    """
    if incoming.rows != outgoing.cols:
        raise DimensionMismatch("the maps do not meet at one node")
    return ((outgoing @ incoming).is_zero()
            and incoming_rank + outgoing_rank == outgoing.cols)


# ---------------------------------------------------------------------------
# subspaces

class Subspace:
    """An R-linear subspace of a coordinate space, stored by its unique RREF
    basis and its pivot columns; the ambient dimension is the basis's
    column count."""

    __slots__ = ("basis", "pivots")

    def __init__(self, basis: Matrix, pivots: tuple[int, ...]):
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
        return rref(Matrix(field, vectors, len(vectors), ambient_dim))

    @staticmethod
    def zero(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(Matrix.zeros(field, 0, ambient_dim), ())

    @staticmethod
    def whole(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(Matrix.identity(field, ambient_dim), tuple(range(ambient_dim)))

    @property
    def field(self) -> Field:
        return self.basis.field

    @property
    def ambient_dim(self) -> int:
        return self.basis.cols

    @property
    def dim(self) -> int:
        return self.basis.rows

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self.basis == other.basis

    def __hash__(self) -> int:
        return hash(self.basis)

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.ambient_dim}, {self.field.name})"

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

    def __add__(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimension mismatch")
        return rref(Matrix.vstack(self.field, [self.basis, other.basis]))


class Echelon:
    """The span of the rows added so far in F^dim, grown batch by batch,
    with a membership test for the unit vectors; `rank` is its dimension.

    Over F_2 the span is the {pivot bit: row} basis of `_echelon_f2`, which
    each batch continues: e_i lies in it exactly when reducing 1 << i by
    the basis rows at its lowest set bits leaves 0.  Over the other fields
    each batch re-eliminates the span's RREF basis with the new rows, and
    e_i lies in the span exactly when i is a pivot whose RREF row has one
    nonzero entry.
    """

    __slots__ = ("field", "dim", "_bits", "_span", "_units")

    def __init__(self, field: Field, dim: int):
        self.field, self.dim = field, dim
        self._bits = {} if field.p == 2 else None
        self._span = Subspace.zero(field, dim)
        self._units = set()

    @property
    def rank(self) -> int:
        return self._span.dim if self._bits is None else len(self._bits)

    def add(self, rows: Matrix):
        """Grow the span by the rows of a matrix with `dim` columns."""
        if rows.cols != self.dim:
            raise DimensionMismatch("rows do not live in the ambient space")
        if self._bits is not None:
            if rows.array.size:
                _echelon_f2(rows.array, self._bits)
            return
        self._span = span = rref(Matrix.vstack(self.field, [self._span.basis, rows]))
        counts = np.count_nonzero(span.basis.array, axis=1).tolist()
        self._units = {c for c, n in zip(span.pivots, counts) if n == 1}

    def contains_unit(self, i: int) -> bool:
        """Whether the unit vector e_i lies in the span."""
        if self.rank == self.dim:
            return True
        if self._bits is None:
            return i in self._units
        x = 1 << i
        while x:
            row = self._bits.get(x & -x)
            if row is None:
                return False
            x ^= row
        return True


class QuotientMap:
    """Canonical coordinates on sup / B, for B the span of the rows of
    `spanning`, which must lie in sup.

    A vector of sup has coordinates x[pivots] in sup's RREF basis, at sup's
    pivot columns.  `classes` maps those coordinates onto sup / B with
    kernel exactly the coordinates of B, and `reps` holds one vector of sup
    per class coordinate, on which `coords` reads the identity.
    """

    __slots__ = ("pivots", "classes", "reps")

    def __init__(self, sup: Subspace, spanning: Matrix):
        if sup.first_outside(spanning) is not None:
            raise CertificateError("the spanning rows are not contained in sup")
        res = rref(spanning.take_columns(sup.pivots))
        classes = _free_column_rows(res.basis, res.pivots)
        lifted = _free_columns(sup.dim, res.pivots)
        # the lifts read at the pivots are the unit rows at `lifted`, since sup is in RREF
        if classes.take_columns(lifted) != Matrix.identity(sup.field, classes.rows):
            raise CertificateError("class coordinates do not read the identity on their lifts")
        object.__setattr__(self, "pivots", sup.pivots)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "reps", sup.basis.take_rows(lifted))

    def __setattr__(self, name, value):
        raise AttributeError("QuotientMap is immutable")

    @property
    def dim(self) -> int:
        return self.classes.rows

    def coords(self, vectors: Matrix) -> Matrix:
        """Class coordinates of the columns of `vectors`, which lie in sup."""
        return self.classes @ vectors.take_rows(self.pivots)
