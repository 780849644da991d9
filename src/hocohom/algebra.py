"""The group algebra A = R[G], its augmentation ideal, and the J_q filtration.

Coordinates on A are the canonical group element order, so an algebra
element sum_g c_g g is the vector (c_g), and multiplying it by a group
element on either side permutes its coordinates by a row or a column of the
multiplication table.  The augmentation ideal I is
spanned by {g - e}; for a normal subgroup S the two-sided ideal A*I_S is
spanned by {g(s - e)}; and J_q = I^q + A*I_S is the descending ideal chain
whose successive quotient dimensions N(q) = dim J_q/J_{q+1} drive the whole
higher-order cohomology hierarchy.

The chain strictly descends until it stabilizes; we always compute through
the stabilization point and expose J_q for arbitrary q >= 1 by clamping,
since the chain is constant beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup, NormalSubgroup
from .linalg import CertificateError, Field, Matrix, Subspace, rref


class AlgebraError(ValueError):
    pass


class IdealCertificateError(CertificateError):
    """An ideal built here failed its certificate: the dimension of I or of
    A*I_S, two-sidedness, the containment of A*I_S in I, or the chain J_q
    stabilizing within dim I + 1 steps."""


class GroupAlgebra:
    """R[G] acting on coefficient vectors by index maps read off `group.mult`.

    `left(g, rows)` and `right(g, rows)` multiply each row, an algebra
    element, by g on the left or on the right; each is one column selection
    of the rows, and no per-element matrix is built.  Carries a private
    cache used by the resolution engine: the filtration, the powers of I,
    the free modules per rank, and per filtration level the quotient
    modules and the resolutions, each stored once per key (a resolution is
    replaced by a longer one when extended; concurrent last-writer-wins is
    safe because all cached values are deterministic).
    """

    __slots__ = ("group", "field", "dim", "_cache")

    def __init__(self, group: FiniteGroup, field: Field):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", group.order)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("GroupAlgebra is immutable")

    def left(self, g: int, rows: Matrix) -> Matrix:
        """The rows multiplied by g on the left: (g x)[k] = x[g^-1 k]."""
        return rows.take_columns(self.group.mult[self.group.inv[g]])

    def right(self, g: int, rows: Matrix) -> Matrix:
        """The rows multiplied by g on the right: (x g)[k] = x[k g^-1]."""
        return rows.take_columns(self.group.mult[:, self.group.inv[g]])

    def translates(self, b: Matrix) -> Matrix:
        """The matrix whose row g is g b, for an algebra element b given as a
        1 x |G| matrix; a @ translates(b) is the product a b for every row a."""
        n = self.dim
        shifted = np.empty((n, n), dtype=b.array.dtype)
        shifted[np.arange(n)[:, None], self.group.mult] = b.array   # (g b)[g h] = b[h]
        return Matrix._wrap(self.field, shifted, b.den)

    def cached(self, key, build):
        """The cached value under key, made by build() on a miss."""
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build()
        return value

    def __repr__(self) -> str:
        return f"GroupAlgebra({self.field.name}[G], |G|={self.dim})"


def _differences(n: int, plus, minus) -> list[list[int]]:
    """The integer rows e_plus[k] - e_minus[k] of length n, for the field's
    constructor to coerce."""
    rows = np.zeros((len(plus), n), dtype=np.int64)
    k = np.arange(len(plus))
    rows[k, plus] = 1
    rows[k, minus] = -1
    return rows.tolist()


def augmentation_ideal(algebra: GroupAlgebra) -> Subspace:
    """span{g - e}: the kernel of the augmentation functional, dim |G| - 1."""
    n = algebra.dim
    sub = Subspace.from_vectors(algebra.field, n,
                                _differences(n, list(range(1, n)), [0] * (n - 1)))
    if sub.dim != n - 1:
        raise IdealCertificateError(f"I has dimension {sub.dim}, expected {n - 1}")
    return sub


def sigma_ideal(algebra: GroupAlgebra, sigma: NormalSubgroup) -> Subspace:
    """The two-sided ideal A*I_S spanned by {g(s - e)}, s over S-generators.

    With g ranging over the whole group and s over a generating set of S the
    span is already all of A*I_S and closed on both sides (g(s1 s2 - e) =
    g s1 (s2 - e) + g(s1 - e)).  Closure under left and right multiplication
    by every group element is verified before returning.
    """
    n = algebra.dim
    gens = [s for s in (sigma.gen_indices or sigma.members) if s != 0]
    sub = Subspace.from_vectors(algebra.field, n, _differences(
        n, algebra.group.mult[:, gens].ravel(), np.repeat(np.arange(n), len(gens))))
    expected = n - n // sigma.order
    if sub.dim != expected:
        raise IdealCertificateError(f"A*I_S has dimension {sub.dim}, expected {expected}")
    _certify_two_sided(algebra, sub)
    return sub


def _certify_two_sided(algebra: GroupAlgebra, sub: Subspace):
    """Raise IdealCertificateError unless sub is stable under left and right
    multiplication by every group generator (hence by all of A)."""
    for g in algebra.group.gen_indices:
        for side, times in (("left", algebra.left), ("right", algebra.right)):
            if sub.first_outside(times(g, sub.basis)) is not None:
                raise IdealCertificateError(f"not {side}-stable under element {g}")


@dataclass(frozen=True)
class IdealFiltration:
    """The chain J_1 >= J_2 >= ... with J_q = I^q + A*I_S.

    j_list holds J_1 through J_{s + 1} and stops at the first s with
    J_s = J_{s+1}, the stabilization level s = stabilization_q, read off
    as len(j_list) - 1; beyond it the chain is constant.  level(q) =
    min(q, s) is the least q' with J_q' = J_q: below s the chain strictly
    descends, so no two levels share an ideal.  Every value that depends
    on q only through J_q is computed once per level.
    """

    sigma: NormalSubgroup
    augmentation: Subspace
    sigma_full: Subspace
    j_list: tuple[Subspace, ...]

    @property
    def stabilization_q(self) -> int:
        return len(self.j_list) - 1

    def level(self, q: int) -> int:
        if q < 1:
            raise AlgebraError(f"q must be >= 1, got {q}")
        return min(q, self.stabilization_q)

    def j(self, q: int) -> Subspace:
        return self.j_list[self.level(q) - 1]

    def n(self, q: int) -> int:
        return self.j(q).dim - self.j(q + 1).dim


def j_filtration(algebra: GroupAlgebra, sigma: NormalSubgroup) -> IdealFiltration:
    """Compute the filtration J_q = I^q + A*I_S through stabilization.

    I^{q+1} = I^q I is spanned by {x (g - e) : x in basis(I^q), g a group
    generator}:

        Lemma.  x (gh - e) = (xg)(h - e) + x (g - e), and I^q is a right
        ideal, so xg lies in I^q.  By induction on the length of h as a
        word in the generators, x (h - e) lies in the span of the
        y (g - e) with y in I^q and g a generator, for every h in G.

    Each J_q is certified two-sided.  Stops at the first q with
    J_q = J_{q+1} (always at most dim I + 1 steps, since the chain strictly
    descends until then); raises IdealCertificateError if the chain has not
    stabilized after dim I + 1 steps.
    """
    f = algebra.field
    aug = augmentation_ideal(algebra)
    sig = sigma_ideal(algebra, sigma) if not sigma.is_trivial else Subspace.zero(f, algebra.dim)
    if not aug.contains_subspace(sig):
        raise IdealCertificateError("A*I_S is not contained in the augmentation ideal")

    gens = sorted(set(algebra.group.gen_indices) - {0})
    power = aug     # I^q for the last J_q in j_list
    j_list = [aug + sig]
    while len(j_list) < 2 or j_list[-1] != j_list[-2]:
        if len(j_list) > aug.dim + 1:
            raise IdealCertificateError(
                f"J_q did not stabilize within dim I + 1 = {aug.dim + 1} steps")
        prev = power.basis
        power = rref(Matrix.vstack(f, [
            algebra.right(g, prev) - prev for g in gens], cols=algebra.dim))
        j_list.append(power + sig)
    for sub in j_list:
        _certify_two_sided(algebra, sub)
    return IdealFiltration(sigma, aug, sig, tuple(j_list))


def i_power_by_products(algebra: GroupAlgebra, q: int) -> Subspace:
    """I^q by full pairwise products of basis elements.

    Independent of the generator-shift iteration used by j_filtration;
    serves as the recheck oracle for the special-case identities.  The
    products a b with every basis element a of I^{q-1} are one product
    per basis element b of I.  Each power is kept in the algebra's cache,
    so I^q continues from the cached I^{q-1}.
    """
    if q < 1:
        raise AlgebraError("q must be >= 1")
    aug = current = algebra.cached(("i_power", 1), lambda: augmentation_ideal(algebra))
    for k in range(2, q + 1):
        current = algebra.cached(("i_power", k), lambda: rref(Matrix.vstack(
            algebra.field, [current.basis @ algebra.translates(aug.basis.take_rows([b]))
                            for b in range(aug.dim)], cols=algebra.dim)))
    return current


def j_by_left_route(algebra: GroupAlgebra, sigma: NormalSubgroup, q: int) -> Subspace:
    """J_q recomputed from the other side: alternate oracle for any sigma.

    I^q grows by left multiplication with {g - e}, and the sigma ideal is
    spanned as {(s - e) g} over all members; both equal their right-handed
    counterparts because the ideals are two-sided (normality of sigma).
    """
    if q < 1:
        raise AlgebraError("q must be >= 1")
    f = algebra.field
    n = algebra.dim
    current = augmentation_ideal(algebra)
    for _ in range(q - 1):
        basis = current.basis
        current = rref(Matrix.vstack(f, [
            algebra.left(g, basis) - basis for g in range(1, n)], cols=n))
    members = [s for s in sigma.members if s != 0]
    return current + Subspace.from_vectors(f, n, _differences(
        n, algebra.group.mult[members].ravel(), np.tile(np.arange(n), len(members))))
