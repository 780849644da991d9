"""The group algebra A = R[G], its augmentation ideal, and the J_q filtration.

Coordinates on A are the canonical group element order, so an algebra
element sum_g c_g g is the vector (c_g).  The augmentation ideal I is
spanned by {g - e}; for a normal subgroup S the two-sided ideal A*I_S is
spanned by {g(s - e)}; and J_q = I^q + A*I_S is the descending ideal chain
whose successive quotient dimensions N(q) = dim J_q/J_{q+1} drive the whole
higher-order cohomology hierarchy.

The chain strictly descends until it stabilizes; we always compute through
the stabilization point and expose J_q for arbitrary q >= 1 by clamping,
since the chain is constant beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .groups import FiniteGroup, NormalSubgroup
from .linalg import Field, Matrix, Subspace


class AlgebraError(ValueError):
    pass


class GroupAlgebra:
    """R[G] with per-element left and right multiplication matrices.

    left_mult[g] sends the basis vector of h to that of g*h (and right_mult[g]
    to h*g); both are permutation matrices, and left multiplications commute
    with right multiplications.  Carries a private cache used by the
    resolution engine (insert-or-get; concurrent last-writer-wins is safe
    because all cached values are deterministic).
    """

    __slots__ = ("group", "field", "dim", "left_mult", "right_mult", "_cache")

    def __init__(self, group: FiniteGroup, field: Field):
        n = group.order
        # column h of left_mult[g] is the unit vector of g*h, of right_mult[g] that of h*g
        mult = np.array(group.mult, dtype=np.intp)
        ident = Matrix.identity(field, n)
        left = tuple(ident.take_columns(row) for row in mult)
        right = tuple(ident.take_columns(col) for col in mult.T)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "left_mult", left)
        object.__setattr__(self, "right_mult", right)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("GroupAlgebra is immutable")

    def multiply(self, a, b) -> tuple:
        """Product of two algebra elements given as coefficient vectors.

        a b = sum_g a_g (g b): the row a times the matrix whose row g is g b.
        """
        f, n = self.field, self.dim
        return (Matrix(f, [a], 1, n) @ self.translates(Matrix(f, [b], 1, n))).entries[0]

    def translates(self, b: Matrix) -> Matrix:
        """The matrix whose row g is g b, for an algebra element b given as a
        1 x |G| matrix; a @ translates(b) is the product a b for every row a."""
        n = self.dim
        shifted = np.empty((n, n), dtype=b.array.dtype)
        shifted[np.arange(n)[:, None], self.group.mult] = b.array   # (g b)[g h] = b[h]
        return Matrix._wrap(self.field, shifted, b.den)

    def augmentation(self, a) -> object:
        """The augmentation functional sum c_g g -> sum c_g."""
        return self.field.coerce(sum(a))

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
    assert sub.dim == n - 1 or n == 1
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
    mult = np.array(algebra.group.mult, dtype=np.intp)
    sub = Subspace.from_vectors(algebra.field, n, _differences(
        n, mult[:, gens].ravel(), np.repeat(np.arange(n), len(gens))))
    expected = n - n // sigma.order
    if sub.dim != expected:
        raise AlgebraError(f"A*I_S has dimension {sub.dim}, expected {expected}")
    _certify_two_sided(algebra, sub)
    return sub


def _certify_two_sided(algebra: GroupAlgebra, sub: Subspace):
    """Raise AlgebraError unless sub is stable under left and right
    multiplication by every group generator (hence by all of A)."""
    for g in algebra.group.gen_indices:
        for side, mult in (("left", algebra.left_mult), ("right", algebra.right_mult)):
            if sub.first_outside(sub.basis @ mult[g].transpose()) is not None:
                raise AlgebraError(f"not {side}-stable under element {g}")


@dataclass(frozen=True)
class IdealFiltration:
    """The chain J_1 >= J_2 >= ... with J_q = I^q + A*I_S.

    j_list holds J_1 through J_{stabilization_q + 1} (or further if a larger
    q_max was requested); beyond the stored range the chain is constant, so
    j(q) clamps.  i_power(q) gives the plain power I^q on the same terms.
    """

    algebra: GroupAlgebra
    sigma: NormalSubgroup
    augmentation: Subspace
    sigma_full: Subspace
    j_list: tuple[Subspace, ...]
    i_powers: tuple[Subspace, ...]
    stabilization_q: int

    def j(self, q: int) -> Subspace:
        if q < 1:
            raise AlgebraError(f"q must be >= 1, got {q}")
        return self.j_list[min(q, len(self.j_list)) - 1]

    def i_power(self, q: int) -> Subspace:
        if q < 1:
            raise AlgebraError(f"q must be >= 1, got {q}")
        return self.i_powers[min(q, len(self.i_powers)) - 1]

    def n(self, q: int) -> int:
        return self.j(q).dim - self.j(q + 1).dim


def j_filtration(algebra: GroupAlgebra, sigma: NormalSubgroup,
                 q_max: int | None = None) -> IdealFiltration:
    """Compute the filtration J_q = I^q + A*I_S through stabilization.

    I^{q+1} is spanned by {x (g - e) : x in basis(I^q), g in G}; since I is
    two-sided this equals the ideal product.  Each J_q is certified
    two-sided.  Stops at the first q with J_q = J_{q+1} (always at most
    dim I + 1 steps, since the chain strictly descends until then), or at
    q_max + 1 if that is later; raises AlgebraError if the chain has not
    stabilized after dim I + 1 steps.
    """
    if q_max is not None and q_max < 1:
        raise AlgebraError("q_max must be >= 1")
    f = algebra.field
    aug = augmentation_ideal(algebra)
    sig = sigma_ideal(algebra, sigma) if not sigma.is_trivial else Subspace.zero(f, algebra.dim)
    if not aug.contains_subspace(sig):
        raise AlgebraError("A*I_S is not contained in the augmentation ideal")

    i_powers = [aug]
    j_list = [aug + sig]
    stabilization = None
    target = q_max if q_max is not None else 1
    q = 1
    while stabilization is None or q < max(target, stabilization + 1):
        prev = i_powers[-1].basis
        next_power = Subspace._spanned_by(Matrix.vstack(f, [
            prev @ algebra.right_mult[g].transpose() - prev
            for g in range(1, algebra.dim)], cols=algebra.dim))
        i_powers.append(next_power)
        next_j = next_power + sig
        j_list.append(next_j)
        if stabilization is None:
            if next_j == j_list[q - 1]:
                stabilization = q
            elif q > aug.dim:
                raise AlgebraError(
                    f"J_q did not stabilize within dim I + 1 = {aug.dim + 1} steps")
        q += 1
    for sub in j_list:
        _certify_two_sided(algebra, sub)
    return IdealFiltration(algebra, sigma, aug, sig, tuple(j_list),
                           tuple(i_powers), stabilization)


def n_dimension(filtration: IdealFiltration, q: int) -> int:
    """N(q) = dim J_q/J_{q+1} = dim J_q - dim J_{q+1}."""
    return filtration.n(q)


def i_power_by_products(algebra: GroupAlgebra, q: int) -> Subspace:
    """I^q by full pairwise products of basis elements.

    Independent of the generator-shift iteration used by j_filtration;
    serves as the recheck oracle for the special-case identities.  The
    products a b with every basis element a of I^{q-1} are one product
    per basis element b of I.
    """
    if q < 1:
        raise AlgebraError("q must be >= 1")
    aug = augmentation_ideal(algebra)
    current = aug
    for _ in range(q - 1):
        current = Subspace._spanned_by(Matrix.vstack(algebra.field, [
            current.basis @ algebra.translates(aug.basis.take_rows([k]))
            for k in range(aug.dim)], cols=algebra.dim))
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
    group = algebra.group
    n = algebra.dim
    current = augmentation_ideal(algebra)
    for _ in range(q - 1):
        basis = current.basis
        current = Subspace._spanned_by(Matrix.vstack(f, [
            basis @ algebra.left_mult[g].transpose() - basis for g in range(1, n)], cols=n))
    members = [s for s in sigma.members if s != 0]
    mult = np.array(group.mult, dtype=np.intp)
    return current + Subspace.from_vectors(f, n, _differences(
        n, mult[members].ravel(), np.tile(np.arange(n), len(members))))
