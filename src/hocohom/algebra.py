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
        zero, one = field.zero(), field.one()
        left = []
        right = []
        for g in range(n):
            lm = [[zero] * n for _ in range(n)]
            rm = [[zero] * n for _ in range(n)]
            for h in range(n):
                lm[group.mult[g][h]][h] = one
                rm[group.mult[h][g]][h] = one
            left.append(Matrix._canonical(field, tuple(map(tuple, lm)), n, n))
            right.append(Matrix._canonical(field, tuple(map(tuple, rm)), n, n))
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "left_mult", tuple(left))
        object.__setattr__(self, "right_mult", tuple(right))
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("GroupAlgebra is immutable")

    def element_vector(self, g: int) -> tuple:
        zero, one = self.field.zero(), self.field.one()
        return tuple(one if i == g else zero for i in range(self.dim))

    def multiply(self, a, b) -> tuple:
        """Product of two algebra elements given as coefficient vectors."""
        f = self.field
        out = [f.zero()] * self.dim
        for g, coeff in enumerate(a):
            if coeff:
                gb = self.left_mult[g].apply(b)
                for i, x in enumerate(gb):
                    if x:
                        out[i] = f.add(out[i], f.mul(coeff, x))
        return tuple(out)

    def augmentation(self, a) -> object:
        """The augmentation functional sum c_g g -> sum c_g."""
        f = self.field
        acc = f.zero()
        for x in a:
            acc = f.add(acc, x)
        return acc

    def __repr__(self) -> str:
        return f"GroupAlgebra({self.field.name}[G], |G|={self.dim})"


def augmentation_ideal(algebra: GroupAlgebra) -> Subspace:
    """span{g - e}: the kernel of the augmentation functional, dim |G| - 1."""
    f = algebra.field
    n = algebra.dim
    e = algebra.element_vector(0)
    vectors = []
    for g in range(1, n):
        v = list(algebra.element_vector(g))
        v[0] = f.sub(v[0], f.one())
        vectors.append(v)
    sub = Subspace.from_vectors(f, n, vectors)
    assert sub.dim == n - 1 or n == 1
    return sub


def sigma_ideal(algebra: GroupAlgebra, sigma: NormalSubgroup) -> Subspace:
    """The two-sided ideal A*I_S spanned by {g(s - e)}, s over S-generators.

    With g ranging over the whole group and s over a generating set of S the
    span is already all of A*I_S and closed on both sides (g(s1 s2 - e) =
    g s1 (s2 - e) + g(s1 - e)).  Closure under left and right multiplication
    by every group element is verified before returning.
    """
    f = algebra.field
    n = algebra.dim
    group = algebra.group
    gens = [s for s in (sigma.gen_indices or sigma.members) if s != 0]
    vectors = []
    for g in range(n):
        for s in gens:
            v = [f.zero()] * n
            v[group.mult[g][s]] = f.add(v[group.mult[g][s]], f.one())
            v[g] = f.sub(v[g], f.one())
            vectors.append(v)
    sub = Subspace.from_vectors(f, n, vectors)
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
        next_power = Subspace.from_vectors(f, algebra.dim, [
            row for g in range(1, algebra.dim)
            for row in (prev @ algebra.right_mult[g].transpose() - prev).entries])
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
    serves as the recheck oracle for the special-case identities.
    """
    if q < 1:
        raise AlgebraError("q must be >= 1")
    aug = augmentation_ideal(algebra)
    current = aug
    for _ in range(q - 1):
        vectors = [algebra.multiply(a, b)
                   for a in current.basis.entries for b in aug.basis.entries]
        current = Subspace.from_vectors(algebra.field, algebra.dim, vectors)
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
        vectors = []
        for row in current.basis.entries:
            for g in range(1, n):
                shifted = algebra.left_mult[g].apply(row)
                vectors.append(tuple(f.sub(a, b) for a, b in zip(shifted, row)))
        current = Subspace.from_vectors(f, n, vectors)
    sig_vectors = []
    for s in sigma.members:
        if s == 0:
            continue
        for g in range(n):
            v = [f.zero()] * n
            v[group.mult[s][g]] = f.add(v[group.mult[s][g]], f.one())
            v[g] = f.sub(v[g], f.one())
            sig_vectors.append(v)
    return current + Subspace.from_vectors(f, n, sig_vectors)
