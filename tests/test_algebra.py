"""Group algebra structure: augmentation ideal, A*I_S, and the J_q chain."""

from fractions import Fraction

import pytest

from hocohom.algebra import (
    GroupAlgebra, augmentation_ideal, sigma_ideal, j_filtration,
    i_power_by_products, AlgebraError,
)
from hocohom.groups import (
    Permutation, close_generators, subgroup_closure,
)
from hocohom.linalg import Field, Matrix, Subspace, rank_of_int_rows

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)


def trivial_subgroup(group):
    return subgroup_closure(group, [])


def full_subgroup(group):
    return subgroup_closure(group, range(group.order))


def c2():
    return close_generators([Permutation([1, 0])])

def cyclic(n):
    return close_generators([Permutation([(i + 1) % n for i in range(n)])])

def s3():
    return close_generators([Permutation([1, 2, 0]), Permutation([1, 0, 2])])


def _multiply(group, a, b):
    """The product of two algebra elements as coefficient lists, term by term
    over the multiplication table: (sum a_g g)(sum b_h h) = sum a_g b_h gh."""
    out = [0] * group.order
    for g, x in enumerate(a):
        for h, y in enumerate(b):
            out[group.mult[g][h]] += x * y
    return out


def _dense_mult(group, field, side):
    """The |G| permutation matrices of left (or right) multiplication: column h
    of the matrix of g is the unit vector of g h (or h g)."""
    n = group.order
    mats = []
    for g in range(n):
        grid = [[0] * n for _ in range(n)]
        for h in range(n):
            grid[group.mult[g][h] if side == "left" else group.mult[h][g]][h] = 1
        mats.append(Matrix(field, grid))
    return mats


def test_left_right_mult_properties():
    # left and right act as the dense permutation matrices of the group law
    for group, field in ((s3(), F2), (s3(), Q), (cyclic(4), F3)):
        alg = GroupAlgebra(group, field)
        n = alg.dim
        left, right = _dense_mult(group, field, "left"), _dense_mult(group, field, "right")
        basis = Matrix(field, [[(3 * i + j * j) % 5 - 2 for j in range(n)] for i in range(4)])
        assert alg.left(0, basis) == basis and alg.right(0, basis) == basis
        for a in range(n):
            assert alg.left(a, basis) == basis @ left[a].transpose()
            assert alg.right(a, basis) == basis @ right[a].transpose()
            for b in range(n):
                ab = group.mult[a][b]
                # the group law: a (b x) = (ab) x and (x a) b = x (ab)
                assert alg.left(a, alg.left(b, basis)) == alg.left(ab, basis)
                assert alg.right(b, alg.right(a, basis)) == alg.right(ab, basis)
                # left and right multiplications commute
                assert alg.left(a, alg.right(b, basis)) == alg.right(b, alg.left(a, basis))


def test_multiply_vectors_matches_group_law():
    alg = GroupAlgebra(s3(), Q)
    g = alg.group

    def unit(h):
        return Matrix(Q, [[1 if i == h else 0 for i in range(6)]])

    for a in range(6):
        for b in range(6):
            assert unit(a) @ alg.translates(unit(b)) == unit(g.mult[a][b])


def test_translates_are_left_products():
    for field in (F3, Q):
        alg = GroupAlgebra(s3(), field)
        b = Matrix(field, [[Fraction(k - 2, 3) if field == Q else k for k in range(6)]])
        shifted = alg.translates(b)
        for g in range(6):
            unit = [1 if h == g else 0 for h in range(6)]
            row = shifted.take_rows([g])
            assert row == alg.left(g, b)
            assert row == Matrix(field, [_multiply(alg.group, unit, b.entries[0])])


def _i_power_pairwise(algebra, q):
    """I^q from one term-by-term product per pair of basis elements."""
    aug = augmentation_ideal(algebra)
    current = aug
    for _ in range(q - 1):
        current = Subspace.from_vectors(algebra.field, algebra.dim, [
            _multiply(algebra.group, a, b)
            for a in current.basis.entries for b in aug.basis.entries])
    return current


@pytest.mark.parametrize("group, field", [
    (close_generators([]), F2), (c2(), F2), (cyclic(4), F2), (s3(), F2), (s3(), F3), (s3(), Q)])
def test_i_power_by_products_matches_pairwise_products(group, field):
    alg = GroupAlgebra(group, field)
    for q in (1, 2, 3):
        assert i_power_by_products(alg, q) == _i_power_pairwise(alg, q)


def test_augmentation_ideal_trivial_group():
    alg = GroupAlgebra(close_generators([]), Q)
    assert augmentation_ideal(alg).dim == 0


def test_augmentation_ideal_c2_f2():
    alg = GroupAlgebra(c2(), F2)
    ideal = augmentation_ideal(alg)
    assert ideal.dim == 1
    assert ideal.basis.entries == ((1, 1),)  # e + g in char 2


def test_augmentation_ideal_s3_q():
    alg = GroupAlgebra(s3(), Q)
    assert augmentation_ideal(alg).dim == 5


def test_augmentation_ideal_is_kernel_of_augmentation():
    alg = GroupAlgebra(s3(), F3)
    ideal = augmentation_ideal(alg)
    for row in ideal.basis.entries:
        assert sum(row) % 3 == 0


def test_sigma_ideal_trivial_is_zero():
    g = s3()
    alg = GroupAlgebra(g, F2)
    assert sigma_ideal(alg, trivial_subgroup(g)).dim == 0


def test_sigma_ideal_full_equals_augmentation():
    g = s3()
    alg = GroupAlgebra(g, F2)
    assert sigma_ideal(alg, full_subgroup(g)) == augmentation_ideal(alg)


def test_sigma_ideal_s3_a3_f2():
    g = s3()
    alg = GroupAlgebra(g, F2)
    a3 = subgroup_closure(g, [g.gen_indices[0]])
    ideal = sigma_ideal(alg, a3)
    assert ideal.dim == 4  # |G| - |G/S| = 6 - 2
    # independent check: kernel of the linear projection A -> R[G/S]
    cosets = {}
    for x in range(6):
        key = frozenset(g.mult[x][s] for s in a3.members)
        cosets.setdefault(key, len(cosets))
    proj = [[0] * 6 for _ in range(len(cosets))]
    for x in range(6):
        key = frozenset(g.mult[x][s] for s in a3.members)
        proj[cosets[key]][x] = 1
    from hocohom.linalg import kernel
    assert kernel(Matrix(F2, proj)) == ideal


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cyclic_filtration_dims(p):
    field = Field.prime(p)
    g = cyclic(p)
    alg = GroupAlgebra(g, field)
    filt = j_filtration(alg, trivial_subgroup(g))
    # A = F_p[x]/(x^p) with x = g - e; I^q = (x^q) has dimension p - q
    for q in range(1, p + 1):
        assert filt.j(q).dim == max(p - q, 0)
    assert filt.j(p + 2).dim == 0
    for q in range(1, p):
        assert filt.n(q) == 1
    assert filt.n(p) == 0
    assert filt.stabilization_q == p


def test_filtration_sigma_trivial_j_equals_ipow():
    g = s3()
    alg = GroupAlgebra(g, F2)
    filt = j_filtration(alg, trivial_subgroup(g))
    for q in range(1, 5):
        assert filt.j(q) == i_power_by_products(alg, q)


def test_filtration_sigma_full_constant():
    g = s3()
    alg = GroupAlgebra(g, F2)
    filt = j_filtration(alg, full_subgroup(g))
    aug = augmentation_ideal(alg)
    for q in range(1, 5):
        assert filt.j(q) == aug
        assert filt.n(q) == 0
    assert filt.stabilization_q == 1


def test_filtration_s3_a3_f2():
    g = s3()
    alg = GroupAlgebra(g, F2)
    a3 = subgroup_closure(g, [g.gen_indices[0]])
    filt = j_filtration(alg, a3)
    assert filt.j(1).dim == 5
    assert filt.j(2).dim == 4
    assert filt.stabilization_q == 2
    assert filt.n(1) == 1
    assert filt.n(2) == 0


def test_c2_f2_n_values():
    g = c2()
    alg = GroupAlgebra(g, F2)
    filt = j_filtration(alg, trivial_subgroup(g))
    assert filt.n(1) == 1
    assert filt.n(2) == 0
    assert filt.n(5) == 0


@pytest.mark.parametrize("field", [Q, F2, F3])
def test_chain_condition_and_two_sidedness(field):
    g = s3()
    alg = GroupAlgebra(g, field)
    a3 = subgroup_closure(g, [g.gen_indices[0]])
    filt = j_filtration(alg, a3)
    dims = [filt.j(q).dim for q in range(1, 5)]
    assert all(a >= b for a, b in zip(dims, dims[1:]))
    assert filt.stabilization_q <= alg.dim
    left, right = _dense_mult(g, field, "left"), _dense_mult(g, field, "right")
    for q in range(1, 4):
        jq = filt.j(q)
        assert filt.j(q + 1).contains_subspace(filt.j(q)) or jq.contains_subspace(filt.j(q + 1))
        for gamma in range(alg.dim):
            assert jq.first_outside(jq.basis @ left[gamma].transpose()) is None
            assert jq.first_outside(jq.basis @ right[gamma].transpose()) is None


@pytest.mark.parametrize("field", [F2, F3, Q])
def test_ideal_product_inclusion(field):
    # I * J_q and J_q * I land in J_{q+1}: the reason the action on J_q/J_{q+1} is trivial
    g = s3()
    alg = GroupAlgebra(g, field)
    a3 = subgroup_closure(g, [g.gen_indices[0]])
    filt = j_filtration(alg, a3)
    for q in (1, 2):
        jq, jq1 = filt.j(q), filt.j(q + 1)
        products = [_multiply(g, x, y) for a_row in filt.augmentation.basis.entries
                    for b_row in jq.basis.entries for x, y in ((a_row, b_row), (b_row, a_row))]
        assert jq1.first_outside(Matrix(field, products, len(products), alg.dim)) is None


def _hom_to_additive_group_dim(group, p):
    """dim of Hom(G, F_p^+) by direct linear solve over the multiplication table."""
    field = Field.prime(p)
    rows = []
    n = group.order
    for a in range(n):
        for b in range(n):
            row = [0] * n
            row[a] += 1
            row[b] += 1
            row[group.mult[a][b]] -= 1
            rows.append(row)
    # h is a hom iff h(a) + h(b) - h(ab) = 0 for all pairs
    return n - rank_of_int_rows(field, rows, n)


@pytest.mark.parametrize("make,p", [(c2, 2), (lambda: cyclic(3), 3), (s3, 2), (s3, 3)])
def test_abelianization_law(make, p):
    g = make()
    field = Field.prime(p)
    alg = GroupAlgebra(g, field)
    filt = j_filtration(alg, trivial_subgroup(g))
    assert filt.n(1) == _hom_to_additive_group_dim(g, p)


@pytest.mark.parametrize("make", [c2, lambda: cyclic(3), s3])
def test_rational_semisimplicity(make):
    g = make()
    alg = GroupAlgebra(g, Q)
    filt = j_filtration(alg, trivial_subgroup(g))
    aug = augmentation_ideal(alg)
    for q in range(1, 5):
        assert filt.j(q) == aug
        assert filt.n(q) == 0
    assert filt.stabilization_q == 1


def test_q_validation():
    g = c2()
    alg = GroupAlgebra(g, F2)
    filt = j_filtration(alg, trivial_subgroup(g))
    with pytest.raises(AlgebraError):
        filt.j(0)
    with pytest.raises(AlgebraError):
        filt.n(0)


@pytest.mark.parametrize("field", [F2, F3, Q])
def test_left_route_oracle_agrees(field):
    from hocohom.algebra import j_by_left_route
    g = s3()
    alg = GroupAlgebra(g, field)
    for sigma in (trivial_subgroup(g),
                  subgroup_closure(g, [g.gen_indices[0]]),
                  full_subgroup(g)):
        filt = j_filtration(alg, sigma)
        for q in range(1, 4):
            assert j_by_left_route(alg, sigma, q) == filt.j(q)
