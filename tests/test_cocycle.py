"""The ideal-cocycle model of degree-one cohomology."""

from hocohom.algebra import GroupAlgebra, j_filtration
from hocohom.cocycle import hom_a_space, alpha_map, h_q1_cocycle
from hocohom.groups import (
    Permutation, close_generators, subgroup_closure,
)
from hocohom.linalg import Field, Matrix, kernel
from hocohom.modules import trivial_module, regular_module, h_q0_annihilator
from hocohom.resolution import higher_cohomology, bar_dimension

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)


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


def test_zero_ideal_zero_hom_space():
    g = c2()
    alg = GroupAlgebra(g, F2)
    filt = j_filtration(alg, trivial_subgroup(g))
    v = trivial_module(g, F2, 1)
    hom = hom_a_space(alg, filt, 2, v)  # J_2 = 0
    assert hom.dim == 0
    assert h_q1_cocycle(alg, trivial_subgroup(g), v, 2) == 0


def test_c2_f2_trivial_hom_and_h1():
    g = c2()
    alg = GroupAlgebra(g, F2)
    sigma = trivial_subgroup(g)
    filt = j_filtration(alg, sigma)
    v = trivial_module(g, F2, 1)
    hom = hom_a_space(alg, filt, 1, v)
    assert hom.dim == 1
    alpha = alpha_map(alg, filt, 1, v, hom)
    assert alpha.is_zero()
    assert h_q1_cocycle(alg, sigma, v, 1) == 1
    assert bar_dimension(g, v, 1) == 1


def test_c3_f3_trivial_hom_dim():
    g = cyclic(3)
    alg = GroupAlgebra(g, F3)
    sigma = trivial_subgroup(g)
    filt = j_filtration(alg, sigma)
    v = trivial_module(g, F3, 1)
    assert hom_a_space(alg, filt, 1, v).dim == 1
    assert h_q1_cocycle(alg, sigma, v, 1) == 1


def test_alpha_zero_on_trivial_modules():
    g = s3()
    alg = GroupAlgebra(g, F2)
    filt = j_filtration(alg, trivial_subgroup(g))
    v = trivial_module(g, F2, 3)
    assert alpha_map(alg, filt, 1, v).is_zero()


def test_alpha_kernel_is_annihilator():
    for group, field in [(c2(), F2), (cyclic(3), F3), (s3(), F2)]:
        alg = GroupAlgebra(group, field)
        sigma = trivial_subgroup(group)
        filt = j_filtration(alg, sigma)
        v = regular_module(group, field)
        for q in range(1, filt.stabilization_q + 2):
            if filt.j(q).dim == 0:
                continue
            assert kernel(alpha_map(alg, filt, q, v)) == h_q0_annihilator(v, filt, q)


def test_zero_module_zero_alpha():
    g = c2()
    alg = GroupAlgebra(g, F2)
    filt = j_filtration(alg, trivial_subgroup(g))
    v = trivial_module(g, F2, 0)
    assert alpha_map(alg, filt, 1, v).cols == 0
    assert h_q1_cocycle(alg, trivial_subgroup(g), v, 1) == 0


def test_sigma_full_rational_h1_zero():
    g = s3()
    alg = GroupAlgebra(g, Q)
    sigma = full_subgroup(g)
    v = trivial_module(g, Q, 1)
    for q in (1, 2, 3):
        assert h_q1_cocycle(alg, sigma, v, q) == 0


def test_generator_constraints_match_all_element_constraints():
    # the generator-only linear system cuts out the same space as using
    # every group element, exhaustively on small groups
    for group, field in [(c2(), F2), (cyclic(3), F3), (s3(), F2), (s3(), F3)]:
        alg = GroupAlgebra(group, field)
        sigma = trivial_subgroup(group)
        filt = j_filtration(alg, sigma)
        v = regular_module(group, field)
        for q in (1, 2):
            jq = filt.j(q)
            if jq.dim == 0:
                continue
            hom = hom_a_space(alg, filt, q, v)
            rows = []
            total = jq.dim * v.dim
            f = alg.field
            for gamma in range(group.order):
                act = v.action[gamma]
                for m in range(jq.dim):
                    moved = [0] * group.order   # gamma x_m, term by term
                    for h, x in enumerate(jq.basis.entries[m]):
                        moved[group.mult[gamma][h]] = x
                    # a member's coordinates in the RREF basis are its pivot entries
                    coeffs = [moved[c] for c in jq.pivots]
                    for t in range(v.dim):
                        row = [0] * total   # integers, coerced by the constructor below
                        for l, c in enumerate(coeffs):
                            row[l * v.dim + t] += c
                        for s in range(v.dim):
                            row[m * v.dim + s] -= act.entries[t][s]
                        rows.append(row)
            full = kernel(Matrix(f, rows, len(rows), total))
            assert full == hom


def test_triple_agreement_small():
    for group, field in [(c2(), F2), (cyclic(3), F3), (s3(), F2), (s3(), Q)]:
        alg = GroupAlgebra(group, field)
        for sigma in (trivial_subgroup(group), full_subgroup(group)):
            filt = j_filtration(alg, sigma)
            for v in (trivial_module(group, field, 1), regular_module(group, field)):
                for q in range(1, filt.stabilization_q + 2):
                    cocycle_dim = h_q1_cocycle(alg, sigma, v, q)
                    ext_dim = higher_cohomology(alg, sigma, v, q, 1)
                    assert cocycle_dim == ext_dim, (group.order, field.name, q)
