"""Module constructors and the two computations of H_q^0."""

import pytest

from hocohom.algebra import GroupAlgebra, j_filtration
from hocohom.groups import (
    Permutation, close_generators, subgroup_closure,
)
from hocohom.linalg import Field, Matrix, Subspace, column_space, rank
from hocohom.modules import (
    ModuleMap, NotARepresentationError,
    trivial_module, make_module, regular_module, coinduced_module,
    h_q0_annihilator, h_q0_inductive,
)

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


def test_trivial_module():
    g = s3()
    v = trivial_module(g, F2, 3)
    v.check_homomorphism()
    assert v.dim == 3
    assert v.fixed_points().dim == 3


def test_make_module_identity_generators():
    g = s3()
    v = make_module(g, Q, [Matrix.identity(Q, 2), Matrix.identity(Q, 2)])
    assert v.dim == 2
    assert all(m == Matrix.identity(Q, 2) for m in v.action)


def test_sign_module_c2():
    g = c2()
    v = make_module(g, Q, [Matrix(Q, [[-1]])])
    assert v.dim == 1
    assert v.action[1].entries == ((-1,),)
    assert v.fixed_points().dim == 0


def test_make_module_rejects_non_representation():
    g = c2()
    with pytest.raises(NotARepresentationError) as err:
        make_module(g, Q, [Matrix(Q, [[2]])])
    assert err.value.witness == (1, 1)


def test_sign_module_s3():
    g = s3()
    # 3-cycle -> +1, transposition -> -1
    v = make_module(g, Q, [Matrix(Q, [[1]]), Matrix(Q, [[-1]])])
    v.check_homomorphism()
    assert v.fixed_points().dim == 0


def test_regular_module_c2_f2():
    v = regular_module(c2(), F2)
    assert v.dim == 2
    assert v.action[1].entries == ((0, 1), (1, 0))
    v.check_homomorphism()


def test_regular_module_s3_q_permutation_matrices():
    v = regular_module(s3(), Q)
    assert v.dim == 6
    for m in v.action:
        for row in m.entries:
            assert sorted(row) == [0, 0, 0, 0, 0, 1]
    v.check_homomorphism()


def test_coinduced_trivial_group():
    g = close_generators([])
    v = coinduced_module(g, Q, 1)
    assert v.dim == 1
    assert v.action[0] == Matrix.identity(Q, 1)


def test_coinduced_c2_isomorphic_to_regular():
    g = c2()
    co = coinduced_module(g, F2, 1)
    reg = regular_module(g, F2)
    co.check_homomorphism()
    # explicit equivariant isomorphism f -> sum_x f(x) x^{-1}
    grid = [[0] * 2 for _ in range(2)]
    for i in range(2):
        grid[g.inv[i]][i] = 1
    iso = ModuleMap(co, reg, Matrix(F2, grid))
    assert rank(iso.matrix) == 2


def test_coinduced_equivariant_iso_to_regular_s3():
    g = s3()
    co = coinduced_module(g, F3, 1)
    reg = regular_module(g, F3)
    grid = [[0] * 6 for _ in range(6)]
    for i in range(6):
        grid[g.inv[i]][i] = 1
    iso = ModuleMap(co, reg, Matrix(F3, grid))
    assert rank(iso.matrix) == 6


def test_coinduced_homomorphism_property():
    g = s3()
    co = coinduced_module(g, F2, 2)
    assert co.dim == 12
    co.check_homomorphism()


def test_annihilator_trivial_module_is_everything():
    g = s3()
    alg = GroupAlgebra(g, F2)
    filt = j_filtration(alg, trivial_subgroup(g))
    v = trivial_module(g, F2, 2)
    for q in (1, 2, 3):
        assert h_q0_annihilator(v, filt, q).dim == 2


def test_annihilator_c2_regular():
    g = c2()
    alg = GroupAlgebra(g, F2)
    filt = j_filtration(alg, trivial_subgroup(g))
    v = regular_module(g, F2)
    h1 = h_q0_annihilator(v, filt, 1)
    assert h1.dim == 1
    assert h1 == filt.augmentation  # ker(g+e) = I itself
    assert h_q0_annihilator(v, filt, 2).dim == 2


@pytest.mark.parametrize("p", [2, 3, 5])
def test_annihilator_cyclic_regular_min_q_p(p):
    field = Field.prime(p)
    g = cyclic(p)
    alg = GroupAlgebra(g, field)
    filt = j_filtration(alg, trivial_subgroup(g))
    v = regular_module(g, field)
    for q in range(1, p + 2):
        assert h_q0_annihilator(v, filt, q).dim == min(q, p)


def test_inductive_h1_is_fixed_points():
    g = s3()
    v = regular_module(g, F2)
    assert h_q0_inductive(v, trivial_subgroup(g), 1) == v.fixed_points()


def test_inductive_sigma_full_is_constant():
    g = s3()
    v = regular_module(g, F2)
    sigma = full_subgroup(g)
    fixed = v.fixed_points()
    for q in (1, 2, 3):
        assert h_q0_inductive(v, sigma, q) == fixed


def test_inductive_c2_regular_q2_is_everything():
    g = c2()
    v = regular_module(g, F2)
    assert h_q0_inductive(v, trivial_subgroup(g), 2).dim == 2


def test_zero_module():
    g = c2()
    alg = GroupAlgebra(g, F2)
    filt = j_filtration(alg, trivial_subgroup(g))
    v = trivial_module(g, F2, 0)
    for q in (1, 2):
        assert h_q0_annihilator(v, filt, q).dim == 0
        assert h_q0_inductive(v, trivial_subgroup(g), q).dim == 0


def _instances():
    out = []
    g2, g3, gs = c2(), cyclic(3), s3()
    for group, field in [(g2, F2), (g3, F3), (gs, F2), (gs, F3), (gs, Q)]:
        alg = GroupAlgebra(group, field)
        sigmas = [trivial_subgroup(group), full_subgroup(group)]
        if group.order == 6:
            sigmas.append(subgroup_closure(group, [group.gen_indices[0]]))
        for sigma in sigmas:
            for v in (trivial_module(group, field, 1), regular_module(group, field),
                      coinduced_module(group, field, 1)):
                out.append((alg, sigma, v))
    return out


def test_annihilator_inductive_agreement_suite():
    for alg, sigma, v in _instances():
        filt = j_filtration(alg, sigma)
        for q in range(1, filt.stabilization_q + 2):
            assert h_q0_annihilator(v, filt, q) == h_q0_inductive(v, sigma, q), (
                alg, sigma, v, q)


def test_h_q0_monotone_and_stabilizes():
    for alg, sigma, v in _instances():
        filt = j_filtration(alg, sigma)
        stab = filt.stabilization_q
        prev = None
        for q in range(1, stab + 3):
            cur = h_q0_annihilator(v, filt, q)
            if prev is not None:
                assert cur.contains_subspace(prev)
            prev = cur
        assert h_q0_annihilator(v, filt, stab) == h_q0_annihilator(v, filt, stab + 2)


def test_left_exactness_probe():
    # trivial module embeds in the regular module via the norm element
    g = c2()
    alg = GroupAlgebra(g, F2)
    filt = j_filtration(alg, trivial_subgroup(g))
    v = trivial_module(g, F2, 1)
    w = regular_module(g, F2)
    norm = Matrix(F2, [[1], [1]])
    inj = ModuleMap(v, w, norm)
    for q in (1, 2):
        hv = h_q0_annihilator(v, filt, q)
        hw = h_q0_annihilator(w, filt, q)
        image_of_hv = column_space(inj.matrix @ hv.basis.transpose())
        # the image of V is a line, so it meets H_q^0(W) in itself or in zero
        image_of_v = column_space(inj.matrix)
        meet = image_of_v if hw.contains_subspace(image_of_v) else Subspace.zero(F2, 2)
        assert image_of_hv == meet


def test_module_map_rejects_non_equivariant():
    g = c2()
    v = trivial_module(g, F2, 1)
    w = regular_module(g, F2)
    with pytest.raises(ValueError):
        ModuleMap(v, w, Matrix(F2, [[1], [0]]))
