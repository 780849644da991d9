"""Free resolutions, Ext, the brute-force cochain oracle, and chain lifting."""

import itertools
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from hocohom.algebra import GroupAlgebra, j_filtration
from hocohom.groups import (
    Permutation, close_generators, subgroup_closure, trivial_subgroup, full_subgroup,
)
from hocohom.linalg import Field, Matrix, Subspace, column_space, rank
from hocohom.modules import (
    trivial_module, regular_module, coinduced_module, make_module,
    h_q0_annihilator, ModuleMap,
)
from hocohom.resolution import (
    AModule, amodule_from_subspace, free_amodule, quotient_amodule,
    free_cover, build_resolution, cochain_complex, ext, hom_precompose,
    higher_cohomology, quotient_by_j, filtration_for, resolution_of_quotient,
    bar_dimension, lift_chain_map,
    NotStableError, ResolutionTooShort, BudgetExceeded,
    _bar_coboundary,
)

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)


def c2():
    return close_generators([Permutation([1, 0])])

def cyclic(n):
    return close_generators([Permutation([(i + 1) % n for i in range(n)])])

def s3():
    return close_generators([Permutation([1, 2, 0]), Permutation([1, 0, 2])])


# --- quotient modules -------------------------------------------------------

def test_quotient_sub_equals_sup_is_zero():
    g = c2()
    alg = GroupAlgebra(g, F2)
    filt = j_filtration(alg, trivial_subgroup(g))
    m, _ = quotient_amodule(alg, filt.j(1), filt.j(1), label="J1/J1")
    assert m.dim == 0


def test_a_mod_j1_is_trivial_one_dimensional():
    g = c2()
    alg = GroupAlgebra(g, F2)
    m, _ = quotient_by_j(alg, trivial_subgroup(g), 1)
    assert m.dim == 1
    assert all(mat == Matrix.identity(F2, 1) for mat in m.module.action)


def test_j1_mod_j2_s3_a3_trivial_action():
    g = s3()
    alg = GroupAlgebra(g, F2)
    a3 = subgroup_closure(g, [g.gen_indices[0]])
    filt = j_filtration(alg, a3)
    m, _ = quotient_amodule(alg, filt.j(2), filt.j(1), label="J1/J2")
    assert m.dim == 1
    assert all(mat == Matrix.identity(F2, 1) for mat in m.module.action)


def test_quotient_rejects_unstable_subspace():
    g = c2()
    alg = GroupAlgebra(g, F2)
    unstable = Subspace.from_vectors(F2, 2, [[0, 1]])  # span{g} is not an ideal
    with pytest.raises(NotStableError):
        quotient_amodule(alg, unstable, Subspace.whole(F2, 2))


# --- free covers ------------------------------------------------------------

def test_free_cover_zero_module():
    g = c2()
    alg = GroupAlgebra(g, F2)
    m = AModule(alg, trivial_module(g, F2, 0), "zero")
    cover = free_cover(m)
    assert cover.rank == 0


def test_free_cover_regular_is_cyclic():
    alg = GroupAlgebra(s3(), F3)
    m = AModule(alg, regular_module(alg), "A")
    cover = free_cover(m)
    assert cover.rank == 1
    assert rank(cover.surjection) == 6


def test_free_cover_a_mod_j2_c3():
    g = cyclic(3)
    alg = GroupAlgebra(g, F3)
    m, _ = quotient_by_j(alg, trivial_subgroup(g), 2)
    assert m.dim == 2
    assert free_cover(m).rank == 1


# --- resolutions ------------------------------------------------------------

def test_resolution_zero_module():
    g = c2()
    alg = GroupAlgebra(g, F2)
    m = AModule(alg, trivial_module(g, F2, 0), "zero")
    res = build_resolution(m, 3)
    assert res.ranks == (0, 0, 0, 0)


def test_resolution_c2_trivial_periodic():
    g = c2()
    alg = GroupAlgebra(g, F2)
    res = resolution_of_quotient(alg, trivial_subgroup(g), 1, 4)
    assert res.ranks == (1, 1, 1, 1, 1)
    # every boundary is multiplication by g + e
    mult_norm = Matrix(F2, [[1, 1], [1, 1]])
    for b in res.boundaries:
        assert b == mult_norm


def test_resolution_c3_a_mod_j2_alternating_multipliers():
    g = cyclic(3)
    alg = GroupAlgebra(g, F3)
    filt = filtration_for(alg, trivial_subgroup(g))
    res = resolution_of_quotient(alg, trivial_subgroup(g), 2, 4)
    assert res.ranks == (1, 1, 1, 1, 1)
    # boundary images alternate between the ideals (x^2) and (x), x = g - e
    assert column_space(res.boundaries[0]) == filt.i_power(2)
    assert column_space(res.boundaries[1]) == filt.i_power(1)
    assert column_space(res.boundaries[2]) == filt.i_power(2)
    assert column_space(res.boundaries[3]) == filt.i_power(1)


def test_resolution_exactness_certificates():
    g = s3()
    alg = GroupAlgebra(g, F2)
    a3 = subgroup_closure(g, [g.gen_indices[0]])
    res = resolution_of_quotient(alg, a3, 1, 3)
    assert rank(res.augmentation) == res.target.dim
    for i, b in enumerate(res.boundaries):
        assert column_space(b) == res.kernels[i]
    for b1, b2 in zip(res.boundaries, res.boundaries[1:]):
        assert (b1 @ b2).is_zero()
    assert (res.augmentation @ res.boundaries[0]).is_zero()


def test_resolution_equivariance_of_boundaries():
    g = cyclic(4)
    alg = GroupAlgebra(g, F2)
    res = resolution_of_quotient(alg, trivial_subgroup(g), 2, 2)
    for i, b in enumerate(res.boundaries):
        src = free_amodule(alg, res.ranks[i + 1]).module
        dst = free_amodule(alg, res.ranks[i]).module
        for gamma in range(alg.dim):
            assert b @ src.action[gamma] == dst.action[gamma] @ b


# --- ext --------------------------------------------------------------------

def test_ext0_equals_annihilator():
    cases = []
    for group, field in [(c2(), F2), (cyclic(3), F3), (s3(), F2), (s3(), Q)]:
        alg = GroupAlgebra(group, field)
        sigma = trivial_subgroup(group)
        filt = filtration_for(alg, sigma)
        for v in (trivial_module(group, field, 1), regular_module(alg)):
            for q in range(1, filt.stabilization_q + 2):
                cases.append((alg, sigma, filt, v, q))
    for alg, sigma, filt, v, q in cases:
        res = resolution_of_quotient(alg, sigma, q, 1)
        assert ext(res, v, 0).dim == h_q0_annihilator(v, filt, q).dim


def test_ext_c2_trivial_all_degrees_one():
    g = c2()
    alg = GroupAlgebra(g, F2)
    res = resolution_of_quotient(alg, trivial_subgroup(g), 1, 4)
    v = trivial_module(g, F2, 1)
    for p in range(4):
        assert ext(res, v, p).dim == 1


def test_ext_s3_rational_semisimple():
    g = s3()
    alg = GroupAlgebra(g, Q)
    res = resolution_of_quotient(alg, trivial_subgroup(g), 1, 3)
    v = trivial_module(g, Q, 1)
    assert ext(res, v, 0).dim == 1
    for p in (1, 2):
        assert ext(res, v, p).dim == 0


def test_ext_free_module_vanishes_positively():
    g = cyclic(4)
    alg = GroupAlgebra(g, F2)
    free = free_amodule(alg, 2)
    res = build_resolution(free, 3)
    assert res.ranks == (2, 0, 0, 0)
    v = regular_module(alg)
    assert ext(res, v, 0).dim == 8
    for p in (1, 2):
        assert ext(res, v, p).dim == 0


def test_ext_resolution_too_short():
    g = c2()
    alg = GroupAlgebra(g, F2)
    res = resolution_of_quotient(alg, trivial_subgroup(g), 1, 1)
    with pytest.raises(ResolutionTooShort):
        ext(res, trivial_module(g, F2, 1), 2)


def test_delta_squared_zero():
    g = s3()
    alg = GroupAlgebra(g, F2)
    a3 = subgroup_closure(g, [g.gen_indices[0]])
    res = resolution_of_quotient(alg, a3, 2, 3)
    for v in (trivial_module(g, F2, 1), regular_module(alg)):
        deltas = cochain_complex(res, v)
        for d0, d1 in zip(deltas, deltas[1:]):
            assert (d1 @ d0).is_zero()


# --- bar oracle -------------------------------------------------------------

def test_bar_p0_is_fixed_points():
    g = s3()
    alg = GroupAlgebra(g, F2)
    for v in (trivial_module(g, F2, 2), regular_module(alg)):
        assert bar_dimension(g, v, 0) == v.fixed_points().dim


@pytest.mark.parametrize("p", [2, 3])
def test_bar_cyclic_prime_all_ones(p):
    g = cyclic(p)
    field = Field.prime(p)
    v = trivial_module(g, field, 1)
    for degree in range(4):
        assert bar_dimension(g, v, degree) == 1


def test_bar_s3_f2_h1():
    g = s3()
    v = trivial_module(g, F2, 1)
    assert bar_dimension(g, v, 1) == 1  # Hom(S3, F2) is one-dimensional


def test_bar_s3_f3_sign_module():
    g = s3()
    sign = make_module(g, F3, [Matrix(F3, [[1]]), Matrix(F3, [[-1]])])
    assert bar_dimension(g, sign, 0) == 0
    # stable elements: conjugation by a transposition acts trivially on
    # Hom(A3, sign restricted), so the full Hom(C3, F3) survives
    assert bar_dimension(g, sign, 1) == 1


def test_bar_coinduced_c3_acyclic():
    g = cyclic(3)
    v = coinduced_module(g, F3, 2)
    assert v.dim == 6
    assert bar_dimension(g, v, 1) == 0
    assert bar_dimension(g, v, 2) == 0


def test_bar_budget():
    g = s3()
    v = regular_module(GroupAlgebra(g, F2))
    with pytest.raises(BudgetExceeded):
        bar_dimension(g, v, 2, budget=10)
    with pytest.raises(BudgetExceeded):
        bar_dimension(g, v, 4)


def test_bar_budget_counts_the_next_cochain_space():
    # S4, trivial F2 module: dim C^3 = 13824 fits the budget of 20000, but
    # delta^3 reaches C^4 of dimension 331776, so p = 3 is refused up front
    s4 = close_generators([Permutation([1, 2, 3, 0]), Permutation([1, 0, 2, 3])])
    v = trivial_module(s4, F2, 1)
    with pytest.raises(BudgetExceeded, match="331776"):
        bar_dimension(s4, v, 3)
    with pytest.raises(BudgetExceeded):
        bar_dimension(s4, v, 1, budget=24 ** 2 - 1)
    assert bar_dimension(s4, v, 1, budget=24 ** 2) == 1


# --- the array coboundary against the list-built reference ---------------------

def _bar_delta_reference(group, v, i):
    """Rows of the inhomogeneous coboundary C^i -> C^{i+1}, built as Python lists.

    The construction the package used before its coboundaries became
    arrays: one loop per row, entries of the field (Fractions over Q).
    """
    n = group.order
    d_v = v.dim
    cols = n ** i * d_v
    act = [v.action[g].entries for g in range(n)]

    def col_index(tup, s):
        idx = 0
        for t in tup:
            idx = idx * n + t
        return idx * d_v + s

    rows = []
    for sigma in itertools.product(range(n), repeat=i + 1):
        head, tail = sigma[0], sigma[1:]
        merged = [sigma[:m] + (group.mult[sigma[m]][sigma[m + 1]],) + sigma[m + 2:]
                  for m in range(i)]
        front = sigma[:i]
        for t in range(d_v):
            row = [0] * cols
            for s in range(d_v):
                a = act[head][t][s]
                if a:
                    row[col_index(tail, s)] += a
            for m, tup in enumerate(merged, start=1):
                row[col_index(tup, t)] += -1 if m % 2 else 1
            row[col_index(front, t)] += 1 if (i + 1) % 2 == 0 else -1
            rows.append(row)
    return rows


def _row_scales(group, v, i):
    """The documented factor of row (sigma, t): the lcm of the denominators
    in row t of action[sigma_1] (1 over a prime field)."""
    per_row = [[lcm(*(Fraction(x).denominator for x in row)) for row in v.action[g].entries]
               for g in range(group.order)]
    return [per_row[sigma // group.order ** i][t]
            for sigma in range(group.order ** (i + 1)) for t in range(v.dim)]


def _check_against_reference(group, v, degrees):
    for i in degrees:
        got = _bar_coboundary(group, v, i)
        ref = _bar_delta_reference(group, v, i)
        assert got.shape == (len(ref), group.order ** i * v.dim)
        scaled = [[x * s for x in row] for row, s in zip(ref, _row_scales(group, v, i))]
        assert got.tolist() == scaled


def test_array_coboundary_d4_f2_coinduced():
    d4 = close_generators([Permutation([1, 2, 3, 0]), Permutation([3, 2, 1, 0])])
    assert d4.order == 8
    _check_against_reference(d4, coinduced_module(d4, F2, 1), (0, 1, 2))


def test_array_coboundary_s3_q_regular_and_sign():
    g = s3()
    sign = make_module(g, Q, [Matrix(Q, [[1]]), Matrix(Q, [[-1]])])
    _check_against_reference(g, regular_module(GroupAlgebra(g, Q)), (0, 1, 2))
    _check_against_reference(g, sign, (0, 1, 2))


def test_array_coboundary_s3_f3_trivial():
    g = s3()
    _check_against_reference(g, trivial_module(g, F3, 2), (0, 1, 2))


def test_array_coboundary_large_prime_is_int64():
    g = s3()
    big = Field.prime(2147483647)
    sign = make_module(g, big, [Matrix(big, [[1]]), Matrix(big, [[-1]])])
    assert _bar_coboundary(g, sign, 1).dtype == np.int64
    _check_against_reference(g, sign, (0, 1, 2))
    assert [bar_dimension(g, sign, p) for p in range(3)] == [0, 0, 0]


def test_array_coboundary_rational_action_scales_rows():
    # C2 swapping two lines with weights 2 and 1/2: rows through the second
    # row of the action are doubled, +-1 terms included
    g = c2()
    v = make_module(g, Q, [Matrix(Q, [[0, 2], ["1/2", 0]])])
    _check_against_reference(g, v, (0, 1, 2))
    delta0 = _bar_coboundary(g, v, 0)
    assert delta0.tolist() == [[0, 0], [0, 0], [-1, 2], [1, -2]]
    # V ~ Q[C2]: H^0 is the line of (2, 1), and higher cohomology vanishes
    assert [bar_dimension(g, v, p) for p in range(3)] == [1, 0, 0]


def test_array_coboundary_dtype_boundary():
    # over F127 the sign module acts by 126: delta^0 entries are bounded by
    # 126 + 1 = 127, which fits int8; delta^1 by 126 + 2 = 128, which does not
    g = c2()
    f127 = Field.prime(127)
    sign = make_module(g, f127, [Matrix(f127, [[-1]])])
    assert _bar_coboundary(g, sign, 0).dtype == np.int8
    assert _bar_coboundary(g, sign, 1).dtype == np.int64
    _check_against_reference(g, sign, (0, 1, 2))
    assert [bar_dimension(g, sign, p) for p in range(3)] == [0, 0, 0]
    # over Q the bound counts the row scale: the row [1/126, 0] is scaled by
    # 126, so delta^0 is bounded by 1 + 126 and delta^1 by 1 + 2 * 126
    v = make_module(g, Q, [Matrix(Q, [[0, 126], ["1/126", 0]])])
    assert _bar_coboundary(g, v, 0).dtype == np.int8
    assert _bar_coboundary(g, v, 1).dtype == np.int64
    _check_against_reference(g, v, (0, 1, 2))


# --- the composed pipeline --------------------------------------------------

def _suite():
    out = []
    for group, field in [(c2(), F2), (cyclic(3), F3), (cyclic(4), F2),
                         (s3(), F2), (s3(), F3), (s3(), Q)]:
        alg = GroupAlgebra(group, field)
        modules = [trivial_module(group, field, 1), regular_module(alg)]
        if group.order == 6 and field.characteristic != 2:
            modules.append(make_module(
                group, field, [Matrix.identity(field, 1), Matrix(field, [[-1]])]))
        out.append((alg, modules))
    return out


def test_q1_matches_bar_oracle():
    for alg, modules in _suite():
        sigma = trivial_subgroup(alg.group)
        for v in modules:
            for p in (0, 1, 2):
                got = higher_cohomology(alg, sigma, v, 1, p).dim
                assert got == bar_dimension(alg.group, v, p), (alg, v, p)


def test_sigma_full_constant_in_q():
    g = c2()
    alg = GroupAlgebra(g, F2)
    sigma = full_subgroup(g)
    v = regular_module(alg)
    h0 = higher_cohomology(alg, sigma, v, 1, 0).dim
    assert h0 == v.fixed_points().dim
    for q in (2, 3):
        assert higher_cohomology(alg, sigma, v, q, 0).dim == h0
        assert (higher_cohomology(alg, sigma, v, q, 1).dim
                == higher_cohomology(alg, sigma, v, 1, 1).dim)


def test_c2_q2_free_quotient():
    g = c2()
    alg = GroupAlgebra(g, F2)
    sigma = trivial_subgroup(g)
    v = trivial_module(g, F2, 1)
    assert higher_cohomology(alg, sigma, v, 2, 0).dim == 1
    assert higher_cohomology(alg, sigma, v, 2, 1).dim == 0
    assert higher_cohomology(alg, sigma, v, 2, 2).dim == 0


def test_resolution_independence_forward_vs_reverse():
    instances = [
        (GroupAlgebra(c2(), F2), None),
        (GroupAlgebra(cyclic(3), F3), None),
        (GroupAlgebra(s3(), F2), None),
    ]
    for alg, _ in instances:
        group = alg.group
        sigma = trivial_subgroup(group)
        v = regular_module(alg)
        for q in (1, 2):
            for p in (0, 1, 2, 3):
                fwd = higher_cohomology(alg, sigma, v, q, p, order="forward").dim
                rev = higher_cohomology(alg, sigma, v, q, p, order="reverse").dim
                assert fwd == rev, (alg, q, p)


def test_a4_order_twelve_smoke():
    # a larger group exercising the engine at scale: A4 over F2
    g = close_generators([Permutation([1, 2, 0, 3]), Permutation([1, 0, 3, 2])])
    assert g.order == 12
    alg = GroupAlgebra(g, F2)
    sigma = trivial_subgroup(g)
    v = trivial_module(g, F2, 1)
    for p in (0, 1):
        assert higher_cohomology(alg, sigma, v, 1, p).dim == bar_dimension(g, v, p)
    # the abelianization of A4 is C3, so there are no homs to F2
    assert higher_cohomology(alg, sigma, v, 1, 1).dim == 0


def test_resolution_cache_returns_same_object():
    g = c2()
    alg = GroupAlgebra(g, F2)
    sigma = trivial_subgroup(g)
    r1 = resolution_of_quotient(alg, sigma, 1, 2)
    r2 = resolution_of_quotient(alg, sigma, 1, 2)
    assert r1 is r2
    r3 = resolution_of_quotient(alg, sigma, 1, 4)
    assert r3.length >= 4


# --- chain lifting ----------------------------------------------------------

def test_lift_identity_is_identity():
    g = c2()
    alg = GroupAlgebra(g, F2)
    sigma = trivial_subgroup(g)
    res = resolution_of_quotient(alg, sigma, 1, 2)
    m, _ = quotient_by_j(alg, sigma, 1)
    ident = ModuleMap(m.module, m.module, Matrix.identity(F2, m.dim))
    lifts = lift_chain_map(ident, res, res)
    for i, lam in enumerate(lifts):
        assert lam == Matrix.identity(F2, res.ranks[i] * alg.dim)


def test_lift_zero_map():
    g = c2()
    alg = GroupAlgebra(g, F2)
    sigma = trivial_subgroup(g)
    m2, _ = quotient_by_j(alg, sigma, 2)
    m1, _ = quotient_by_j(alg, sigma, 1)
    zero = ModuleMap(m2.module, m1.module, Matrix.zeros(F2, m1.dim, m2.dim))
    res2 = resolution_of_quotient(alg, sigma, 2, 2)
    res1 = resolution_of_quotient(alg, sigma, 1, 2)
    lifts = lift_chain_map(zero, res2, res1)
    for lam in lifts:
        assert lam.is_zero()


def test_lift_projection_induces_iso_on_ext0():
    g = c2()
    alg = GroupAlgebra(g, F2)
    sigma = trivial_subgroup(g)
    m2, qm2 = quotient_by_j(alg, sigma, 2)
    m1, qm1 = quotient_by_j(alg, sigma, 1)
    # natural surjection A/J_2 -> A/J_1 in quotient coordinates
    cols = [qm1.coords(rep) for rep in qm2.reps.entries]
    proj = ModuleMap(m2.module, m1.module, Matrix.from_columns(F2, cols, rows=m1.dim))
    res2 = resolution_of_quotient(alg, sigma, 2, 2)
    res1 = resolution_of_quotient(alg, sigma, 1, 2)
    lifts = lift_chain_map(proj, res2, res1)
    v = trivial_module(g, F2, 1)
    e1 = ext(res1, v, 0)
    e2 = ext(res2, v, 0)
    assert e1.dim == 1 and e2.dim == 1
    induced = hom_precompose(alg, lifts[0], res2.ranks[0], res1.ranks[0], v)
    image = induced.apply(e1.representatives.entries[0])
    assert e2.cocycles.contains_vector(image)
    assert e2.classes.coords(image) != (0,) * e2.dim  # an isomorphism here


# --- permutation-action free modules and generator-only stability -------------

@pytest.mark.parametrize("k", [0, 1, 3])
def test_free_module_permutation_action_matches_dense_blocks(k):
    for group, field in [(s3(), F2), (cyclic(4), F3), (s3(), Q)]:
        alg = GroupAlgebra(group, field)
        free = free_amodule(alg, k).module
        n = alg.dim
        rng_rows = Matrix(field, [[(3 * i + j) % 5 for j in range(n * k)] for i in range(4)])
        for g in range(n):
            blocks = [[alg.left_mult[g] if i == j else None for j in range(k)]
                      for i in range(k)]
            dense = (Matrix.block(field, blocks, [n] * k, [n] * k) if k
                     else Matrix.zeros(field, 0, 0))
            assert free.action[g] == dense
            assert free.act_rows(g, rng_rows) == rng_rows @ dense.transpose()


def test_unstable_subspace_of_free_module_rejected_by_generators():
    g = s3()
    alg = GroupAlgebra(g, F2)
    free = free_amodule(alg, 2).module
    # span of (e, 0) and (0, e): not stable, since g e = g is not in it
    unstable = Subspace.from_vectors(
        F2, 12, [[1] + [0] * 11, [0] * 6 + [1] + [0] * 5])
    with pytest.raises(NotStableError) as err:
        amodule_from_subspace(alg, free, unstable, "unstable")
    assert err.value.element_index in g.gen_indices
    # the sum-of-all-elements line of the first copy is stable
    stable = Subspace.from_vectors(F2, 12, [[1] * 6 + [0] * 6])
    m = amodule_from_subspace(alg, free, stable, "norm line")
    assert all(mat == Matrix.identity(F2, 1) for mat in m.module.action)


def test_unstable_subspace_rejected_when_only_one_generator_moves_it():
    g = s3()
    alg = GroupAlgebra(g, Q)
    # the A3 norm e + c + c^2 spans a line that the 3-cycle c fixes and the
    # transposition moves
    c = g.gen_indices[0]
    c2 = g.mult[c][c]
    vec = [0] * 6
    for h in (0, c, c2):
        vec[h] = 1
    line = Subspace.from_vectors(Q, 6, [vec])
    with pytest.raises(NotStableError) as err:
        quotient_amodule(alg, Subspace.zero(Q, 6), line)
    assert err.value.element_index == g.gen_indices[1]
