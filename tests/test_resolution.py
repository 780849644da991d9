"""Free resolutions, Ext and the brute-force cochain oracle."""

import itertools
from fractions import Fraction
from math import lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hocohom.algebra import GroupAlgebra, i_power_by_products, j_filtration
from hocohom.groups import (
    Permutation, close_generators, subgroup_closure,
)
from hocohom.linalg import (
    CertificateError, Field, Matrix, QuotientMap, Subspace, column_space, kernel, rank,
    rank_of_int_rows, rref,
)
from hocohom.modules import (
    trivial_module, regular_module, coinduced_module, make_module,
    h_q0_annihilator,
)
from hocohom.resolution import (
    FreeResolution, amodule_from_subspace, free_amodule, quotient_amodule,
    free_cover, build_resolution, ext, hom_delta, _extend,
    higher_cohomology, quotient_by_j, filtration_for, resolution_of_quotient,
    layer_module, resolution_of_layer, bar_dimension,
    NotStableError, ResolutionTooShort, BudgetExceeded, DEFAULT_BAR_BUDGET,
    _bar_coboundary,
)
from hocohom.problem import load_problem
from hocohom import resolution as resolution_module

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)
SHIPPED_SPECS = sorted((Path(__file__).resolve().parent.parent / "specs").glob("*.json"))
TEST_SPECS = Path(__file__).resolve().parent / "specs"


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
    assert all(mat == Matrix.identity(F2, 1) for mat in m.action)


def test_j1_mod_j2_s3_a3_trivial_action():
    g = s3()
    alg = GroupAlgebra(g, F2)
    a3 = subgroup_closure(g, [g.gen_indices[0]])
    filt = j_filtration(alg, a3)
    m, _ = quotient_amodule(alg, filt.j(2), filt.j(1), label="J1/J2")
    assert m.dim == 1
    assert all(mat == Matrix.identity(F2, 1) for mat in m.action)


def test_quotient_rejects_unstable_subspace():
    g = c2()
    alg = GroupAlgebra(g, F2)
    unstable = Subspace.from_vectors(F2, 2, [[0, 1]])  # span{g} is not an ideal
    # an unstable ideal is an internal certificate failure, caused by NotStableError
    with pytest.raises(CertificateError) as err:
        quotient_amodule(alg, unstable, Subspace.whole(F2, 2))
    assert isinstance(err.value.__cause__, NotStableError)


def test_quotients_act_through_the_cached_free_module(monkeypatch):
    # A acting on itself is the cached A^1, whose table is the regular
    # module's, so no quotient builds a regular module of its own
    import sys
    from hocohom import modules
    calls, original = [], modules.regular_module

    def spy(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("hocohom") and getattr(module, "regular_module", None) is original:
            monkeypatch.setattr(module, "regular_module", spy)
    spec = load_problem(Path(__file__).resolve().parent.parent / "specs" / "d4_f2.json")
    alg = spec.algebra()
    for q in range(1, spec.q_max + 2):
        quotient_by_j(alg, spec.sigma, q)
        layer_module(alg, spec.sigma, q)
    assert not calls
    assert np.array_equal(free_amodule(alg, 1).perm, original(spec.group, spec.field).perm)


# --- free covers ------------------------------------------------------------

def _cover(m, order="forward"):
    """free_cover of m's unit vectors, each orbit read off the action matrices."""
    f = m.field
    return free_cover(f, m.dim, lambda i: Matrix.vstack(
        f, [a.take_columns([i]).transpose() for a in m.action]), order)


def test_free_cover_zero_module():
    g = c2()
    alg = GroupAlgebra(g, F2)
    m = trivial_module(g, F2, 0)
    assert _cover(m) == ()
    assert build_resolution(alg, m, 0).ranks == (0,)


def test_free_cover_regular_is_cyclic():
    alg = GroupAlgebra(s3(), F3)
    m = regular_module(alg.group, alg.field)
    assert _cover(m) == (0,)
    res = build_resolution(alg, m, 0)
    assert res.ranks == (1,)
    assert rank(res.augmentation) == 6


def test_free_cover_a_mod_j2_c3():
    g = cyclic(3)
    alg = GroupAlgebra(g, F3)
    m, _ = quotient_by_j(alg, trivial_subgroup(g), 2)
    assert m.dim == 2
    assert len(_cover(m)) == 1


def _free_cover_reference(m, order):
    """The generators of the per-vector sweep: one membership test per basis
    vector, and the span grown by the orbit of each vector kept."""
    f, dim, n = m.field, m.dim, m.group.order
    units = Matrix.identity(f, dim)
    span = Subspace.zero(f, dim)
    chosen = []
    for i in (range(dim) if order == "forward" else range(dim - 1, -1, -1)):
        if span.first_outside(units.take_rows([i])) is not None:
            chosen.append(i)
            span = span + Subspace.from_vectors(
                f, dim, [[row[i] for row in m.action[g].entries] for g in range(n)])
    return tuple(chosen)


def d4():
    return close_generators([Permutation([1, 2, 3, 0]), Permutation([0, 3, 2, 1])])


def s4():
    return close_generators([Permutation([1, 2, 3, 0]), Permutation([1, 0, 2, 3])])


def test_free_cover_matches_the_per_vector_sweep():
    """The incremental echelon keeps the generators of the membership test
    by a product, over F_2, an odd prime and Q."""
    d4_f2 = GroupAlgebra(d4(), F2)
    s3_q = GroupAlgebra(s3(), Q)
    modules = [coinduced_module(d4_f2.group, F2, 1), regular_module(s3_q.group, s3_q.field)]
    # modules that need several generators: A/J_2 and its first syzygy
    for alg in (d4_f2, s3_q, GroupAlgebra(s3(), F3)):
        quotient, _ = quotient_by_j(alg, trivial_subgroup(alg.group), 2)
        res = build_resolution(alg, quotient, 1)
        modules += [quotient, amodule_from_subspace(
            free_amodule(alg, res.ranks[0]), kernel(res.augmentation))]
    # the S4/F2 syzygy of A/J_1 whose forward cover keeps 6 generators
    s4_f2 = GroupAlgebra(s4(), F2)
    res = resolution_of_quotient(s4_f2, trivial_subgroup(s4_f2.group), 1, 3)
    modules.append(amodule_from_subspace(
        free_amodule(s4_f2, res.ranks[2]), kernel(res.boundaries[1])))
    assert len(_cover(modules[-1])) == res.ranks[3] == 6
    for m in modules:
        for order in ("forward", "reverse"):
            assert _cover(m, order) == _free_cover_reference(m, order)


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_kernel_sweep_in_pivot_coordinates_keeps_the_boundary(order):
    """The first boundary, from the sweep of the syzygy in its pivot
    coordinates, is the one built from the per-vector sweep of the syzygy
    repackaged as a module: column (j, g) is g applied to kept row j."""
    for alg in (GroupAlgebra(d4(), F2), GroupAlgebra(s3(), Q)):
        quotient, _ = quotient_by_j(alg, trivial_subgroup(alg.group), 2)
        res = build_resolution(alg, quotient, 1, order)
        free = free_amodule(alg, res.ranks[0])
        ker = kernel(res.augmentation)
        chosen = _free_cover_reference(amodule_from_subspace(free, ker), order)
        expected = Matrix.hstack(alg.field, [
            free.action[g] @ ker.basis.take_rows([j]).transpose()
            for j in chosen for g in range(alg.dim)])
        assert res.ranks[1] == len(chosen)
        assert res.boundaries[0] == expected


def test_extend_rejects_an_augmentation_that_is_not_A_linear():
    """The exactness certificate of each step stands in for a stability
    check of its kernel: an R-linear augmentation A -> R whose kernel is no
    submodule fails it."""
    g = s3()
    alg = GroupAlgebra(g, F2)
    target = trivial_module(g, F2)
    identity_coefficient = Matrix(F2, [[1, 0, 0, 0, 0, 0]])
    with pytest.raises(NotStableError):
        amodule_from_subspace(free_amodule(alg, 1), kernel(identity_coefficient))
    with pytest.raises(CertificateError):
        _extend(FreeResolution(alg, target, identity_coefficient, ()), 1, "forward")


def _d4():
    return close_generators([Permutation([1, 2, 3, 0]), Permutation([3, 2, 1, 0])])


def test_extend_certifies_later_steps_on_generator_columns(monkeypatch):
    """Step 1 composes the augmentation with the whole boundary; every
    later step composes the boundary before with the generator columns."""
    alg = GroupAlgebra(_d4(), F2)
    m = quotient_by_j(alg, trivial_subgroup(alg.group), 1)[0]
    products, matmul = [], Matrix.__matmul__

    def spy(a, b):
        products.append(b.cols)
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", spy)
    short = build_resolution(alg, m, 1)
    assert products == [short.ranks[1] * alg.dim]
    products.clear()
    res = _extend(short, 4, "forward")
    assert products == list(res.ranks[2:])


@pytest.mark.parametrize("step", [2, 3])
def test_extend_rejects_a_non_kernel_image_at_a_later_step(monkeypatch, step):
    """A boundary step whose generator images leave the kernel of the map
    before fails the generator-column certificate."""
    alg = GroupAlgebra(_d4(), F2)
    short = build_resolution(alg, quotient_by_j(alg, trivial_subgroup(alg.group), 1)[0], 1)
    true_kernel, calls = resolution_module.kernel, []

    def mutant(prev_map):
        calls.append(prev_map)
        sub = true_kernel(prev_map)
        if len(calls) < step - 1:
            return sub
        # one unit vector outside the kernel joins its basis
        j = next(j for j in range(prev_map.cols) if not prev_map.take_columns([j]).is_zero())
        unit = Matrix(F2, [[int(c == j) for c in range(prev_map.cols)]])
        return rref(Matrix.vstack(F2, [sub.basis, unit]))

    monkeypatch.setattr(resolution_module, "kernel", mutant)
    with pytest.raises(CertificateError, match=f"resolution step {step} failed exactness"):
        _extend(short, 3, "forward")


# --- resolutions ------------------------------------------------------------

def test_resolution_zero_module():
    g = c2()
    alg = GroupAlgebra(g, F2)
    res = build_resolution(alg, trivial_module(g, F2, 0), 3)
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
    assert filt.j(1) == i_power_by_products(alg, 1)
    assert filt.j(2) == i_power_by_products(alg, 2)
    assert column_space(res.boundaries[0]) == filt.j(2)
    assert column_space(res.boundaries[1]) == filt.j(1)
    assert column_space(res.boundaries[2]) == filt.j(2)
    assert column_space(res.boundaries[3]) == filt.j(1)


def test_resolution_exactness_certificates():
    g = s3()
    alg = GroupAlgebra(g, F2)
    a3 = subgroup_closure(g, [g.gen_indices[0]])
    res = resolution_of_quotient(alg, a3, 1, 3)
    assert rank(res.augmentation) == res.target.dim
    # the image of each boundary is the kernel of the map before it
    for before, b in zip((res.augmentation,) + res.boundaries, res.boundaries):
        assert column_space(b) == kernel(before)
    for b1, b2 in zip(res.boundaries, res.boundaries[1:]):
        assert (b1 @ b2).is_zero()
    assert (res.augmentation @ res.boundaries[0]).is_zero()


def test_resolution_equivariance_of_boundaries():
    g = cyclic(4)
    alg = GroupAlgebra(g, F2)
    res = resolution_of_quotient(alg, trivial_subgroup(g), 2, 2)
    for i, b in enumerate(res.boundaries):
        src = free_amodule(alg, res.ranks[i + 1])
        dst = free_amodule(alg, res.ranks[i])
        for gamma in range(alg.dim):
            assert b @ src.action[gamma] == dst.action[gamma] @ b


# --- ext --------------------------------------------------------------------

def test_ext0_equals_annihilator():
    cases = []
    for group, field in [(c2(), F2), (cyclic(3), F3), (s3(), F2), (s3(), Q)]:
        alg = GroupAlgebra(group, field)
        sigma = trivial_subgroup(group)
        filt = filtration_for(alg, sigma)
        for v in (trivial_module(group, field, 1), regular_module(group, field)):
            for q in range(1, filt.stabilization_q + 2):
                cases.append((alg, sigma, filt, v, q))
    for alg, sigma, filt, v, q in cases:
        res = resolution_of_quotient(alg, sigma, q, 1)
        assert ext(res, v, 0) == h_q0_annihilator(v, filt, q).dim


def test_ext_c2_trivial_all_degrees_one():
    g = c2()
    alg = GroupAlgebra(g, F2)
    res = resolution_of_quotient(alg, trivial_subgroup(g), 1, 4)
    v = trivial_module(g, F2, 1)
    for p in range(4):
        assert ext(res, v, p) == 1


def test_ext_s3_rational_semisimple():
    g = s3()
    alg = GroupAlgebra(g, Q)
    res = resolution_of_quotient(alg, trivial_subgroup(g), 1, 3)
    v = trivial_module(g, Q, 1)
    assert ext(res, v, 0) == 1
    for p in (1, 2):
        assert ext(res, v, p) == 0


def test_ext_free_module_vanishes_positively():
    g = cyclic(4)
    alg = GroupAlgebra(g, F2)
    free = free_amodule(alg, 2)
    res = build_resolution(alg, free, 3)
    assert res.ranks == (2, 0, 0, 0)
    v = regular_module(g, F2)
    assert ext(res, v, 0) == 8
    for p in (1, 2):
        assert ext(res, v, p) == 0


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
    for v in (trivial_module(g, F2, 1), regular_module(g, F2)):
        deltas = [hom_delta(res, v, i) for i in range(res.length)]
        for d0, d1 in zip(deltas, deltas[1:]):
            assert (d1 @ d0).is_zero()


# --- bar oracle -------------------------------------------------------------

def test_bar_p0_is_fixed_points():
    g = s3()
    for v in (trivial_module(g, F2, 2), regular_module(g, F2)):
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
    v = regular_module(g, F2)
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


def _leading_arguments(group, v, i):
    """g_1 of each row (sigma, t) of the full coboundary C^i -> C^{i+1}."""
    return [sigma // group.order ** i
            for sigma in range(group.order ** (i + 1)) for _ in range(v.dim)]


def _avoiding_identity(group, v, length):
    """Whether each coordinate (tuple, s) of C^length, in its order there,
    has a tuple that avoids the identity, element 0."""
    return [0 not in tup for tup in itertools.product(range(group.order), repeat=length)
            for _ in range(v.dim)]


def _normalized_generator_rows(group, v, i, rows):
    """The full coboundary C^i -> C^{i+1} restricted to the rows and columns
    whose tuples avoid the identity, and to the rows whose g_1 is a
    generator other than the identity, in their order there."""
    heads = set(group.gen_indices) - {0}
    columns = _avoiding_identity(group, v, i)
    return [[x for x, keep in zip(row, columns) if keep]
            for row, g, avoids in zip(rows, _leading_arguments(group, v, i),
                                      _avoiding_identity(group, v, i + 1))
            if avoids and g in heads]


def _row_scales(group, v, i):
    """The documented factor of row (sigma, t): the lcm of the denominators
    in row t of action[sigma_1] (1 over a prime field)."""
    per_row = [[lcm(*(Fraction(x).denominator for x in row)) for row in v.action[g].entries]
               for g in range(group.order)]
    return [per_row[g][t] for g, t in zip(_leading_arguments(group, v, i),
                                          itertools.cycle(range(v.dim)))]


def _check_against_reference(group, v, degrees):
    for i in degrees:
        got = _bar_coboundary(group, v, i)
        ref = _bar_delta_reference(group, v, i)
        scaled = [[x * s for x in row] for row, s in zip(ref, _row_scales(group, v, i))]
        expected = _normalized_generator_rows(group, v, i, scaled)
        k = len(set(group.gen_indices) - {0})
        m = (group.order - 1) ** i * v.dim
        assert got.shape == (len(expected), m) == (k * m, m)
        assert got.tolist() == expected


def _full_bar_dimension(group, v, p):
    """dim H^p(G, V) from the full inhomogeneous complex, every row ranked."""
    def rank_of(i):
        rows = _bar_delta_reference(group, v, i)
        return rank_of_int_rows(v.field, rows, group.order ** i * v.dim)
    dim_z = group.order ** p * v.dim - rank_of(p)
    return dim_z if p == 0 else dim_z - rank_of(p - 1)


def test_array_coboundary_d4_f2_coinduced():
    d4 = close_generators([Permutation([1, 2, 3, 0]), Permutation([3, 2, 1, 0])])
    assert d4.order == 8
    _check_against_reference(d4, coinduced_module(d4, F2, 1), (0, 1, 2))


def test_array_coboundary_s3_q_regular_and_sign():
    g = s3()
    sign = make_module(g, Q, [Matrix(Q, [[1]]), Matrix(Q, [[-1]])])
    _check_against_reference(g, regular_module(g, Q), (0, 1, 2))
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
    assert [_full_bar_dimension(g, sign, p) for p in range(3)] == [0, 0, 0]


def test_array_coboundary_rational_action_scales_rows():
    # C2 swapping two lines with weights 2 and 1/2: rows through the second
    # row of the action are doubled, +-1 terms included
    g = c2()
    v = make_module(g, Q, [Matrix(Q, [[0, 2], ["1/2", 0]])])
    _check_against_reference(g, v, (0, 1, 2))
    # only the rows of the generator g_1 = 1 are built; those of the identity are 0
    delta0 = _bar_coboundary(g, v, 0)
    assert delta0.tolist() == [[-1, 2], [1, -2]]
    # V ~ Q[C2]: H^0 is the line of (2, 1), and higher cohomology vanishes
    assert [bar_dimension(g, v, p) for p in range(3)] == [1, 0, 0]
    assert [_full_bar_dimension(g, v, p) for p in range(3)] == [1, 0, 0]


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
    assert [_full_bar_dimension(g, sign, p) for p in range(3)] == [0, 0, 0]
    # over Q the bound counts the row scale: the row [1/126, 0] is scaled by
    # 126, so delta^0 is bounded by 1 + 126 and delta^1 by 1 + 2 * 126
    v = make_module(g, Q, [Matrix(Q, [[0, 126], ["1/126", 0]])])
    assert _bar_coboundary(g, v, 0).dtype == np.int8
    assert _bar_coboundary(g, v, 1).dtype == np.int64
    _check_against_reference(g, v, (0, 1, 2))


def _sign(perm):
    """The parity of a permutation, as +1 or -1."""
    im = perm.images
    inversions = sum(im[i] > im[j] for i in range(len(im)) for j in range(i + 1, len(im)))
    return -1 if inversions % 2 else 1


def _rank_identity_cases():
    """(group, module) for every module of every shipped spec and the
    coinduced module of each spec's group, each once; then generating
    tuples that no shipped spec has."""
    seen = set()
    for path in SHIPPED_SPECS:
        spec = load_problem(str(path))
        modules = [spec.build_module(name) for name in spec.module_names()]
        for v in modules + [coinduced_module(spec.group, spec.field, 1)]:
            key = (spec.field.name, spec.group.gen_indices, spec.group.mult.tobytes(),
                   v.den, v.stack.tobytes())
            if key not in seen:
                seen.add(key)
                yield spec.group, v
    a, b = Permutation([1, 2, 0]), Permutation([1, 0, 2])
    for group in (close_generators([]),                                  # no generators
                  close_generators([a, b, a]),                           # a repeated one
                  close_generators([Permutation([0, 1, 2]), b, a])):     # the identity
        for field in (F2, F3, Q):
            yield group, trivial_module(group, field, 1)
            yield group, coinduced_module(group, field, 1)
            if group.gen_indices and field.p != 2:
                yield group, make_module(group, field, [
                    Matrix(field, [[_sign(group.elements[g])]]) for g in group.gen_indices])


def test_generator_rows_have_the_rank_of_the_whole_coboundary():
    # a normalized cochain killed by the rows whose g_1 is a generator is a
    # cocycle, so the generator rows have the rank of the whole normalized
    # coboundary (the full one on the tuples avoiding e), over every field
    compared = 0
    for group, v in _rank_identity_cases():
        for i in range(3):
            if group.order ** (i + 1) * v.dim > DEFAULT_BAR_BUDGET:
                continue
            rows = _bar_coboundary(group, v, i)
            cols = (group.order - 1) ** i * v.dim
            assert rows.shape == (len(set(group.gen_indices) - {0}) * cols, cols)
            scales = np.array(_row_scales(group, v, i), dtype=object)[:, None]
            full = np.array(_bar_delta_reference(group, v, i), dtype=object) * scales
            normalized = full[np.array(_avoiding_identity(group, v, i + 1))][
                :, np.array(_avoiding_identity(group, v, i))].astype(np.int64)
            assert (rank_of_int_rows(v.field, rows, cols)
                    == rank_of_int_rows(v.field, normalized, cols))
            compared += 1
    assert compared >= 100


def _normalized_edge_cases():
    """(id, group, module): generating tuples that drop or repeat rows.
    The rational action with denominators and the int64 prime are cases
    of the array-coboundary tests above."""
    rot, swap, ident = [1, 2, 0], [1, 0, 2], [0, 1, 2]
    with_identity = close_generators([Permutation(g) for g in (ident, rot, swap)])
    repeated = close_generators([Permutation(g) for g in (rot, swap, rot)])
    return [
        ("trivial group", close_generators([]), trivial_module(close_generators([]), F3, 2)),
        ("identity generator", with_identity, regular_module(with_identity, F2)),
        ("repeated generator", repeated,
         make_module(repeated, F3, [Matrix(F3, [[x]]) for x in (1, -1, 1)])),
    ]


@pytest.mark.parametrize("case", _normalized_edge_cases(), ids=lambda case: case[0])
def test_normalized_coboundary_edge_cases(case):
    _, group, v = case
    _check_against_reference(group, v, (0, 1, 2))
    got = [bar_dimension(group, v, p) for p in range(3)]
    assert got == [_full_bar_dimension(group, v, p) for p in range(3)]
    if group.order == 1:
        assert got == [v.dim, 0, 0]


def _permutation_groups():
    """Permutation groups of degree at most 4, from generating tuples that
    may hold the identity or a repeated generator."""
    return st.sampled_from([4, 3, 2, 1]).flatmap(lambda degree: st.lists(
        st.permutations(range(degree)), min_size=1, max_size=3).map(
            lambda gens: close_generators([Permutation(g) for g in gens])))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(group=_permutation_groups(), field=st.sampled_from([F2, F3, Q]),
       kind=st.sampled_from(["trivial", "regular", "coinduced"]), p=st.integers(0, 2))
def test_normalized_bar_dimension_equals_the_full_complex(group, field, kind, p):
    v = {"trivial": trivial_module, "regular": regular_module,
         "coinduced": coinduced_module}[kind](group, field)
    # the list-built reference ranks (|G|^{p+1} dim V) x (|G|^p dim V) cells
    while p and group.order ** (2 * p + 1) * v.dim ** 2 > 40000:
        p -= 1
    assert bar_dimension(group, v, p) == _full_bar_dimension(group, v, p)


# --- the composed pipeline --------------------------------------------------

def _suite():
    out = []
    for group, field in [(c2(), F2), (cyclic(3), F3), (cyclic(4), F2),
                         (s3(), F2), (s3(), F3), (s3(), Q)]:
        alg = GroupAlgebra(group, field)
        modules = [trivial_module(group, field, 1), regular_module(group, field)]
        if group.order == 6 and field.p != 2:
            modules.append(make_module(
                group, field, [Matrix.identity(field, 1), Matrix(field, [[-1]])]))
        out.append((alg, modules))
    return out


def test_q1_matches_bar_oracle():
    for alg, modules in _suite():
        sigma = trivial_subgroup(alg.group)
        for v in modules:
            for p in (0, 1, 2):
                got = higher_cohomology(alg, sigma, v, 1, p)
                assert got == bar_dimension(alg.group, v, p), (alg, v, p)


def test_sigma_full_constant_in_q():
    g = c2()
    alg = GroupAlgebra(g, F2)
    sigma = full_subgroup(g)
    v = regular_module(g, F2)
    h0 = higher_cohomology(alg, sigma, v, 1, 0)
    assert h0 == v.fixed_points().dim
    for q in (2, 3):
        assert higher_cohomology(alg, sigma, v, q, 0) == h0
        assert (higher_cohomology(alg, sigma, v, q, 1)
                == higher_cohomology(alg, sigma, v, 1, 1))


def test_c2_q2_free_quotient():
    g = c2()
    alg = GroupAlgebra(g, F2)
    sigma = trivial_subgroup(g)
    v = trivial_module(g, F2, 1)
    assert higher_cohomology(alg, sigma, v, 2, 0) == 1
    assert higher_cohomology(alg, sigma, v, 2, 1) == 0
    assert higher_cohomology(alg, sigma, v, 2, 2) == 0


def test_resolution_independence_forward_vs_reverse():
    instances = [
        (GroupAlgebra(c2(), F2), None),
        (GroupAlgebra(cyclic(3), F3), None),
        (GroupAlgebra(s3(), F2), None),
    ]
    for alg, _ in instances:
        group = alg.group
        sigma = trivial_subgroup(group)
        v = regular_module(group, alg.field)
        for q in (1, 2):
            for p in (0, 1, 2, 3):
                fwd = higher_cohomology(alg, sigma, v, q, p, order="forward")
                rev = higher_cohomology(alg, sigma, v, q, p, order="reverse")
                assert fwd == rev, (alg, q, p)


def test_a4_order_twelve_smoke():
    # a larger group exercising the engine at scale: A4 over F2
    g = close_generators([Permutation([1, 2, 0, 3]), Permutation([1, 0, 3, 2])])
    assert g.order == 12
    alg = GroupAlgebra(g, F2)
    sigma = trivial_subgroup(g)
    v = trivial_module(g, F2, 1)
    for p in (0, 1):
        assert higher_cohomology(alg, sigma, v, 1, p) == bar_dimension(g, v, p)
    # the abelianization of A4 is C3, so there are no homs to F2
    assert higher_cohomology(alg, sigma, v, 1, 1) == 0


# --- Ext from two ranks against the subspace route -----------------------------

def _ext_reference(resolution, v, p):
    """dim Ext^p as the quotient of the cocycles by the coboundaries, built as
    subspaces: the route the package took before it read the dimension off
    two ranks."""
    cocycles = kernel(hom_delta(resolution, v, p))
    if p == 0:
        coboundaries = Subspace.zero(v.field, resolution.ranks[0] * v.dim)
    else:
        coboundaries = column_space(hom_delta(resolution, v, p - 1))
    assert cocycles.contains_subspace(coboundaries)
    return QuotientMap(cocycles, coboundaries.basis).dim


def test_ext_matches_the_subspace_route():
    d4 = close_generators([Permutation([1, 2, 3, 0]), Permutation([3, 2, 1, 0])])

    def sign(field):
        return make_module(s3(), field, [Matrix(field, [[1]]), Matrix(field, [[-1]])])

    cases = [(d4, F2, lambda alg: [coinduced_module(d4, F2, 1)]),
             (s3(), Q, lambda alg: [sign(Q)]),
             (s3(), F3, lambda alg: [sign(F3)]),
             (cyclic(3), F3, lambda alg: [])]
    seen = set()
    for group, field, extra in cases:
        alg = GroupAlgebra(group, field)
        modules = [trivial_module(group, field, 1), regular_module(group, field)] + extra(alg)
        sigma = trivial_subgroup(group)
        for q in (1, 2):
            res = resolution_of_quotient(alg, sigma, q, 3)
            for v in modules:
                for p in range(3):
                    got = ext(res, v, p)
                    assert got == _ext_reference(res, v, p)
                    seen.add(got)
    assert len(seen) > 2


# --- the contracted Hom functor against the per-block reference ----------------

def _hom_precompose_reference(algebra, amap, v):
    """Hom_A(-, V) of an A-map, built one block at a time.

    Block (j, k) is sum_g c_g action[g], summed entry by entry, for the
    coefficients c of generator k in the image of generator j.
    """
    n, f, d = algebra.dim, algebra.field, v.dim
    gens_from, gens_to = amap.cols // n, amap.rows // n
    blocks = []
    for j in range(gens_from):
        image = [row[j * n] for row in amap.entries]
        row = []
        for k in range(gens_to):
            out = [[0] * d for _ in range(d)]
            for g, c in enumerate(image[k * n:(k + 1) * n]):
                for r, action_row in enumerate(v.action[g].entries):
                    for t, x in enumerate(action_row):
                        out[r][t] += c * x
            row.append(Matrix(f, out, d, d))
        blocks.append(row)
    return Matrix.block(f, blocks)


def test_hom_precompose_matches_per_block_reference():
    d4 = close_generators([Permutation([1, 2, 3, 0]), Permutation([3, 2, 1, 0])])
    big = Field.prime(2147483647)
    c2_q = make_module(c2(), Q, [Matrix(Q, [[0, 2], ["1/2", 0]])])

    def sign(field):   # -1 is p - 1 over F_p: products past int64 over the large prime
        return make_module(s3(), field, [Matrix(field, [[1]]), Matrix(field, [[-1]])])

    cases = [
        (GroupAlgebra(d4, F2), [coinduced_module(d4, F2, 1)]),
        (GroupAlgebra(s3(), Q), [regular_module(s3(), Q), sign(Q)]),
        (GroupAlgebra(s3(), big), [regular_module(s3(), big), sign(big)]),
        (GroupAlgebra(c2(), Q), [c2_q]),
    ]
    for alg, modules in cases:
        sigma = trivial_subgroup(alg.group)
        res = resolution_of_quotient(alg, sigma, 2, 3)
        for v in modules:
            for i in range(res.length):
                got = hom_delta(res, v, i)
                assert got == _hom_precompose_reference(alg, res.boundaries[i], v)
                assert got.array.dtype == Matrix.zeros(alg.field, 0, 0).array.dtype


def test_resolution_cache_returns_same_object():
    g = c2()
    alg = GroupAlgebra(g, F2)
    sigma = trivial_subgroup(g)
    r1 = resolution_of_quotient(alg, sigma, 1, 2)
    r2 = resolution_of_quotient(alg, sigma, 1, 2)
    assert r1 is r2
    r3 = resolution_of_quotient(alg, sigma, 1, 4)
    assert r3.length >= 4


def test_extended_resolution_equals_a_fresh_build():
    d4 = close_generators([Permutation([1, 2, 3, 0]), Permutation([3, 2, 1, 0])])
    for group, field in [(d4, F2), (s3(), Q), (s3(), F3)]:
        sigma = trivial_subgroup(group)
        for q in (1, 2):
            # a fresh algebra per q: over Q, A/J_2 = A/J_1 shares the level-1 resolution
            alg = GroupAlgebra(group, field)
            for order in ("forward", "reverse"):
                short = resolution_of_quotient(alg, sigma, q, 1, order)
                extended = resolution_of_quotient(alg, sigma, q, 4, order)
                assert short.length == 1 and extended.length == 4
                assert resolution_of_quotient(alg, sigma, q, 2, order) is extended
                fresh = build_resolution(alg, quotient_by_j(alg, sigma, q)[0], 4, order)
                assert extended.ranks == fresh.ranks
                assert extended.augmentation == fresh.augmentation
                assert extended.boundaries == fresh.boundaries
                assert extended.ranks[:2] == short.ranks
                assert extended.boundaries[:1] == short.boundaries


@pytest.mark.parametrize("path", SHIPPED_SPECS + [TEST_SPECS / "a4_f2.json",
                                                  TEST_SPECS / "s4_f2.json"],
                         ids=lambda path: path.stem)
def test_layer_resolution_is_the_greedy_resolution_of_the_layer(path, monkeypatch):
    """The block sum of A/J_1 resolutions equals, entry for entry, the greedy
    resolution of J_q/J_{q+1}; a longer request sums the extended A/J_1
    resolution again and never extends the sum."""
    spec = load_problem(str(path))
    alg = spec.algebra()
    length = spec.p_max + 2
    extended = []

    def spy(res, *args):
        extended.append(res.target)
        return _extend(res, *args)

    monkeypatch.setattr(resolution_module, "_extend", spy)
    sums = []
    for q in range(1, spec.q_max + 1):
        short = resolution_of_layer(alg, spec.sigma, q, 1)
        sums.append(resolution_of_layer(alg, spec.sigma, q, length))
        assert sums[-1].length == length
        assert sums[-1].boundaries[:short.length] == short.boundaries
    assert set(extended) <= {quotient_by_j(alg, spec.sigma, 1)[0]}
    monkeypatch.undo()
    for q, res in enumerate(sums, start=1):
        layer = layer_module(alg, spec.sigma, q)[0]
        reference = build_resolution(alg, layer, length)
        assert res.target is layer
        assert res.ranks == reference.ranks
        assert res.augmentation == reference.augmentation
        assert res.boundaries == reference.boundaries


# --- permutation-action free modules and generator-only stability -------------

@pytest.mark.parametrize("k", [0, 1, 3])
def test_free_module_permutation_action_matches_dense_blocks(k):
    for group, field in [(s3(), F2), (cyclic(4), F3), (s3(), Q)]:
        alg = GroupAlgebra(group, field)
        free = free_amodule(alg, k)
        n = alg.dim
        rng_rows = Matrix(field, [[(3 * i + j) % 5 for j in range(n * k)] for i in range(4)])
        moved, den = free.orbits(rng_rows)
        for g in range(n):
            # column h of the left multiplication by g is the unit vector of g h
            left = Matrix.identity(field, n).take_columns(group.mult[g])
            blocks = [[left if i == j else Matrix.zeros(field, n, n) for j in range(k)]
                      for i in range(k)]
            dense = Matrix.block(field, blocks) if k else Matrix.zeros(field, 0, 0)
            assert free.action[g] == dense
            assert Matrix._wrap(field, moved[:, g], den) == rng_rows @ dense.transpose()


def test_orbits_of_a_dense_rational_module():
    v = make_module(c2(), Q, [Matrix(Q, [[0, 2], ["1/2", 0]])])
    assert v.perm is None and v.den > 1
    vectors = Matrix(Q, [["1/3", 2], [0, "-5/7"], [1, 1]])
    moved, den = v.orbits(vectors)
    assert moved.shape == (3, 2, 2)
    for g in range(2):
        assert Matrix._wrap(Q, moved[:, g], den) == vectors @ v.action[g].transpose()


def test_unstable_subspace_of_free_module_rejected_by_generators():
    g = s3()
    alg = GroupAlgebra(g, F2)
    free = free_amodule(alg, 2)
    # span of (e, 0) and (0, e): not stable, since g e = g is not in it
    unstable = Subspace.from_vectors(
        F2, 12, [[1] + [0] * 11, [0] * 6 + [1] + [0] * 5])
    with pytest.raises(NotStableError) as err:
        amodule_from_subspace(free, unstable)
    assert err.value.element_index in g.gen_indices
    # the sum-of-all-elements line of the first copy is stable
    stable = Subspace.from_vectors(F2, 12, [[1] * 6 + [0] * 6])
    m = amodule_from_subspace(free, stable)
    assert all(mat == Matrix.identity(F2, 1) for mat in m.action)


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
    with pytest.raises(CertificateError) as err:
        quotient_amodule(alg, Subspace.zero(Q, 6), line)
    assert err.value.__cause__.element_index == g.gen_indices[1]
