"""The long exact sequence: construction, exactness, and the dimension laws."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from hocohom.algebra import GroupAlgebra, j_filtration
from hocohom.groups import (
    Permutation, close_generators, subgroup_closure,
)
from hocohom.linalg import (
    CertificateError, DimensionMismatch, Field, Matrix, column_space, kernel, rank,
)
from hocohom.modules import trivial_module, regular_module, coinduced_module
from hocohom.problem import load_problem
from hocohom import resolution
from hocohom.resolution import (
    amap_from_generator_images, filtration_for, free_amodule, higher_cohomology,
    bar_dimension, quotient_by_j, resolution_of_layer, resolution_of_quotient,
)
from hocohom.les import (
    NontrivialActionError, quotient_ses, trivial_action_witness, horseshoe,
    long_exact_sequence, node_exact, power_identification, vanishing_check,
)

SHIPPED_SPECS = sorted((Path(__file__).resolve().parent.parent / "specs").glob("*.json"))
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

def a3_in(g):
    return subgroup_closure(g, [g.gen_indices[0]])


# --- short exact sequence ---------------------------------------------------

def test_ses_dims_c3():
    g = cyclic(3)
    alg = GroupAlgebra(g, F3)
    filt = j_filtration(alg, trivial_subgroup(g))
    ses = quotient_ses(alg, filt, 1)
    assert (ses.left.dim, ses.middle.dim, ses.right.dim) == (1, 2, 1)


def test_ses_dims_s3_a3():
    g = s3()
    alg = GroupAlgebra(g, F2)
    filt = j_filtration(alg, a3_in(g))
    ses = quotient_ses(alg, filt, 1)
    assert (ses.left.dim, ses.middle.dim, ses.right.dim) == (1, 2, 1)


def test_ses_stabilized_left_term_zero():
    g = s3()
    alg = GroupAlgebra(g, F2)
    filt = j_filtration(alg, a3_in(g))
    ses = quotient_ses(alg, filt, 3)  # past stabilization at q = 2
    assert ses.left.dim == 0
    assert ses.middle.dim == ses.right.dim


def test_trivial_action_witness_c2():
    g = c2()
    alg = GroupAlgebra(g, F2)
    filt = j_filtration(alg, trivial_subgroup(g))
    ses = quotient_ses(alg, filt, 1)
    trivial_action_witness(ses)
    assert ses.left.dim == 1
    assert all(mat == Matrix.identity(F2, 1) for mat in ses.left.action)


def test_trivial_action_witness_c3_q2():
    g = cyclic(3)
    alg = GroupAlgebra(g, F3)
    filt = j_filtration(alg, trivial_subgroup(g))
    ses = quotient_ses(alg, filt, 2)
    trivial_action_witness(ses)
    assert ses.left.dim == 1


def test_trivial_action_witness_vacuous_for_zero_layer():
    g = s3()
    alg = GroupAlgebra(g, Q)
    filt = j_filtration(alg, trivial_subgroup(g))
    ses = quotient_ses(alg, filt, 1)
    trivial_action_witness(ses)
    assert ses.left.dim == 0  # rational semisimplicity: J constant


# --- horseshoe --------------------------------------------------------------

def test_horseshoe_soundness():
    g = s3()
    alg = GroupAlgebra(g, F2)
    sigma = a3_in(g)
    filt = j_filtration(alg, sigma)
    ses = quotient_ses(alg, filt, 1)
    middle = horseshoe(ses, 3)
    left = resolution_of_layer(alg, sigma, 1, 3)
    right = resolution_of_quotient(alg, sigma, 1, 3)
    for i in range(4):
        assert middle.ranks[i] == left.ranks[i] + right.ranks[i]
    assert rank(middle.augmentation) == ses.middle.dim
    for before, b in zip((middle.augmentation,) + middle.boundaries, middle.boundaries):
        assert column_space(b) == kernel(before)
    for b1, b2 in zip(middle.boundaries, middle.boundaries[1:]):
        assert (b1 @ b2).is_zero()
    # each boundary is the A-linear map of its own generator columns
    for i, b in enumerate(middle.boundaries):
        free = free_amodule(alg, middle.ranks[i])
        generator_images = b.take_columns(range(0, b.cols, alg.dim)).transpose()
        assert b == amap_from_generator_images(alg, free, generator_images)


def test_horseshoe_middle_matches_direct_ext():
    # resolution independence: the horseshoe middle resolution computes the
    # same Ext dimensions as the directly built resolution of A/J_{q+1}
    from hocohom.resolution import ext, resolution_of_quotient
    g = s3()
    alg = GroupAlgebra(g, F2)
    sigma = a3_in(g)
    filt = filtration_for(alg, sigma)
    ses = quotient_ses(alg, filt, 1)
    middle = horseshoe(ses, 3)
    direct = resolution_of_quotient(alg, sigma, 2, 3)
    for v in (trivial_module(g, F2, 1), regular_module(g, F2)):
        for p in (0, 1, 2):
            assert ext(middle, v, p) == ext(direct, v, p)


@pytest.mark.parametrize("path", SHIPPED_SPECS, ids=lambda path: path.stem)
def test_les_terms_match_the_horseshoe_route(path):
    # the sequence reads the grid's resolution of A/J_{q+1} and the cone; the
    # horseshoe resolves A/J_{q+1} and the layer another way, from the outer terms
    from hocohom.resolution import ext
    spec = load_problem(path)
    alg = spec.algebra()
    filt = filtration_for(alg, spec.sigma)
    for q in range(1, min(spec.q_max, filt.stabilization_q + 1) + 1):
        middle = horseshoe(quotient_ses(alg, filt, q), spec.p_max + 1)
        layer = resolution_of_layer(alg, spec.sigma, q, spec.p_max + 1)
        for name in spec.module_names():
            v = spec.build_module(name)
            report = long_exact_sequence(alg, spec.sigma, v, q, spec.p_max)
            assert [(d.dim_upper, d.dim_power) for d in report.degrees] == [
                (ext(middle, v, p), ext(layer, v, p)) for p in range(spec.p_max + 1)]


def test_comparison_map_and_ses_built_once_per_level(monkeypatch):
    from hocohom import les
    built = {"ses": [], "comparison": [], "horseshoe": []}
    quotient_ses_body, comparison_body = les.quotient_ses, les.comparison_map

    def spy_ses(algebra, filtration, q):
        built["ses"].append(q)
        return quotient_ses_body(algebra, filtration, q)

    def spy_comparison(ses, res_m, res_n, length):
        built["comparison"].append((ses.q, length))
        return comparison_body(ses, res_m, res_n, length)

    monkeypatch.setattr(les, "quotient_ses", spy_ses)
    monkeypatch.setattr(les, "comparison_map", spy_comparison)
    monkeypatch.setattr(les, "horseshoe", lambda *args: built["horseshoe"].append(args))
    g = s3()
    alg = GroupAlgebra(g, F2)
    sigma = a3_in(g)
    trivial, regular = trivial_module(g, F2, 1), regular_module(g, F2)
    reports = {(q, v.dim): long_exact_sequence(alg, sigma, v, q, 2)
               for q in (1, 2) for v in (trivial, regular)}
    assert built["ses"] == [1, 2]
    # q = 2 is the stabilization level: J_2 = J_3, and there is no cone
    assert built["comparison"] == [(1, 3)]
    assert not built["horseshoe"]
    # the second module's report, from the cached comparison map, equals a fresh one
    assert reports[(1, regular.dim)] == long_exact_sequence(
        GroupAlgebra(g, F2), sigma, regular, 1, 2)


def test_comparison_map_is_a_chain_map_lifting_the_surjection():
    # checked on every column, not only the generator columns it certifies
    from hocohom.les import comparison_map
    g = s3()
    alg = GroupAlgebra(g, F2)
    sigma = a3_in(g)
    ses = quotient_ses(alg, filtration_for(alg, sigma), 1)
    res_m = resolution_of_quotient(alg, sigma, 2, 3)
    res_n = resolution_of_quotient(alg, sigma, 1, 3)
    phis = comparison_map(ses, res_m, res_n, 3)
    assert [(phi.rows, phi.cols) for phi in phis] == [
        (res_n.ranks[i] * alg.dim, res_m.ranks[i] * alg.dim) for i in range(4)]
    assert res_n.augmentation @ phis[0] == ses.surject.matrix @ res_m.augmentation
    for i in range(1, 4):
        assert res_n.boundaries[i - 1] @ phis[i] == phis[i - 1] @ res_m.boundaries[i - 1]


@pytest.mark.parametrize("degree", [0, 2])
def test_comparison_map_rejects_a_wrong_lift_at_its_degree(monkeypatch, degree):
    from hocohom import les
    g = s3()
    alg = GroupAlgebra(g, F2)
    sigma = a3_in(g)
    ses = quotient_ses(alg, filtration_for(alg, sigma), 1)
    res_m = resolution_of_quotient(alg, sigma, 2, 3)
    res_n = resolution_of_quotient(alg, sigma, 1, 3)
    solve_body, solves = les.solve_column, []

    def wrong_at_degree(m, b):
        x = solve_body(m, b)
        solves.append(x)
        if len(solves) - 1 != degree:
            return x
        flipped = x.array.copy()
        flipped[int(np.flatnonzero(m.array.any(axis=0))[0])] ^= 1
        return Matrix(m.field, flipped.tolist(), x.rows, x.cols)

    monkeypatch.setattr(les, "solve_column", wrong_at_degree)
    with pytest.raises(CertificateError, match=f"comparison map at degree {degree} is not"):
        les.comparison_map(ses, res_m, res_n, 3)


def test_horseshoe_rejects_a_wrong_corrector(monkeypatch):
    """Correctors that do not solve their equation leave a nonzero composite
    on the generator columns, and the stage fails exactness."""
    from hocohom import les
    g = s3()
    alg = GroupAlgebra(g, F2)
    ses = quotient_ses(alg, j_filtration(alg, a3_in(g)), 1)
    solve_body = les.solve_column
    corrupted = []

    def zero_correctors(m, b):
        if m is ses.surject.matrix:    # the lift of the augmentation stays right
            return solve_body(m, b)
        corrupted.append(not b.is_zero())
        return Matrix.zeros(m.field, m.cols, b.cols)

    monkeypatch.setattr(les, "solve_column", zero_correctors)
    with pytest.raises(CertificateError, match="horseshoe failed exactness at stage"):
        horseshoe(ses, 3)
    assert any(corrupted)


def test_horseshoe_multiplies_no_full_boundary(monkeypatch):
    """The horseshoe's products read generator columns: none takes a full
    middle boundary as its right factor."""
    g = s3()
    alg = GroupAlgebra(g, F2)
    sigma = a3_in(g)
    ses = quotient_ses(alg, j_filtration(alg, sigma), 1)
    resolution_of_layer(alg, sigma, 1, 3)          # the outer resolutions, built
    resolution_of_quotient(alg, sigma, 1, 3)       # before the spy is installed
    matmul = Matrix.__matmul__
    right_factors = []

    def spy(self, other):
        right_factors.append(other)
        return matmul(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", spy)
    middle = horseshoe(ses, 3)
    monkeypatch.undo()
    assert right_factors
    assert not any(r == b for r in right_factors for b in middle.boundaries)


def test_les_runs_two_eliminations_per_cohomology_degree(monkeypatch):
    from hocohom import linalg
    g = s3()
    alg = GroupAlgebra(g, F2)
    sigma = a3_in(g)
    v = regular_module(g, F2)
    p_max = 2
    fresh = long_exact_sequence(alg, sigma, v, 1, p_max)   # caches the comparison map
    rref_body, quotient_init = linalg.rref, linalg.QuotientMap.__init__
    calls = {"rref": 0, "QuotientMap": 0}

    def spy_rref(m):
        calls["rref"] += 1
        return rref_body(m)

    def spy_quotient(self, sup, spanning):
        calls["QuotientMap"] += 1
        quotient_init(self, sup, spanning)

    monkeypatch.setattr(linalg, "rref", spy_rref)
    monkeypatch.setattr(linalg.QuotientMap, "__init__", spy_quotient)
    # a fresh module, since the sequence is kept with the module it was built for
    report = long_exact_sequence(alg, sigma, regular_module(g, F2), 1, p_max)
    # the complexes of A/J_q in degrees 0 .. p_max + 1, of A/J_{q+1} in
    # 0 .. p_max and of the cone in 1 .. p_max + 1, each one quotient of at
    # most two eliminations
    assert 0 < calls["rref"] <= 2 * (3 * (p_max + 1) + 1)
    assert calls["QuotientMap"] == 3 * (p_max + 1) + 1
    assert report == fresh and report.exact


def _nodes(field, rng, count):
    """Random composable pairs (incoming, outgoing) of small matrices, half
    of them built as complexes (outgoing kills the image of incoming)."""
    for i in range(count):
        before, node, after = (int(x) for x in rng.integers(0, 4, size=3))
        a = Matrix(field, rng.integers(-2, 3, size=(node, before)).tolist(), node, before)
        b = Matrix(field, rng.integers(-2, 3, size=(after, node)).tolist(), after, node)
        if i % 2 and after:
            k = kernel(a.transpose()).basis   # rows killing the image of a
            b = Matrix(field, rng.integers(-2, 3, size=(after, k.rows)).tolist(),
                       after, k.rows) @ k
        yield a, b


def test_node_exactness_is_subspace_equality():
    # a complex that is not exact: the composite is zero, the ranks fall short
    image_e1 = Matrix(F2, [[1], [0]])
    assert (Matrix(F2, [[0, 0]]) @ image_e1).is_zero()
    assert not node_exact(image_e1, 1, Matrix(F2, [[0, 0]]), 0)
    # ranks that fill the node around a nonzero composite
    assert not node_exact(image_e1, 1, Matrix(F2, [[1, 0]]), 1)
    assert node_exact(Matrix(F2, [[0], [1]]), 1, Matrix(F2, [[1, 0]]), 1)
    # on random pairs, the verdict is image = kernel as subspaces
    rng = np.random.default_rng(5)
    seen = set()
    for field in (F2, F3, Q):
        for a, b in _nodes(field, rng, 150):
            verdict = node_exact(a, rank(a), b, rank(b))
            assert verdict == (column_space(a) == kernel(b))
            seen.add((verdict, (b @ a).is_zero()))
    assert seen == {(True, True), (False, True), (False, False)}
    with pytest.raises(DimensionMismatch):
        node_exact(image_e1, 1, Matrix(F2, [[1, 0, 0]]), 1)


def test_cohomology_spaces_certify_what_they_read():
    from hocohom.les import _class_of, _cohomology_spaces
    one = Matrix(F2, [[1]])
    # delta squared is nonzero: the coboundaries do not lie in the cocycles
    with pytest.raises(CertificateError, match="not contained"):
        _cohomology_spaces([one, one], 1, F2)
    # 0 -> F^2 -> F -> F: H^0 is spanned by (1, 1), and H^1 = F / F is zero
    delta = Matrix(F2, [[1, 1]])
    h = _cohomology_spaces([delta, Matrix(F2, [[0]])], 1, F2)
    assert [space.dim for space in h] == [1, 0]
    assert _class_of(delta, h[0], Matrix(F2, [[1], [1]]), "x") == Matrix(F2, [[1]])
    with pytest.raises(CertificateError, match="x is not a cocycle"):
        _class_of(delta, h[0], Matrix(F2, [[1], [0]]), "x")


# --- the long exact sequence ------------------------------------------------

def test_les_c2_f2_trivial_full_detail():
    g = c2()
    alg = GroupAlgebra(g, F2)
    sigma = trivial_subgroup(g)
    v = trivial_module(g, F2, 1)
    report = long_exact_sequence(alg, sigma, v, 1, 2)
    assert report.exact
    assert report.n_q == 1
    dims = [(d.dim_lower, d.dim_upper, d.dim_power) for d in report.degrees]
    assert dims == [(1, 1, 1), (1, 0, 1), (1, 0, 1)]
    # connecting maps must carry the burden: H^p power -> H_q^{p+1} is onto
    for d in report.degrees[1:]:
        assert rank(d.connecting) == 1


def test_les_exactness_suite():
    cases = []
    for group, field in [(c2(), F2), (cyclic(3), F3), (cyclic(4), F2),
                         (s3(), F2), (s3(), F3), (s3(), Q)]:
        alg = GroupAlgebra(group, field)
        sigmas = [trivial_subgroup(group)]
        if group.order == 6:
            sigmas.append(a3_in(group))
        for sigma in sigmas:
            mods = [trivial_module(group, field, 1), regular_module(group, field)]
            for v in mods:
                cases.append((alg, sigma, v))
    for alg, sigma, v in cases:
        for q in (1, 2):
            report = long_exact_sequence(alg, sigma, v, q, 2)
            assert report.exact, (alg, sigma.order, v.dim, q)


def test_les_reported_dims_match_direct_computation():
    g = s3()
    alg = GroupAlgebra(g, F2)
    sigma = a3_in(g)
    v = regular_module(g, F2)
    report = long_exact_sequence(alg, sigma, v, 1, 2)
    for d in report.degrees:
        assert d.dim_lower == higher_cohomology(alg, sigma, v, 1, d.p)
        assert d.dim_upper == higher_cohomology(alg, sigma, v, 2, d.p)


def test_les_coinduced_h0_dimension_law():
    # acyclic coefficients: the degree-0 row is short exact, so
    # dim H_{q+1}^0 = dim H_q^0 + N(q) * dim H^0
    for group, field in [(c2(), F2), (s3(), F2)]:
        alg = GroupAlgebra(group, field)
        sigma = trivial_subgroup(group)
        v = coinduced_module(group, field, 1)
        filt = filtration_for(alg, sigma)
        for q in (1, 2):
            report = long_exact_sequence(alg, sigma, v, q, 1)
            assert report.exact
            d0 = report.degrees[0]
            assert d0.dim_upper == d0.dim_lower + filt.n(q) * bar_dimension(group, v, 0)
            for d in report.degrees[1:]:
                assert d.dim_lower == 0 and d.dim_upper == 0 and d.dim_power == 0


def test_les_sigma_full_degenerates_to_isomorphisms():
    g = s3()
    alg = GroupAlgebra(g, F2)
    sigma = full_subgroup(g)
    v = trivial_module(g, F2, 1)
    report = long_exact_sequence(alg, sigma, v, 1, 2)
    assert report.exact
    for d in report.degrees:
        assert d.dim_power == 0
        assert d.dim_lower == d.dim_upper
        assert rank(d.map_lower_to_upper) == d.dim_lower  # isomorphism


def test_les_alternating_sum_identity():
    g = s3()
    alg = GroupAlgebra(g, F2)
    sigma = a3_in(g)
    for v in (trivial_module(g, F2, 1), regular_module(g, F2)):
        report = long_exact_sequence(alg, sigma, v, 1, 2)
        terms = []
        for d in report.degrees:
            terms.extend([d.dim_lower, d.dim_upper, d.dim_power])
        total = sum(t if i % 2 == 0 else -t for i, t in enumerate(terms))
        # exactness of 0 -> T_0 -> ... -> T_k -> ...: the alternating sum
        # equals (+/-) the image of the map leaving the last listed term
        tail_sign = 1 if (len(terms) - 1) % 2 == 0 else -1
        total -= tail_sign * rank(report.degrees[-1].connecting)
        assert total == 0


# --- the two dimension laws -------------------------------------------------

def _power(alg, sigma, v, q, p_max, p):
    """The power law at (q, p): the power term of the sequence at level q
    read with p_max, against N(q) times the bar oracle's dim H^p(G, V)."""
    report = long_exact_sequence(alg, sigma, v, q, p_max)
    return power_identification(report, p, bar_dimension(alg.group, v, p))


def test_power_identification_zero_case():
    g = s3()
    alg = GroupAlgebra(g, Q)
    sigma = trivial_subgroup(g)
    v = trivial_module(g, Q, 1)
    lhs, rhs = _power(alg, sigma, v, 1, 1, 1)
    assert lhs == rhs == 0


def test_power_identification_c2():
    g = c2()
    alg = GroupAlgebra(g, F2)
    sigma = trivial_subgroup(g)
    v = trivial_module(g, F2, 1)
    assert _power(alg, sigma, v, 1, 1, 1) == (1, 1)


def test_power_identification_s3_a3():
    g = s3()
    alg = GroupAlgebra(g, F2)
    sigma = a3_in(g)
    v = trivial_module(g, F2, 1)
    assert _power(alg, sigma, v, 1, 0, 0) == (1, 1)


def test_power_identification_suite():
    for group, field in [(c2(), F2), (cyclic(3), F3), (s3(), F2)]:
        alg = GroupAlgebra(group, field)
        sigma = trivial_subgroup(group)
        for v in (trivial_module(group, field, 1), regular_module(group, field)):
            for q in (1, 2):
                for p in (0, 1, 2):
                    lhs, rhs = _power(alg, sigma, v, q, 2, p)
                    assert lhs == rhs, (group.order, field.name, q, p)


def test_layer_with_a_nontrivial_action_is_rejected(monkeypatch):
    """A layer that does not act trivially is not a sum of copies of A/J_1:
    neither its resolution nor the long exact sequence that holds the power
    term is built on it."""
    from hocohom import les
    assert NontrivialActionError is resolution.NontrivialActionError
    g = c2()
    alg = GroupAlgebra(g, F2)
    sigma = trivial_subgroup(g)
    regular = quotient_by_j(alg, sigma, 2)      # A/J_2 = A: g swaps the basis
    assert regular[0].dim == 2
    monkeypatch.setattr(resolution, "layer_module", lambda algebra, s, q: regular)
    with pytest.raises(NontrivialActionError, match="group element 1"):
        resolution_of_layer(alg, sigma, 1, 2)
    assert ("res_layer", sigma.members, 1) not in alg._cache
    ses_body = les.quotient_ses
    monkeypatch.setattr(les, "quotient_ses", lambda algebra, filtration, q: dataclasses.replace(
        ses_body(algebra, filtration, q), left=regular[0]))
    v = trivial_module(g, F2, 1)
    with pytest.raises(NontrivialActionError, match="group element 1"):
        long_exact_sequence(alg, sigma, v, 1, 1)
    assert ("ses", sigma.members, 1) not in alg._cache
    assert not any(key[0] == "les" for key in v._cache)


def test_vanishing_trivial_group():
    g = close_generators([])
    alg = GroupAlgebra(g, F2)
    sigma = trivial_subgroup(g)
    v = coinduced_module(g, F2, 1)
    report = vanishing_check(alg, sigma, v, 2, 2)
    assert report.ok


def test_vanishing_c2_coinduced():
    g = c2()
    alg = GroupAlgebra(g, F2)
    sigma = trivial_subgroup(g)
    v = coinduced_module(g, F2, 1)
    report = vanishing_check(alg, sigma, v, 3, 2)
    assert report.acyclic_certified
    assert report.ok
    assert all(higher_cohomology(alg, sigma, v, q, p) == 0 for q in (1, 2, 3) for p in (1, 2))


def test_vanishing_s3_a3_coinduced():
    g = s3()
    alg = GroupAlgebra(g, F2)
    sigma = a3_in(g)
    v = coinduced_module(g, F2, 1)
    report = vanishing_check(alg, sigma, v, 3, 2)
    assert report.ok


def test_vanishing_detects_nonacyclic_module():
    g = c2()
    alg = GroupAlgebra(g, F2)
    sigma = trivial_subgroup(g)
    v = trivial_module(g, F2, 1)  # not acyclic
    report = vanishing_check(alg, sigma, v, 2, 2)
    assert not report.acyclic_certified
    assert not report.ok


def test_vanishing_skips_bar_degrees_past_the_budget():
    # C2 coinduced has dimension 2: bar degree 1 needs 2^2 * 2 = 8 cochains
    # and degree 2 needs 2^3 * 2 = 16, past a budget of 15
    g = c2()
    alg = GroupAlgebra(g, F2)
    sigma = trivial_subgroup(g)
    report = vanishing_check(alg, sigma, coinduced_module(g, F2, 1), 2, 2, budget=15)
    assert report.acyclic_certified is None
    assert report.skipped == (2,)
    assert report.ok
    # with every bar degree skipped, the verdict rests on the grid alone
    report = vanishing_check(alg, sigma, trivial_module(g, F2, 1), 2, 2, budget=3)
    assert report.acyclic_certified is None and report.skipped == (1, 2)
    assert not report.ok
    # a computed degree that fails is not hidden by a skipped one
    report = vanishing_check(alg, sigma, trivial_module(g, F2, 1), 2, 2, budget=4)
    assert report.acyclic_certified is False
    assert report.skipped == (2,)
    assert not report.ok

