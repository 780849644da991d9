"""The long exact sequence: construction, exactness, and the dimension laws."""

from hocohom.algebra import GroupAlgebra, j_filtration
from hocohom.groups import (
    Permutation, close_generators, subgroup_closure,
)
from hocohom.linalg import Field, Matrix, column_space, kernel, rank
from hocohom.modules import trivial_module, regular_module, coinduced_module
from hocohom.resolution import filtration_for, higher_cohomology, bar_dimension
from hocohom.les import (
    quotient_ses, trivial_action_witness, horseshoe, long_exact_sequence,
    power_identification, vanishing_check,
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
    assert all(mat == Matrix.identity(F2, 1) for mat in ses.left.module.action)


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
    filt = j_filtration(alg, a3_in(g))
    ses = quotient_ses(alg, filt, 1)
    shoe = horseshoe(ses, 3)
    for i in range(4):
        assert shoe.res_middle.ranks[i] == shoe.res_left.ranks[i] + shoe.res_right.ranks[i]
    assert rank(shoe.res_middle.augmentation) == ses.middle.dim
    middle = shoe.res_middle
    for before, b in zip((middle.augmentation,) + middle.boundaries, middle.boundaries):
        assert column_space(b) == kernel(before)
    for b1, b2 in zip(shoe.res_middle.boundaries, shoe.res_middle.boundaries[1:]):
        assert (b1 @ b2).is_zero()


def test_horseshoe_middle_matches_direct_ext():
    # resolution independence: the horseshoe middle resolution computes the
    # same Ext dimensions as the directly built resolution of A/J_{q+1}
    from hocohom.resolution import ext, resolution_of_quotient
    g = s3()
    alg = GroupAlgebra(g, F2)
    sigma = a3_in(g)
    filt = filtration_for(alg, sigma)
    ses = quotient_ses(alg, filt, 1)
    shoe = horseshoe(ses, 3)
    direct = resolution_of_quotient(alg, sigma, 2, 3)
    for v in (trivial_module(g, F2, 1), regular_module(g, F2)):
        for p in (0, 1, 2):
            assert ext(shoe.res_middle, v, p) == ext(direct, v, p)


def test_horseshoe_and_ses_built_once_per_level(monkeypatch):
    from hocohom import les
    built = {"ses": [], "horseshoe": []}
    quotient_ses_body, horseshoe_body = les.quotient_ses, les.horseshoe

    def spy_ses(algebra, filtration, q):
        built["ses"].append(q)
        return quotient_ses_body(algebra, filtration, q)

    def spy_horseshoe(ses, length):
        built["horseshoe"].append((ses.q, length))
        return horseshoe_body(ses, length)

    monkeypatch.setattr(les, "quotient_ses", spy_ses)
    monkeypatch.setattr(les, "horseshoe", spy_horseshoe)
    g = s3()
    alg = GroupAlgebra(g, F2)
    sigma = a3_in(g)
    trivial, regular = trivial_module(g, F2, 1), regular_module(g, F2)
    reports = {(q, v.dim): long_exact_sequence(alg, sigma, v, q, 2)
               for q in (1, 2) for v in (trivial, regular)}
    assert built["ses"] == [1, 2]
    assert built["horseshoe"] == [(1, 4), (2, 4)]
    # the second module's report, from the cached horseshoe, equals a fresh one
    assert reports[(1, regular.dim)] == long_exact_sequence(
        GroupAlgebra(g, F2), sigma, regular, 1, 2)


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

def test_power_identification_zero_case():
    g = s3()
    alg = GroupAlgebra(g, Q)
    sigma = trivial_subgroup(g)
    v = trivial_module(g, Q, 1)
    lhs, rhs = power_identification(alg, sigma, v, 1, 1)
    assert lhs == rhs == 0


def test_power_identification_c2():
    g = c2()
    alg = GroupAlgebra(g, F2)
    sigma = trivial_subgroup(g)
    v = trivial_module(g, F2, 1)
    assert power_identification(alg, sigma, v, 1, 1) == (1, 1)


def test_power_identification_s3_a3():
    g = s3()
    alg = GroupAlgebra(g, F2)
    sigma = a3_in(g)
    v = trivial_module(g, F2, 1)
    assert power_identification(alg, sigma, v, 1, 0) == (1, 1)


def test_power_identification_suite():
    for group, field in [(c2(), F2), (cyclic(3), F3), (s3(), F2)]:
        alg = GroupAlgebra(group, field)
        sigma = trivial_subgroup(group)
        for v in (trivial_module(group, field, 1), regular_module(group, field)):
            for q in (1, 2):
                for p in (0, 1, 2):
                    lhs, rhs = power_identification(alg, sigma, v, q, p)
                    assert lhs == rhs, (group.order, field.name, q, p)


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

