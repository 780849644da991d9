"""Group closure, table invariants, and normal subgroup validation."""

import numpy as np
import pytest

from hocohom.groups import (
    Permutation, close_generators, subgroup_closure,
    GroupError, ClosureCapExceeded, NotNormalError,
)


def c2():
    return close_generators([Permutation([1, 0])])

def c3():
    return close_generators([Permutation([1, 2, 0])])

def s3():
    return close_generators([Permutation([1, 2, 0]), Permutation([1, 0, 2])])

def c4():
    return close_generators([Permutation([1, 2, 3, 0])])

def d4():
    return close_generators([Permutation([1, 2, 3, 0]), Permutation([0, 3, 2, 1])])

def q8():
    # unit quaternions acting on themselves, basis order (1, -1, i, -i, j, -j, k, -k)
    i = Permutation([2, 3, 1, 0, 6, 7, 5, 4])
    j = Permutation([4, 5, 7, 6, 1, 0, 2, 3])
    return close_generators([i, j])

def a4():
    return close_generators([Permutation([1, 2, 0, 3]), Permutation([1, 0, 3, 2])])

def s4():
    return close_generators([Permutation([1, 2, 3, 0]), Permutation([1, 0, 2, 3])])


def _inverse(p: Permutation) -> Permutation:
    out = [0] * p.degree
    for i, x in enumerate(p.images):
        out[x] = i
    return Permutation(out)


def test_permutation_validation():
    with pytest.raises(GroupError):
        Permutation([0, 0, 1])
    p = Permutation([1, 2, 0])
    assert p * _inverse(p) == Permutation.identity(3)


def test_empty_generating_set_gives_trivial_group():
    g = close_generators([])
    assert g.order == 1
    assert g.elements[0] == Permutation.identity(1)


def test_c2_closure():
    g = c2()
    assert g.order == 2
    assert g.mult[1][1] == 0


def test_s3_closure():
    g = s3()
    assert g.order == 6


def test_order_cap():
    with pytest.raises(ClosureCapExceeded):
        close_generators([Permutation([1, 2, 3, 4, 0])], order_cap=4)


def test_degree_mismatch():
    with pytest.raises(GroupError):
        close_generators([Permutation([1, 0]), Permutation([1, 2, 0])])


@pytest.mark.parametrize("make", [c2, c3, c4, s3, d4, q8])
def test_table_invariants(make):
    g = make()
    n = g.order
    assert g.elements[0] == Permutation.identity(g.degree)
    for k in range(n):
        assert g.mult[0][k] == k
        assert g.mult[k][0] == k
        assert g.mult[k][g.inv[k]] == 0
        assert g.mult[g.inv[k]][k] == 0


@pytest.mark.parametrize("make", [c2, c3, c4, s3, d4, q8, a4, s4])
def test_associativity_exhaustive(make):
    # exhaustive on all |G|^3 triples through the supported scale |G| <= 24
    g = make()
    n = g.order
    for a in range(n):
        for b in range(n):
            ab = g.mult[a][b]
            for c in range(n):
                assert g.mult[ab][c] == g.mult[a][g.mult[b][c]]


@pytest.mark.parametrize("make", [
    lambda: close_generators([]), c2, c3, c4, s3, d4, q8, a4, s4,
    lambda: close_generators([Permutation.identity(3), Permutation([1, 0, 2]),
                              Permutation([1, 2, 0]), Permutation([1, 0, 2])])])
def test_tables_are_the_products_of_the_elements(make):
    # the table is read off the BFS columns by associativity; compare it with
    # the product of every pair of permutations
    g = make()
    for table in (g.mult, g.inv):
        assert table.dtype == np.intp and not table.flags.writeable
    for a, x in enumerate(g.elements):
        assert g.elements[g.inv[a]] == _inverse(x)
        for b, y in enumerate(g.elements):
            assert g.mult[a][b] == g.index_of(x * y)


def test_a4_and_s4_orders():
    assert a4().order == 12
    assert s4().order == 24
    with pytest.raises(ClosureCapExceeded):
        close_generators([Permutation([1, 2, 3, 0]), Permutation([1, 0, 2, 3])],
                         order_cap=12)


def test_closure_under_mult():
    g = s3()
    seen = {e.images for e in g.elements}
    for a in g.elements:
        for b in g.elements:
            assert (a * b).images in seen


def test_bfs_metadata_reconstructs_elements():
    g = s3()
    for k in range(1, g.order):
        parent = g.elements[g.bfs_parent[k]]
        gen = g.elements[g.gen_indices[g.bfs_gen[k]]]
        assert (parent * gen).images == g.elements[k].images


def test_q8_structure():
    g = q8()
    assert g.order == 8
    orders = sorted(_element_order(g, k) for k in range(8))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def _element_order(g, k):
    n = 1
    x = k
    while x != 0:
        x = g.mult[x][k]
        n += 1
    return n


def test_trivial_subgroup():
    g = s3()
    sigma = subgroup_closure(g, [])
    assert sigma.members == (0,)
    assert sigma.is_trivial


def test_a3_is_normal_in_s3():
    g = s3()
    three_cycle = g.gen_indices[0]
    sigma = subgroup_closure(g, [three_cycle])
    assert sigma.order == 3
    # exhaustive conjugation check on all pairs
    for gamma in range(g.order):
        for s in sigma.members:
            conj = g.mult[g.mult[gamma][s]][g.inv[gamma]]
            assert conj in set(sigma.members)


def test_transposition_subgroup_not_normal_with_witness():
    g = s3()
    transposition = g.gen_indices[1]
    with pytest.raises(NotNormalError) as err:
        subgroup_closure(g, [transposition])
    witness = err.value
    conj = g.mult[g.mult[witness.gamma_index][witness.sigma_index]][g.inv[witness.gamma_index]]
    closure = {0, transposition}
    assert conj not in closure


def test_full_subgroup():
    g = s3()
    sigma = subgroup_closure(g, range(g.order))
    assert sigma.is_full
    assert sigma.order == 6


def test_deterministic_element_order():
    g1 = s3()
    g2 = s3()
    assert [e.images for e in g1.elements] == [e.images for e in g2.elements]
    assert np.array_equal(g1.mult, g2.mult)
