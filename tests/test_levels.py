"""Values keyed by the level of the J_q filtration, the least q' with J_q' = J_q.

Every value that depends on q only through J_q is computed once per level:
past the stabilization level s, a request for q reads the values of level s.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hocohom import cli, cocycle, les, resolution
from hocohom.algebra import GroupAlgebra, j_by_left_route, j_filtration
from hocohom.cocycle import h_q1_cocycle
from hocohom.groups import Permutation, close_generators, subgroup_closure
from hocohom.les import long_exact_sequence
from hocohom.linalg import Field
from hocohom.problem import load_problem
from hocohom.resolution import (
    filtration_for, higher_cohomology, layer_module, quotient_by_j, resolution_of_layer,
    resolution_of_quotient,
)

SPECS = Path(__file__).resolve().parent.parent / "specs"
SHIPPED_SPECS = sorted(SPECS.glob("*.json"))
F2, F3, Q = Field.prime(2), Field.prime(3), Field.rationals()


def _normal_closure(group, k):
    """The normal subgroup generated by the conjugates of element k."""
    return subgroup_closure(group, sorted({group.mult[group.mult[g][k]][group.inv[g]]
                                           for g in range(group.order)}))


@st.composite
def _filtrations(draw):
    """J_q filtrations of permutation groups of degree at most 4, with S the
    normal closure of one element, over F2, F3 or Q."""
    degree = draw(st.sampled_from([4, 3, 2, 1]))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=2))
    group = close_generators([Permutation(g) for g in gens])
    sigma = _normal_closure(group, draw(st.integers(0, group.order - 1)))
    field = draw(st.sampled_from([F2, F3, Q]))
    return j_filtration(GroupAlgebra(group, field), sigma)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(filt=_filtrations())
def test_level_is_the_least_index_of_the_same_ideal(filt):
    s = filt.stabilization_q
    assert filt.j(s) == filt.j(s + 1)
    for q in range(1, s + 4):
        level = filt.level(q)
        assert 1 <= level <= q
        assert filt.j(level) == filt.j(q)
        assert all(filt.j(earlier) != filt.j(q) for earlier in range(1, level))


def test_verify_runs_each_body_once_per_level(monkeypatch):
    """`verify` on S3 over Q (s = 1, q_max = 2): one resolution build per
    (level, order), no comparison map, since the one level is the
    stabilization level, no horseshoe, and each Ext, cocycle and long-exact-
    sequence body once per (level, module)."""
    spec = load_problem(SPECS / "s3_q.json")
    filt = filtration_for(spec.algebra(), spec.sigma)
    assert filt.stabilization_q == 1 and spec.q_max == 2
    calls = {"build": [], "comparison": [], "horseshoe": [], "sequence": [], "ext": [],
             "hom": []}

    def spy(name, body, key):
        def wrapper(*args):
            calls[name].append(key(*args))
            return body(*args)
        return wrapper

    monkeypatch.setattr(resolution, "build_resolution", spy(
        "build", resolution.build_resolution, lambda alg, m, length, order: (alg, m, order)))
    monkeypatch.setattr(les, "comparison_map", spy(
        "comparison", les.comparison_map, lambda ses, res_m, res_n, length: ses.q))
    monkeypatch.setattr(les, "horseshoe", spy(
        "horseshoe", les.horseshoe, lambda ses, length: ses.q))
    monkeypatch.setattr(les, "_sequence", spy(
        "sequence", les._sequence, lambda alg, sigma, v, q, p_max: (v, q, p_max)))
    monkeypatch.setattr(resolution, "ext", spy(
        "ext", resolution.ext, lambda res, v, p: (res.target, v, p)))
    monkeypatch.setattr(cocycle, "hom_a_space", spy(
        "hom", cocycle.hom_a_space, lambda alg, filt, q, v: (q, v)))
    fragment, ok = cli.cmd_verify(spec)
    assert ok
    [(alg, built, order)] = calls["build"]
    a_mod_j1 = quotient_by_j(alg, spec.sigma, 1)[0]
    assert built is a_mod_j1 and order == "forward"
    # J_1 = J_2: the sequence at level 1 is the identity on one complex
    assert calls["comparison"] == calls["horseshoe"] == []
    modules = len(spec.module_names())
    for name in ("sequence", "ext", "hom"):
        keys = calls[name]
        assert len(keys) == len(set(keys)), name
    # q = 1 and q = 2 share level 1: one sequence and one cocycle space per module
    assert len(calls["sequence"]) == len(calls["hom"]) == modules
    assert {q for _, q, _ in calls["sequence"]} == {q for q, _ in calls["hom"]} == {1}
    # Ext in degrees 0..p_max once per module, all off the A/J_1 resolution; the
    # vanishing check reads the `regular` module's, the coinduced module's table
    assert len(calls["ext"]) == modules * (spec.p_max + 1)
    assert {target for target, _, _ in calls["ext"]} == {a_mod_j1}


def _values(alg, spec, v, q):
    """Every per-q value at q, in comparable form."""
    length = spec.p_max + 2
    res = resolution_of_quotient(alg, spec.sigma, q, length)
    layer = resolution_of_layer(alg, spec.sigma, q, length)
    return (quotient_by_j(alg, spec.sigma, q)[0].action,
            (res.ranks, res.augmentation, res.boundaries),
            layer_module(alg, spec.sigma, q)[0].action,
            (layer.ranks, layer.augmentation, layer.boundaries),
            [higher_cohomology(alg, spec.sigma, v, q, p) for p in range(spec.p_max + 1)],
            h_q1_cocycle(alg, spec.sigma, v, q),
            long_exact_sequence(alg, spec.sigma, v, q, spec.p_max))


@pytest.mark.parametrize("path", SHIPPED_SPECS, ids=lambda path: path.stem)
def test_values_past_stabilization_equal_a_cold_computation(path):
    """Values for q > s, read from level s of a warm algebra, equal the
    values computed at q first thing on a fresh algebra and fresh module."""
    spec = load_problem(path)
    warm = spec.algebra()
    s = filtration_for(warm, spec.sigma).stabilization_q
    for name in spec.module_names():
        v = spec.build_module(name)
        warm_values = [_values(warm, spec, v, q) for q in range(1, s + 3)]
        for q in (s + 1, s + 2):
            cold = GroupAlgebra(spec.group, spec.field)
            assert j_by_left_route(cold, spec.sigma, q) == filtration_for(warm, spec.sigma).j(q)
            assert _values(cold, spec, spec.build_module(name), q) == warm_values[q - 1]
