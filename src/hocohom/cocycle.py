"""Degree-one cohomology through the ideal-cocycle model.

H_q^1 is naturally isomorphic to Hom_A(J_q, V) / alpha(V), where alpha(v)
sends m in J_q to m v.  This file computes that quotient directly from the
defining linear systems, with no resolutions and no Hom complexes, so it is
a genuinely independent check of the Ext engine in degree one.

A map phi out of J_q is stored by its tuple of values on the canonical
basis of J_q; A-linearity is imposed for the group generators only, which
suffices because the conditions are linear in the basis and the generators
generate.  The dimension depends on q only through J_q, so it is kept
with the module once per (algebra, S, level).
"""

from __future__ import annotations

import numpy as np

from .algebra import GroupAlgebra, IdealFiltration
from .groups import NormalSubgroup
from .linalg import CertificateError, Matrix, Subspace, kernel, rank
from .modules import GammaModule
from .resolution import filtration_for


class AlphaNotAHomError(CertificateError):
    """alpha(V) escaped Hom_A(J_q, V); impossible unless the solver is broken."""


def hom_a_space(algebra: GroupAlgebra, filtration: IdealFiltration, q: int,
                v: GammaModule) -> Subspace:
    """Hom_A(J_q, V) as a subspace of all tuples of basis values: the
    solutions of phi(g x) = g phi(x) for group generators g and basis
    vectors x.

    Coordinates: value of phi on the l-th basis vector of J_q, component t,
    at flat index l * dim V + t.
    """
    f = algebra.field
    jq = filtration.j(q)
    k = jq.dim
    d_v = v.dim
    total = k * d_v
    if total == 0:
        return Subspace.zero(f, total)
    # the block of gamma is C (x) I_d - I_k (x) action[gamma]: row (m, t) reads
    # sum_l c[m, l] phi_l[t] - (action[gamma] phi_m)[t], where gamma x_m = sum_l c[m, l] x_l
    blocks = []
    for gamma in algebra.group.gen_indices:
        moved = algebra.left(gamma, jq.basis)
        if jq.first_outside(moved) is not None:
            raise CertificateError("J_q is not left-stable; filtration is broken")
        coords = moved.take_columns(jq.pivots)
        spread = np.kron(coords.array, np.eye(d_v, dtype=coords.array.dtype))
        acting = np.kron(np.eye(k, dtype=v.stack.dtype), v.stack[gamma])
        blocks.append(Matrix._wrap(f, spread, coords.den) - Matrix._wrap(f, acting, v.den))
    return kernel(Matrix.vstack(f, blocks, cols=total))


def alpha_map(algebra: GroupAlgebra, filtration: IdealFiltration, q: int,
              v: GammaModule, hom: Subspace | None = None) -> Matrix:
    """The matrix of alpha : V -> Hom_A(J_q, V), alpha(v)(m) = m v.

    Certified to land inside hom_a_space; a failure raises AlphaNotAHomError
    (it would indicate a bug, not a mathematical possibility).
    """
    matrix = v.algebra_action(filtration.j(q).basis)
    if hom is None:
        hom = hom_a_space(algebra, filtration, q, v)
    bad = hom.first_outside(matrix.transpose())
    if bad is not None:
        raise AlphaNotAHomError(f"alpha of basis vector {bad} is not A-linear")
    return matrix


def h_q1_cocycle(algebra: GroupAlgebra, sigma: NormalSubgroup, v: GammaModule,
                 q: int) -> int:
    """dim H_q^1 = dim Hom_A(J_q, V) - rank(alpha), kept with v once per
    (algebra, S, level)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    filt = filtration_for(algebra, sigma)
    level = filt.level(q)

    def build():
        hom = hom_a_space(algebra, filt, level, v)
        return hom.dim - rank(alpha_map(algebra, filt, level, v, hom))

    return v.cached(("h1_cocycle", algebra, sigma.members, level), build)

