"""Degree-one cohomology through the ideal-cocycle model.

H_q^1 is naturally isomorphic to Hom_A(J_q, V) / alpha(V), where alpha(v)
sends m in J_q to m v.  This file computes that quotient directly from the
defining linear systems, with no resolutions and no Hom complexes, so it is
a genuinely independent check of the Ext engine in degree one.

A map phi out of J_q is stored by its tuple of values on the canonical
basis of J_q; A-linearity is imposed for the group generators only, which
suffices because the conditions are linear in the basis and the generators
generate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import GroupAlgebra, IdealFiltration
from .groups import NormalSubgroup
from .linalg import Matrix, Subspace, kernel, rank
from .modules import GammaModule
from .resolution import filtration_for


class AlphaNotAHomError(RuntimeError):
    """alpha(V) escaped Hom_A(J_q, V); impossible unless the solver is broken."""


@dataclass(frozen=True)
class HomSpace:
    """Hom_A(J_q, V) as a subspace of all tuples of basis values.

    Coordinates: value of phi on the l-th basis vector of J_q, component t,
    at flat index l * dim V + t.
    """

    source_dim: int
    module: GammaModule
    maps: Subspace

    @property
    def dim(self) -> int:
        return self.maps.dim


def hom_a_space(algebra: GroupAlgebra, filtration: IdealFiltration, q: int,
                v: GammaModule) -> HomSpace:
    """Solve phi(g x) = g phi(x) for group generators g and basis vectors x."""
    f = algebra.field
    jq = filtration.j(q)
    k = jq.dim
    d_v = v.dim
    total = k * d_v
    if total == 0:
        return HomSpace(k, v, Subspace.zero(f, total))
    # row (m, t) of the block of gamma: sum_l c[m, l] phi_l[t] - (action[gamma] phi_m)[t],
    # where gamma x_m = sum_l c[m, l] x_l
    t = np.arange(d_v)
    blocks = []
    for gamma in algebra.group.gen_indices:
        moved = jq.basis @ algebra.left_mult[gamma].transpose()
        if jq.first_outside(moved) is not None:
            raise RuntimeError("J_q is not left-stable; filtration is broken")
        coords = moved.take_columns(jq.pivots)
        spread = np.zeros((k, d_v, k, d_v), dtype=coords.array.dtype)
        spread[:, t, :, t] = coords.array   # c[m, l] at ((m, t), (l, t))
        acting = Matrix.block(f, [[v.action[gamma] if m == l else None for l in range(k)]
                                  for m in range(k)], [d_v] * k, [d_v] * k)
        blocks.append(Matrix._wrap(f, spread.reshape(total, total), coords.den) - acting)
    return HomSpace(k, v, kernel(Matrix.vstack(f, blocks, cols=total)))


def alpha_map(algebra: GroupAlgebra, filtration: IdealFiltration, q: int,
              v: GammaModule, hom: HomSpace | None = None) -> Matrix:
    """The matrix of alpha : V -> Hom_A(J_q, V), alpha(v)(m) = m v.

    Certified to land inside hom_a_space; a failure raises AlphaNotAHomError
    (it would indicate a bug, not a mathematical possibility).
    """
    matrix = v.algebra_action(filtration.j(q).basis)
    if hom is None:
        hom = hom_a_space(algebra, filtration, q, v)
    bad = hom.maps.first_outside(matrix.transpose())
    if bad is not None:
        raise AlphaNotAHomError(f"alpha of basis vector {bad} is not A-linear")
    return matrix


def h_q1_cocycle(algebra: GroupAlgebra, sigma: NormalSubgroup, v: GammaModule,
                 q: int, filtration: IdealFiltration | None = None) -> int:
    """dim H_q^1 = dim Hom_A(J_q, V) - rank(alpha)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    filt = filtration if filtration is not None else filtration_for(algebra, sigma)
    hom = hom_a_space(algebra, filt, q, v)
    alpha = alpha_map(algebra, filt, q, v, hom)
    return hom.dim - rank(alpha)

