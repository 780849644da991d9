"""The long exact sequence connecting consecutive levels of the hierarchy.

For each q the ideals give a short exact sequence of modules

    0 -> J_q/J_{q+1} -> A/J_{q+1} -> A/J_q -> 0,

whose left term carries the trivial action (I J_q and J_q I land in
J_{q+1}), hence is a direct sum of N(q) copies of the trivial module.  The
horseshoe construction combines resolutions of the outer terms into a
termwise-split resolution of the middle term with block boundaries
[[dL, h], [0, dN]], where the correctors h are solved degree by degree by
exact linear algebra.  Applying Hom_A(-, V) gives a termwise-split short
exact sequence of cochain complexes, and the snake construction extracts
the six-terms-per-degree long exact sequence

    0 -> H_q^0 -> H_{q+1}^0 -> H^0(G,V)^{N(q)} -> H_q^1 -> ...

with explicit matrices.  Exactness is verified as subspace equality
image = kernel at every node, not merely by dimension count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import GroupAlgebra, IdealFiltration
from .groups import NormalSubgroup
from .linalg import (
    Matrix, QuotientMap, Subspace, column_space, kernel, rank, solve_column,
)
from .modules import GammaModule, ModuleMap
from .resolution import (
    DEFAULT_BAR_BUDGET, AModule, BudgetExceeded, FreeResolution,
    amap_from_generator_images, bar_dimension, bar_dimension_or_none, ext,
    filtration_for, free_amodule, higher_cohomology, hom_delta, layer_module,
    quotient_by_j, resolution_of_layer, resolution_of_quotient,
)


class NontrivialActionError(RuntimeError):
    """The layer J_q/J_{q+1} failed the trivial-action certificate."""


@dataclass(frozen=True)
class ShortExactSequence:
    """0 -> left -> middle -> right -> 0 in compatible canonical coordinates."""

    q: int
    sigma: NormalSubgroup
    left: AModule
    middle: AModule
    right: AModule
    inject: ModuleMap
    surject: ModuleMap


def quotient_ses(algebra: GroupAlgebra, filtration: IdealFiltration,
                 q: int) -> ShortExactSequence:
    """Build and certify the quotient short exact sequence at level q."""
    left, left_qm = layer_module(algebra, filtration.sigma, q)
    middle, middle_qm = quotient_by_j(algebra, filtration.sigma, q + 1)
    right, right_qm = quotient_by_j(algebra, filtration.sigma, q)
    inject = ModuleMap(left.module, middle.module,
                       middle_qm.matrix @ left_qm.reps.transpose())
    surject = ModuleMap(middle.module, right.module,
                        right_qm.matrix @ middle_qm.reps.transpose())
    if rank(inject.matrix) != left.dim:
        raise RuntimeError("injection is not injective")
    if rank(surject.matrix) != right.dim:
        raise RuntimeError("surjection is not surjective")
    if middle.dim != left.dim + right.dim:
        raise RuntimeError("dimensions do not add up in the quotient sequence")
    if column_space(inject.matrix) != kernel(surject.matrix):
        raise RuntimeError("image of injection differs from kernel of surjection")
    return ShortExactSequence(q, filtration.sigma, left, middle, right, inject, surject)


def trivial_action_witness(ses: ShortExactSequence) -> None:
    """Certify that every group element acts as the identity on the left term.

    The canonical coordinates then realize the layer as R^{N(q)} with
    trivial action, so the identity matrix is an equivariant isomorphism.
    Raises NontrivialActionError otherwise.
    """
    left = ses.left
    f = left.algebra.field
    ident = Matrix.identity(f, left.dim)
    for g, mat in enumerate(left.module.action):
        if mat != ident:
            raise NontrivialActionError(
                f"group element {g} acts nontrivially on J_q/J_{{q+1}}")


@dataclass(frozen=True)
class HorseshoeData:
    """Compatible resolutions for a short exact sequence.

    res_middle has ranks rL_i + rN_i with block boundaries [[dL, h], [0, dN]],
    where the corrector h_{i+1} : free(rN_{i+1}) -> free(rL_i) is solved
    degree by degree.  The middle resolution is certified exact by rank
    arithmetic.
    """

    res_left: FreeResolution
    res_middle: FreeResolution
    res_right: FreeResolution


def horseshoe(ses: ShortExactSequence, length: int) -> HorseshoeData:
    algebra = ses.left.algebra
    f = algebra.field
    n = algebra.dim
    res_left = resolution_of_layer(algebra, ses.sigma, ses.q, length)
    res_right = resolution_of_quotient(algebra, ses.sigma, ses.q, length)

    inj = ses.inject.matrix
    middle_mod = ses.middle.module

    # augmentation: on the left block, inject after the left augmentation;
    # on the right block, a lift of the right augmentation through the surjection
    generators = range(0, res_right.ranks[0] * n, n)
    lambda0 = _lift_generators(algebra, middle_mod, ses.surject.matrix,
                               res_right.augmentation.take_columns(generators))
    aug_left_part = inj @ res_left.augmentation
    aug_middle = Matrix.hstack(f, [aug_left_part, lambda0]) \
        if res_left.ranks[0] + res_right.ranks[0] > 0 else Matrix.zeros(f, ses.middle.dim, 0)

    boundaries = []
    ranks = [res_left.ranks[0] + res_right.ranks[0]]
    prev_solver = aug_left_part          # target side of the corrector equation
    prev_corrector_full = lambda0        # maps free(rN_i) space into the previous target
    prev_map = aug_middle
    for i in range(1, length + 1):
        r_l_prev, r_n_prev = res_left.ranks[i - 1], res_right.ranks[i - 1]
        r_l, r_n = res_left.ranks[i], res_right.ranks[i]
        d_l = res_left.boundaries[i - 1]
        d_n = res_right.boundaries[i - 1]
        w = prev_corrector_full @ d_n.take_columns(range(0, r_n * n, n))
        h_i = _lift_generators(algebra, free_amodule(algebra, r_l_prev).module, prev_solver, -w)
        boundary = Matrix.block(
            f, [[d_l, h_i], [None, d_n]],
            [r_l_prev * n, r_n_prev * n], [r_l * n, r_n * n])
        if not (prev_map @ boundary).is_zero():
            raise RuntimeError(f"horseshoe boundary {i} does not compose to zero")
        if rank(boundary) != kernel(prev_map).dim:
            raise RuntimeError(f"horseshoe failed exactness at stage {i}")
        boundaries.append(boundary)
        ranks.append(r_l + r_n)
        prev_solver = d_l
        prev_corrector_full = h_i
        prev_map = boundary
    if rank(aug_middle) != ses.middle.dim:
        raise RuntimeError("horseshoe augmentation is not surjective")
    res_middle = FreeResolution(ses.middle, tuple(ranks), aug_middle, tuple(boundaries))
    return HorseshoeData(res_left, res_middle, res_right)


def _lift_generators(algebra: GroupAlgebra, target: GammaModule, solver: Matrix,
                     targets: Matrix) -> Matrix:
    """The A-map into target sending generator j to the canonical solution x
    of solver x = column j of targets."""
    return amap_from_generator_images(algebra, target, solve_column(solver, targets).transpose())


# ---------------------------------------------------------------------------
# cohomology of the three complexes and the snake construction

@dataclass(frozen=True)
class CohomologySpace:
    """Z^p and canonical class coordinates on Z^p/B^p for one cochain degree."""

    cocycles: Subspace
    classes: QuotientMap

    @property
    def dim(self) -> int:
        return self.classes.dim


def _cohomology_spaces(deltas: list[Matrix], up_to: int, field) -> list[CohomologySpace]:
    spaces = []
    for p in range(up_to + 1):
        z = kernel(deltas[p])
        b = column_space(deltas[p - 1]) if p > 0 else Subspace.zero(field, deltas[p].cols)
        if not z.contains_subspace(b):
            raise RuntimeError("delta squared is nonzero")
        spaces.append(CohomologySpace(z, QuotientMap(z, b)))
    return spaces


def _induced_matrix(map_matrix: Matrix, src: CohomologySpace,
                    dst: CohomologySpace) -> Matrix:
    """The map on cohomology classes induced by a cochain-level map."""
    moved = map_matrix @ src.classes.reps.transpose()
    if dst.cocycles.first_outside(moved.transpose()) is not None:
        raise RuntimeError("cochain map did not send cocycles to cocycles")
    return dst.classes.matrix @ moved


@dataclass(frozen=True)
class LesDegree:
    p: int
    dim_lower: int          # H_q^p
    dim_upper: int          # H_{q+1}^p
    dim_power: int          # Ext^p(J_q/J_{q+1}, V) = H^p(G,V)^{N(q)}
    map_lower_to_upper: Matrix
    map_upper_to_power: Matrix
    connecting: Matrix
    verdicts: dict

    @property
    def exact(self) -> bool:
        return all(self.verdicts.values())


@dataclass(frozen=True)
class LongExactSequenceReport:
    n_q: int
    degrees: tuple[LesDegree, ...]

    @property
    def exact(self) -> bool:
        return all(d.exact for d in self.degrees)

    def dims_table(self) -> list[dict]:
        return [{"p": d.p, "H_q": d.dim_lower, "H_q_plus_1": d.dim_upper,
                 "power": d.dim_power} for d in self.degrees]


def long_exact_sequence(algebra: GroupAlgebra, sigma: NormalSubgroup,
                        v: GammaModule, q: int, p_max: int) -> LongExactSequenceReport:
    """Materialize the six-term-per-degree long exact sequence at level q.

    Verifies, as subspace identities on class coordinates: injectivity at
    the start, image = kernel at every interior node up to degree p_max,
    using the connecting homomorphism into degree p_max + 1.  The horseshoe
    needs p_max + 2 boundaries of the outer resolutions; it extends the
    cached forward ones (those of the grid) rather than rebuilding them.
    """
    if p_max < 0:
        raise ValueError("p_max must be >= 0")
    if p_max > 3:
        raise BudgetExceeded("long-exact-sequence degrees are limited to p_max <= 3")
    f = algebra.field
    filt = filtration_for(algebra, sigma)
    length = p_max + 2
    # the sequence and its horseshoe depend only on (S, q), not on V
    def certified_ses():
        ses = quotient_ses(algebra, filt, q)
        trivial_action_witness(ses)
        return ses

    ses = algebra.cached(("ses", sigma.members, q), certified_ses)
    shoe = algebra.cached(("horseshoe", sigma.members, q, length),
                          lambda: horseshoe(ses, length))
    res_l, res_m, res_n = shoe.res_left, shoe.res_middle, shoe.res_right

    deltas_n = [hom_delta(res_n, v, i) for i in range(length)]
    deltas_m = [hom_delta(res_m, v, i) for i in range(length)]
    deltas_l = [hom_delta(res_l, v, i) for i in range(length)]

    d_v = v.dim
    embed = []   # C_N^i -> C_M^i  (R-slot)
    project = [] # C_M^i -> C_L^i  (P-slot)
    for i in range(length):
        r_l, r_n = res_l.ranks[i], res_n.ranks[i]
        embed.append(Matrix.block(
            f, [[None], [Matrix.identity(f, r_n * d_v)]],
            [r_l * d_v, r_n * d_v], [r_n * d_v]))
        project.append(Matrix.block(
            f, [[Matrix.identity(f, r_l * d_v), None]],
            [r_l * d_v], [r_l * d_v, r_n * d_v]))
    for i in range(length - 1):
        if deltas_m[i] @ embed[i] != embed[i + 1] @ deltas_n[i]:
            raise RuntimeError(f"embedding is not a cochain map at degree {i}")
        if deltas_l[i] @ project[i] != project[i + 1] @ deltas_m[i]:
            raise RuntimeError(f"projection is not a cochain map at degree {i}")

    top = p_max + 1
    h_n = _cohomology_spaces(deltas_n, top, f)
    h_m = _cohomology_spaces(deltas_m, top, f)
    h_l = _cohomology_spaces(deltas_l, top, f)

    lower_maps = [_induced_matrix(embed[p], h_n[p], h_m[p]) for p in range(top + 1)]
    upper_maps = [_induced_matrix(project[p], h_m[p], h_l[p]) for p in range(top + 1)]

    def connecting(p: int) -> Matrix:
        # lift each class of C_L^p by zero on the C_N block, apply delta_M
        r_l, r_l1 = res_l.ranks[p], res_l.ranks[p + 1]
        moved = (deltas_m[p].take_columns(range(r_l * d_v))
                 @ h_l[p].classes.reps.transpose())
        if not moved.take_rows(range(r_l1 * d_v)).is_zero():
            raise RuntimeError("snake lift has a nonzero projection part")
        w = moved.take_rows(range(r_l1 * d_v, moved.rows))
        if h_n[p + 1].cocycles.first_outside(w.transpose()) is not None:
            raise RuntimeError("connecting image is not a cocycle")
        return h_n[p + 1].classes.matrix @ w

    connectings = [connecting(p) for p in range(p_max + 1)]

    degrees = []
    for p in range(p_max + 1):
        verdicts = {}
        # node H_q^p: kernel of the map onward equals what arrives
        incoming = (column_space(connectings[p - 1]) if p > 0
                    else Subspace.zero(f, h_n[p].dim))
        verdicts["at_H_q"] = kernel(lower_maps[p]) == incoming
        # node H_{q+1}^p
        verdicts["at_H_q_plus_1"] = kernel(upper_maps[p]) == column_space(lower_maps[p])
        # node H^p(G,V)^{N(q)}
        verdicts["at_power"] = kernel(connectings[p]) == column_space(upper_maps[p])
        degrees.append(LesDegree(
            p, h_n[p].dim, h_m[p].dim, h_l[p].dim,
            lower_maps[p], upper_maps[p], connectings[p], verdicts))
    return LongExactSequenceReport(filt.n(q), tuple(degrees))


# ---------------------------------------------------------------------------
# the two dimension laws

def power_identification(algebra: GroupAlgebra, sigma: NormalSubgroup,
                         v: GammaModule, q: int, p: int,
                         classical_dim: int | None = None) -> tuple[int, int]:
    """(dim Ext^p(J_q/J_{q+1}, V),  N(q) * dim H^p(G, V)) for equality assertion.

    classical_dim short-circuits the brute-force factor when the caller has
    already computed dim H^p(G, V).
    """
    lhs = ext(resolution_of_layer(algebra, sigma, q, p + 1), v, p)
    if classical_dim is None:
        classical_dim = bar_dimension(algebra.group, v, p)
    return lhs, filtration_for(algebra, sigma).n(q) * classical_dim


@dataclass(frozen=True)
class VanishingReport:
    """`acyclic_certified` is None when the bar budget skipped a degree (and
    no computed degree failed); `skipped` lists those degrees p."""

    acyclic_certified: bool | None
    ok: bool
    skipped: tuple[int, ...]


def vanishing_check(algebra: GroupAlgebra, sigma: NormalSubgroup,
                    v_acyclic: GammaModule, q_max: int, p_max: int,
                    budget: int = DEFAULT_BAR_BUDGET) -> VanishingReport:
    """Certify acyclicity at q = 1 by brute force, then sweep the grid.

    An acyclic module must have H_q^p = 0 for all q >= 1, p >= 1.  A degree
    that the bar budget skips certifies nothing: the grid is still swept,
    and `ok` then rests on the grid alone.
    """
    bar = {p: bar_dimension_or_none(algebra.group, v_acyclic, p, budget)
           for p in range(1, p_max + 1)}
    skipped = tuple(p for p, d in bar.items() if d is None)
    certified = False if any(bar.values()) else None if skipped else True
    dims = [higher_cohomology(algebra, sigma, v_acyclic, q, p)
            for q in range(1, q_max + 1) for p in range(1, p_max + 1)]
    return VanishingReport(certified, certified is not False and not any(dims), skipped)
