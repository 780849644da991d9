"""The long exact sequence connecting consecutive levels of the hierarchy.

For each q the ideals give a short exact sequence of A-modules, each a
`GammaModule`,

    0 -> J_q/J_{q+1} -> A/J_{q+1} -> A/J_q -> 0,

whose left term carries the trivial action (I J_q and J_q I land in
J_{q+1}), hence is a direct sum of N(q) copies of the trivial module.
Write L, M and N for its terms, and P_M and P_N for the resolutions of M
and N that the grid already caches (`resolution_of_quotient`).  By the
comparison theorem (Weibel, *An Introduction to Homological Algebra*,
1994, 2.2.6) the surjection M -> N lifts to a chain map phi : P_M -> P_N,
and `comparison_map` builds it degree by degree by exact linear algebra.
Applying Hom_A(-, V) gives cochain complexes C_N and C_M and the cochain
map phi^* : C_N -> C_M, whose mapping cone (Weibel 1.5)

    K^p = C_N^p + C_M^{p-1},    d(x, y) = (delta_N x, phi^* x - delta_M y),

sits in a short exact sequence 0 -> C_M[-1] -> K -> C_N -> 0 of cochain
complexes, with connecting map phi^*.  The cone of phi on the chain side
is a complex of free modules with homology L alone, in degree 1, so
H^{p+1}(K) = Ext^p(L, V), and the long exact sequence of that short
exact sequence is the six-terms-per-degree sequence

    0 -> H_q^0 -> H_{q+1}^0 -> H^0(G,V)^{N(q)} -> H_q^1 -> ...

with maps phi^* on classes, y -> (0, y) and (x, y) -> x.  No resolution
of M is built beyond the grid's, and none of L.  The power law
Ext^p(L, V) = N(q) dim H^p(G, V) is checked on that same term:
`power_identification` reads the cone's H^{p+1} off the sequence and
compares it with N(q) times the bar oracle, so the layer is resolved only
by the reference route (`horseshoe`, `resolution.resolution_of_layer`).

Every exactness claim, image = kernel, is certified one way, by
`linalg.node_exact`: for maps a into a node of dimension n and b out of
it, b a = 0 says image(a) lies in kernel(b), and then rank(a) + rank(b)
= n says the two have equal dimension, since dim kernel(b) = n - rank(b);
together they are exactly image(a) = kernel(b).

The comparison map solves only for generator columns.  Each phi_i is
built from its generator images by `amap_from_generator_images`, so it is
A-linear by construction, as the boundaries and augmentations are.  Its
defining square is then read on generator columns:

    Lemma.  Let a : A^k -> A^m and b : A^m -> M be A-linear.  Then b a = 0
    exactly when b a e_j = 0 for every generator e_j of A^k.
    Proof.  The g e_j span A^k over R, and (b a)(g e_j) = g (b a)(e_j).

So d_N,i phi_i = phi_{i-1} d_M,i (with the augmentations and the
surjection at i = 0), checked exactly on the generator columns, makes phi
a chain map lifting the surjection.  A lift with no solution or one that
fails this check is a CertificateError.  The check cannot be left to the
cone: a wrong lift breaks d d = 0 on K only where Hom(-, V) sees the
error, and into a trivial V it may not, so the sequence could come out
exact and wrong.

Each cohomology space H^p = Z^p / B^p is one `linalg.QuotientMap` and
takes two eliminations: the kernel of delta^p gives Z^p in its RREF
basis, where a cocycle x has coordinates x at the basis's pivot columns,
and the RREF of the coboundaries read at those columns gives B^p inside
Z^p, with canonical class coordinates and one cocycle lifting each.  The
quotient certifies that the coboundaries lie in Z^p, which is
delta^p delta^{p-1} = 0, and every image of phi^*, y -> (0, y) and
(x, y) -> x is certified a cocycle, delta x = 0, by `_class_of`.  C_N is
read in degrees 0..p_max + 1, where the map out of degree p_max lands,
C_M in degrees 0..p_max and K in degrees 1..p_max + 1.

The sequence depends on q only through J_q and J_{q+1}, so it is built
once per level (`IdealFiltration.level`): the short exact sequence and the
comparison map are kept on the algebra, and the sequence itself with the
module, per (algebra, S, level, p_max).  At the stabilization level s the
layer J_s/J_{s+1} is zero and M = N is the one cached A/J_s: there is no
cone, the maps are the identity of H_s^p and zero, and every q past s
reads that same sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import GroupAlgebra, IdealFiltration
from .groups import NormalSubgroup
from .linalg import (
    CertificateError, InconsistentSystem, Matrix, QuotientMap, kernel, node_exact, rank,
    solve_column,
)
from .modules import GammaModule, ModuleMap
from .resolution import (
    DEFAULT_BAR_BUDGET, DEGREE_CAP, BudgetExceeded, FreeResolution, NontrivialActionError,
    amap_from_generator_images, bar_dimension_or_none, certify_trivial_action, filtration_for,
    free_amodule, higher_cohomology, hom_delta, hom_precompose, layer_module, quotient_by_j,
    resolution_of_layer, resolution_of_quotient,
)


@dataclass(frozen=True)
class ShortExactSequence:
    """0 -> left -> middle -> right -> 0 of modules over `algebra`, in
    compatible canonical coordinates."""

    algebra: GroupAlgebra
    q: int
    sigma: NormalSubgroup
    left: GammaModule
    middle: GammaModule
    right: GammaModule
    inject: ModuleMap
    surject: ModuleMap


def quotient_ses(algebra: GroupAlgebra, filtration: IdealFiltration,
                 q: int) -> ShortExactSequence:
    """Build and certify the quotient short exact sequence at level q."""
    left, left_qm = layer_module(algebra, filtration.sigma, q)
    middle, middle_qm = quotient_by_j(algebra, filtration.sigma, q + 1)
    right, right_qm = quotient_by_j(algebra, filtration.sigma, q)
    try:
        inject = ModuleMap(left, middle, middle_qm.coords(left_qm.reps.transpose()))
        surject = ModuleMap(middle, right, right_qm.coords(middle_qm.reps.transpose()))
    except ValueError as err:
        raise CertificateError(f"quotient sequence at level {q}: {err}") from err
    if rank(inject.matrix) != left.dim:
        raise CertificateError("injection is not injective")
    if rank(surject.matrix) != right.dim:
        raise CertificateError("surjection is not surjective")
    if not node_exact(inject.matrix, left.dim, surject.matrix, right.dim):
        raise CertificateError("image of injection differs from kernel of surjection")
    return ShortExactSequence(algebra, q, filtration.sigma, left, middle, right, inject, surject)


def trivial_action_witness(ses: ShortExactSequence) -> None:
    """Certify that every group element acts as the identity on the left term.

    The canonical coordinates then realize the layer as R^{N(q)} with
    trivial action, so the identity matrix is an equivariant isomorphism.
    Raises NontrivialActionError otherwise.
    """
    certify_trivial_action(ses.left, f"J_{ses.q}/J_{ses.q + 1}")


def _solve(m: Matrix, b: Matrix, what: str) -> Matrix:
    """`solve_column`, with a system that has no solution a CertificateError
    naming `what`."""
    try:
        return solve_column(m, b)
    except InconsistentSystem as err:
        raise CertificateError(f"{what} has no solution") from err


def horseshoe(ses: ShortExactSequence, length: int) -> FreeResolution:
    """The middle resolution with `length` boundaries, ranks rL_i + rN_i.

    Boundary i has block form [[dL_i, h_i], [0, dN_i]], where the corrector
    h_i : free(rN_i) -> free(rL_{i-1}) sends each generator to the canonical
    solution of dL_{i-1} x = -h_{i-1} dN_i e_j (for i = 1, dL_0 is the
    injected left augmentation and h_0 the right augmentation lifted through
    the surjection).  Each stage is certified exact on its generator
    columns (the lemma in the module docstring), and a corrector system
    with no solution is a CertificateError that names its stage.  No verb
    calls it: the long exact sequence reads the grid's resolution of the
    middle term, and the tests compare the two routes.
    """
    algebra = ses.algebra
    f, n = algebra.field, algebra.dim
    res_l = resolution_of_layer(algebra, ses.sigma, ses.q, length)
    res_n = resolution_of_quotient(algebra, ses.sigma, ses.q, length)

    def gens(amap: Matrix) -> Matrix:
        return amap.take_columns(range(0, amap.cols, n))

    lifted = _solve(ses.surject.matrix, gens(res_n.augmentation), "horseshoe augmentation lift")
    augmentation = amap_from_generator_images(algebra, ses.middle, Matrix.hstack(f, [
        ses.inject.matrix @ gens(res_l.augmentation), lifted]).transpose())
    prev_rank = rank(augmentation)
    if prev_rank != ses.middle.dim:
        raise CertificateError("horseshoe augmentation is not surjective")
    boundaries = []
    # the map before each stage is [[solver, corrector], [0, *]], with `top` rows on top
    prev_map, top = augmentation, ses.middle.dim
    for i in range(1, length + 1):
        left_prev = res_l.ranks[i - 1] * n
        solver = prev_map.take_rows(range(top)).take_columns(range(left_prev))
        corrector = prev_map.take_rows(range(top)).take_columns(range(left_prev, prev_map.cols))
        d_n = gens(res_n.boundaries[i - 1])
        h = _solve(solver, -(corrector @ d_n), f"horseshoe corrector at stage {i}")
        columns = Matrix.block(f, [[gens(res_l.boundaries[i - 1]), h], [None, d_n]],
                               [left_prev, prev_map.cols - left_prev],
                               [res_l.ranks[i], res_n.ranks[i]])
        free = free_amodule(algebra, res_l.ranks[i - 1] + res_n.ranks[i - 1])
        boundary = amap_from_generator_images(algebra, free, columns.transpose())
        boundary_rank = rank(boundary)
        if not node_exact(columns, boundary_rank, prev_map, prev_rank):
            raise CertificateError(f"horseshoe failed exactness at stage {i}")
        boundaries.append(boundary)
        prev_map, prev_rank, top = boundary, boundary_rank, left_prev
    ranks = tuple(a + b for a, b in zip(res_l.ranks[:length + 1], res_n.ranks))
    return FreeResolution(algebra, ses.middle, ranks, augmentation, tuple(boundaries))


def comparison_map(ses: ShortExactSequence, res_m: FreeResolution, res_n: FreeResolution,
                   length: int) -> tuple[Matrix, ...]:
    """A-linear maps phi_i : P_M,i -> P_N,i for i <= length lifting the
    surjection of `ses` from the middle term, resolved by res_m, to the
    right term, resolved by res_n (the comparison theorem).

    The generator images of phi_i are the canonical solutions x of
    d_N,i x = phi_{i-1} d_M,i e_j (aug_N x = surject aug_M e_j at i = 0),
    one `solve_column` per degree, and the square is certified exactly on
    the generator columns (the lemma in the module docstring).  A system
    with no solution or a lift that fails its certificate is a
    CertificateError that names its degree.
    """
    algebra, n = ses.algebra, ses.algebra.dim
    maps = [ses.surject.matrix]
    for i, (d_m, d_n) in enumerate(zip(((res_m.augmentation,) + res_m.boundaries)[:length + 1],
                                       ((res_n.augmentation,) + res_n.boundaries)[:length + 1])):
        wanted = maps[-1] @ d_m.take_columns(range(0, d_m.cols, n))
        lift = _solve(d_n, wanted, f"comparison map at degree {i}")
        if d_n @ lift != wanted:
            raise CertificateError(f"comparison map at degree {i} is not a chain map")
        maps.append(amap_from_generator_images(
            algebra, free_amodule(algebra, res_n.ranks[i]), lift.transpose()))
    return tuple(maps[1:])


# ---------------------------------------------------------------------------
# cohomology of the complexes and the cone

def _cohomology_spaces(deltas: list[Matrix], up_to: int, field, start=0) -> list[QuotientMap]:
    """H^p = Z^p / B^p for start <= p <= up_to: the kernel of delta^p, and
    the coboundaries as the rows of delta^{p-1}.T, whose certified
    containment in Z^p is delta^p delta^{p-1} = 0."""
    return [QuotientMap(kernel(deltas[p]), deltas[p - 1].transpose() if p > 0
                        else Matrix.zeros(field, 0, deltas[0].cols))
            for p in range(start, up_to + 1)]


def _class_of(delta: Matrix, space: QuotientMap, cochains: Matrix, what: str) -> Matrix:
    """Class coordinates in `space`, the cohomology at delta, of the columns
    of `cochains`, which are certified cocycles first."""
    if not (delta @ cochains).is_zero():
        raise CertificateError(f"{what} is not a cocycle")
    return space.coords(cochains)


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
    using the map into degree p_max + 1.  Each identity is certified by
    `node_exact`: a zero composite and ranks that fill the node.  The
    sequence is read off the cone of the comparison map between the grid's
    cached resolutions (the module docstring): that of A/J_{q+1} with
    p_max + 1 boundaries, and that of A/J_q extended to p_max + 2, for the
    map into degree p_max + 1.  Kept with v once per (algebra, S, level,
    p_max).
    """
    if p_max < 0:
        raise ValueError("p_max must be >= 0")
    if p_max > DEGREE_CAP:
        raise BudgetExceeded(f"long-exact-sequence degrees are limited to p_max <= {DEGREE_CAP}")
    level = filtration_for(algebra, sigma).level(q)
    return v.cached(("les", algebra, sigma.members, level, p_max),
                    lambda: _sequence(algebra, sigma, v, level, p_max))


def _sequence(algebra: GroupAlgebra, sigma: NormalSubgroup, v: GammaModule,
              q: int, p_max: int) -> LongExactSequenceReport:
    """The body of `long_exact_sequence`, at the level q."""
    f = algebra.field
    filt = filtration_for(algebra, sigma)
    # the sequence and its comparison map depend only on (S, level), not on V
    def certified_ses():
        ses = quotient_ses(algebra, filt, q)
        trivial_action_witness(ses)
        return ses

    ses = algebra.cached(("ses", sigma.members, q), certified_ses)
    res_n = resolution_of_quotient(algebra, sigma, q, p_max + 2)
    deltas_n = [hom_delta(res_n, v, i) for i in range(p_max + 2)]
    h_n = _cohomology_spaces(deltas_n, p_max + 1, f)
    if filt.level(q + 1) == q:
        # J_q = J_{q+1}: M = N, one resolution, and a zero layer
        maps = [(Matrix.identity(f, h_n[p].dim), Matrix.zeros(f, 0, h_n[p].dim),
                 Matrix.zeros(f, h_n[p + 1].dim, 0)) for p in range(p_max + 1)]
    else:
        res_m = resolution_of_quotient(algebra, sigma, q + 1, p_max + 1)
        phis = algebra.cached(("comparison", sigma.members, q, p_max),
                              lambda: comparison_map(ses, res_m, res_n, p_max + 1))
        deltas_m = [hom_delta(res_m, v, i) for i in range(p_max + 1)]
        phi_star = [hom_precompose(algebra, phi, res_m.ranks[i], res_n.ranks[i], v)
                 for i, phi in enumerate(phis)]
        # d_K^p : C_N^p + C_M^{p-1} -> C_N^{p+1} + C_M^p is
        # [[delta_N^p, 0], [phi_p^*, -delta_M^{p-1}]]
        deltas_k = [Matrix.block(f, [[deltas_n[p], None],
                                     [phi_star[p], -deltas_m[p - 1] if p else None]],
                                 [deltas_n[p].rows, phi_star[p].rows],
                                 [deltas_n[p].cols, deltas_m[p - 1].cols if p else 0])
                    for p in range(p_max + 2)]
        h_m = _cohomology_spaces(deltas_m, p_max, f)
        h_k = _cohomology_spaces(deltas_k, p_max + 1, f, start=1)   # h_k[p] = H^{p+1}(K)
        image = "the image of a cochain map"
        # phi^* on classes, y -> (0, y) and (x, y) -> x, with x in C_N^{p+1}, the first c rows
        maps = [(_class_of(deltas_m[p], h_m[p], phi_star[p] @ h_n[p].reps.transpose(), image),
                 _class_of(deltas_k[p + 1], h_k[p], Matrix.vstack(f, [
                     Matrix.zeros(f, c, h_m[p].dim), h_m[p].reps.transpose()]), image),
                 _class_of(deltas_n[p + 1], h_n[p + 1],
                           h_k[p].reps.take_columns(range(c)).transpose(), "the connecting image"))
                for p, c in enumerate(delta.cols for delta in deltas_n[1:])]

    # the sequence 0 -> H_q^0 -> H_{q+1}^0 -> H^0(G,V)^{N(q)} -> H_q^1 -> ...
    # as one chain of maps, each ranked once: node k lies between maps k and k + 1
    chain = [Matrix.zeros(f, h_n[0].dim, 0)] + [m for triple in maps for m in triple]
    ranks = [rank(m) for m in chain]
    degrees = []
    for p, (lower, upper, connecting) in enumerate(maps):
        verdicts = {node: node_exact(chain[k], ranks[k], chain[k + 1], ranks[k + 1])
                    for k, node in enumerate(("at_H_q", "at_H_q_plus_1", "at_power"), 3 * p)}
        degrees.append(LesDegree(p, h_n[p].dim, lower.rows, upper.rows,
                                 lower, upper, connecting, verdicts))
    return LongExactSequenceReport(filt.n(q), tuple(degrees))


# ---------------------------------------------------------------------------
# the two dimension laws

def power_identification(report: LongExactSequenceReport, p: int,
                         classical_dim: int) -> tuple[int, int]:
    """(dim Ext^p(J_q/J_{q+1}, V),  N(q) * dim H^p(G, V)) for equality assertion.

    The left side is the power term of the sequence at level q, the cone's
    H^{p+1}; the right side is N(q) times the classical dimension, which the
    caller has from the bar oracle.  Nothing is built: the verdict tests the
    cone against that oracle.
    """
    return report.degrees[p].dim_power, report.n_q * classical_dim


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
