"""The long exact sequence connecting consecutive levels of the hierarchy.

For each q the ideals give a short exact sequence of modules

    0 -> J_q/J_{q+1} -> A/J_{q+1} -> A/J_q -> 0,

whose left term carries the trivial action (I J_q and J_q I land in
J_{q+1}), hence is a direct sum of N(q) copies of the trivial module.  The
horseshoe construction combines the cached resolutions of the outer terms
into a termwise-split resolution of the middle term with block boundaries
[[dL, h], [0, dN]], where the correctors h are solved degree by degree by
exact linear algebra.  Applying Hom_A(-, V) gives a termwise-split short
exact sequence of cochain complexes, and the snake construction extracts
the six-terms-per-degree long exact sequence

    0 -> H_q^0 -> H_{q+1}^0 -> H^0(G,V)^{N(q)} -> H_q^1 -> ...

with explicit matrices.  Every exactness claim, image = kernel, is
certified one way, by `linalg.node_exact`: for maps a into a node of
dimension n and b out of it, b a = 0 says image(a) lies in kernel(b), and
then rank(a) + rank(b) = n says the two have equal dimension, since
dim kernel(b) = n - rank(b); together they are exactly image(a) = kernel(b).

The horseshoe solves only for generator columns.  Each middle boundary
is built from its generator images by `amap_from_generator_images`,
so it is A-linear by construction, and so is the augmentation before it.
Its composite with the map before it is then read on generator columns:

    Lemma.  Let a : A^k -> A^m and b : A^m -> M be A-linear.  Then b a = 0
    exactly when b a e_j = 0 for every generator e_j of A^k.
    Proof.  The g e_j span A^k over R, and (b a)(g e_j) = g (b a)(e_j).

So `node_exact` on the generator columns and the rank of the full
boundary decides exactness, and a wrong corrector makes the composite on
the generator columns nonzero.

Each cohomology space H^p = Z^p / B^p takes two eliminations: the kernel
of delta^p gives Z^p in its RREF basis, where a cocycle x has coordinates
x at the basis's pivot columns, and the RREF of the coboundaries read at
those columns gives B^p inside Z^p, with canonical class coordinates and
one cocycle lifting each.  delta^p delta^{p-1} = 0 is checked as a
product, and every induced or connecting image as delta x = 0.  Only the
complex of A/J_q is read in degree p_max + 1, where the connecting map
out of degree p_max lands.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import GroupAlgebra, IdealFiltration
from .groups import NormalSubgroup
from .linalg import (
    Matrix, kernel_rref, node_exact, quotient_coordinates, rank, solve_column,
)
from .modules import GammaModule, ModuleMap
from .resolution import (
    DEFAULT_BAR_BUDGET, AModule, BudgetExceeded, FreeResolution, NontrivialActionError,
    amap_from_generator_images, bar_dimension, bar_dimension_or_none,
    certify_trivial_action, ext, filtration_for, free_amodule, higher_cohomology,
    hom_delta, layer_module, quotient_by_j, resolution_of_layer, resolution_of_quotient,
)


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
    if not node_exact(inject.matrix, left.dim, surject.matrix, right.dim):
        raise RuntimeError("image of injection differs from kernel of surjection")
    return ShortExactSequence(q, filtration.sigma, left, middle, right, inject, surject)


def trivial_action_witness(ses: ShortExactSequence) -> None:
    """Certify that every group element acts as the identity on the left term.

    The canonical coordinates then realize the layer as R^{N(q)} with
    trivial action, so the identity matrix is an equivariant isomorphism.
    Raises NontrivialActionError otherwise.
    """
    certify_trivial_action(ses.left)


def horseshoe(ses: ShortExactSequence, length: int) -> FreeResolution:
    """The middle resolution with `length` boundaries, ranks rL_i + rN_i.

    Boundary i has block form [[dL_i, h_i], [0, dN_i]], where the corrector
    h_i : free(rN_i) -> free(rL_{i-1}) sends each generator to the canonical
    solution of dL_{i-1} x = -h_{i-1} dN_i e_j (for i = 1, dL_0 is the
    injected left augmentation and h_0 the right augmentation lifted through
    the surjection).  Each stage is certified exact on its generator
    columns (the lemma in the module docstring).
    """
    algebra = ses.left.algebra
    f, n = algebra.field, algebra.dim
    res_l = resolution_of_layer(algebra, ses.sigma, ses.q, length)
    res_n = resolution_of_quotient(algebra, ses.sigma, ses.q, length)

    def gens(amap: Matrix) -> Matrix:
        return amap.take_columns(range(0, amap.cols, n))

    augmentation = amap_from_generator_images(algebra, ses.middle.module, Matrix.hstack(f, [
        ses.inject.matrix @ gens(res_l.augmentation),
        solve_column(ses.surject.matrix, gens(res_n.augmentation))]).transpose())
    prev_rank = rank(augmentation)
    if prev_rank != ses.middle.dim:
        raise RuntimeError("horseshoe augmentation is not surjective")
    boundaries = []
    # the map before each stage is [[solver, corrector], [0, *]], with `top` rows on top
    prev_map, top = augmentation, ses.middle.dim
    for i in range(1, length + 1):
        left_prev = res_l.ranks[i - 1] * n
        solver = _block(prev_map, range(top), range(left_prev))
        corrector = _block(prev_map, range(top), range(left_prev, prev_map.cols))
        d_n = gens(res_n.boundaries[i - 1])
        h = solve_column(solver, -(corrector @ d_n))
        columns = Matrix.block(f, [[gens(res_l.boundaries[i - 1]), h], [None, d_n]],
                               [left_prev, prev_map.cols - left_prev],
                               [res_l.ranks[i], res_n.ranks[i]])
        free = free_amodule(algebra, res_l.ranks[i - 1] + res_n.ranks[i - 1]).module
        boundary = amap_from_generator_images(algebra, free, columns.transpose())
        boundary_rank = rank(boundary)
        if not node_exact(columns, boundary_rank, prev_map, prev_rank):
            raise RuntimeError(f"horseshoe failed exactness at stage {i}")
        boundaries.append(boundary)
        prev_map, prev_rank, top = boundary, boundary_rank, left_prev
    ranks = tuple(a + b for a, b in zip(res_l.ranks[:length + 1], res_n.ranks))
    return FreeResolution(ses.middle, ranks, augmentation, tuple(boundaries))


# ---------------------------------------------------------------------------
# cohomology of the three complexes and the snake construction

@dataclass(frozen=True)
class CohomologySpace:
    """Z^p and canonical class coordinates on Z^p/B^p for one cochain degree.

    `delta` is delta^p, whose kernel is Z^p.  A cocycle x has coordinates
    x[coords] in the RREF basis of Z^p (`coords` are its pivot columns).
    `classes` maps those coordinates onto Z^p/B^p with kernel exactly the
    coordinates of B^p, and `reps` holds one cocycle per class coordinate,
    on which `classes` reads the identity.
    """

    delta: Matrix
    coords: tuple[int, ...]
    classes: Matrix
    reps: Matrix

    @property
    def dim(self) -> int:
        return self.classes.rows

    def class_of(self, cochains: Matrix, what: str) -> Matrix:
        """Class coordinates of the columns of `cochains`, which are
        certified cocycles first."""
        if not (self.delta @ cochains).is_zero():
            raise RuntimeError(f"{what} is not a cocycle")
        return self.classes @ cochains.take_rows(self.coords)


def _cohomology_spaces(deltas: list[Matrix], up_to: int, field) -> list[CohomologySpace]:
    """Two eliminations per degree: the kernel of delta^p, and the RREF of
    the coboundaries read at its pivot columns, which is B^p in the
    coordinates of Z^p (delta^p delta^{p-1} = 0 is checked first)."""
    spaces = []
    for p in range(up_to + 1):
        z, coords = kernel_rref(deltas[p])
        if p > 0 and not (deltas[p] @ deltas[p - 1]).is_zero():
            raise RuntimeError("delta squared is nonzero")
        coboundaries = (deltas[p - 1].take_rows(coords).transpose() if p > 0
                        else Matrix.zeros(field, 0, z.rows))
        classes, lifted = quotient_coordinates(coboundaries)
        # the lifts read at coords are the unit rows at `lifted`, since z is in RREF
        if classes.take_columns(lifted) != Matrix.identity(field, classes.rows):
            raise RuntimeError("class coordinates do not read the identity on their lifts")
        spaces.append(CohomologySpace(deltas[p], coords, classes, z.take_rows(lifted)))
    return spaces


def _block(m: Matrix, rows: range, cols: range) -> Matrix:
    return Matrix._wrap(m.field, m.array[rows.start:rows.stop, cols.start:cols.stop], m.den)


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
    using the connecting homomorphism into degree p_max + 1.  Each identity
    is certified by `node_exact`: a zero composite and ranks that fill the
    node.  The horseshoe takes p_max + 1 boundaries of the cached forward
    outer resolutions (those of the grid); only the resolution of A/J_q is
    extended to p_max + 2, for the connecting map into degree p_max + 1.
    """
    if p_max < 0:
        raise ValueError("p_max must be >= 0")
    if p_max > 3:
        raise BudgetExceeded("long-exact-sequence degrees are limited to p_max <= 3")
    f = algebra.field
    filt = filtration_for(algebra, sigma)
    length = p_max + 1
    # the sequence and its horseshoe depend only on (S, q), not on V
    def certified_ses():
        ses = quotient_ses(algebra, filt, q)
        trivial_action_witness(ses)
        return ses

    ses = algebra.cached(("ses", sigma.members, q), certified_ses)
    res_m = algebra.cached(("horseshoe", sigma.members, q, length),
                           lambda: horseshoe(ses, length))
    res_l = resolution_of_layer(algebra, sigma, q, length)
    res_n = resolution_of_quotient(algebra, sigma, q, length + 1)

    deltas_n = [hom_delta(res_n, v, i) for i in range(length + 1)]
    deltas_m = [hom_delta(res_m, v, i) for i in range(length)]
    deltas_l = [hom_delta(res_l, v, i) for i in range(length)]

    d_v = v.dim
    # C_M^i = C_L^i + C_N^i, and delta_M = [[delta_L, 0], [*, delta_N]] exactly
    # when the embedding of C_N and the projection onto C_L are cochain maps
    for i in range(length):
        rl, rl1 = res_l.ranks[i] * d_v, res_l.ranks[i + 1] * d_v
        dm = deltas_m[i]
        corner_zero = _block(dm, range(rl1), range(rl, dm.cols)).is_zero()
        if not corner_zero or _block(dm, range(rl1, dm.rows), range(rl, dm.cols)) != deltas_n[i]:
            raise RuntimeError(f"embedding is not a cochain map at degree {i}")
        if not corner_zero or _block(dm, range(rl1), range(rl)) != deltas_l[i]:
            raise RuntimeError(f"projection is not a cochain map at degree {i}")

    # only the connecting map reads degree p_max + 1, of the N complex alone
    h_n = _cohomology_spaces(deltas_n, p_max + 1, f)
    h_m = _cohomology_spaces(deltas_m, p_max, f)
    h_l = _cohomology_spaces(deltas_l, p_max, f)

    # embed the N-cocycles in the R-slot of C_M and project the M-cocycles onto C_L
    image = "the image of a cochain map"
    lower_maps, upper_maps = [], []
    for p in range(p_max + 1):
        r_l = res_l.ranks[p] * d_v
        embedded = Matrix.vstack(f, [Matrix.zeros(f, r_l, h_n[p].dim), h_n[p].reps.transpose()])
        lower_maps.append(h_m[p].class_of(embedded, image))
        projected = h_m[p].reps.take_columns(range(r_l)).transpose()
        upper_maps.append(h_l[p].class_of(projected, image))

    def connecting(p: int) -> Matrix:
        # lift each class of C_L^p by zero on the C_N block, apply delta_M
        r_l, r_l1 = res_l.ranks[p], res_l.ranks[p + 1]
        moved = (deltas_m[p].take_columns(range(r_l * d_v))
                 @ h_l[p].reps.transpose())
        if not moved.take_rows(range(r_l1 * d_v)).is_zero():
            raise RuntimeError("snake lift has a nonzero projection part")
        w = moved.take_rows(range(r_l1 * d_v, moved.rows))
        return h_n[p + 1].class_of(w, "the connecting image")

    connectings = [connecting(p) for p in range(p_max + 1)]

    # the sequence 0 -> H_q^0 -> H_{q+1}^0 -> H^0(G,V)^{N(q)} -> H_q^1 -> ...
    # as one chain of maps, each ranked once: node k lies between maps k and k + 1
    chain = [Matrix.zeros(f, h_n[0].dim, 0)]
    for p in range(p_max + 1):
        chain += [lower_maps[p], upper_maps[p], connectings[p]]
    ranks = [rank(m) for m in chain]
    degrees = []
    for p in range(p_max + 1):
        verdicts = {node: node_exact(chain[k], ranks[k], chain[k + 1], ranks[k + 1])
                    for k, node in enumerate(("at_H_q", "at_H_q_plus_1", "at_power"), 3 * p)}
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
