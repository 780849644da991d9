"""Free resolutions over the group algebra and Ext computation.

Resolutions are built by iterated kernels: greedily cover a module by a
free module (picking standard basis vectors whose A-orbits grow the span),
take the kernel of the covering map, repackage it as a module in its own
canonical coordinates, and repeat.  The construction is deterministic and
certified exact at every stage by rank arithmetic, and Ext is the
cohomology of the Hom_A(-, V) complex of such a resolution: a hom from a
free module of rank k is the tuple of its generator images in V, and the
coboundary is precomposition with the boundary.

`bar_dimension` computes classical group cohomology through the standard
inhomogeneous cochain complex C^p = maps(G^p, V).  It shares no code with
the resolution path and serves as the independent oracle for the q = 1 row
of the higher-order theory and for the coefficient-power identification.
Each coboundary is built directly as one integer numpy array: every term
of the coboundary formula is a single vectorized addition at column
indices read off the multiplication table, rows over Q are scaled to
integers, and the dtype is the smallest that holds the entries (int8 for
small fields and small rational actions).  Its rank is taken in the field
by `rank_of_int_rows`, certified over Q.  The bar budget bounds the
largest cochain space touched, dim C^{p+1}, before anything is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from .algebra import GroupAlgebra, IdealFiltration, j_filtration
from .groups import FiniteGroup, NormalSubgroup
from .linalg import (
    Matrix, QuotientMap, Subspace,
    column_space, kernel, rank, rank_of_int_rows, solve_column,
)
from .modules import GammaModule, ModuleMap


class NotStableError(ValueError):
    """A subspace fed to a module constructor is not preserved by the action."""

    def __init__(self, element_index: int, vector):
        self.element_index = element_index
        self.vector = tuple(vector)
        super().__init__(f"subspace is not stable under group element {element_index}")


class ResolutionTooShort(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    pass


DEFAULT_BAR_BUDGET = 20000


@dataclass(frozen=True)
class AModule:
    """A module over the group algebra, tagged with a provenance label."""

    algebra: GroupAlgebra
    module: GammaModule
    label: str
    free_rank: int | None = None

    @property
    def dim(self) -> int:
        return self.module.dim

    def __repr__(self) -> str:
        return f"AModule({self.label!r}, dim {self.dim})"


def free_amodule(algebra: GroupAlgebra, k: int) -> AModule:
    """A^k with coordinates (generator, group element), acting by permutation.

    Element g sends the basis vector (i, h) to (i, g h), read off the group
    multiplication table; no action matrix is built.
    """
    n = algebra.dim
    perm = [[i * n + gh for i in range(k) for gh in row] for row in algebra.group.mult]
    return AModule(algebra, GammaModule.permutation(algebra.group, algebra.field, perm),
                   f"free rank {k}", free_rank=k)


def amap_from_generator_images(algebra: GroupAlgebra, target: GammaModule, images) -> Matrix:
    """The A-linear map A^k -> target sending the j-th generator to images[j].

    Column (j, g) of the underlying R-matrix is action[g] applied to
    images[j], matching the free coordinate layout of free_amodule.
    """
    f = algebra.field
    images = Matrix(f, images, len(images), target.dim)
    moved = [target.act_rows(g, images).entries for g in range(algebra.dim)]
    columns = tuple(moved[g][j] for j in range(images.rows) for g in range(algebra.dim))
    return Matrix._canonical(f, columns, len(columns), target.dim).transpose()


def _certify_stable(module: GammaModule, sub: Subspace):
    """Raise NotStableError unless every group generator maps sub into itself.

    The generators generate the finite group G, so a subspace stable under
    each of them is stable under every element.
    """
    for g in module.group.gen_indices:
        bad = sub.first_outside(module.act_rows(g, sub.basis))
        if bad is not None:
            raise NotStableError(g, sub.basis.entries[bad])


def amodule_from_subspace(algebra: GroupAlgebra, ambient: GammaModule,
                          sub: Subspace, label: str) -> AModule:
    """A stable subspace repackaged as a module in its RREF basis coordinates.

    Stability is certified under the group generators; the coordinates of
    g b (b in the basis) are then read off at the pivot columns.
    """
    _certify_stable(ambient, sub)
    action = [ambient.act_rows(g, sub.basis).take_columns(sub.pivots).transpose()
              for g in range(algebra.dim)]
    return AModule(algebra, GammaModule(algebra.group, algebra.field, action), label)


def quotient_amodule(algebra: GroupAlgebra, sub: Subspace, sup: Subspace,
                     ambient: GammaModule | None = None,
                     label: str = "quotient") -> tuple[AModule, QuotientMap]:
    """The quotient module sup/sub in canonical complement coordinates.

    Both subspaces must be stable under the ambient action (default: the
    regular module, i.e. quotients of ideals of A).  Returns the module and
    the quotient coordinate map used to build it.
    """
    from .modules import regular_module
    if ambient is None:
        ambient = regular_module(algebra)
    _certify_stable(ambient, sup)
    _certify_stable(ambient, sub)
    qmap = QuotientMap(sup, sub)
    action = [qmap.matrix @ ambient.act_rows(g, qmap.reps).transpose()
              for g in range(algebra.dim)]
    return AModule(algebra, GammaModule(algebra.group, algebra.field, action), label), qmap


@dataclass(frozen=True)
class FreeCover:
    rank: int
    chosen: tuple[int, ...]
    surjection: Matrix


def free_cover(m: AModule, order: str = "forward") -> FreeCover:
    """Greedy free cover: sweep the standard basis, keeping vectors outside
    the A-span of those already chosen; the surjection sends the j-th free
    generator to the j-th kept vector.  Deterministic for a fixed sweep order.
    """
    algebra = m.algebra
    f = algebra.field
    dim = m.dim
    candidates = range(dim) if order == "forward" else range(dim - 1, -1, -1)
    span = Subspace.zero(f, dim)
    chosen = []
    for i in candidates:
        e_i = tuple(f.one() if j == i else f.zero() for j in range(dim))
        if not span.contains_vector(e_i):
            chosen.append(i)
            orbit = [mat.column(i) for mat in m.module.action]
            span = span + Subspace.from_vectors(f, dim, orbit)
    if span.dim != dim:
        raise RuntimeError("free cover failed to span the module")
    images = [tuple(f.one() if j == i else f.zero() for j in range(dim)) for i in chosen]
    surjection = amap_from_generator_images(algebra, m.module, images)
    return FreeCover(len(chosen), tuple(chosen), surjection)


@dataclass(frozen=True)
class FreeResolution:
    """... -> A^{n_2} -> A^{n_1} -> A^{n_0} -> target -> 0, exact throughout.

    boundaries[i] is the R-matrix of d_{i+1} : A^{n_{i+1}} -> A^{n_i};
    kernels[i] is the kernel of the map out of A^{n_i} (the augmentation for
    i = 0), which by construction equals the image of boundaries[i].
    """

    target: AModule
    ranks: tuple[int, ...]
    augmentation: Matrix
    boundaries: tuple[Matrix, ...]
    kernels: tuple[Subspace, ...]
    order: str = "forward"

    @property
    def algebra(self) -> GroupAlgebra:
        return self.target.algebra

    @property
    def length(self) -> int:
        return len(self.boundaries)

    def __repr__(self) -> str:
        return f"FreeResolution({self.target.label!r}, ranks {list(self.ranks)})"


def build_resolution(m: AModule, length: int, order: str = "forward") -> FreeResolution:
    """Iterated-kernel free resolution of m with `length` boundary maps.

    Exactness is certified at every stage: the image of each boundary is the
    kernel of the previous map (equal rank by the greedy cover, containment
    by construction), and consecutive boundaries compose to zero.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    algebra = m.algebra
    f = algebra.field
    n = algebra.dim
    cover = free_cover(m, order)
    ranks = [cover.rank]
    boundaries = []
    kernels = []
    prev_map = cover.surjection
    prev_rank = cover.rank
    for i in range(1, length + 1):
        ker_sub = kernel(prev_map)
        kernels.append(ker_sub)
        if ker_sub.dim == 0:
            boundary = Matrix.zeros(f, prev_rank * n, 0)
            next_rank = 0
        else:
            khat = amodule_from_subspace(
                algebra, free_amodule(algebra, prev_rank).module, ker_sub,
                f"ker step {i} of {m.label}")
            kcover = free_cover(khat, order)
            images = [ker_sub.basis.entries[t] for t in kcover.chosen]
            boundary = amap_from_generator_images(
                algebra, free_amodule(algebra, prev_rank).module, images)
            next_rank = kcover.rank
            if rank(boundary) != ker_sub.dim:
                raise RuntimeError("resolution step failed exactness certification")
        if boundaries and not (boundaries[-1] @ boundary).is_zero():
            raise RuntimeError("consecutive boundaries do not compose to zero")
        if not boundaries and not (prev_map @ boundary).is_zero():
            raise RuntimeError("augmentation does not kill the first boundary image")
        boundaries.append(boundary)
        ranks.append(next_rank)
        prev_map = boundary
        prev_rank = next_rank
    return FreeResolution(m, tuple(ranks), cover.surjection, tuple(boundaries),
                          tuple(kernels), order)


# ---------------------------------------------------------------------------
# Hom complexes and Ext

def hom_precompose(algebra: GroupAlgebra, amap: Matrix, gens_from: int,
                   gens_to: int, v: GammaModule) -> Matrix:
    """Hom_A(-, V) applied to an A-map A^{gens_from} -> A^{gens_to}.

    Returns the induced map V^{gens_to} -> V^{gens_from}: block (j, k) is
    the action through V of the algebra coefficient of generator k in the
    image of generator j.
    """
    n = algebra.dim
    f = algebra.field
    d_v = v.dim
    if gens_from == 0 or gens_to == 0 or d_v == 0:
        return Matrix.zeros(f, gens_from * d_v, gens_to * d_v)
    blocks = []
    for j in range(gens_from):
        gen_image = amap.column(j * n)
        row = []
        for k in range(gens_to):
            coeff = gen_image[k * n:(k + 1) * n]
            row.append(v.algebra_action(coeff))
        blocks.append(row)
    return Matrix.block(f, blocks, [d_v] * gens_from, [d_v] * gens_to)


def hom_delta(resolution: FreeResolution, v: GammaModule, i: int) -> Matrix:
    """delta^i : V^{n_i} -> V^{n_{i+1}} by precomposition with boundary i+1."""
    if i >= resolution.length:
        raise ResolutionTooShort(f"need boundary {i + 1}, have {resolution.length}")
    return hom_precompose(resolution.algebra, resolution.boundaries[i],
                          resolution.ranks[i + 1], resolution.ranks[i], v)


def cochain_complex(resolution: FreeResolution, v: GammaModule) -> list[Matrix]:
    """All coboundaries delta^0 ... delta^{L-1} of Hom_A(resolution, V)."""
    return [hom_delta(resolution, v, i) for i in range(resolution.length)]


@dataclass(frozen=True)
class ExtResult:
    """dim Ext^p with canonical representative cocycles in V^{n_p}.

    `classes` maps a cocycle vector to its class coordinates (kernel exactly
    the coboundaries); `representatives` holds one canonical cocycle per
    class coordinate.
    """

    p: int
    dim: int
    representatives: Matrix
    cocycles: Subspace
    coboundaries: Subspace
    classes: QuotientMap


def ext(resolution: FreeResolution, v: GammaModule, p: int) -> ExtResult:
    """Ext^p(target, V) from a resolution with at least p+1 boundaries."""
    if p < 0:
        raise ValueError("p must be >= 0")
    if resolution.length < p + 1:
        raise ResolutionTooShort(
            f"resolution length {resolution.length} cannot reach degree {p}")
    f = resolution.algebra.field
    cocycles = kernel(hom_delta(resolution, v, p))
    if p == 0:
        coboundaries = Subspace.zero(f, resolution.ranks[0] * v.dim)
    else:
        coboundaries = column_space(hom_delta(resolution, v, p - 1))
    if not cocycles.contains_subspace(coboundaries):
        raise RuntimeError("coboundaries escape the cocycles: delta^2 != 0")
    qmap = QuotientMap(cocycles, coboundaries)
    return ExtResult(p, qmap.dim, qmap.reps, cocycles, coboundaries, qmap)


# ---------------------------------------------------------------------------
# the composed pipeline and its cache

def filtration_for(algebra: GroupAlgebra, sigma: NormalSubgroup,
                   q_max: int | None = None) -> IdealFiltration:
    # the cached chain clamps beyond stabilization, so any stored copy serves all q
    key = ("filtration", sigma.members)
    cached = algebra._cache.get(key)
    if cached is None:
        cached = j_filtration(algebra, sigma, q_max)
        algebra._cache[key] = cached
    return cached


def quotient_by_j(algebra: GroupAlgebra, sigma: NormalSubgroup, q: int,
                  filtration: IdealFiltration | None = None) -> tuple[AModule, QuotientMap]:
    """A/J_q as a module in canonical complement coordinates."""
    filt = filtration if filtration is not None else filtration_for(algebra, sigma)
    key = ("ajq", sigma.members, q)
    cached = algebra._cache.get(key)
    if cached is None:
        whole = Subspace.whole(algebra.field, algebra.dim)
        cached = quotient_amodule(algebra, filt.j(q), whole, label=f"A/J_{q}")
        algebra._cache[key] = cached
    return cached


def resolution_of_quotient(algebra: GroupAlgebra, sigma: NormalSubgroup, q: int,
                           length: int, order: str = "forward",
                           filtration: IdealFiltration | None = None) -> FreeResolution:
    key = ("resolution", sigma.members, q, order)
    cached = algebra._cache.get(key)
    if cached is None or cached.length < length:
        amod, _ = quotient_by_j(algebra, sigma, q, filtration)
        cached = build_resolution(amod, length, order)
        algebra._cache[key] = cached
    return cached


def layer_module(algebra: GroupAlgebra, sigma: NormalSubgroup, q: int,
                 filtration: IdealFiltration | None = None) -> tuple[AModule, QuotientMap]:
    """J_q/J_{q+1} in canonical complement coordinates (cached)."""
    key = ("layer", sigma.members, q)
    cached = algebra._cache.get(key)
    if cached is None:
        filt = filtration if filtration is not None else filtration_for(algebra, sigma)
        cached = quotient_amodule(algebra, filt.j(q + 1), filt.j(q),
                                  label=f"J_{q}/J_{q + 1}")
        algebra._cache[key] = cached
    return cached


def resolution_of_layer(algebra: GroupAlgebra, sigma: NormalSubgroup, q: int,
                        length: int, order: str = "forward",
                        filtration: IdealFiltration | None = None) -> FreeResolution:
    key = ("res_layer", sigma.members, q, order)
    cached = algebra._cache.get(key)
    if cached is None or cached.length < length:
        layer, _ = layer_module(algebra, sigma, q, filtration)
        cached = build_resolution(layer, length, order)
        algebra._cache[key] = cached
    return cached


def higher_cohomology(algebra: GroupAlgebra, sigma: NormalSubgroup,
                      v: GammaModule, q: int, p: int,
                      filtration: IdealFiltration | None = None,
                      order: str = "forward") -> ExtResult:
    """H_q^p(G, S, V) = Ext^p(A/J_q, V), resolutions cached per (S, q)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    res = resolution_of_quotient(algebra, sigma, q, p + 1, order, filtration)
    return ext(res, v, p)


# ---------------------------------------------------------------------------
# brute-force classical cohomology (independent oracle)

def _bar_coboundary(group: FiniteGroup, v: GammaModule, i: int) -> np.ndarray:
    """Integer matrix of the inhomogeneous coboundary C^i -> C^{i+1}.

    (d phi)(g_1..g_{i+1}) = g_1 phi(g_2..g_{i+1})
                            + sum_m (-1)^m phi(.., g_m g_{m+1}, ..)
                            + (-1)^{i+1} phi(g_1..g_i).
    Row (sigma, t) is sigma * dim V + t and column (tau, s) is
    tau * dim V + s, with a tuple read as a base-|G| number, g_1 leading.
    Each term of the formula is one vectorized addition over all rows at
    once, at column indices computed from the multiplication table.

    Over F_p the entries are residues of the action and +-1.  Over Q row
    (sigma, t) is multiplied by the lcm of the denominators in row t of
    action[g_1], its +-1 terms included; that makes it integral and leaves
    the rank unchanged.  The dtype is int8, int64 or Python ints, the
    smallest that holds every entry.
    """
    n, d = group.order, v.dim
    rows = [row for g in range(n) for row in v.action[g].entries]
    if v.field.is_rational:
        scales = [lcm(*(x.denominator for x in row)) for row in rows]
        rows = [[x.numerator * (s // x.denominator) for x in row]
                for row, s in zip(rows, scales)]
    else:
        scales = [1] * len(rows)
    # |entry| <= max |action entry| + (i + 1) * scale, per row of the action
    bound = max(max(map(abs, row)) + (i + 1) * s for row, s in zip(rows, scales))
    dtype = np.int8 if bound < 2 ** 7 else np.int64 if bound < 2 ** 63 else object
    act = np.array(rows, dtype=dtype).reshape(n, d, d)
    scale = np.array(scales, dtype=dtype).reshape(n, d)

    sigma = np.arange(n ** (i + 1))
    digits = [sigma // n ** (i - k) % n for k in range(i + 1)]     # g_1 .. g_{i+1}
    head = digits[0]
    out = np.zeros((n ** (i + 1), d, n ** i, d), dtype=dtype)
    # g_1 phi(g_2..g_{i+1}): the block action[g_1] at column tuple (g_2..g_{i+1})
    out[sigma, :, sigma % n ** i, :] += act[head]
    t = np.arange(d)
    mult = np.array(group.mult)

    def face(tau, sign):
        out[sigma[:, None], t, tau[:, None], t] += sign * scale[head]

    for m in range(1, i + 1):
        merged = digits[:m - 1] + [mult[digits[m - 1], digits[m]]] + digits[m + 1:]
        tau = np.zeros_like(sigma)
        for digit in merged:
            tau = tau * n + digit
        face(tau, (-1) ** m)
    face(sigma // n, (-1) ** (i + 1))
    return out.reshape(n ** (i + 1) * d, n ** i * d)


def bar_dimension(group: FiniteGroup, v: GammaModule, p: int,
                  budget: int = DEFAULT_BAR_BUDGET) -> int:
    """dim H^p(G, V) from the inhomogeneous cochain complex.

    This path never touches resolutions or Hom complexes.  Raises
    BudgetExceeded, before anything is built, when p > 3 or when
    dim C^{p+1} = |G|^{p+1} * dim V, the largest cochain space touched,
    exceeds the budget.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    if p > 3:
        raise BudgetExceeded("inhomogeneous cochains are limited to p <= 3")
    n = group.order
    if n ** (p + 1) * v.dim > budget:
        raise BudgetExceeded(
            f"|G|^(p+1) * dim V = {n ** (p + 1) * v.dim} exceeds budget {budget}")
    field = v.field
    if v.dim == 0:
        return 0
    delta_p = _bar_coboundary(group, v, p)
    cols_p = delta_p.shape[1]
    rank_p = rank_of_int_rows(field, delta_p, cols_p)
    del delta_p  # freed before the next coboundary is built
    if p == 0:
        return cols_p - rank_p
    delta_prev = _bar_coboundary(group, v, p - 1)
    rank_prev = rank_of_int_rows(field, delta_prev, delta_prev.shape[1])
    return (cols_p - rank_p) - rank_prev


# ---------------------------------------------------------------------------
# chain map lifting

def lift_chain_map(f: ModuleMap, res_source: FreeResolution,
                   res_target: FreeResolution) -> list[Matrix]:
    """Lift a module map to a chain map between resolutions, degree by degree.

    Existence is guaranteed by freeness of the sources and exactness of the
    target resolution; each lift solves the commuting-square equation with
    canonical particular solutions, and every square is verified before
    returning.  Lifting the identity along one and the same resolution short
    circuits to identity matrices.
    """
    algebra = res_source.algebra
    fld = algebra.field
    n = algebra.dim
    depth = min(res_source.length, res_target.length)
    if (res_source is res_target
            and f.matrix == Matrix.identity(fld, f.source.dim)):
        return [Matrix.identity(fld, res_source.ranks[i] * n) for i in range(depth + 1)]

    lifts: list[Matrix] = []
    target_free = [free_amodule(algebra, res_target.ranks[i]) for i in range(depth + 1)]
    # degree 0: solve aug_target . x = f(aug_source(generator))
    images = []
    for j in range(res_source.ranks[0]):
        y = f.matrix.apply(res_source.augmentation.column(j * n))
        images.append(solve_column(res_target.augmentation, y))
    lifts.append(amap_from_generator_images(algebra, target_free[0].module, images))
    if res_target.augmentation @ lifts[0] != f.matrix @ res_source.augmentation:
        raise RuntimeError("degree-0 lifting square failed")
    for i in range(1, depth + 1):
        d_src = res_source.boundaries[i - 1]
        d_tgt = res_target.boundaries[i - 1]
        images = []
        for j in range(res_source.ranks[i]):
            w = lifts[i - 1].apply(d_src.column(j * n))
            images.append(solve_column(d_tgt, w))
        lifts.append(amap_from_generator_images(algebra, target_free[i].module, images))
        if d_tgt @ lifts[i] != lifts[i - 1] @ d_src:
            raise RuntimeError(f"degree-{i} lifting square failed")
    return lifts
