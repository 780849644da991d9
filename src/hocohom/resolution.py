"""Free resolutions over the group algebra and Ext computation.

Resolutions are built by iterated kernels: greedily cover a module by a
free module (picking standard basis vectors whose A-orbits grow the span),
take the kernel of the covering map, repackage it as a module in its own
canonical coordinates, and repeat.  The construction is deterministic and
certified exact at every stage by rank arithmetic.  Each step depends only
on the map before it, so the resolutions of A/J_q and of J_q/J_{q+1} are
cached on the algebra per (S, q, order) and a request for more degrees
continues the cached one from its last boundary.  Ext is the
cohomology of the Hom_A(-, V) complex of such a resolution: a hom from a
free module of rank k is the tuple of its generator images in V, and the
coboundary is precomposition with the boundary.  Every caller needs only
dim Ext^p, so `ext` reads it off the ranks of two coboundaries once their
composite is checked to be zero.

`bar_dimension` computes classical group cohomology through the standard
inhomogeneous cochain complex C^p = maps(G^p, V).  It shares no code with
the resolution path and serves as the independent oracle for the q = 1 row
of the higher-order theory and for the coefficient-power identification.
Each coboundary is built directly as one integer numpy array: every term
of the coboundary formula is a single vectorized addition at column
indices read off the multiplication table, rows over Q are scaled to
integers, and the dtype is the smallest that holds the entries (int8 for
small fields and small rational actions).  Its rank is taken in the field
by `rank_of_int_rows`, certified over Q.

Only the rows of delta^p whose leading argument g_1 is a generator of G
are built, k |G|^p dim V of them for k distinct generators instead of
|G|^{p+1} dim V, because they have the same kernel (so the same rank,
over every field):

    Lemma.  Let psi_g(g_2..g_{p+1}) = (delta phi)(g, g_2..g_{p+1}).  If
    psi_a = 0 and psi_b = 0, then psi_{ab} = 0.
    Proof.  Expand 0 = (delta delta phi)(a, b, g_2..g_{p+1}).  Every term
    but -psi_{ab}(g_2..g_{p+1}) has leading argument a or b, so it is 0.
    Every element of a finite group is a product of generators (the
    identity included), so phi is a cocycle once psi_g = 0 for every
    generator g.

The bar budget bounds the largest cochain space of the complex,
dim C^{p+1} = |G|^{p+1} dim V, not the rows built, and is checked before
anything is built, so the degrees it skips do not depend on the
generating set.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .algebra import GroupAlgebra, IdealFiltration, j_filtration
from .groups import FiniteGroup, NormalSubgroup
from .linalg import (
    Matrix, QuotientMap, Subspace,
    common_denominator, contract, kernel, rank, rank_of_int_rows,
)
from .modules import GammaModule, regular_module


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
                   f"free rank {k}")


def amap_from_generator_images(algebra: GroupAlgebra, target: GammaModule, images) -> Matrix:
    """The A-linear map A^k -> target sending the j-th generator to images[j].

    `images` is a Matrix whose row j is images[j].  Column (j, g) of the
    underlying R-matrix is action[g] applied to images[j], matching the free
    coordinate layout of free_amodule.
    """
    arrays, den = common_denominator([target.act_rows(g, images) for g in range(algebra.dim)])
    moved = np.stack(arrays, axis=1)
    return Matrix._wrap(algebra.field, moved.reshape(images.rows * algebra.dim, target.dim).T,
                        den)


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
    if ambient is None:
        ambient = regular_module(algebra.group, algebra.field)
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

    The span grows only when a vector is kept, so one membership test of all
    the vectors not yet swept finds the next one to keep.
    """
    algebra = m.algebra
    f = algebra.field
    dim = m.dim
    remaining = list(range(dim) if order == "forward" else range(dim - 1, -1, -1))
    units = Matrix.identity(f, dim)
    span = Subspace.zero(f, dim)
    chosen = []
    while remaining:
        k = span.first_outside(units.take_rows(remaining))
        if k is None:
            break
        i = remaining[k]
        chosen.append(i)
        remaining = remaining[k + 1:]
        orbit = Matrix._wrap(f, m.module.stack[:, :, i], m.module.den)
        span = Subspace._spanned_by(Matrix.vstack(f, [span.basis, orbit]))
    if span.dim != dim:
        raise RuntimeError("free cover failed to span the module")
    surjection = amap_from_generator_images(algebra, m.module, units.take_rows(chosen))
    return FreeCover(len(chosen), tuple(chosen), surjection)


@dataclass(frozen=True)
class FreeResolution:
    """... -> A^{n_2} -> A^{n_1} -> A^{n_0} -> target -> 0, exact throughout.

    boundaries[i] is the R-matrix of d_{i+1} : A^{n_{i+1}} -> A^{n_i}; its
    image is the kernel of the map out of A^{n_i} (the augmentation for
    i = 0).
    """

    target: AModule
    ranks: tuple[int, ...]
    augmentation: Matrix
    boundaries: tuple[Matrix, ...]

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
    cover = free_cover(m, order)
    return _extend(FreeResolution(m, (cover.rank,), cover.surjection, ()), length, order)


def _extend(res: FreeResolution, length: int, order: str) -> FreeResolution:
    """res continued from its last map to `length` boundaries; the result
    equals build_resolution(res.target, length, order), since each step
    depends only on the map before it and that map's free rank."""
    algebra = res.algebra
    f = algebra.field
    n = algebra.dim
    ranks = list(res.ranks)
    boundaries = list(res.boundaries)
    prev_map = boundaries[-1] if boundaries else res.augmentation
    for i in range(len(boundaries) + 1, length + 1):
        prev_rank = ranks[-1]
        ker_sub = kernel(prev_map)
        if ker_sub.dim == 0:
            boundary = Matrix.zeros(f, prev_rank * n, 0)
            next_rank = 0
        else:
            free = free_amodule(algebra, prev_rank).module
            khat = amodule_from_subspace(algebra, free, ker_sub,
                                         f"ker step {i} of {res.target.label}")
            kcover = free_cover(khat, order)
            boundary = amap_from_generator_images(algebra, free,
                                                  ker_sub.basis.take_rows(kcover.chosen))
            next_rank = kcover.rank
            if rank(boundary) != ker_sub.dim:
                raise RuntimeError("resolution step failed exactness certification")
        if not (prev_map @ boundary).is_zero():
            raise RuntimeError(f"boundary {i} does not compose to zero with the map before it")
        boundaries.append(boundary)
        ranks.append(next_rank)
        prev_map = boundary
    return FreeResolution(res.target, tuple(ranks), res.augmentation, tuple(boundaries))


# ---------------------------------------------------------------------------
# Hom complexes and Ext

def hom_precompose(algebra: GroupAlgebra, amap: Matrix, gens_from: int,
                   gens_to: int, v: GammaModule) -> Matrix:
    """Hom_A(-, V) applied to an A-map A^{gens_from} -> A^{gens_to}.

    Returns the induced map V^{gens_to} -> V^{gens_from}: block (j, k) is
    the action through V of the algebra coefficient of generator k in the
    image of generator j, all blocks in one contraction with the action.
    """
    n = algebra.dim
    d_v = v.dim
    if gens_from == 0 or gens_to == 0 or d_v == 0:
        return Matrix.zeros(algebra.field, gens_from * d_v, gens_to * d_v)
    # coeffs[j, k, g]: entry (k, g) of column (j, e), the image of generator j
    coeffs = amap.array[:, ::n].T.reshape(gens_from, gens_to, n)
    blocks = contract(algebra.field, coeffs, v.stack)        # [j, k, row, col]
    return Matrix._wrap(algebra.field, blocks.transpose(0, 2, 1, 3)
                        .reshape(gens_from * d_v, gens_to * d_v), amap.den * v.den)


def hom_delta(resolution: FreeResolution, v: GammaModule, i: int) -> Matrix:
    """delta^i : V^{n_i} -> V^{n_{i+1}} by precomposition with boundary i+1."""
    if i >= resolution.length:
        raise ResolutionTooShort(f"need boundary {i + 1}, have {resolution.length}")
    return hom_precompose(resolution.algebra, resolution.boundaries[i],
                          resolution.ranks[i + 1], resolution.ranks[i], v)


def ext(resolution: FreeResolution, v: GammaModule, p: int) -> int:
    """dim Ext^p(target, V) from a resolution with at least p+1 boundaries.

    dim Z^p - dim B^p = (cols - rank delta^p) - rank delta^{p-1}, taken after
    an exact check that delta^p delta^{p-1} = 0, which is B^p <= Z^p.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    if resolution.length < p + 1:
        raise ResolutionTooShort(
            f"resolution length {resolution.length} cannot reach degree {p}")
    delta = hom_delta(resolution, v, p)
    if p == 0:
        return delta.cols - rank(delta)
    prev = hom_delta(resolution, v, p - 1)
    if not (delta @ prev).is_zero():
        raise RuntimeError("coboundaries escape the cocycles: delta^2 != 0")
    return delta.cols - rank(delta) - rank(prev)


# ---------------------------------------------------------------------------
# the composed pipeline and its cache

def filtration_for(algebra: GroupAlgebra, sigma: NormalSubgroup) -> IdealFiltration:
    return algebra.cached(("filtration", sigma.members), lambda: j_filtration(algebra, sigma))


def _resolution(algebra: GroupAlgebra, key, module, length: int,
                order: str = "forward") -> FreeResolution:
    """The resolution cached under key, with at least `length` boundaries.

    A miss builds it from module(); a cached one that is too short is
    continued from its last boundary and stored again under the same key,
    so each resolution is built once, only as far as the highest degree
    asked of it.
    """
    res = algebra._cache.get(key)
    if res is None:
        res = build_resolution(module(), length, order)
    elif res.length < length:
        res = _extend(res, length, order)
    else:
        return res
    algebra._cache[key] = res
    return res


def quotient_by_j(algebra: GroupAlgebra, sigma: NormalSubgroup,
                  q: int) -> tuple[AModule, QuotientMap]:
    """A/J_q as a module in canonical complement coordinates."""
    return algebra.cached(("ajq", sigma.members, q), lambda: quotient_amodule(
        algebra, filtration_for(algebra, sigma).j(q),
        Subspace.whole(algebra.field, algebra.dim), label=f"A/J_{q}"))


def resolution_of_quotient(algebra: GroupAlgebra, sigma: NormalSubgroup, q: int,
                           length: int, order: str = "forward") -> FreeResolution:
    return _resolution(algebra, ("resolution", sigma.members, q, order),
                       lambda: quotient_by_j(algebra, sigma, q)[0], length, order)


def layer_module(algebra: GroupAlgebra, sigma: NormalSubgroup,
                 q: int) -> tuple[AModule, QuotientMap]:
    """J_q/J_{q+1} in canonical complement coordinates (cached)."""
    filt = filtration_for(algebra, sigma)
    return algebra.cached(("layer", sigma.members, q), lambda: quotient_amodule(
        algebra, filt.j(q + 1), filt.j(q), label=f"J_{q}/J_{q + 1}"))


def resolution_of_layer(algebra: GroupAlgebra, sigma: NormalSubgroup, q: int,
                        length: int) -> FreeResolution:
    return _resolution(algebra, ("res_layer", sigma.members, q),
                       lambda: layer_module(algebra, sigma, q)[0], length)


def higher_cohomology(algebra: GroupAlgebra, sigma: NormalSubgroup,
                      v: GammaModule, q: int, p: int,
                      order: str = "forward") -> int:
    """dim H_q^p(G, S, V) = dim Ext^p(A/J_q, V), resolutions cached per (S, q, order)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return ext(resolution_of_quotient(algebra, sigma, q, p + 1, order), v, p)


# ---------------------------------------------------------------------------
# brute-force classical cohomology (independent oracle)

def _bar_coboundary(group: FiniteGroup, v: GammaModule, i: int) -> np.ndarray:
    """Integer matrix of the generator rows of the coboundary C^i -> C^{i+1}.

    (d phi)(g_1..g_{i+1}) = g_1 phi(g_2..g_{i+1})
                            + sum_m (-1)^m phi(.., g_m g_{m+1}, ..)
                            + (-1)^{i+1} phi(g_1..g_i).
    Only the rows with g_1 in the generating set are built (the identity
    for a group with no generators); they have the kernel of the whole
    coboundary, by the lemma in the module docstring.  The rows are those
    of the full matrix with such a g_1, in their order there: row
    (sigma, t) of the full matrix is sigma * dim V + t and column (tau, s)
    is tau * dim V + s, with a tuple read as a base-|G| number, g_1
    leading.  Each term of the formula is one vectorized addition over all
    rows at once, at column indices computed from the multiplication table.

    Over F_p the entries are residues of the action and +-1.  Over Q row
    (sigma, t) is multiplied by the lcm of the denominators in row t of
    action[g_1], its +-1 terms included; that makes it integral and leaves
    the rank unchanged.  With the action stored as numerators N over D,
    that lcm is D / c for c = gcd(D, row t of N), and the scaled row of the
    action is N's row divided by c.  The dtype is int8, int64 or Python
    ints, the smallest that holds every entry.
    """
    n, d = group.order, v.dim
    den = v.den
    rows = v.stack.reshape(n * d, d).tolist()
    common = [gcd(den, *row) for row in rows]
    scales = [den // c for c in common]
    if den != 1:
        rows = [[x // c for x in row] for row, c in zip(rows, common)]
    # |entry| <= max |action entry| + (i + 1) * scale, per row of the action
    bound = max(max(map(abs, row)) + (i + 1) * s for row, s in zip(rows, scales))
    dtype = np.int8 if bound < 2 ** 7 else np.int64 if bound < 2 ** 63 else object
    act = np.array(rows, dtype=dtype).reshape(n, d, d)
    scale = np.array(scales, dtype=dtype).reshape(n, d)

    heads = np.array(sorted(set(group.gen_indices)) or [0])
    sigma = (heads[:, None] * n ** i + np.arange(n ** i)).ravel()
    digits = [sigma // n ** (i - k) % n for k in range(i + 1)]     # g_1 .. g_{i+1}
    head = digits[0]
    out_row = np.arange(len(sigma))
    out = np.zeros((len(sigma), d, n ** i, d), dtype=dtype)
    # g_1 phi(g_2..g_{i+1}): the block action[g_1] at column tuple (g_2..g_{i+1})
    out[out_row, :, sigma % n ** i, :] += act[head]
    t = np.arange(d)
    mult = np.array(group.mult)

    def face(tau, sign):
        out[out_row[:, None], t, tau[:, None], t] += sign * scale[head]

    for m in range(1, i + 1):
        merged = digits[:m - 1] + [mult[digits[m - 1], digits[m]]] + digits[m + 1:]
        tau = np.zeros_like(sigma)
        for digit in merged:
            tau = tau * n + digit
        face(tau, (-1) ** m)
    face(sigma // n, (-1) ** (i + 1))
    return out.reshape(len(sigma) * d, n ** i * d)


def bar_dimension(group: FiniteGroup, v: GammaModule, p: int,
                  budget: int = DEFAULT_BAR_BUDGET) -> int:
    """dim H^p(G, V) from the inhomogeneous cochain complex.

    This path never touches resolutions or Hom complexes.  It ranks only
    the generator rows of delta^p and delta^{p-1} (leading argument a
    generator), which have the kernels of the whole coboundaries.
    Lemma: with psi_g = (delta phi)(g, ...), psi_a = psi_b = 0 gives
    psi_{ab} = 0.  Proof: in 0 = (delta delta phi)(a, b, ...) every term but
    -psi_{ab} has leading argument a or b, and every element is a product
    of generators.  Raises BudgetExceeded, before anything is built, when
    p > 3 or when dim C^{p+1} = |G|^{p+1} * dim V, the largest cochain
    space of the complex (not the rows built), exceeds the budget.
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


def bar_dimension_or_none(group: FiniteGroup, v: GammaModule, p: int,
                          budget: int = DEFAULT_BAR_BUDGET) -> int | None:
    """bar_dimension, or None where the budget skips degree p."""
    try:
        return bar_dimension(group, v, p, budget)
    except BudgetExceeded:
        return None
