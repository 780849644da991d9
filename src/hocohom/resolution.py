"""Free resolutions over the group algebra and Ext computation.

Resolutions are built by iterated kernels: greedily cover a module by a
free module (picking basis vectors whose A-orbits grow the span), take the
kernel K of the covering map, cover K in its own pivot coordinates (the
orbit of an RREF basis row b is {g b} read at K's pivot columns), and
repeat.  The construction is deterministic and certified exact at every
stage by rank arithmetic, which also shows K is A-stable: the boundary
composes to zero with the map before it and has rank dim K, so its image
is K.  Each step depends only on the map before it, so the resolutions of
A/J_q are cached on the algebra per (S, level, order), level(q) the least
q' with J_q' = J_q (`IdealFiltration.level`), and a request for more
degrees continues the cached one from its last boundary.  Every q at or
past the stabilization level reads the one resolution of A/J_s.

A module over A is a representation of G, so every module here, the free
A^k, the quotients A/J_q and J_q/J_{q+1} and each resolution's target, is
a plain `modules.GammaModule`, and a resolution carries its algebra.
A free module A^k is a permutation module on the multiplication table:
element g sends the basis vector (i, h) to (i, g h), so its index table is
i n + mult[g][h], one numpy broadcast, and no action matrix is built.  It
is kept in the algebra's cache once per (algebra, k), so every resolution
step and every comparison map (`les.comparison_map`) of one rank reads the
same module, and every quotient (`quotient_amodule`) is cut out of A^1,
which is A acting on itself by left multiplication.  The greedy cover grows one incremental echelon
(`linalg.Echelon`); the generators it keeps depend only on the span, not
on how the span is stored (the lemma in `free_cover`).

A layer J_q/J_{q+1} whose action is certified trivial is R^N, N = N(q),
and A/J_1 = A/I = R, so `resolution_of_layer` resolves the layer as the
block sum of N copies of the cached resolution of A/J_1: ranks N r_i,
and the augmentation and every boundary block-diagonal.  No verb reads
it (the power law reads the long exact sequence); it is the reference
route of the tests, and it is the greedy resolution of the layer, entry
for entry:

    Lemma.  For R^N with trivial action, the forward greedy resolution is
    the N-fold block sum of the forward greedy resolution of R.
    Proof.  The orbit of e_k is e_k alone, so the cover keeps every e_k
    and the augmentation is the block sum.  Let a map be block-diagonal.
    Its kernel is the direct sum of the blocks' kernels, and its RREF
    basis is the blocks' RREF bases stacked in block order.  The forward
    sweep reaches block k once it has covered every block before it, and
    the orbit of a row of block k stays in block k, so a unit vector of
    block k lies in the span exactly when it lies in the part spanned
    from block k.  The sweep keeps in each block what the sweep of that
    block alone keeps, and the next boundary is block-diagonal again.

A resolution holds its augmentation and boundaries and nothing else: the
free rank n_i is read off the map out of A^{n_i}, whose R-matrix has
n_i |G| columns, and `hom_precompose` reads both ranks of a map off its
shape.  The quotient modules are built from their action stacks
(`modules.GammaModule`), read off the quotient coordinates in one
reshape.

Ext is the cohomology of the Hom_A(-, V) complex of such a resolution: a
hom from a free module of rank k is the tuple of its generator images in
V, and the coboundary is precomposition with the boundary.  Every caller
needs only dim Ext^p, so `ext` reads it off the ranks of two coboundaries
once their composite is checked to be zero.  Each coboundary and its rank
are kept with V, once per boundary: `ext` at p and p + 1 and the long
exact sequence's complexes of A/J_q and A/J_{q+1} read one build and one
rank.  The key is the content of the generator columns, all that the
coboundary reads, and never an object's id: the block-sum layer
resolution is summed again when it is extended, so an old boundary's id
may be reused by a new matrix.

`bar_dimension` computes classical group cohomology through the
normalized inhomogeneous cochain complex (Mac Lane, *Homology*, 1963,
IV.5; Weibel, *An Introduction to Homological Algebra*, 1994, 6.5).  It shares no
code with the resolution path and serves as the independent oracle for
the q = 1 row of the higher-order theory and for the coefficient-power
identification.  Each coboundary is built directly as one integer numpy
array: every term of the coboundary formula is a single vectorized
addition at column indices read off the multiplication table, rows over
Q are scaled to integers, and the dtype is the smallest that holds the
entries (int8 for small fields and small rational actions).  Its rank is
taken in the field by `rank_of_int_rows`, certified over Q.

    Normalized cochains.  N^p, the cochains of C^p = maps(G^p, V) that
    vanish on every tuple containing the identity e, is a subcomplex,
    and its inclusion into C is a quasi-isomorphism.

    The matrix.  The matrix of delta on N is the submatrix of delta on
    the rows and columns whose tuples avoid e: a normalized phi is zero
    on the other columns, and delta phi is zero on the other rows.

    Generator rows still suffice.  Let psi_g(g_2..g_{p+1}) =
    (delta phi)(g, g_2..g_{p+1}) for normalized phi.  If psi_a and psi_b
    vanish on the tuples that avoid e, then psi_{ab} = 0.
    Proof.  delta phi is normalized, so psi_a and psi_b vanish on the
    tuples containing e too.  Expand 0 = (delta delta phi)(a, b, g_2..):
    every term but -psi_{ab}(g_2..g_{p+1}) has leading argument a or b,
    so it is 0.  psi_e = 0 since delta phi is normalized, and every
    element is a product of generators, so phi is a cocycle once psi_g
    vanishes on the tuples avoiding e for every generator g other than e.

    The shape.  The identity is element 0 (`groups`), so tuple digits are
    1..|G|-1, and the matrix of delta^p has k' (|G|-1)^p dim V rows by
    (|G|-1)^p dim V columns, for k' distinct generators other than e.  A
    face whose product g_m g_{m+1} is e is dropped.  A group with no
    generator other than e is trivial, and its matrices have no rows.

The bar budget bounds the largest cochain space of the full complex,
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
    CertificateError, Echelon, Field, Matrix, QuotientMap, Subspace, contract, kernel,
    node_exact, rank, rank_of_int_rows,
)
from .modules import GammaModule


class NotStableError(ValueError):
    """A subspace fed to a module constructor is not preserved by the action."""

    def __init__(self, element_index: int, vector):
        self.element_index = element_index
        self.vector = tuple(vector)
        super().__init__(f"subspace is not stable under group element {element_index}")


class ResolutionTooShort(ValueError):
    pass


class NontrivialActionError(CertificateError):
    """A layer J_q/J_{q+1} failed the trivial-action certificate."""


class BudgetExceeded(RuntimeError):
    pass


DEFAULT_BAR_BUDGET = 20000
# the highest cohomological degree the bar oracle and the long exact sequence reach
DEGREE_CAP = 3


def free_amodule(algebra: GroupAlgebra, k: int) -> GammaModule:
    """A^k with coordinates (generator, group element), acting by permutation,
    built once per (algebra, k) and kept in the algebra's cache.

    Element g sends the basis vector (i, h) to (i, g h): its index table is
    i n + mult[g][h], one broadcast of the multiplication table; no action
    matrix is built.
    """
    def build():
        n = algebra.dim
        perm = (n * np.arange(k)[:, None] + algebra.group.mult[:, None, :]).reshape(n, k * n)
        return GammaModule.permutation(algebra.group, algebra.field, perm)
    return algebra.cached(("free", k), build)


def amap_from_generator_images(algebra: GroupAlgebra, target: GammaModule, images) -> Matrix:
    """The A-linear map A^k -> target sending the j-th generator to images[j].

    `images` is a Matrix whose row j is images[j].  Column (j, g) of the
    underlying R-matrix is action[g] applied to images[j], matching the free
    coordinate layout of free_amodule.
    """
    moved, den = target.orbits(images)
    return Matrix._wrap(algebra.field, moved.reshape(images.rows * algebra.dim, target.dim).T,
                        den)


def _certify_stable(module: GammaModule, sub: Subspace):
    """Raise NotStableError unless every group generator maps sub into itself.

    The generators generate the finite group G, so a subspace stable under
    each of them is stable under every element.
    """
    gens = list(module.group.gen_indices)
    moved, den = module.orbits(sub.basis)
    # generator-major rows, so the first row outside names the first failing generator
    images = moved[:, gens].transpose(1, 0, 2).reshape(len(gens) * sub.dim, module.dim)
    bad = sub.first_outside(Matrix._wrap(sub.field, images, den))
    if bad is not None:
        g, row = divmod(bad, sub.dim)
        raise NotStableError(gens[g], sub.basis.entries[row])


def amodule_from_subspace(ambient: GammaModule, sub: Subspace) -> GammaModule:
    """A stable subspace repackaged as a module in its RREF basis coordinates.

    Stability is certified under the group generators; the coordinates of
    g b (b in the basis) are then read off at the pivot columns.
    """
    _certify_stable(ambient, sub)
    moved, den = ambient.orbits(sub.basis)
    # entry [g, j, r] is pivot coordinate j of g b_r
    return GammaModule(ambient.group, ambient.field,
                       moved[:, :, list(sub.pivots)].transpose(1, 2, 0), den)


def quotient_amodule(algebra: GroupAlgebra, sub: Subspace, sup: Subspace,
                     label: str = "quotient") -> tuple[GammaModule, QuotientMap]:
    """The quotient sup/sub of left ideals of A in canonical complement
    coordinates; both are certified stable under left multiplication, and a
    failure is a CertificateError caused by the NotStableError.  Returns the
    module and the quotient coordinate map used to build it.
    """
    regular = free_amodule(algebra, 1)
    try:
        _certify_stable(regular, sup)
        _certify_stable(regular, sub)
    except NotStableError as err:
        raise CertificateError(f"{label}: {err}") from err
    qmap = QuotientMap(sup, sub.basis)
    # column (r, g) holds the quotient coordinates of g reps[r], which lies in sup
    coords = qmap.coords(amap_from_generator_images(algebra, regular, qmap.reps))
    stack = coords.array.reshape(qmap.dim, qmap.dim, algebra.dim).transpose(2, 0, 1)
    return GammaModule(algebra.group, algebra.field, stack, coords.den), qmap


def free_cover(field: Field, dim: int, orbit, order: str = "forward") -> tuple[int, ...]:
    """Greedy free cover of a module on R^dim: the indices i of the unit
    vectors kept by a sweep that keeps each e_i outside the A-span of those
    already kept.  orbit(i) is the |G| x dim Matrix of the g e_i.  The span
    grows as one `linalg.Echelon`, which holds dim rows once it is all of
    R^dim (the spanning certificate).

        Lemma.  Any echelon of the kept orbits keeps the same generators as
        the per-vector sweep, in either sweep order.
        Proof.  The sweep keeps e_i exactly when e_i lies outside the span
        of the orbits kept before it.  That test depends on the span alone,
        not on how it is stored, so by induction on i both keep the same
        indices and hold the same span.
    """
    span = Echelon(field, dim)
    chosen = []
    for i in (range(dim) if order == "forward" else range(dim - 1, -1, -1)):
        if not span.contains_unit(i):
            chosen.append(i)
            span.add(orbit(i))
    if span.rank != dim:
        raise CertificateError("free cover failed to span the module")
    return tuple(chosen)


@dataclass(frozen=True)
class FreeResolution:
    """... -> A^{n_2} -> A^{n_1} -> A^{n_0} -> target -> 0, exact throughout,
    over the group algebra `algebra`.

    boundaries[i] is the R-matrix of d_{i+1} : A^{n_{i+1}} -> A^{n_i}; its
    image is the kernel of the map out of A^{n_i} (the augmentation for
    i = 0).  The free ranks n_i are read off the column counts.
    """

    algebra: GroupAlgebra
    target: GammaModule
    augmentation: Matrix
    boundaries: tuple[Matrix, ...]

    @property
    def length(self) -> int:
        return len(self.boundaries)

    @property
    def ranks(self) -> tuple[int, ...]:
        """(n_0, n_1, ...): n_i |G| columns of the map out of A^{n_i}."""
        n = self.algebra.dim
        return tuple(m.cols // n for m in (self.augmentation,) + self.boundaries)

    def __repr__(self) -> str:
        return f"FreeResolution(target dim {self.target.dim}, ranks {list(self.ranks)})"


def build_resolution(algebra: GroupAlgebra, module: GammaModule, length: int,
                     order: str = "forward") -> FreeResolution:
    """Iterated-kernel free resolution of the A-module `module` with
    `length` boundary maps.

    Exactness is certified at every stage: the image of each boundary is the
    kernel of the previous map (they compose to zero and have equal rank).
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    f, dim = algebra.field, module.dim
    chosen = free_cover(f, dim, lambda i: Matrix._wrap(f, module.stack[:, :, i], module.den),
                        order)
    augmentation = amap_from_generator_images(algebra, module,
                                              Matrix.identity(f, dim).take_rows(chosen))
    return _extend(FreeResolution(algebra, module, augmentation, ()), length, order)


def _extend(res: FreeResolution, length: int, order: str) -> FreeResolution:
    """res continued from its last map to `length` boundaries; the result
    equals build_resolution(res.algebra, res.target, length, order), since
    each step depends only on the map before it.  Each kept row b of the
    kernel K's RREF basis becomes a generator sent to b; the exactness
    certificate fails (CertificateError) when K is not A-stable.
    From the second step on, the map before is a boundary built here from
    its generator images, as the new one is, so the composite is read on
    the generator columns (the lemma in the `les` docstring)."""
    algebra = res.algebra
    f = algebra.field
    boundaries = list(res.boundaries)
    prev_map = boundaries[-1] if boundaries else res.augmentation
    for i in range(len(boundaries) + 1, length + 1):
        ker_sub = kernel(prev_map)
        free = free_amodule(algebra, prev_map.cols // algebra.dim)
        basis = ker_sub.basis
        # (g b)[j] = b[inverse_perm[g][j]], read at K's pivot columns j
        reads = free.inverse_perm[:, list(ker_sub.pivots)]
        images = basis.take_rows(free_cover(
            f, ker_sub.dim, lambda row: Matrix._wrap(f, basis.array[row, reads], basis.den),
            order))
        boundary = amap_from_generator_images(algebra, free, images)
        # dim K = cols - rank(prev_map); the first composite is taken on every
        # column, since a given augmentation need not be A-linear
        incoming = boundary if i == 1 else images.transpose()
        if not node_exact(incoming, rank(boundary), prev_map, prev_map.cols - ker_sub.dim):
            raise CertificateError(f"resolution step {i} failed exactness certification")
        boundaries.append(boundary)
        prev_map = boundary
    return FreeResolution(algebra, res.target, res.augmentation, tuple(boundaries))


# ---------------------------------------------------------------------------
# Hom complexes and Ext

def hom_precompose(algebra: GroupAlgebra, amap: Matrix, v: GammaModule) -> Matrix:
    """Hom_A(-, V) applied to an A-map A^{gens_from} -> A^{gens_to}, the
    free ranks read off amap's shape, |G| gens_to x |G| gens_from.

    Returns the induced map V^{gens_to} -> V^{gens_from}: block (j, k) is
    the action through V of the algebra coefficient of generator k in the
    image of generator j, all blocks in one contraction with the action.
    """
    n = algebra.dim
    gens_from, gens_to, d_v = amap.cols // n, amap.rows // n, v.dim
    if gens_from == 0 or gens_to == 0 or d_v == 0:
        return Matrix.zeros(algebra.field, gens_from * d_v, gens_to * d_v)
    # coeffs[j, k, g]: entry (k, g) of column (j, e), the image of generator j
    coeffs = amap.array[:, ::n].T.reshape(gens_from, gens_to, n)
    blocks = contract(algebra.field, coeffs, v.stack)        # [j, k, row, col]
    return Matrix._wrap(algebra.field, blocks.transpose(0, 2, 1, 3)
                        .reshape(gens_from * d_v, gens_to * d_v), amap.den * v.den)


def _coboundary(resolution: FreeResolution, v: GammaModule, i: int) -> tuple[Matrix, tuple]:
    """delta^i with its key in v's cache: the generator columns of boundary
    i+1, which are all that `hom_precompose` reads, and whose shape fixes
    both free ranks."""
    if i >= resolution.length:
        raise ResolutionTooShort(f"need boundary {i + 1}, have {resolution.length}")
    boundary = resolution.boundaries[i]
    key = ("hom_delta", boundary.take_columns(range(0, boundary.cols, resolution.algebra.dim)))
    return v.cached(key, lambda: hom_precompose(resolution.algebra, boundary, v)), key


def hom_delta(resolution: FreeResolution, v: GammaModule, i: int) -> Matrix:
    """delta^i : V^{n_i} -> V^{n_{i+1}} by precomposition with boundary i+1,
    built once per boundary content and kept with v."""
    return _coboundary(resolution, v, i)[0]


def _coboundary_and_rank(resolution: FreeResolution, v: GammaModule,
                         i: int) -> tuple[Matrix, int]:
    """delta^i and its rank, both kept with v."""
    delta, key = _coboundary(resolution, v, i)
    return delta, v.cached(("rank", key), lambda: rank(delta))


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
    delta, rank_delta = _coboundary_and_rank(resolution, v, p)
    if p == 0:
        return delta.cols - rank_delta
    prev, rank_prev = _coboundary_and_rank(resolution, v, p - 1)
    if not (delta @ prev).is_zero():
        raise CertificateError("coboundaries escape the cocycles: delta^2 != 0")
    return delta.cols - rank_delta - rank_prev


# ---------------------------------------------------------------------------
# the composed pipeline and its cache
#
# A value that depends on q only through J_q is keyed by level(q), so each
# distinct ideal of the chain is worked on once: the algebra's cache holds
# the V-independent ones, and a module's cache (`GammaModule.cached`) the
# Ext, cocycle and long-exact-sequence results for it, keyed by the algebra
# object itself.

def filtration_for(algebra: GroupAlgebra, sigma: NormalSubgroup) -> IdealFiltration:
    return algebra.cached(("filtration", sigma.members), lambda: j_filtration(algebra, sigma))


def quotient_by_j(algebra: GroupAlgebra, sigma: NormalSubgroup,
                  q: int) -> tuple[GammaModule, QuotientMap]:
    """A/J_q as a module in canonical complement coordinates, cached per level."""
    level = filtration_for(algebra, sigma).level(q)
    return algebra.cached(("ajq", sigma.members, level), lambda: quotient_amodule(
        algebra, filtration_for(algebra, sigma).j(level),
        Subspace.whole(algebra.field, algebra.dim), label=f"A/J_{level}"))


def resolution_of_quotient(algebra: GroupAlgebra, sigma: NormalSubgroup, q: int,
                           length: int, order: str = "forward") -> FreeResolution:
    """The resolution of A/J_q cached per (S, level, order), with at least
    `length` boundaries.

    A miss builds it; a cached one that is too short is continued from its
    last boundary and stored again under the same key, so each resolution
    is built once, only as far as the highest degree asked of it.
    """
    level = filtration_for(algebra, sigma).level(q)
    key = ("resolution", sigma.members, level, order)
    res = algebra._cache.get(key)
    if res is None:
        res = build_resolution(algebra, quotient_by_j(algebra, sigma, level)[0], length, order)
    elif res.length < length:
        res = _extend(res, length, order)
    else:
        return res
    algebra._cache[key] = res
    return res


def layer_module(algebra: GroupAlgebra, sigma: NormalSubgroup,
                 q: int) -> tuple[GammaModule, QuotientMap]:
    """J_q/J_{q+1} in canonical complement coordinates, cached per level; it
    is zero from the stabilization level on."""
    filt = filtration_for(algebra, sigma)
    level = filt.level(q)
    return algebra.cached(("layer", sigma.members, level), lambda: quotient_amodule(
        algebra, filt.j(level + 1), filt.j(level), label=f"J_{level}/J_{level + 1}"))


def certify_trivial_action(m: GammaModule, label: str) -> None:
    """Raise NontrivialActionError, naming m by `label`, unless every group
    element acts on m as the identity; m is then R^{dim m} with trivial action."""
    ident = Matrix.identity(m.field, m.dim)
    for g, mat in enumerate(m.action):
        if mat != ident:
            raise NontrivialActionError(f"group element {g} acts nontrivially on {label}")


def _block_sum(m: Matrix, copies: int) -> Matrix:
    """The block-diagonal matrix of `copies` copies of m."""
    r, c = m.rows, m.cols
    out = np.zeros((copies * r, copies * c), dtype=m.array.dtype)
    for k in range(copies):
        out[k * r:(k + 1) * r, k * c:(k + 1) * c] = m.array
    return Matrix._wrap(m.field, out, m.den)


def resolution_of_layer(algebra: GroupAlgebra, sigma: NormalSubgroup, q: int,
                        length: int) -> FreeResolution:
    """The resolution of J_q/J_{q+1}, certified to act trivially, as the
    block sum of N(q) copies of the cached resolution of A/J_1 (the lemma
    in the module docstring).  A request for more degrees extends the
    A/J_1 resolution and sums it again.  Cached per level."""
    level = filtration_for(algebra, sigma).level(q)
    key = ("res_layer", sigma.members, level)
    res = algebra._cache.get(key)
    if res is None or res.length < length:
        layer = layer_module(algebra, sigma, q)[0]
        certify_trivial_action(layer, f"J_{level}/J_{level + 1}")
        base = resolution_of_quotient(algebra, sigma, 1, length)
        res = algebra._cache[key] = FreeResolution(
            algebra, layer, _block_sum(base.augmentation, layer.dim),
            tuple(_block_sum(b, layer.dim) for b in base.boundaries))
    return res


def higher_cohomology(algebra: GroupAlgebra, sigma: NormalSubgroup,
                      v: GammaModule, q: int, p: int,
                      order: str = "forward") -> int:
    """dim H_q^p(G, S, V) = dim Ext^p(A/J_q, V), kept with v once per
    (algebra, S, level, p, order); the resolutions are cached per (S, level, order)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    level = filtration_for(algebra, sigma).level(q)
    return v.cached(("ext", algebra, sigma.members, level, p, order), lambda: ext(
        resolution_of_quotient(algebra, sigma, level, p + 1, order), v, p))


# ---------------------------------------------------------------------------
# brute-force classical cohomology (independent oracle)

def _bar_coboundary(group: FiniteGroup, v: GammaModule, i: int) -> np.ndarray:
    """Integer matrix of the generator rows of the normalized coboundary
    N^i -> N^{i+1}.

    (d phi)(g_1..g_{i+1}) = g_1 phi(g_2..g_{i+1})
                            + sum_m (-1)^m phi(.., g_m g_{m+1}, ..)
                            + (-1)^{i+1} phi(g_1..g_i).
    Rows and columns are the tuples that avoid the identity, element 0, so
    a tuple's digits are 1..|G|-1; a face whose product g_m g_{m+1} is the
    identity is dropped, since normalized phi vanishes there.  Only the
    rows with g_1 a generator other than the identity are built (none for
    the trivial group); they have the kernel of the whole normalized
    coboundary, by the lemmas in the module docstring.  Row (sigma, t) is
    sigma * dim V + t and column (tau, s) is tau * dim V + s, with a tuple
    read as a base-(|G|-1) number of its digits minus one, g_1 leading, so
    the rows and columns keep their order in the full matrix.  Each term
    of the formula is one vectorized addition over all rows at once, at
    column indices computed from the multiplication table.

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

    m = n - 1
    heads = np.array(sorted(set(group.gen_indices) - {0}), dtype=np.intp)
    tail = np.tile(np.arange(m ** i), len(heads))                    # (g_2..g_{i+1})
    digits = [np.repeat(heads, m ** i)] + [tail // m ** (i - 1 - k) % m + 1 for k in range(i)]
    head = digits[0]
    out_row = np.arange(len(head))
    out = np.zeros((len(head), d, m ** i, d), dtype=dtype)
    # g_1 phi(g_2..g_{i+1}): the block action[g_1] at column tuple (g_2..g_{i+1})
    out[out_row, :, tail, :] += act[head]
    t = np.arange(d)

    def face(keep, merged, sign):
        tau = np.zeros_like(tail)
        for digit in merged:
            tau = tau * m + digit - 1
        out[out_row[keep, None], t, tau[keep, None], t] += sign * scale[head[keep]]

    for k in range(1, i + 1):
        product = group.mult[digits[k - 1], digits[k]]
        face(product != 0, digits[:k - 1] + [product] + digits[k + 1:], (-1) ** k)
    face(slice(None), digits[:i], (-1) ** (i + 1))
    return out.reshape(len(head) * d, m ** i * d)


def bar_dimension(group: FiniteGroup, v: GammaModule, p: int,
                  budget: int = DEFAULT_BAR_BUDGET) -> int:
    """dim H^p(G, V) from the normalized inhomogeneous cochain complex.

    This path never touches resolutions or Hom complexes.  dim H^p is
    dim N^p - rank delta^p - rank delta^{p-1}, with dim N^p =
    (|G|-1)^p dim V, and each rank is read off the generator rows of the
    normalized coboundary (the lemmas in the module docstring).  Raises
    BudgetExceeded, before anything is built, when p > DEGREE_CAP or when
    dim C^{p+1} = |G|^{p+1} * dim V, the largest cochain space of the full
    complex (not the rows built), exceeds the budget.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    if p > DEGREE_CAP:
        raise BudgetExceeded(f"inhomogeneous cochains are limited to p <= {DEGREE_CAP}")
    n = group.order
    if n ** (p + 1) * v.dim > budget:
        raise BudgetExceeded(
            f"|G|^(p+1) * dim V = {n ** (p + 1) * v.dim} exceeds budget {budget}")
    if v.dim == 0:
        return 0
    dim_z = (n - 1) ** p * v.dim - _bar_rank(group, v, p)
    return dim_z if p == 0 else dim_z - _bar_rank(group, v, p - 1)


def _bar_rank(group: FiniteGroup, v: GammaModule, i: int) -> int:
    """rank delta^i, kept with v: each coboundary is built and ranked once
    per module, and freed before the next one is built."""
    def build():
        delta = _bar_coboundary(group, v, i)
        return rank_of_int_rows(v.field, delta, delta.shape[1])
    return v.cached(("bar_rank", i), build)


def bar_dimension_or_none(group: FiniteGroup, v: GammaModule, p: int,
                          budget: int = DEFAULT_BAR_BUDGET) -> int | None:
    """bar_dimension, or None where the budget skips degree p."""
    try:
        return bar_dimension(group, v, p, budget)
    except BudgetExceeded:
        return None
