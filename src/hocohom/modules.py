"""Finite-dimensional modules over the group algebra.

A module is a coordinate space with one invertible action matrix per group
element (acting on column vectors, on the left).  Constructors cover the
standard test inputs: trivial modules, the regular module A itself, and
coinduced modules of functions G -> R^b, which are acyclic for group
cohomology and serve as certified-vanishing inputs downstream.  The
regular, coinduced and free modules are permutation modules: each keeps its
index table `perm` as one read-only intp array, and its inverse table,
which `orbits` reads, is computed once with the module.

Degree-zero higher-order cohomology H_q^0 is computed in two independent
ways that must agree: as the annihilator of the ideal J_q, and by the
recursion H_1^0 = V^G, H_{q+1}^0 = {v : sv = v for s in S, (g - 1)v in
H_q^0 for all g}.
"""

from __future__ import annotations

import numpy as np

from .algebra import IdealFiltration
from .groups import FiniteGroup, NormalSubgroup
from .linalg import (
    Field, Matrix, QuotientMap, Subspace, common_denominator, contract, kernel,
)


class NotARepresentationError(ValueError):
    """The generator assignment does not extend to a group homomorphism."""

    def __init__(self, i: int, j: int):
        self.witness = (i, j)
        super().__init__(
            f"action matrices violate multiplicativity at element pair ({i}, {j})")


class GammaModule:
    """A finite-dimensional representation of a finite group.

    `stack` holds the action as one |G| x dim x dim integer array over the
    common denominator `den` (numerators over Q, residues with den 1 over
    F_p), and the `action` matrices are built from its slices.  A permutation
    module (`GammaModule.permutation`) stores only the index table `perm`,
    one read-only |G| x dim intp array with element g sending basis vector
    e_j to e_{perm[g][j]}, and its inverse table `inverse_perm`, computed
    once with the module; its stack is built from `perm` on first access,
    and `orbits` acts by reading coordinates at `inverse_perm`, without it.
    `cached` keeps values derived from the module with it, so they live as
    long as the module does.
    """

    __slots__ = ("group", "field", "dim", "perm", "inverse_perm", "den", "_stack", "_action",
                 "_cache")

    def __init__(self, group: FiniteGroup, field: Field, action):
        action = tuple(action)
        if len(action) != group.order:
            raise ValueError("one action matrix per group element required")
        dim = action[0].rows if action else 0
        for m in action:
            if m.rows != dim or m.cols != dim or m.field != field:
                raise ValueError("action matrices must be square over the module field")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "perm", None)
        object.__setattr__(self, "inverse_perm", None)
        arrays, den = common_denominator(action)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_stack", np.stack(arrays))
        self._stack.flags.writeable = False
        object.__setattr__(self, "_action", None)
        object.__setattr__(self, "_cache", {})

    @classmethod
    def permutation(cls, group: FiniteGroup, field: Field, perm) -> "GammaModule":
        """The module on which element g sends e_j to e_{perm[g][j]}; each of
        the |G| rows of `perm` must sort to 0..dim-1."""
        try:
            perm = np.array(perm, dtype=np.intp)
        except (TypeError, ValueError):
            perm = None
        if perm is None or perm.ndim != 2 or perm.shape[0] != group.order:
            raise ValueError("one permutation of the basis per group element required")
        n, dim = perm.shape
        inverse = np.zeros_like(perm)
        in_range = perm.size == 0 or (perm.min() >= 0 and perm.max() < dim)
        if in_range:
            inverse[np.arange(n)[:, None], perm] = np.arange(dim)
        # a row is a permutation exactly when it reads 0..dim-1 back at its inverse
        if not in_range or (np.take_along_axis(perm, inverse, axis=1) != np.arange(dim)).any():
            raise ValueError("one permutation of the basis per group element required")
        perm.flags.writeable = inverse.flags.writeable = False
        module = object.__new__(cls)
        object.__setattr__(module, "group", group)
        object.__setattr__(module, "field", field)
        object.__setattr__(module, "dim", dim)
        object.__setattr__(module, "perm", perm)
        object.__setattr__(module, "inverse_perm", inverse)
        object.__setattr__(module, "den", 1)
        object.__setattr__(module, "_stack", None)
        object.__setattr__(module, "_action", None)
        object.__setattr__(module, "_cache", {})
        return module

    @property
    def stack(self):
        """The read-only |G| x dim x dim array of the action matrices, over `den`."""
        if self._stack is None:
            # column j of action[g] is column perm[g][j] of the identity
            stack = Matrix.identity(self.field, self.dim).array[:, self.perm].transpose(1, 0, 2)
            stack.flags.writeable = False
            object.__setattr__(self, "_stack", stack)
        return self._stack

    @property
    def action(self) -> tuple[Matrix, ...]:
        """One dense matrix per group element, each a slice of `stack` over `den`."""
        if self._action is None:
            object.__setattr__(self, "_action",
                               tuple(Matrix._wrap(self.field, a, self.den) for a in self.stack))
        return self._action

    def orbits(self, vectors: Matrix) -> tuple[np.ndarray, int]:
        """Every group element applied to every row of `vectors`: an array
        whose entry [r, g] is action[g] applied to row r, and its denominator."""
        if self.perm is not None:
            # (g v)[perm[g][j]] = v[j], so g v reads v at the inverse permutation
            return vectors.array[:, self.inverse_perm], vectors.den
        return (contract(self.field, vectors.array, self.stack.transpose(2, 0, 1)),
                vectors.den * self.den)

    def cached(self, key, build):
        """The cached value under key, made by build() on a miss."""
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build()
        return value

    def __setattr__(self, name, value):
        raise AttributeError("GammaModule is immutable")

    def check_homomorphism(self):
        """Exhaustive verification of action[g] action[h] = action[gh]."""
        if self.action[0] != Matrix.identity(self.field, self.dim):
            raise NotARepresentationError(0, 0)
        for i in range(self.group.order):
            for j in range(self.group.order):
                if self.action[i] @ self.action[j] != self.action[self.group.mult[i][j]]:
                    raise NotARepresentationError(i, j)

    def algebra_action(self, elements: Matrix) -> Matrix:
        """The matrices of the algebra elements sum_g c_g g in the rows of
        `elements`, acting through the module, stacked vertically."""
        return Matrix._wrap(self.field, contract(self.field, elements.array, self.stack)
                            .reshape(elements.rows * self.dim, self.dim), elements.den * self.den)

    def fixed_points(self) -> Subspace:
        """V^G, cut out by the group generators."""
        return _joint_kernel(self.field, self.dim,
                             [self.action[g] - Matrix.identity(self.field, self.dim)
                              for g in self.group.gen_indices])

    def __repr__(self) -> str:
        return f"GammaModule(dim {self.dim} over {self.field.name}, |G|={self.group.order})"


def _joint_kernel(field: Field, dim: int, mats) -> Subspace:
    mats = [m for m in mats]
    if not mats:
        return Subspace.whole(field, dim)
    return kernel(Matrix.vstack(field, mats, cols=dim))


class ModuleMap:
    """An equivariant linear map between modules; equivariance is verified."""

    __slots__ = ("matrix",)

    def __init__(self, source: GammaModule, target: GammaModule, matrix: Matrix):
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise ValueError("map shape does not match the modules")
        for g in range(source.group.order):
            if matrix @ source.action[g] != target.action[g] @ matrix:
                raise ValueError(f"map is not equivariant at element {g}")
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("ModuleMap is immutable")


def trivial_module(group: FiniteGroup, field: Field, dim: int = 1) -> GammaModule:
    ident = Matrix.identity(field, dim)
    return GammaModule(group, field, [ident] * group.order)


def make_module(group: FiniteGroup, field: Field, gen_matrices) -> GammaModule:
    """Extend matrices for the generators to a full representation.

    The extension follows the BFS discovery edges of the group enumeration
    (elements[k] = elements[parent] * gen), then the homomorphism property
    is verified on all element pairs; an inconsistent assignment raises
    NotARepresentationError with a witness pair.
    """
    gen_matrices = [m for m in gen_matrices]
    if len(gen_matrices) != len(group.gen_indices):
        raise ValueError("one matrix per group generator required")
    dim = gen_matrices[0].rows if gen_matrices else 1
    action: list[Matrix | None] = [None] * group.order
    action[0] = Matrix.identity(field, dim)
    for k in range(1, group.order):
        parent = action[group.bfs_parent[k]]
        action[k] = parent @ gen_matrices[group.bfs_gen[k]]
    module = GammaModule(group, field, action)
    module.check_homomorphism()
    return module


def regular_module(group: FiniteGroup, field: Field) -> GammaModule:
    """R[G] as a left module over itself: action by left multiplication."""
    return GammaModule.permutation(group, field, group.mult)


def coinduced_module(group: FiniteGroup, field: Field, base_dim: int = 1) -> GammaModule:
    """Functions G -> R^b with (g.f)(x) = f(xg); coordinates (element, component)."""
    if base_dim < 1:
        raise ValueError("base_dim must be >= 1")
    # g sends the basis vector (x, j) to (x g^-1, j); moved[g, x] = x g^-1
    moved = group.mult[:, group.inv].T
    return GammaModule.permutation(group, field, (
        moved[:, :, None] * base_dim + np.arange(base_dim)).reshape(group.order, -1))


def h_q0_annihilator(v: GammaModule, filtration: IdealFiltration, q: int) -> Subspace:
    """H_q^0 as {v : a v = 0 for every a in J_q} (the annihilator of J_q)."""
    j = filtration.j(q)
    return _joint_kernel(v.field, v.dim, [v.algebra_action(j.basis)])


def h_q0_inductive(v: GammaModule, sigma: NormalSubgroup, q: int) -> Subspace:
    """H_q^0 by recursion: fixed points, then one refinement step per level.

    H_{q+1}^0 = {v : action[s]v = v for S-generators s, and
    (action[g] - 1)v in H_q^0 for group generators g}.  Both conditions are
    generator-closed, so generators suffice.  Each step is kept with v per
    (S, q), so H_q^0 continues from the cached H_{q-1}^0.  The recursion
    never reads the ideal J_q, so it stays independent of the annihilator.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    f = v.field

    def refine(current: Subspace) -> Subspace:
        ident = Matrix.identity(f, v.dim)
        constraints = [v.action[s] - ident for s in sigma.gen_indices if s != 0]
        quotient = QuotientMap(Subspace.whole(f, v.dim), current.basis)
        for g in v.group.gen_indices:
            constraints.append(quotient.coords(v.action[g] - ident))
        return _joint_kernel(f, v.dim, constraints)

    current = v.cached(("h0_inductive", 1), v.fixed_points)
    for k in range(2, q + 1):
        current = v.cached(("h0_inductive", sigma.members, k), lambda: refine(current))
    return current
