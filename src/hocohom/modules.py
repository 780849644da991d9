"""Finite-dimensional modules over the group algebra.

A module is a coordinate space with one invertible action matrix per group
element (acting on column vectors, on the left).  Constructors cover the
standard test inputs: trivial modules, the regular module A itself, and
coinduced modules of functions G -> R^b, which are acyclic for group
cohomology and serve as certified-vanishing inputs downstream.

Degree-zero higher-order cohomology H_q^0 is computed in two independent
ways that must agree: as the annihilator of the ideal J_q, and by the
recursion H_1^0 = V^G, H_{q+1}^0 = {v : sv = v for s in S, (g - 1)v in
H_q^0 for all g}.
"""

from __future__ import annotations

from .algebra import GroupAlgebra, IdealFiltration
from .groups import FiniteGroup, NormalSubgroup
from .linalg import Field, Matrix, QuotientMap, Subspace


class NotARepresentationError(ValueError):
    """The generator assignment does not extend to a group homomorphism."""

    def __init__(self, i: int, j: int):
        self.witness = (i, j)
        super().__init__(
            f"action matrices violate multiplicativity at element pair ({i}, {j})")


class GammaModule:
    """A finite-dimensional representation of a finite group.

    A permutation module (`GammaModule.permutation`) stores only the index
    table `perm`, with element g sending basis vector e_j to e_{perm[g][j]};
    its dense `action` matrices are built on first access, and `act_rows`
    acts by permuting coordinates without them.
    """

    __slots__ = ("group", "field", "dim", "perm", "_action")

    def __init__(self, group: FiniteGroup, field: Field, action, check: bool = False):
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
        object.__setattr__(self, "_action", action)
        if check:
            self.check_homomorphism()

    @classmethod
    def permutation(cls, group: FiniteGroup, field: Field, perm) -> "GammaModule":
        """The module on which element g sends e_j to e_{perm[g][j]}."""
        perm = tuple(tuple(images) for images in perm)
        dim = len(perm[0]) if perm else 0
        if len(perm) != group.order or any(sorted(images) != list(range(dim))
                                           for images in perm):
            raise ValueError("one permutation of the basis per group element required")
        module = object.__new__(cls)
        object.__setattr__(module, "group", group)
        object.__setattr__(module, "field", field)
        object.__setattr__(module, "dim", dim)
        object.__setattr__(module, "perm", perm)
        object.__setattr__(module, "_action", None)
        return module

    @property
    def action(self) -> tuple[Matrix, ...]:
        """One dense matrix per group element."""
        if self._action is None:
            zero, one = self.field.zero(), self.field.one()
            mats = []
            for images in self.perm:
                grid = [[zero] * self.dim for _ in range(self.dim)]
                for j, i in enumerate(images):
                    grid[i][j] = one
                mats.append(Matrix._canonical(self.field, tuple(map(tuple, grid)),
                                              self.dim, self.dim))
            object.__setattr__(self, "_action", tuple(mats))
        return self._action

    def act_rows(self, g: int, vectors: Matrix) -> Matrix:
        """The matrix whose rows are action[g] applied to the rows of `vectors`."""
        if self.perm is not None:
            # (g v)[perm[g][j]] = v[j], so g v reads v at the inverse permutation
            inverse = [0] * self.dim
            for j, i in enumerate(self.perm[g]):
                inverse[i] = j
            return vectors.take_columns(inverse)
        return vectors @ self.action[g].transpose()

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

    def algebra_action(self, avec) -> Matrix:
        """The matrix of sum_g c_g g acting through the module."""
        f = self.field
        out = Matrix.zeros(f, self.dim, self.dim)
        for g, coeff in enumerate(avec):
            if coeff:
                out = out + self.action[g].scale(coeff)
        return out

    def fixed_points(self) -> Subspace:
        """V^G, cut out by the group generators."""
        return _joint_kernel(self.field, self.dim,
                             [self.action[g] - Matrix.identity(self.field, self.dim)
                              for g in self.group.gen_indices])

    def __repr__(self) -> str:
        return f"GammaModule(dim {self.dim} over {self.field.name}, |G|={self.group.order})"


def _joint_kernel(field: Field, dim: int, mats) -> Subspace:
    from .linalg import kernel
    mats = [m for m in mats]
    if not mats:
        return Subspace.whole(field, dim)
    return kernel(Matrix.vstack(field, mats, cols=dim))


class ModuleMap:
    """An equivariant linear map between modules; equivariance is verified."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: GammaModule, target: GammaModule, matrix: Matrix):
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise ValueError("map shape does not match the modules")
        for g in range(source.group.order):
            if matrix @ source.action[g] != target.action[g] @ matrix:
                raise ValueError(f"map is not equivariant at element {g}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
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


def regular_module(algebra: GroupAlgebra) -> GammaModule:
    """A as a left module over itself: action by left multiplication."""
    return GammaModule.permutation(algebra.group, algebra.field, algebra.group.mult)


def coinduced_module(group: FiniteGroup, field: Field, base_dim: int = 1) -> GammaModule:
    """Functions G -> R^b with (g.f)(x) = f(xg); coordinates (element, component)."""
    if base_dim < 1:
        raise ValueError("base_dim must be >= 1")
    n = group.order
    dim = n * base_dim
    zero, one = field.zero(), field.one()
    action = []
    for g in range(n):
        grid = [[zero] * dim for _ in range(dim)]
        for i in range(n):
            k = group.mult[i][g]
            for j in range(base_dim):
                grid[i * base_dim + j][k * base_dim + j] = one
        action.append(Matrix(field, grid, dim, dim))
    return GammaModule(group, field, action)


def h_q0_annihilator(v: GammaModule, filtration: IdealFiltration, q: int) -> Subspace:
    """H_q^0 as {v : a v = 0 for every a in J_q} (the annihilator of J_q)."""
    j = filtration.j(q)
    mats = [v.algebra_action(row) for row in j.basis.entries]
    return _joint_kernel(v.field, v.dim, mats)


def h_q0_inductive(v: GammaModule, sigma: NormalSubgroup, q: int) -> Subspace:
    """H_q^0 by recursion: fixed points, then one refinement step per level.

    H_{q+1}^0 = {v : action[s]v = v for S-generators s, and
    (action[g] - 1)v in H_q^0 for group generators g}.  Both conditions are
    generator-closed, so generators suffice.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    group = v.group
    f = v.field
    ident = Matrix.identity(f, v.dim)
    current = v.fixed_points()
    sigma_gens = [s for s in sigma.gen_indices if s != 0]
    for _ in range(q - 1):
        constraints = [v.action[s] - ident for s in sigma_gens]
        proj = QuotientMap(Subspace.whole(f, v.dim), current).matrix
        for g in group.gen_indices:
            constraints.append(proj @ (v.action[g] - ident))
        current = _joint_kernel(f, v.dim, constraints)
    return current
