"""Finite groups presented by permutation generators.

Elements are enumerated by breadth-first search from the identity,
multiplying by the generators in input order, so the element order (and
everything downstream that uses it as a coordinate basis) is canonical and
reproducible.  The identity always sits at index 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GroupError(ValueError):
    pass


class ClosureCapExceeded(GroupError):
    pass


class NotNormalError(GroupError):
    """Conjugation left the candidate subgroup; carries a witness pair."""

    def __init__(self, gamma_index: int, sigma_index: int):
        self.gamma_index = gamma_index
        self.sigma_index = sigma_index
        super().__init__(
            f"subgroup is not normal: conjugating element {sigma_index} "
            f"by element {gamma_index} leaves the subgroup")


class Permutation:
    """A permutation of {0, ..., n-1} stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(x) for x in images)
        n = len(images)
        if sorted(images) != list(range(n)):
            raise GroupError(f"{images} is not a bijection of range({n})")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(range(degree))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (a * b)(x) = a(b(x))."""
        if self.degree != other.degree:
            raise GroupError("degree mismatch")
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.degree)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


class FiniteGroup:
    """A finite group with canonical element order and full multiplication tables.

    `mult[i, j]` is the index of elements[i] * elements[j]; `inv[k]` the index
    of the inverse; both are read-only intp arrays.  `bfs_parent`/`bfs_gen`
    record, for each non-identity element, the BFS edge it was discovered
    through: elements[k] = elements[bfs_parent[k]] * generators[bfs_gen[k]].
    Immutable after construction and safe for concurrent reads.
    """

    __slots__ = ("degree", "order", "elements", "mult", "inv",
                 "gen_indices", "bfs_parent", "bfs_gen", "_index")

    def __init__(self, elements, mult, inv, gen_indices, bfs_parent, bfs_gen):
        mult, inv = np.array(mult, dtype=np.intp), np.array(inv, dtype=np.intp)
        mult.flags.writeable = inv.flags.writeable = False
        object.__setattr__(self, "elements", tuple(elements))
        object.__setattr__(self, "order", len(self.elements))
        object.__setattr__(self, "degree", self.elements[0].degree)
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "inv", inv)
        object.__setattr__(self, "gen_indices", tuple(gen_indices))
        object.__setattr__(self, "bfs_parent", tuple(bfs_parent))
        object.__setattr__(self, "bfs_gen", tuple(bfs_gen))
        object.__setattr__(self, "_index", {p.images: i for i, p in enumerate(self.elements)})

    def __setattr__(self, name, value):
        raise AttributeError("FiniteGroup is immutable")

    def index_of(self, perm: Permutation) -> int:
        return self._index[perm.images]

    def __repr__(self) -> str:
        return f"FiniteGroup(order {self.order}, degree {self.degree})"


DEFAULT_ORDER_CAP = 24


def close_generators(gens, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Close a list of permutations into a group by BFS from the identity.

    The BFS multiplies each element by each generator once, composing image
    tuples, which gives the right-multiplication columns
    right[g][x] = x * generators[g], and wraps each new element in one
    `Permutation` at the end; the table
    follows by associativity, i * k = (i * bfs_parent[k]) * generators[bfs_gen[k]],
    one column per element in BFS order, and inv[i] is where row i holds
    the identity.  Raises ClosureCapExceeded if more than order_cap elements
    appear, and GroupError if the generators have mismatched degrees.
    """
    gens = list(gens)
    degree = gens[0].degree if gens else 1
    if any(g.degree != degree for g in gens):
        raise GroupError("generator degree mismatch")
    identity = tuple(range(degree))
    images = [g.images for g in gens]
    elements = [identity]
    index = {identity: 0}
    bfs_parent = [-1]
    bfs_gen = [-1]
    right = [[] for _ in gens]
    cursor = 0
    while cursor < len(elements):
        current = elements[cursor]
        for g_i, g in enumerate(images):
            # (current * g)(x) = current(g(x))
            candidate = tuple([current[x] for x in g])
            if candidate not in index:
                if len(elements) >= order_cap:
                    raise ClosureCapExceeded(
                        f"closure exceeds order cap {order_cap}")
                index[candidate] = len(elements)
                elements.append(candidate)
                bfs_parent.append(cursor)
                bfs_gen.append(g_i)
            right[g_i].append(index[candidate])
        cursor += 1
    n = len(elements)
    right = np.array(right, dtype=np.intp).reshape(len(gens), n)
    mult = np.empty((n, n), dtype=np.intp)
    mult[:, 0] = np.arange(n)
    for k in range(1, n):
        mult[:, k] = right[bfs_gen[k]][mult[:, bfs_parent[k]]]
    inv = (mult == 0).argmax(axis=1)
    gen_indices = [index[g] for g in images]
    return FiniteGroup([Permutation(x) for x in elements], mult, inv, gen_indices,
                       bfs_parent, bfs_gen)


@dataclass(frozen=True)
class NormalSubgroup:
    """A verified normal subgroup, stored as sorted element indices."""

    group: FiniteGroup
    members: tuple[int, ...]
    gen_indices: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    @property
    def is_full(self) -> bool:
        return self.order == self.group.order

    def __repr__(self) -> str:
        return f"NormalSubgroup(order {self.order} in group of order {self.group.order})"


def subgroup_closure(group: FiniteGroup, gen_indices) -> NormalSubgroup:
    """Close chosen elements into a subgroup and verify it is normal.

    The normality check is exhaustive over all (group element, subgroup
    element) pairs; on failure a NotNormalError carries the witness pair.
    """
    gen_indices = [int(i) for i in gen_indices]
    for i in gen_indices:
        if not 0 <= i < group.order:
            raise GroupError(f"element index {i} out of range")
    members = {0}
    frontier = [0]
    while frontier:
        for y in group.mult[frontier.pop(), gen_indices].tolist():
            if y not in members:
                members.add(y)
                frontier.append(y)
    # closure under inverses is automatic in a finite group, but cheap to confirm
    members.update(group.inv[sorted(members)].tolist())
    member_tuple = tuple(sorted(members))
    is_member = np.zeros(group.order, dtype=bool)
    is_member[list(member_tuple)] = True
    # outside[g, k]: g s_k g^-1 leaves the subgroup; the first in row-major
    # order is the witness pair of an exhaustive (g, s) sweep
    outside = ~is_member[group.mult[group.mult[:, member_tuple], group.inv[:, None]]]
    if outside.any():
        g, k = divmod(int(outside.argmax()), len(member_tuple))
        raise NotNormalError(g, member_tuple[k])
    return NormalSubgroup(group, member_tuple, tuple(gen_indices))
