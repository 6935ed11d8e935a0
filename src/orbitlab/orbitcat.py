"""The report on the comparison functor from substructure embeddings to the
finite orbit category.

Objects are the coset spaces G/G_A for pointwise stabilizers of subsets A.
The morphisms G/G_A -> G/G_B correspond to the images u(B) of B that lie in
Fix(G_A), so the report counts subsets and lists no group elements.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from math import comb

from .actions import DEFAULT_SPACE_CAP, FiniteAction, identity_perm, pmul
from .errors import MalformedInputError, ResourceCapError


class PhiIsoReport(
    namedtuple(
        "PhiIsoReport",
        "size_cap objects hom_counts object_collisions hom_mismatches fixed_point_violations",
    )
):
    """Tuples of: the subsets of size <= cap, each as a sorted tuple (objects);
    hom_counts[i][j] = |hom(G/G_{objects[i]}, G/G_{objects[j]})|; the pairs of
    distinct subsets sharing a stabilizer; the hom mismatches (gamma, sigma,
    embedding count, orbit hom count); and the subsets whose stabilizer fixes
    an outside point."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not (self.object_collisions or self.hom_mismatches)

    @property
    def consistent_with_fixed_points(self) -> bool:
        """Failures occur exactly alongside a fixed-point violation."""
        return bool(self.fixed_point_violations) == (not self.passed)


def phi_iso_report(action: FiniteAction, size_cap: int) -> PhiIsoReport:
    """Check the truncated comparison functor on all subsets of size <= cap,
    for the canonical structure M of arity max(cap, 1).

    The functor is bijective on objects iff no two subsets share a stabilizer,
    and full and faithful on a hom-set iff the embedding count between induced
    substructures of M equals the orbit morphism count.  M's arity is at
    least |gamma|, so the embeddings gamma -> sigma are the images u(gamma)
    of gamma's sorted points inside sigma; the morphisms G/G_sigma ->
    G/G_gamma are the images inside Fix(G_sigma), which contains sigma, and
    phi sends an embedding to the morphism keyed by its image.  The images
    map onto gamma's G-orbit of subsets with fibres of one size
    c = orbit_size(gamma) / |orbit| (Cameron, Oligomorphic Permutation
    Groups, 2.7), so both counts are c times a count of subsets in that
    orbit.  As Fix(G_{g(A)}) = g(Fix(G_A)), Fix and c are read once per
    orbit.  Neither M nor any tuple orbit is built.
    """
    if size_cap > action.domain_size:
        raise MalformedInputError("size_cap exceeds domain size")
    if size_cap < 0:
        raise MalformedInputError("size_cap must be a natural number")
    N = action.domain_size
    # the subset pairs, before anything is built
    n = 0
    for size in range(size_cap + 1):
        n += comb(N, size)
        if n * n > DEFAULT_SPACE_CAP:
            raise ResourceCapError(
                f"ordered pairs of subsets of size <= {size_cap} exceed cap {DEFAULT_SPACE_CAP}"
            )
    subsets = [
        frozenset(c)
        for size in range(0, size_cap + 1)
        for c in combinations(range(1, N + 1), size)
    ]
    objects = tuple(tuple(sorted(s)) for s in subsets)
    index = {s: i for i, s in enumerate(subsets)}
    gens = action.generators
    moves = [[index[frozenset(g[x - 1] for x in s)] for s in subsets] for g in gens]

    # orbit[i] numbers subsets[i]'s G-orbit, fixed[i] = Fix(G_{subsets[i]}),
    # fibre[o] = c of orbit o; Fix is carried from the orbit's first subset
    # by an element u sending it to s
    orbit, fixed, fibre = [None] * n, [None] * n, []
    for i, rep in enumerate(subsets):
        if orbit[i] is None:
            orbit[i], fixed[i] = len(fibre), action.fixed_points(rep)
            walk = [(i, identity_perm(N))]
            for j, u in walk:
                for g, move in zip(gens, moves):
                    if orbit[move[j]] is None:
                        v = pmul(g, u)
                        orbit[move[j]] = orbit[i]
                        fixed[move[j]] = frozenset([v[x - 1] for x in fixed[i]])
                        walk.append((move[j], v))
            fibre.append(action.orbit_size(rep) // len(walk))

    # per sigma and orbit, the subsets of that orbit inside Fix(G_sigma) and
    # inside sigma, which Fix(G_sigma) contains
    homs, embeddings, collisions = [], [], []
    for i, (a, fa) in enumerate(zip(subsets, fixed)):
        in_fixed, in_sigma = [0] * len(fibre), [0] * len(fibre)
        for j, (b, fb) in enumerate(zip(subsets, fixed)):
            if b <= fa:
                in_fixed[orbit[j]] += 1
                if b <= a:
                    in_sigma[orbit[j]] += 1
                # G_a = G_b iff each stabilizer fixes the other subset
                if j > i and a <= fb:
                    collisions.append((objects[i], objects[j]))
        homs.append(in_fixed)
        embeddings.append(in_sigma)

    mismatches = [
        (gamma, sigma, fibre[o] * embeddings[i][o], fibre[o] * homs[i][o])
        for gamma, o in zip(objects, orbit)
        for i, sigma in enumerate(objects)
        if embeddings[i][o] != homs[i][o]
    ]
    # the fixed-point condition Fix(G_s) = s
    violations = [t for t, s, f in zip(objects, subsets, fixed) if f != s]
    return PhiIsoReport(
        size_cap,
        objects,
        tuple(tuple(fibre[o] * row[o] for o in orbit) for row in homs),
        tuple(collisions),
        tuple(mismatches),
        tuple(violations),
    )
