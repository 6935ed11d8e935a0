"""Finite orbit categories: coset objects, hom-sets from tuple orbits, and
the comparison functor from substructure embeddings.

Objects are coset spaces G/G_Gamma for pointwise stabilizers of subsets.
A morphism G/G_A -> G/G_B is represented by a group element g with
g G_A g^{-1} inside G_B, acting by x G_A -> x g^{-1} G_B; two representatives
give the same morphism exactly when they lie in the same coset G_B g, which
happens iff their inverses agree on B.  That restriction is used as the
identity key throughout.  Writing u = g^{-1}, the condition says
G_A <= G_{u(B)}, that is u(B) inside Fix(G_A): the morphisms are the images
u(B) of B that lie in Fix(G_A).  They are read off the orbit of B as a point
tuple, and Fix(G_A) from the orbit-tree node of A, so no group elements are
listed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .actions import (
    DEFAULT_GROUP_ORDER_CAP,
    DEFAULT_SPACE_CAP,
    FiniteAction,
    Perm,
    _orbit,
    check_tuple_spaces,
    pinv,
)
from .errors import MalformedInputError, OrbitlabError, ResourceCapError
from .structures import StructureEmbedding


class NoExtensionError(OrbitlabError):
    """No group element extends the given embedding (possible at finite scale)."""


@dataclass(frozen=True)
class OrbitObject:
    gamma: frozenset
    fixed: frozenset  # Fix(G_gamma), the points fixed by the stabilizer of gamma

    @property
    def sorted_points(self) -> tuple:
        return tuple(sorted(self.gamma))


@dataclass(frozen=True)
class OrbitMorphism:
    source_gamma: frozenset
    target_gamma: frozenset
    representative: Perm

    @property
    def key(self) -> tuple:
        """Restriction of the inverse representative to the target subset;
        equal keys mean equal morphisms."""
        inv = pinv(self.representative)
        return tuple(inv[b - 1] for b in sorted(self.target_gamma))

    def __eq__(self, other):
        return (
            isinstance(other, OrbitMorphism)
            and self.source_gamma == other.source_gamma
            and self.target_gamma == other.target_gamma
            and self.key == other.key
        )

    def __hash__(self):
        return hash((self.source_gamma, self.target_gamma, self.key))


class OrbitCategory:
    """Caches per-subset objects for one ambient action."""

    def __init__(self, action: FiniteAction):
        self.action = action
        self._objects: dict = {}

    def object(self, gamma) -> OrbitObject:
        """The object G/G_gamma.  Its hom-sets and `phi` list the orbit of
        its sorted points, so that orbit is held to the group-order cap
        here, before any of it is listed."""
        gamma = frozenset(gamma)
        if gamma not in self._objects:
            points = tuple(sorted(gamma))
            if self.action.orbit_size(points) > DEFAULT_GROUP_ORDER_CAP:
                raise ResourceCapError(f"orbit of {points} exceeds cap {DEFAULT_GROUP_ORDER_CAP}")
            self._objects[gamma] = OrbitObject(gamma, self.action.fixed_points(gamma))
        return self._objects[gamma]

    def images(self, obj: OrbitObject, within) -> list:
        """The images u(B) of the sorted points of obj's subset B that lie
        inside `within`, each with an element u producing it, in
        orbit-transversal order."""
        transversal = self.action.orbit_transversal(obj.sorted_points)
        return [(image, u) for image, u in transversal.items() if within.issuperset(image)]

    def hom(self, source: OrbitObject, target: OrbitObject) -> list[OrbitMorphism]:
        """One morphism per image u(B) of the target subset B inside
        Fix(G_A) of the source subset A, in orbit-transversal order, each
        represented by pinv(u).  The key of that morphism is u(B) itself, so
        distinct images are distinct morphisms."""
        return [
            OrbitMorphism(source.gamma, target.gamma, pinv(u))
            for _, u in self.images(target, source.fixed)
        ]

    def phi(self, embedding: StructureEmbedding) -> OrbitMorphism:
        """The orbit morphism G/G_Sigma -> G/G_Gamma induced by an embedding
        Gamma -> Sigma between canonical substructures.

        The group elements extending the embedding are those sending the
        sorted points of Gamma to the embedding's value table; the orbit
        transversal of those points holds one of them if any exist.  The
        morphism's key is the value table itself, so it does not depend on
        which extension represents it.
        """
        mapping = {int(x): int(y) for x, y in embedding.mapping.items()}
        points = tuple(sorted(mapping))
        u = self.action.orbit_transversal(points).get(tuple(mapping[x] for x in points))
        if u is None:
            raise NoExtensionError(f"no group element extends {embedding.mapping}")
        sigma = frozenset(int(y) for y in embedding.target.universe)
        return OrbitMorphism(sigma, frozenset(points), pinv(u))


@dataclass(frozen=True)
class PhiIsoReport:
    size_cap: int
    objects: tuple  # the subsets of size <= cap, each as a sorted tuple
    hom_counts: tuple  # hom_counts[i][j] = |hom(G/G_{objects[i]}, G/G_{objects[j]})|
    object_collisions: tuple  # pairs of distinct subsets sharing a stabilizer
    hom_mismatches: tuple  # (gamma, sigma, embedding count, orbit hom count)
    fixed_point_violations: tuple  # subsets whose stabilizer fixes an outside point

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
    substructures of M equals the orbit morphism count.  Both are read off
    the orbit of gamma's sorted points as a tuple, so M is not built: M's
    arity is at least |gamma|, so an injection gamma -> sigma is an embedding
    exactly when some g in G restricts to it, and the embeddings are the
    images u(gamma) inside sigma.  The morphisms G/G_sigma -> G/G_gamma are
    the images inside Fix(G_sigma), which contains sigma; phi sends an
    embedding to the morphism keyed by its image, so phi is injective, and
    bijective iff the two counts agree.

    Every g in G maps G_A to G_{g(A)}, so both counts and the verdict of a
    pair of subsets depend only on its G-orbit.  The first pair of each
    orbit is checked; if it passes, its orbit shares its hom count and is
    skipped, and otherwise every pair of the orbit is checked, so the
    mismatches are listed in full.
    """
    if size_cap > action.domain_size:
        raise MalformedInputError("size_cap exceeds domain size")
    if size_cap < 0:
        raise MalformedInputError("size_cap must be a natural number")
    N = action.domain_size
    # the tuple spaces holding the orbits the report reads (those M's
    # relations would be built from), and the subset pairs, before anything
    # is built
    check_tuple_spaces(N, max(size_cap, 1))
    n = 0
    for size in range(size_cap + 1):
        n += comb(N, size)
        if n * n > DEFAULT_SPACE_CAP:
            raise ResourceCapError(
                f"ordered pairs of subsets of size <= {size_cap} exceed cap {DEFAULT_SPACE_CAP}"
            )
    cat = OrbitCategory(action)
    subsets = [
        frozenset(c)
        for size in range(0, size_cap + 1)
        for c in combinations(range(1, N + 1), size)
    ]

    fixed = {s: cat.object(s).fixed for s in subsets}
    collisions = []
    for i, a in enumerate(subsets):
        for b in subsets[i + 1 :]:
            # G_a = G_b iff each stabilizer fixes the other subset
            if b <= fixed[a] and a <= fixed[b]:
                collisions.append((tuple(sorted(a)), tuple(sorted(b))))

    mismatches = []
    # the pair (gamma, sigma) is p = n * index[gamma] + index[sigma], and
    # counts[p] = |hom(G/G_sigma, G/G_gamma)|, known in advance for the
    # pairs in the orbit of a passing pair
    index = {s: i for i, s in enumerate(subsets)}
    moves = [
        [index[frozenset(g[x - 1] for x in s)] for s in subsets] for g in action.generators
    ]
    counts = [None] * (n * n)
    for p in range(n * n):
        if counts[p] is not None:
            continue
        gamma, sigma = subsets[p // n], subsets[p % n]
        target = cat.object(gamma)
        embeddings = len(cat.images(target, sigma))
        morphisms = len(cat.images(target, fixed[sigma]))
        if embeddings == morphisms:
            for q in _orbit(p, moves, lambda g, q: n * g[q // n] + g[q % n]):
                counts[q] = morphisms
        else:
            counts[p] = morphisms
            mismatches.append((tuple(sorted(gamma)), tuple(sorted(sigma)), embeddings, morphisms))

    # the fixed-point condition Fix(G_s) = s
    violations = [tuple(sorted(s)) for s in subsets if fixed[s] != s]
    return PhiIsoReport(
        size_cap,
        tuple(tuple(sorted(s)) for s in subsets),
        tuple(tuple(counts[n * g + s] for g in range(n)) for s in range(n)),
        tuple(collisions),
        tuple(mismatches),
        tuple(violations),
    )
