"""Finite orbit categories: coset objects, hom transversals, and the
comparison functor from substructure embeddings.

Objects are coset spaces G/G_Gamma for pointwise stabilizers of subsets.
A morphism G/G_A -> G/G_B is represented by a group element g with
g G_A g^{-1} inside G_B, acting by x G_A -> x g^{-1} G_B; two representatives
give the same morphism exactly when they lie in the same coset G_B g, which
happens iff their inverses agree on B.  That restriction is used as the
identity key throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .actions import FiniteAction, Perm, act_set, pinv, pmul
from .errors import MalformedInputError, OrbitlabError
from .structures import (
    FiniteStructure,
    StructureEmbedding,
    canonical_structure,
    enumerate_embeddings,
    fixed_point_condition,
)


class NoExtensionError(OrbitlabError):
    """No group element extends the given embedding (possible at finite scale)."""


@dataclass(frozen=True)
class OrbitObject:
    gamma: frozenset
    stabilizer: tuple  # sorted elements of G_gamma
    transversal: tuple = field(compare=False, repr=False)  # one g per coset G_gamma g

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


def compose_orbit_morphisms(f: OrbitMorphism, g: OrbitMorphism) -> OrbitMorphism:
    """f: G/G_A -> G/G_B followed by g: G/G_B -> G/G_C."""
    if f.target_gamma != g.source_gamma:
        raise MalformedInputError("orbit morphisms do not compose")
    return OrbitMorphism(f.source_gamma, g.target_gamma, pmul(g.representative, f.representative))


class OrbitCategory:
    """Caches per-subset stabilizers and transversals for one ambient action."""

    def __init__(self, action: FiniteAction):
        self.action = action
        self._objects: dict = {}
        self._stab_sets: dict = {}
        self._inverses: list = []  # pinv of each element, aligned with elements()

    def stabilizer_set(self, gamma: frozenset) -> frozenset:
        if gamma not in self._stab_sets:
            self._stab_sets[gamma] = frozenset(
                self.action.pointwise_stabilizer(gamma)
            )
        return self._stab_sets[gamma]

    def object(self, gamma) -> OrbitObject:
        gamma = frozenset(gamma)
        if gamma not in self._objects:
            stab = self.action.pointwise_stabilizer(gamma)
            pts = tuple(sorted(gamma))
            elements = self.action.elements()
            if not self._inverses:
                self._inverses.extend(pinv(g) for g in elements)
            transversal = []
            seen = set()
            for g, inv in zip(elements, self._inverses):
                key = tuple(inv[b - 1] for b in pts)
                if key not in seen:
                    seen.add(key)
                    transversal.append(g)
            self._objects[gamma] = OrbitObject(gamma, tuple(stab), tuple(transversal))
        return self._objects[gamma]

    def hom(self, source: OrbitObject, target: OrbitObject) -> list[OrbitMorphism]:
        """One morphism per coset class, in deterministic transversal order.

        A transversal element g of G_B-cosets represents a morphism iff the
        stabilizer of g.source_gamma sits inside G_B; membership in the
        normalizer set is coset-invariant, so testing one representative per
        class is exhaustive.
        """
        tgt_stab = frozenset(target.stabilizer)
        out = []
        for g in target.transversal:
            moved = act_set(g, source.gamma)
            if self.stabilizer_set(moved) <= tgt_stab:
                out.append(OrbitMorphism(source.gamma, target.gamma, g))
        return out

    def extensions(self, embedding: StructureEmbedding) -> list[Perm]:
        """The group elements that agree with the embedding on its source, in
        sorted order: one left coset of the source's pointwise stabilizer."""
        return self.action.transporter(
            {int(x): int(y) for x, y in embedding.mapping.items()}
        )

    def phi(self, embedding: StructureEmbedding) -> OrbitMorphism:
        """The orbit morphism G/G_Sigma -> G/G_Gamma induced by an embedding
        Gamma -> Sigma between canonical substructures.

        Any extension of the embedding to a group element yields the same
        morphism: the identity key is exactly the embedding's value table.
        """
        exts = self.extensions(embedding)
        if not exts:
            raise NoExtensionError(
                f"no group element extends {embedding.mapping}"
            )
        gamma = frozenset(int(x) for x in embedding.source.universe)
        sigma = frozenset(int(y) for y in embedding.target.universe)
        first = OrbitMorphism(sigma, gamma, pinv(exts[0]))
        for other in exts[1:2]:
            if OrbitMorphism(sigma, gamma, pinv(other)) != first:
                raise AssertionError("extension choice changed the morphism")
        return first


@dataclass(frozen=True)
class PhiIsoReport:
    size_cap: int
    objects: tuple  # the subsets of size <= cap, each as a sorted tuple
    hom_counts: tuple  # hom_counts[i][j] = |hom(G/G_{objects[i]}, G/G_{objects[j]})|
    object_collisions: tuple  # pairs of distinct subsets sharing a stabilizer
    hom_mismatches: tuple  # (gamma, sigma, embedding count, orbit hom count)
    missing_extensions: tuple  # embeddings with no extension in G
    fixed_point_violations: tuple  # subsets whose stabilizer fixes an outside point

    @property
    def passed(self) -> bool:
        return not (
            self.object_collisions or self.hom_mismatches or self.missing_extensions
        )

    @property
    def consistent_with_fixed_points(self) -> bool:
        """Failures occur exactly alongside a fixed-point violation."""
        return bool(self.fixed_point_violations) == (not self.passed)


def phi_iso_report(action: FiniteAction, size_cap: int) -> PhiIsoReport:
    """Check the truncated comparison functor on all subsets of size <= cap.

    The functor is bijective on objects iff no two subsets share a stabilizer,
    and full/faithful on a hom-set iff the embedding count between induced
    canonical substructures equals the coset transversal count (faithfulness
    is structural: the morphism key is the embedding's value table).
    """
    if size_cap > action.domain_size:
        raise MalformedInputError("size_cap exceeds domain size")
    if size_cap < 0:
        raise MalformedInputError("size_cap must be a natural number")
    cat = OrbitCategory(action)
    N = action.domain_size
    subsets = [
        frozenset(c)
        for size in range(0, size_cap + 1)
        for c in combinations(range(1, N + 1), size)
    ]

    collisions = []
    for i, a in enumerate(subsets):
        for b in subsets[i + 1 :]:
            if cat.stabilizer_set(a) == cat.stabilizer_set(b):
                collisions.append((tuple(sorted(a)), tuple(sorted(b))))

    M = canonical_structure(action, max_arity=max(size_cap, 1))
    mismatches = []
    missing = []
    hom_counts = {}
    for gamma in subsets:
        sub_gamma = M.induced(sorted(gamma))
        for sigma in subsets:
            embs = enumerate_embeddings(sub_gamma, M.induced(sorted(sigma)))
            morphisms = cat.hom(cat.object(sigma), cat.object(gamma))
            hom_counts[sigma, gamma] = len(morphisms)
            images = set()
            extension_failed = False
            for e in embs:
                try:
                    images.add(cat.phi(e))
                except NoExtensionError:
                    extension_failed = True
                    missing.append(
                        (tuple(sorted(gamma)), tuple(sorted(sigma)), tuple(e.images))
                    )
            full_and_faithful = (
                not extension_failed
                and len(images) == len(embs)
                and images == set(morphisms)
            )
            if not full_and_faithful:
                mismatches.append(
                    (tuple(sorted(gamma)), tuple(sorted(sigma)), len(embs), len(morphisms))
                )

    violations = [
        tuple(sorted(s)) for s in subsets if not fixed_point_condition(action, s)
    ]
    return PhiIsoReport(
        size_cap,
        tuple(tuple(sorted(s)) for s in subsets),
        tuple(tuple(hom_counts[s, g] for g in subsets) for s in subsets),
        tuple(collisions),
        tuple(mismatches),
        tuple(missing),
        tuple(violations),
    )
