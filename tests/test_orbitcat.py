"""The comparison functor's report against brute-force oracles, and the
finite orbit category those oracles are built from.

Objects are coset spaces G/G_A for pointwise stabilizers of subsets.
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

from collections import namedtuple
from functools import lru_cache
from itertools import combinations
from math import perm

import pytest

from orbitlab import actions, orbitcat, structures
from orbitlab.actions import (
    DEFAULT_GROUP_ORDER_CAP,
    FiniteAction,
    _orbit_transversal,
    identity_perm,
    perm_from_cycles,
    pinv,
    pmul,
    symmetric_action,
    trivial_action,
)
from orbitlab.errors import MalformedInputError, ResourceCapError
from orbitlab.orbitcat import phi_iso_report
from orbitlab.structures import (
    StructureEmbedding,
    _embedding_ok,
    enumerate_embeddings,
)

from test_actions import (
    alternating_action,
    canonical_structure,
    cyclic_action,
    dihedral_action,
    elements,
    orbit_transversal,
    pointwise_stabilizer,
)


class OrbitObject(namedtuple("OrbitObject", "gamma fixed")):
    """gamma: a frozenset of points; fixed: Fix(G_gamma), the frozenset of
    points fixed by the stabilizer of gamma."""

    __slots__ = ()


class OrbitMorphism(namedtuple("OrbitMorphism", "source_gamma target_gamma representative")):
    """A morphism between the orbit objects of two frozensets of points,
    given by a representative Perm; equal morphisms have equal keys."""

    __slots__ = ()

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

    __ne__ = object.__ne__  # the negation of __eq__, where tuple's would compare fields


class OrbitCategory:
    """Caches per-subset objects, and the tuple orbit of each target subset,
    for one ambient action."""

    def __init__(self, action: FiniteAction):
        self.action = action
        self._objects: dict = {}
        self._images: dict = {}

    def object(self, gamma) -> OrbitObject:
        """The object G/G_gamma.  Its hom-sets list the orbit of its sorted
        points, so that orbit is held to the group-order cap here, before
        any of it is listed."""
        gamma = frozenset(gamma)
        if gamma not in self._objects:
            points = tuple(sorted(gamma))
            if self.action.orbit_size(points) > DEFAULT_GROUP_ORDER_CAP:
                raise ResourceCapError(f"orbit of {points} exceeds cap {DEFAULT_GROUP_ORDER_CAP}")
            self._objects[gamma] = OrbitObject(gamma, self.action.fixed_points(gamma))
        return self._objects[gamma]

    def hom(self, source: OrbitObject, target: OrbitObject) -> list[OrbitMorphism]:
        """One morphism per image u(B) of the sorted points of the target
        subset B inside Fix(G_A) of the source subset A, in orbit-transversal
        order, each represented by pinv(u).  The key of that morphism is u(B)
        itself, so distinct images are distinct morphisms.  `object` has
        held B's orbit to the group-order cap; the orbit is walked once per
        target."""
        if target.gamma not in self._images:
            points, ident = tuple(sorted(target.gamma)), identity_perm(self.action.domain_size)
            transversal = _orbit_transversal(points, self.action.generators, ident)
            self._images[target.gamma] = [(image, pinv(u)) for image, u in transversal.items()]
        return [
            OrbitMorphism(source.gamma, target.gamma, g)
            for image, g in self._images[target.gamma]
            if source.fixed.issuperset(image)
        ]


def compose_orbit_morphisms(f, g):
    """f: G/G_A -> G/G_B followed by g: G/G_B -> G/G_C."""
    if f.target_gamma != g.source_gamma:
        raise MalformedInputError("orbit morphisms do not compose")
    return OrbitMorphism(f.source_gamma, g.target_gamma, pmul(g.representative, f.representative))


class NoExtensionError(Exception):
    """No group element extends the given embedding (possible at finite scale)."""


def phi(cat, embedding):
    """The orbit morphism G/G_Sigma -> G/G_Gamma that the comparison functor
    gives an embedding Gamma -> Sigma between canonical substructures.

    The group elements extending the embedding are those sending the sorted
    points of Gamma to the embedding's value table; the orbit transversal of
    those points holds one of them if any exist.  The morphism's key is the
    value table itself, so it does not depend on which extension represents
    it."""
    mapping = {int(x): int(y) for x, y in embedding.mapping.items()}
    points = tuple(sorted(mapping))
    u = orbit_transversal(cat.action, points).get(tuple(mapping[x] for x in points))
    if u is None:
        raise NoExtensionError(f"no group element extends {embedding.mapping}")
    sigma = frozenset(int(y) for y in embedding.target.universe)
    return OrbitMorphism(sigma, frozenset(points), pinv(u))


def oracle_equivariant_map_count(G, source_gamma, target_gamma):
    """Count equivariant maps G/G_src -> G/G_tgt by trying every function on
    coset indices (feasible because the orbit of the base coset determines
    the whole map)."""
    els = elements(G)

    def cosets(gamma):
        stab = pointwise_stabilizer(G, gamma)
        index = {}
        reps = []
        for g in els:
            if g in index:
                continue
            coset = {pmul(g, s) for s in stab}
            for x in coset:
                index[x] = len(reps)
            reps.append(g)
        return index, reps

    src_index, src_reps = cosets(source_gamma)
    tgt_index, tgt_reps = cosets(target_gamma)
    count = 0
    for base_image in range(len(tgt_reps)):
        # the image of the identity coset forces everything; check consistency
        mapping = {}
        ok = True
        for g in els:
            i = src_index[g]
            j = tgt_index[pmul(g, tgt_reps[base_image])]
            if mapping.setdefault(i, j) != j:
                ok = False
                break
        if ok:
            count += 1
    return count


@lru_cache(maxsize=None)
def _stabilizer(G, gamma):
    return frozenset(pointwise_stabilizer(G, gamma))


def oracle_stabilizer(G, gamma):
    """G_gamma from listed elements, computed once per group and subset."""
    return _stabilizer(G, frozenset(gamma))


def oracle_orbit_hom(G, source_gamma, target_gamma):
    """Orbit morphisms G/G_A -> G/G_B from listed elements: one element g per
    coset G_B g, kept when G_{g(A)} lies inside G_B."""
    target_stab = oracle_stabilizer(G, target_gamma)
    seen = set()
    out = set()
    for g in elements(G):
        coset = frozenset(pmul(s, g) for s in target_stab)
        if coset in seen:
            continue
        seen.add(coset)
        if oracle_stabilizer(G, {g[x - 1] for x in source_gamma}) <= target_stab:
            out.add(OrbitMorphism(source_gamma, target_gamma, g))
    return out


def oracle_collisions(G, objects):
    """Pairs of distinct subsets, in report order, with equal stabilizers."""
    stabs = [oracle_stabilizer(G, s) for s in objects]
    return [
        (a, b)
        for i, a in enumerate(objects)
        for j, b in enumerate(objects[i + 1 :], i + 1)
        if stabs[i] == stabs[j]
    ]


def oracle_phi_iso_report(G, cap):
    """(hom counts, mismatches, missing extensions) of the comparison functor
    with every ordered pair of subsets checked directly, in the report's
    order: hom_counts[i][j] = |hom(G/G_{subsets[i]}, G/G_{subsets[j]})|."""
    N = G.domain_size
    cat = OrbitCategory(G)
    subsets = [frozenset(c) for k in range(cap + 1) for c in combinations(range(1, N + 1), k)]
    M = canonical_structure(G, max(cap, 1))
    induced = {s: M.induced(sorted(s)) for s in subsets}
    counts, mismatches, missing = {}, [], []
    for gamma in subsets:
        for sigma in subsets:
            embs = enumerate_embeddings(induced[gamma], induced[sigma])
            morphisms = cat.hom(cat.object(sigma), cat.object(gamma))
            counts[sigma, gamma] = len(morphisms)
            images, extension_failed = set(), False
            for e in embs:
                try:
                    images.add(phi(cat, e))
                except NoExtensionError:
                    extension_failed = True
                    missing.append((tuple(sorted(gamma)), tuple(sorted(sigma)), tuple(e.images)))
            if extension_failed or len(images) != len(embs) or images != set(morphisms):
                mismatches.append(
                    (tuple(sorted(gamma)), tuple(sorted(sigma)), len(embs), len(morphisms))
                )
    hom_counts = tuple(tuple(counts[s, g] for g in subsets) for s in subsets)
    return hom_counts, tuple(mismatches), tuple(missing)


def assert_report_matches_oracles(G, cap):
    report = phi_iso_report(G, cap)
    N = G.domain_size
    objects = tuple(c for k in range(cap + 1) for c in combinations(range(1, N + 1), k))
    assert report.size_cap == cap
    assert report.objects == objects
    hom_counts, mismatches, missing = oracle_phi_iso_report(G, cap)
    assert report.hom_counts == hom_counts, (G.generators, cap)
    assert report.hom_mismatches == mismatches, (G.generators, cap)
    # M has arity max(cap, 1) >= |gamma|, so some group element extends
    # every embedding; the report counts embeddings as tuple-orbit images
    assert missing == (), (G.generators, cap)
    assert list(report.object_collisions) == oracle_collisions(G, objects)
    fixed = {
        s: {x for x in range(1, N + 1) if all(g[x - 1] == x for g in oracle_stabilizer(G, s))}
        for s in objects
    }
    assert report.fixed_point_violations == tuple(s for s in objects if fixed[s] != set(s))
    return report


REPORT_GROUPS = (
    [symmetric_action(n) for n in range(1, 8)]
    + [cyclic_action(n) for n in range(3, 9)]
    + [dihedral_action(n) for n in range(3, 9)]
    + [alternating_action(5)]
)


@pytest.mark.parametrize(
    "G", REPORT_GROUPS, ids=lambda G: f"N{G.domain_size}-order{G.order()}"
)
def test_report_up_to_symmetry_matches_all_pairs(G):
    # one subset pair per G-orbit is checked, and the orbits of failing
    # pairs in full; the report is the one checking every pair
    failed = False
    for cap in range(min(G.domain_size, 3) + 1):
        failed |= bool(assert_report_matches_oracles(G, cap).hom_mismatches)
    if G.domain_size >= 4 and G.order() == G.domain_size:  # the cyclic groups
        assert failed


def test_report_builds_no_canonical_structure(monkeypatch):
    # the embeddings and the morphisms are both read off the orbit of
    # gamma's sorted points, so no embedding is built
    def built(*args, **kwargs):
        raise AssertionError("phi_iso_report built an embedding")

    for module in (orbitcat, structures):
        monkeypatch.setattr(module, "enumerate_embeddings", built, raising=False)
    c6 = phi_iso_report(cyclic_action(6), 3)
    assert c6.hom_mismatches and not c6.passed
    s5 = phi_iso_report(symmetric_action(5), 3)
    assert s5.passed and not s5.fixed_point_violations


def test_report_reads_fixed_points_once_per_orbit_of_subsets(monkeypatch):
    # Fix(G_{u(A)}) = u(Fix(G_A)), so Fix is read once per G-orbit of
    # subsets: S7 has 3 orbits on subsets of size <= 2, C8 13 on size <= 3
    calls = []
    fixed_points = FiniteAction.fixed_points

    def counted(self, points):
        calls.append(points)
        return fixed_points(self, points)

    monkeypatch.setattr(FiniteAction, "fixed_points", counted)
    for G, cap, orbits in ((symmetric_action(7), 2, 3), (cyclic_action(8), 3, 13)):
        calls.clear()
        phi_iso_report(G, cap)
        assert len(calls) == orbits


def test_report_lists_no_tuple_orbit(monkeypatch):
    # regression guard: both counts of a pair are c times a count of subsets
    # in gamma's orbit, so the report must never list the orbit of a tuple;
    # the single-point transversals it walks for the stabilizers are counted
    # to show that the wrapper is reached
    transversal = actions._orbit_transversal
    walked = []

    def points_only(base, gens, ident):
        if len(base) > 1:
            raise AssertionError(f"phi_iso_report listed the orbit of the tuple {base}")
        walked.append(base)
        return transversal(base, gens, ident)

    monkeypatch.setattr(actions, "_orbit_transversal", points_only)
    s7 = phi_iso_report(symmetric_action(7), 3)
    assert walked
    assert s7.passed and not s7.fixed_point_violations
    assert s7.hom_counts == tuple(
        tuple(perm(len(s), len(t)) for t in s7.objects) for s in s7.objects
    )
    # AGL(1,7): x -> x+1 and x -> 3x (mod 7), sharply 2-transitive
    agl7 = FiniteAction(
        7, tuple(tuple((a * x + b) % 7 + 1 for x in range(7)) for a, b in ((1, 1), (3, 0)))
    )
    for G, cap in ((cyclic_action(8), 3), (agl7, 2)):
        report = phi_iso_report(G, cap)
        assert report.hom_mismatches and report.consistent_with_fixed_points


def cyclic_report_by_formula(N, cap):
    """(hom counts, mismatches, collisions, violations) of the report on
    C_N, N >= 2, in closed form.  C_N acts regularly, so G_s is trivial and
    Fix(G_s) = [N] for every nonempty s, while Fix(C_N) is empty: hom(G/G_sigma,
    G/G_gamma) has one morphism if gamma is empty, N (one per rotation) if
    sigma and gamma are both nonempty, and none if only sigma is empty.  The
    embeddings gamma -> sigma are the rotations k with gamma + k inside sigma
    (or the one empty map)."""
    objects = tuple(c for k in range(cap + 1) for c in combinations(range(1, N + 1), k))
    rotations = {
        g: [frozenset((x + k - 1) % N + 1 for x in g) for k in range(N)] for g in objects
    }

    def homs(sigma, gamma):
        return 1 if not gamma else N if sigma else 0

    def embeddings(gamma, sigma):
        return sum(r <= sigma for r in rotations[gamma]) if gamma else 1

    pairs = [(g, s, embeddings(g, frozenset(s)), homs(s, g)) for g in objects for s in objects]
    nonempty = objects[1:]
    return (
        tuple(tuple(homs(s, g) for g in objects) for s in objects),
        tuple(p for p in pairs if p[2] != p[3]),
        tuple((a, b) for i, a in enumerate(nonempty) for b in nonempty[i + 1 :]),
        tuple(s for s in nonempty if len(s) < N),
    )


@pytest.mark.parametrize("N, cap", [(N, cap) for N in range(2, 9) for cap in range(N + 1)])
def test_report_on_cyclic_groups_matches_the_closed_form(N, cap):
    # every cap fits the subset-pair cap; C8 at caps 7 and 8 has 8^7 tuples
    report = phi_iso_report(cyclic_action(N), cap)
    assert (
        report.hom_counts,
        report.hom_mismatches,
        report.object_collisions,
        report.fixed_point_violations,
    ) == cyclic_report_by_formula(N, cap)


def test_objects_keep_the_tuple_orbit_cap():
    # hom and phi list the orbit of an object's sorted points; the 5-tuples
    # of S10 have 30,240 images
    with pytest.raises(ResourceCapError, match=r"^orbit of \(1, 2, 3, 4, 5\) exceeds cap 20000$"):
        OrbitCategory(symmetric_action(10)).object({1, 2, 3, 4, 5})


def hom(G, source_gamma, target_gamma):
    cat = OrbitCategory(G)
    return cat.hom(cat.object(source_gamma), cat.object(target_gamma))


def test_orbit_hom_known_counts():
    S5 = symmetric_action(5)
    assert len(hom(S5, frozenset({1, 2}), frozenset({1}))) == 2
    S3 = symmetric_action(3)
    assert len(hom(S3, frozenset({1, 2}), frozenset({1}))) == 3


def test_orbit_hom_identity_present():
    S4 = symmetric_action(4)
    homs = hom(S4, frozenset({1, 2}), frozenset({1, 2}))
    ident = OrbitMorphism(frozenset({1, 2}), frozenset({1, 2}), (1, 2, 3, 4))
    assert ident in homs


def oracle_groups():
    return [
        symmetric_action(4),
        FiniteAction(4, (perm_from_cycles("(1 2 3 4)", 4),)),
        FiniteAction(5, (perm_from_cycles("(1 2 3 4 5)", 5), perm_from_cycles("(1 2)", 5))),
        FiniteAction(4, (perm_from_cycles("(1 2 3)", 4), perm_from_cycles("(2 3 4)", 4))),
    ]


def test_orbit_hom_matches_oracle():
    for G in oracle_groups():
        N = G.domain_size
        subsets = [frozenset(c) for k in (1, 2) for c in combinations(range(1, N + 1), k)]
        for src in subsets[:4]:
            for tgt in subsets[:4]:
                got = len(hom(G, src, tgt))
                want = oracle_equivariant_map_count(G, src, tgt)
                assert got == want, (G.generators, src, tgt, got, want)


def test_orbit_hom_matches_coset_oracle():
    for G in oracle_groups():
        N = G.domain_size
        subsets = [frozenset(c) for k in range(3) for c in combinations(range(1, N + 1), k)]
        for src in subsets:
            for tgt in subsets:
                got = hom(G, src, tgt)
                assert len(set(got)) == len(got)
                assert set(got) == oracle_orbit_hom(G, src, tgt), (G.generators, src, tgt)


def test_morphism_identity_by_coset():
    # representatives in the same target-stabilizer coset are one morphism
    S4 = symmetric_action(4)
    gamma = frozenset({1})
    sigma = frozenset({1, 2})
    g = (1, 2, 3, 4)
    h = (1, 2, 4, 3)  # differs by an element of G_gamma... but key uses target
    a = OrbitMorphism(sigma, gamma, g)
    b = OrbitMorphism(sigma, gamma, h)
    assert a == b  # inverses agree on the target subset {1}


def test_composition_associates_and_has_identities():
    S4 = symmetric_action(4)
    cat = OrbitCategory(S4)
    A = cat.object({1, 2})
    B = cat.object({1})
    fs = cat.hom(A, B)
    gs = cat.hom(B, B)
    for f in fs:
        for g in gs:
            fg = compose_orbit_morphisms(f, g)
            assert fg in cat.hom(A, B)


def test_phi_extension_independent():
    S5 = symmetric_action(5)
    M = canonical_structure(S5, 2)
    sub1 = M.induced((1,))
    sub2 = M.induced((1, 2))
    cat = OrbitCategory(S5)
    for e in enumerate_embeddings(sub1, sub2):
        m = phi(cat, e)
        assert m.source_gamma == frozenset({1, 2})
        assert m.target_gamma == frozenset({1})


def test_phi_identity_embedding_is_identity():
    S4 = symmetric_action(4)
    M = canonical_structure(S4, 2)
    sub = M.induced((1, 2))
    e = StructureEmbedding(sub, sub, sub.universe)
    m = phi(OrbitCategory(S4), e)
    ident = OrbitMorphism(frozenset({1, 2}), frozenset({1, 2}), (1, 2, 3, 4))
    assert m == ident


def test_phi_bijective_on_stable_homset():
    S5 = symmetric_action(5)
    M = canonical_structure(S5, 2)
    embs = enumerate_embeddings(M.induced((1,)), M.induced((1, 2)))
    cat = OrbitCategory(S5)
    images = {phi(cat, e) for e in embs}
    homs = cat.hom(cat.object({1, 2}), cat.object({1}))
    assert images == set(homs)
    assert len(images) == len(embs) == 2


def test_phi_functoriality_sample():
    S5 = symmetric_action(5)
    M = canonical_structure(S5, 2)
    A = M.induced((1,))
    B = M.induced((1, 2))
    cat = OrbitCategory(S5)
    for e1 in enumerate_embeddings(A, B):
        for e2 in enumerate_embeddings(B, B):
            images = tuple(e2.mapping[y] for y in e1.images)
            assert _embedding_ok(A, B, images)
            composed = StructureEmbedding(A, B, images)
            lhs = phi(cat, composed)
            rhs = compose_orbit_morphisms(phi(cat, e2), phi(cat, e1))
            assert lhs == rhs


def test_phi_iso_report_s7_passes():
    report = phi_iso_report(symmetric_action(7), 2)
    assert report.passed
    assert report.consistent_with_fixed_points
    assert not report.fixed_point_violations


def test_phi_iso_report_s3_fails_with_predicted_witness():
    report = phi_iso_report(symmetric_action(3), 2)
    assert not report.passed
    assert (1, 2) in report.fixed_point_violations
    assert report.consistent_with_fixed_points


def test_phi_iso_report_trivial_group_collides():
    trivial = FiniteAction(3, ((1, 2, 3),))
    report = phi_iso_report(trivial, 1)
    assert report.object_collisions  # every stabilizer is the whole group
    assert not report.passed


def test_phi_matches_filter_on_every_embedding():
    # every extension of the embedding gives the morphism phi returns, so
    # phi is well defined; it raises exactly when no extension exists
    groups = [
        symmetric_action(4),
        FiniteAction(5, (perm_from_cycles("(1 2 3 4 5)", 5),)),
        FiniteAction(4, (perm_from_cycles("(1 2 3 4)", 4), perm_from_cycles("(1 3)", 4))),
        trivial_action(4),
    ]
    checked = missing = 0
    for G in groups:
        N = G.domain_size
        cat = OrbitCategory(G)
        # arity 1 keeps only the point orbits, so C5 gets embeddings no rotation extends
        for arity in (1, 2):
            M = canonical_structure(G, arity)
            subs = [M.induced(c) for k in range(N + 1) for c in combinations(range(1, N + 1), k)]
            for source in subs:
                for target in subs:
                    gamma, sigma = frozenset(source.universe), frozenset(target.universe)
                    for e in enumerate_embeddings(source, target):
                        m = e.mapping
                        exts = [
                            g
                            for g in elements(G)
                            if all(g[int(x) - 1] == int(y) for x, y in m.items())
                        ]
                        checked += 1
                        if not exts:
                            missing += 1
                            with pytest.raises(NoExtensionError):
                                phi(cat, e)
                            continue
                        got = phi(cat, e)
                        for g in exts:
                            assert got == OrbitMorphism(sigma, gamma, pinv(g)), (G.generators, m)
    assert checked and missing


def test_object_collisions_match_filter():
    # S3 fixing the point 4: G_{1,2} is trivial but G_{3,4} is not, so
    # {1,2} lies in Fix(G_{3,4}) while {3,4} does not lie in Fix(G_{1,2})
    s3_on_4 = FiniteAction(4, (perm_from_cycles("(1 2)", 4), perm_from_cycles("(1 2 3)", 4)))
    for G in oracle_groups() + [s3_on_4, trivial_action(3)]:
        report = phi_iso_report(G, 2)
        assert list(report.object_collisions) == oracle_collisions(G, report.objects)


def test_phi_iso_report_carries_hom_counts():
    S4 = symmetric_action(4)
    report = phi_iso_report(S4, 2)
    subsets = [c for k in range(3) for c in combinations(range(1, 5), k)]
    assert report.objects == tuple(subsets)
    for i, sigma in enumerate(subsets):
        for j, gamma in enumerate(subsets):
            assert report.hom_counts[i][j] == len(hom(S4, sigma, gamma))
