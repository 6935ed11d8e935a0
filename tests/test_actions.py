"""Unit tests for permutation actions, growth functions, density and the
restriction-fullness witness.  Group-theoretic facts are cross-checked by
explicit enumeration inside the tests: the oracles below list a group by
closing its generators, and walk the whole space of tuples or subsets for its
orbits, which the library itself never does.  Other test files import them."""

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb, factorial, perm

import pytest

from orbitlab import actions, modlab
from orbitlab.actions import (
    DEFAULT_GROUP_ORDER_CAP,
    DEFAULT_SPACE_CAP,
    FiniteAction,
    FullnessWitness,
    act_tuple,
    growth_profile,
    identity_perm,
    is_t_dense,
    lemma_equivalence_check,
    orbit_count,
    parse_group_file,
    perm_from_cycles,
    pinv,
    pmul,
    restriction_fullness_witness,
    same_orbits,
    stirling2,
    symmetric_action,
    trivial_action,
)
from orbitlab.errors import MalformedInputError, ResourceCapError
from orbitlab.structures import make_structure


# -- element-listing and orbit-enumeration oracles --------------------------------


def mulclose(gens, n, cap=DEFAULT_GROUP_ORDER_CAP):
    """All products of the generators, in sorted order."""
    els = {identity_perm(n)}
    bdy = list(els)
    while bdy:
        new = []
        for g in gens:
            for b in bdy:
                c = pmul(g, b)
                if c not in els:
                    els.add(c)
                    new.append(c)
                    if len(els) > cap:
                        raise ResourceCapError(f"group order exceeds cap {cap}")
        bdy = new
    return sorted(els)


@lru_cache(maxsize=None)
def _listed(gens, n):
    return tuple(mulclose(gens, n))


def elements(G):
    """The elements of G in sorted order, listed once per generating tuple."""
    return _listed(G.generators, G.domain_size)


@lru_cache(maxsize=None)
def orbit_transversal(G, points):
    """The orbit of the point tuple under G, each image tuple -> an element
    sending `points` to it, by the library's own walk over point tuples,
    walked once per group and tuple; callers must not modify it."""
    return actions._orbit_transversal(tuple(points), G.generators, identity_perm(G.domain_size))


def pointwise_stabilizer(G, gamma):
    """The elements fixing every point of gamma, in sorted order."""
    return [g for g in elements(G) if all(g[x - 1] == x for x in gamma)]


def is_t_dense_by_counting(H, G, t):
    """|H| * |G_Gamma| == |G| * |H_Gamma| for every Gamma of size <= t, with
    every order counted from listed elements."""
    order_G, order_H = len(elements(G)), len(elements(H))
    return all(
        order_H * len(pointwise_stabilizer(G, gamma)) == order_G * len(pointwise_stabilizer(H, gamma))
        for size in range(1, t + 1)
        for gamma in combinations(range(1, G.domain_size + 1), size)
    )


class PermutationModule:
    """The free Q-module on the left cosets of K in G, permuted by G; cosets
    are indexed in the order of their least elements."""

    def __init__(self, G, K):
        k_els = elements(K)
        self.cosets, self.coset_index, self.reps = [], {}, []
        for g in elements(G):
            if g in self.coset_index:
                continue
            coset = frozenset(pmul(g, k) for k in k_els)
            for x in coset:
                self.coset_index[x] = len(self.cosets)
            self.reps.append(min(coset))
            self.cosets.append(coset)

    def act_on_index(self, g, i):
        return self.coset_index[pmul(g, self.reps[i])]


def oracle_fullness_witness(G, H, K):
    """The fullness witness from the module Q(G/K): the indicator f of the
    H-orbit of the trivial coset, and the least element of the first coset
    outside that orbit, if any."""
    module = PermutationModule(G, K)
    base = module.coset_index[identity_perm(G.domain_size)]
    hk = {base}
    bdy = [base]
    while bdy:
        new = []
        for h in H.generators:
            for i in bdy:
                j = module.act_on_index(h, i)
                if j not in hk:
                    hk.add(j)
                    new.append(j)
        bdy = new
    f = [Fraction(1) if i in hk else Fraction(0) for i in range(len(module.cosets))]
    if len(hk) == len(module.cosets):
        return None
    g = min(module.cosets[min(i for i in range(len(module.cosets)) if i not in hk)])
    return FullnessWitness(g, base, f[module.act_on_index(g, base)], f[base])


def _space(N, n, mode):
    if mode == "power":
        return product(range(1, N + 1), repeat=n), N**n
    if mode == "injective":
        return permutations(range(1, N + 1), n), factorial(N) // factorial(N - n)
    if mode == "subsets":
        return (frozenset(c) for c in combinations(range(1, N + 1), n)), comb(N, n)
    raise MalformedInputError(f"unknown mode {mode!r}")


def orbit_point_sets(action, n, mode, space_cap=DEFAULT_SPACE_CAP):
    """Yield the point set of each orbit on n-tuples (power/injective) or
    n-subsets once, in the order of each orbit's first point in the space."""
    N = action.domain_size
    if mode in ("injective", "subsets") and n > N:
        raise MalformedInputError(f"n={n} exceeds domain size {N} for mode {mode}")
    points, total = _space(N, n, mode)
    if total > space_cap:
        raise ResourceCapError(f"space of size {total} exceeds cap {space_cap}")
    act = (lambda g, s: frozenset(g[x - 1] for x in s)) if mode == "subsets" else act_tuple
    gens = action.generators
    seen = set()
    for x in points:
        if x in seen:
            continue
        orbit = {x}
        bdy = [x]
        while bdy:
            new = []
            for g in gens:
                for y in bdy:
                    z = act(g, y)
                    if z not in orbit:
                        orbit.add(z)
                        new.append(z)
            bdy = new
        seen |= orbit
        yield orbit


@dataclass(frozen=True)
class Orbit:
    representative: tuple
    elements: frozenset

    @property
    def size(self) -> int:
        return len(self.elements)


def orbits(action, n, mode="injective", space_cap=DEFAULT_SPACE_CAP):
    """Orbits on n-tuples (power/injective) or n-subsets, reps lex-minimal,
    sorted by representative."""
    key = (lambda x: tuple(sorted(x))) if mode == "subsets" else (lambda x: x)
    out = [
        Orbit(min(key(y) for y in orbit), frozenset(orbit))
        for orbit in orbit_point_sets(action, n, mode, space_cap)
    ]
    out.sort(key=lambda o: o.representative)
    return out


def canonical_structure(action, max_arity):
    """The canonical structure of the action: universe [N] with one relation
    per orbit on k-tuples, k <= max_arity, numbered per arity in the order of
    the orbits' least tuples."""
    signature, relations = [], {}
    for n in range(1, max_arity + 1):
        for i, o in enumerate(orbits(action, n, "power")):
            signature.append((f"orbit{n}_{i}", n))
            relations[f"orbit{n}_{i}"] = o.elements
    return make_structure(range(1, action.domain_size + 1), signature, relations)


def cyclic_action(n):
    return FiniteAction(n, (tuple(list(range(2, n + 1)) + [1]),))


def dihedral_action(n):
    reflection = tuple([1] + list(range(n, 1, -1)))
    return FiniteAction(n, cyclic_action(n).generators + (reflection,))


def alternating_action(n):
    return FiniteAction(n, tuple(perm_from_cycles(f"(1 2 {k})", n) for k in range(3, n + 1)))


def agl1_action(p, a):
    """AGL(1, p) on the points 1..p, the point x + 1 standing for x mod p,
    generated by x -> x + 1 and x -> a * x for a primitive root a."""
    translation = tuple((x + 1) % p + 1 for x in range(p))
    return FiniteAction(p, (translation, tuple(a * x % p + 1 for x in range(p))))


def regular_action(G):
    """G acting on its sorted elements by left multiplication."""
    els = elements(G)
    index = {g: i for i, g in enumerate(els, 1)}
    return FiniteAction(len(els), tuple(tuple(index[pmul(s, g)] for g in els) for s in G.generators))


def short_base_groups():
    """Groups whose point stabilizers become trivial before the support ends:
    a cyclic group, AGL(1, 7) (base (1, 2)) and the regular S3."""
    return [cyclic_action(9), agl1_action(7, 3), regular_action(symmetric_action(3))]


def test_pmul_convention():
    a = (2, 1, 3)
    b = (1, 3, 2)
    # (a after b)(2) = a(3) = 3
    assert pmul(a, b) == (2, 3, 1)
    assert pmul(a, pinv(a)) == identity_perm(3)


def test_mulclose_symmetric():
    assert symmetric_action(4).order() == 24
    assert symmetric_action(1).order() == 1
    assert cyclic_action(5).order() == 5


def test_mulclose_cap():
    with pytest.raises(ResourceCapError):
        mulclose(symmetric_action(8).generators, 8, cap=100)


def small_groups():
    return [
        symmetric_action(4),
        cyclic_action(5),
        FiniteAction(4, (perm_from_cycles("(1 2 3 4)", 4), perm_from_cycles("(1 3)", 4))),
        FiniteAction(4, (perm_from_cycles("(1 2 3)", 4), perm_from_cycles("(2 3 4)", 4))),
        FiniteAction(5, (perm_from_cycles("(1 2)(3 4)", 5), perm_from_cycles("(3 4 5)", 5))),
        trivial_action(4),
    ]


def test_order_matches_element_count():
    rng = random.Random(17)
    groups = small_groups() + short_base_groups()
    groups += [random_subgroup(rng, rng.randint(1, 6)) for _ in range(40)]
    for G in groups:
        assert G.order() == len(mulclose(G.generators, G.domain_size)), G.generators


def test_the_orbit_tree_stops_at_a_trivial_stabilizer():
    # C200 is regular, so the stabilizer of the point 1 is trivial: the base
    # is (1,), and no walk expands a node below that stabilizer
    G = cyclic_action(200)
    points = range(1, 201)
    assert G.order() == G.orbit_size(points) == 200
    base, transversals = G.chain
    assert base == [1] and len(transversals[0]) == 200
    assert G.fixed_points(points) == set(points) and G.fixed_points(()) == set()
    assert len(G._nodes) <= 2
    assert agl1_action(7, 3).chain[0] == [1, 2]
    assert regular_action(symmetric_action(3)).chain[0] == [1]


def test_order_above_the_cap_lists_no_elements():
    A6 = FiniteAction(6, tuple(perm_from_cycles(f"(1 2 {k})", 6) for k in range(3, 7)))
    assert A6.order() == 360
    S8, S10 = symmetric_action(8), symmetric_action(10)
    assert S8.order() == 40320
    assert S10.order() == 3628800
    assert S10.fixed_points((1, 2)) == {1, 2}
    assert len(orbit_transversal(S10, (1, 2))) == 90


def test_order_matches_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randint(2, 10)
        gens = []
        for _ in range(rng.randint(1, 3)):
            pts = list(range(1, n + 1))
            rng.shuffle(pts)
            if rng.random() < 0.5:  # keep only one cycle, so subgroups vary in size
                cycle = perm_from_cycles(f"({' '.join(map(str, pts[: rng.randint(2, n)]))})", n)
                pts = list(cycle)
            gens.append(tuple(pts))
        G = FiniteAction(n, tuple(gens))
        sym = combinatorics.PermutationGroup(
            [combinatorics.Permutation([x - 1 for x in g]) for g in G.generators]
        )
        assert G.order() == sym.order(), G.generators


def test_pointwise_stabilizer_matches_filter():
    # orbit-stabilizer: |G_Gamma| is |G| over the length of Gamma's tuple orbit
    for G in small_groups():
        N = G.domain_size
        for size in range(N + 1):
            for gamma in combinations(range(1, N + 1), size):
                stab = pointwise_stabilizer(G, gamma)
                assert len(stab) * len(orbit_transversal(G, gamma)) == G.order()
                assert G.contains_action(FiniteAction(N, tuple(stab)))


def test_orbit_transversal_matches_filter():
    for G in small_groups():
        N = G.domain_size
        els = elements(G)
        for size in range(min(N, 3) + 1):
            for pts in permutations(range(1, N + 1), size):
                transversal = orbit_transversal(G, pts)
                assert set(transversal) == {tuple(g[x - 1] for x in pts) for g in els}
                for image, u in transversal.items():
                    assert tuple(u[x - 1] for x in pts) == image
                    assert u in els


def test_orbit_size_matches_filter():
    for G in small_groups():
        N = G.domain_size
        els = elements(G)
        for size in range(N + 1):
            for pts in combinations(range(1, N + 1), size):
                want = len({tuple(g[x - 1] for x in pts) for g in els})
                assert G.orbit_size(pts) == G.orbit_size(tuple(reversed(pts))) == want
        with pytest.raises(MalformedInputError):
            G.orbit_size((1, N + 1))


def test_fixed_points_match_filter():
    for G in small_groups():
        N = G.domain_size
        for size in range(N + 1):
            for gamma in combinations(range(1, N + 1), size):
                stab = pointwise_stabilizer(G, gamma)
                want = {x for x in range(1, N + 1) if all(g[x - 1] == x for g in stab)}
                assert G.fixed_points(gamma) == want
                assert G.fixed_points(tuple(reversed(gamma))) == want
                assert G.fixed_points(gamma + gamma[:1]) == want
        with pytest.raises(MalformedInputError):
            G.fixed_points((1, N + 1))


def test_schreier_generators_skip_exactly_the_identities():
    # the skipped u_{s(k)}^-1 * s * u_k are the identities, which Sims'
    # filter drops, so every orbit-tree node keeps the holders of the full list
    rng = random.Random(53)
    for _ in range(40):
        N = rng.randint(1, 8)
        G = random_subgroup(rng, N, rng.randint(1, 3))
        ident = identity_perm(N)
        points = tuple(rng.sample(range(1, N + 1), rng.randint(1, N)))
        for k in range(len(points)):
            parent = G._node(points[:k])[0]
            transversal = actions._orbit_transversal(points[k : k + 1], parent, ident)
            full = [
                pmul(pinv(transversal[act_tuple(s, t)]), pmul(s, u))
                for t, u in transversal.items()
                for s in parent
            ]
            kept = list(actions._schreier_generators(transversal, parent))
            assert kept == [h for h in full if h != ident], G.generators
            want = actions._sims_filter(full, ident) if len(transversal) > 1 else parent
            assert G._node(points[: k + 1])[0] == want, G.generators


def test_orbit_modes():
    c4 = cyclic_action(4)
    assert orbit_count(c4, 1, "subsets") == 1
    assert orbit_count(c4, 2, "subsets") == 2  # adjacent vs opposite chords
    assert orbit_count(c4, 2, "injective") == 3
    assert orbit_count(c4, 2, "power") == 4
    # orbits partition the space
    for mode, total in (("power", 16), ("injective", 12), ("subsets", 6)):
        os = orbits(c4, 2, mode)
        assert sum(o.size for o in os) == total


def test_orbit_reps_are_minimal():
    for o in orbits(cyclic_action(5), 2, "injective"):
        assert o.representative == min(o.elements)


def test_stirling_values():
    assert [stirling2(4, k) for k in range(0, 5)] == [0, 1, 7, 6, 1]
    assert stirling2(0, 0) == 1
    assert stirling2(3, 5) == 0


def test_growth_profile_sym8():
    p = growth_profile(symmetric_action(8), 4)
    assert p.f == (1, 1, 1, 1)
    assert p.F == (1, 1, 1, 1)
    assert p.F_star == (1, 2, 5, 15)


def test_growth_profile_trivial_group():
    p = growth_profile(trivial_action(4), 3)
    assert p.f == (4, comb(4, 2), comb(4, 3))  # dips past the midpoint
    assert p.F == (4, 12, 24)
    assert p.F_star == (4, 16, 64)


def random_subgroup(rng, n, k=2):
    base = list(permutations(range(1, n + 1)))
    gens = tuple(rng.choice(base) for _ in range(k))
    return FiniteAction(n, gens)


def test_growth_stirling_identity_random():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(2, 6)
        G = random_subgroup(rng, n)
        p = growth_profile(G, min(4, n))
        p.validate(n)  # sandwich + Stirling + range-limited monotonicity


def test_same_orbits_basic():
    S4 = symmetric_action(4)
    A4 = FiniteAction(4, (perm_from_cycles("(1 2 3)", 4), perm_from_cycles("(2 3 4)", 4)))
    assert A4.order() == 12
    assert same_orbits(S4, A4, 2, "injective")
    assert not same_orbits(S4, cyclic_action(4), 2, "injective")


def test_lemma_consistency_random():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 6)
        G = random_subgroup(rng, n)
        H = random_subgroup(rng, n)
        level = rng.randint(1, min(3, n))
        report = lemma_equivalence_check(G, H, level)
        assert report.consistent, report.witness


def test_growth_and_lemma_check_descend_once_per_group(monkeypatch):
    descents, orbit_bases = [], []
    descend = actions._descent_counts
    transversal = actions._orbit_transversal

    def counting_descent(action, n, *rest):
        descents.append((action, n))
        return descend(action, n, *rest)

    def recording_transversal(base, *rest):
        orbit_bases.append(base)
        return transversal(base, *rest)

    def no_tuple_orbits(*args):
        raise AssertionError("a tuple orbit was enumerated")

    monkeypatch.setattr(actions, "_descent_counts", counting_descent)
    monkeypatch.setattr(actions, "_orbit_transversal", recording_transversal)
    assert growth_profile(symmetric_action(4), 3).F_star == (1, 2, 5)
    # one descent gives F and F*
    assert [n for _, n in descents] == [3]
    descents.clear()
    monkeypatch.setattr(actions, "_least_set_counts", no_tuple_orbits)
    report = lemma_equivalence_check(symmetric_action(4), symmetric_action(4), 3)
    assert report.consistent and report.cond1
    # G, H and <G u H>, each to depth 3 once for both tuple spaces; no tuple
    # is enumerated: the only orbits walked are those of single points
    assert len(descents) == 3 and {n for _, n in descents} == {3}
    assert len({id(action) for action, _ in descents}) == 3
    assert orbit_bases and {len(base) for base in orbit_bases} == {1}


def enumerated_count(G, n, mode):
    return sum(1 for _ in orbit_point_sets(G, n, mode))


def enumerated_partition(G, n, mode):
    return frozenset(map(frozenset, orbit_point_sets(G, n, mode)))


DESCENT_GROUPS = (
    [symmetric_action(n) for n in range(1, 8)]
    + [cyclic_action(n) for n in range(3, 9)]
    + [dihedral_action(n) for n in range(3, 9)]
    + [alternating_action(5)]
    + [trivial_action(n) for n in (1, 4, 8)]
)


@pytest.mark.parametrize("G", DESCENT_GROUPS, ids=lambda G: f"N{G.domain_size}-{len(G.generators)}gens")
def test_descent_counts_match_enumeration(G):
    # every level n <= N whose space the enumeration oracle accepts; the
    # descent and the least-set walk also give the level-n count as the last
    # of their levels
    N = G.domain_size
    for mode, size, walk in (
        ("power", lambda n: N**n, lambda n: actions._descent_counts(G, n)[0]),
        ("injective", lambda n: perm(N, n), lambda n: actions._descent_counts(G, n)[1]),
        ("subsets", lambda n: comb(N, n), lambda n: actions._least_set_counts(G, n)),
    ):
        levels = [n for n in range(N + 1) if size(n) <= DEFAULT_SPACE_CAP]
        want = [1] + [enumerated_count(G, n, mode) for n in levels[1:]]
        assert [orbit_count(G, n, mode) for n in levels] == want
        assert walk(levels[-1]) == want


def test_descent_of_the_trivial_group_is_the_closed_form():
    for N in (1, 5, 20):
        G = trivial_action(N)
        assert actions._descent_counts(G, min(N, 6))[0] == [N**n for n in range(min(N, 6) + 1)]
        assert actions._descent_counts(G, N)[1] == [perm(N, n) for n in range(N + 1)]


def test_descent_counts_match_enumeration_on_random_groups():
    rng = random.Random(23)
    for _ in range(40):
        N = rng.randint(1, 6)
        G = random_subgroup(rng, N, rng.randint(1, 3))
        counts = actions._descent_counts(G, N)
        for mode, got in zip(("power", "injective"), counts):
            want = [1] + [enumerated_count(G, n, mode) for n in range(1, N + 1)]
            assert got == want, (G.generators, mode)


def random_cycles(rng, N, k):
    """k random permutations of [N], each either a shuffle or one cycle."""
    gens = []
    for _ in range(k):
        pts = list(range(1, N + 1))
        rng.shuffle(pts)
        if rng.random() < 0.5:
            pts = list(perm_from_cycles(f"({' '.join(map(str, pts[: rng.randint(1, N)]))})", N))
        gens.append(tuple(pts))
    return FiniteAction(N, tuple(gens))


def test_least_sets_match_enumeration_on_random_groups():
    # f at every level, on groups of degree <= 8 with large and small orbits
    rng = random.Random(31)
    for _ in range(60):
        N = rng.randint(1, 8)
        G = random_cycles(rng, N, rng.randint(1, 3))
        want = [1] + [enumerated_count(G, n, "subsets") for n in range(1, N + 1)]
        assert actions._least_set_counts(G, N) == want, G.generators
        assert growth_profile(G, N).f == tuple(want[1:])


def test_least_set_walk_charges_every_state(monkeypatch):
    # the trivial group on 12 points: one state per candidate, no scans
    G = trivial_action(12)
    assert sum(comb(12, n) for n in range(1, 4)) == 298
    monkeypatch.setattr(actions, "DEFAULT_SPACE_CAP", 100)
    assert actions._least_set_counts(G, 3) == [1, 12, 66, 220]
    monkeypatch.setattr(actions, "DEFAULT_SPACE_CAP", 99)
    with pytest.raises(ResourceCapError, match="297 units"):
        actions._least_set_counts(G, 3)
    with pytest.raises(MalformedInputError):
        actions._least_set_counts(G, 13)


def test_same_orbits_by_counts_matches_partitions():
    rng = random.Random(29)
    answers, outside = set(), 0
    for _ in range(60):
        N = rng.randint(2, 6)
        G = random_subgroup(rng, N, rng.randint(1, 2))
        H = random_subgroup(rng, N, rng.randint(1, 2))
        outside += not G.contains_action(H)
        for mode in ("power", "injective", "subsets"):
            n = rng.randint(1, min(N, 4))
            got = same_orbits(G, H, n, mode)
            assert got == (enumerated_partition(G, n, mode) == enumerated_partition(H, n, mode))
            answers.add(got)
    assert answers == {True, False} and outside > 0


def test_descent_cap_bounds_the_work_of_the_whole_descent(monkeypatch):
    # <(1 2)> on 12 points, pairs of points and injective pairs in one
    # walk: the root scans 12 points and builds 3 counts of each; below it
    # the point 1 has closed forms of 2 counts, and each of the points 3..12
    # scans 12 points and builds 2 counts of each
    G = FiniteAction(12, (perm_from_cycles("(1 2)", 12),))
    assert 12 + 3 + 2 + 10 * (12 + 2) == 157 <= 3 * 53
    monkeypatch.setattr(actions, "DEFAULT_SPACE_CAP", 53)
    power, injective = actions._descent_counts(G, 2)
    assert injective[2] == enumerated_count(G, 2, "injective")
    assert power[2] == enumerated_count(G, 2, "power")
    monkeypatch.setattr(actions, "DEFAULT_SPACE_CAP", 52)
    with pytest.raises(ResourceCapError, match="156 units"):
        actions._descent_counts(G, 2)
    monkeypatch.undo()
    # a closed form is charged before it is built: 2^j for j <= 10^6 would
    # fill gigabytes
    with pytest.raises(ResourceCapError):
        orbit_count(trivial_action(2), 10**6, "power")


def test_every_caller_of_the_descent_hits_its_cap_at_the_same_work(monkeypatch):
    # one walk charges what a walk for either tuple space alone charged, so
    # counts on all tuples, on injective tuples and the lemma stop at one
    # budget
    G = FiniteAction(12, (perm_from_cycles("(1 2)", 12),))
    monkeypatch.setattr(actions, "DEFAULT_SPACE_CAP", 53)
    # Burnside: the identity and (1 2) fix 12^2 and 10^2 pairs, 12*11 and
    # 10*9 injective ones
    assert orbit_count(G, 2, "power") == (12**2 + 10**2) // 2
    assert orbit_count(G, 2, "injective") == (12 * 11 + 10 * 9) // 2
    monkeypatch.setattr(actions, "DEFAULT_SPACE_CAP", 52)
    for run in (
        lambda: orbit_count(G, 2, "power"),
        lambda: orbit_count(G, 2, "injective"),
        lambda: lemma_equivalence_check(G, G, 2),
    ):
        with pytest.raises(ResourceCapError, match="orbit tree exceeds 156 units"):
            run()


def test_orbit_count_checks_its_mode_at_every_level():
    G = symmetric_action(3)
    for n in (0, 1):
        with pytest.raises(MalformedInputError, match="unknown mode 'bogus'"):
            orbit_count(G, n, "bogus")
        with pytest.raises(MalformedInputError, match="unknown mode 'bogus'"):
            same_orbits(G, G, n, "bogus")
    with pytest.raises(MalformedInputError, match="n=4 exceeds domain size 3 for mode injective"):
        orbit_count(G, 4, "injective")
    assert orbit_count(G, 4, "power") == stirling2(4, 1) + stirling2(4, 2) + stirling2(4, 3)


def test_depth_first_walks_outgrow_the_recursion_limit(monkeypatch):
    # every walk run by `_depth_first` holds its path on a stack of its own,
    # so each goes some 200 levels deep under a limit of 60 more frames
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        # every set is least: the sets 1..200 come first, in 200 units of work
        monkeypatch.setattr(actions, "DEFAULT_SPACE_CAP", 1000)
        with pytest.raises(ResourceCapError):
            actions._least_set_counts(trivial_action(300), 200)
        monkeypatch.undo()
        # the tuples (3, 4, ...) are each fixed by (1 2): depth 199 inside the cap
        G = FiniteAction(300, (perm_from_cycles("(1 2)", 300),))
        with pytest.raises(ResourceCapError):
            actions._descent_counts(G, 200)
        # one level of the rank profile per variable
        (step,) = modlab.parse_chain_file("OI 0 300 : [] : x1\n", modlab.CategoryKind.OI)
        gb = modlab.width_component(modlab.CategoryKind.OI, step, 300, modlab.GREVLEX, 1)
        assert modlab.submodule_dimension_upto(gb, 300, 1) == 1
    finally:
        sys.setrecursionlimit(limit)


def test_is_t_dense_matches_definition():
    # brute force: H is t-dense iff H meets every coset g * G_Gamma
    S4 = symmetric_action(4)
    A4 = FiniteAction(4, (perm_from_cycles("(1 2 3)", 4), perm_from_cycles("(2 3 4)", 4)))
    D4 = FiniteAction(4, (perm_from_cycles("(1 2 3 4)", 4), perm_from_cycles("(1 3)", 4)))
    for H in (A4, D4, S4, trivial_action(4)):
        for t in (1, 2):
            expect = True
            h_set = set(elements(H))
            for size in range(1, t + 1):
                for gamma in combinations(range(1, 5), size):
                    stab = pointwise_stabilizer(S4, gamma)
                    for g in elements(S4):
                        if not any(pmul(g, s) in h_set for s in stab):
                            expect = False
            assert is_t_dense(H, S4, t) == expect


def test_is_t_dense_agrees_with_same_orbits():
    rng = random.Random(13)
    S = symmetric_action(5)
    for _ in range(15):
        H = random_subgroup(rng, 5)
        t = rng.randint(1, 3)
        assert is_t_dense(H, S, t) == same_orbits(S, H, t, "injective")


def test_is_t_dense_matches_the_counting_oracle():
    # is_t_dense compares orbit counts; the oracle compares stabilizer orders
    rng = random.Random(41)
    answers = set()
    for _ in range(60):
        N = rng.randint(2, 7)
        G = random_subgroup(rng, N)
        els = elements(G)
        H = FiniteAction(N, tuple(rng.choice(els) for _ in range(rng.randint(1, 2))))
        t = rng.randint(0, min(4, N))
        got = is_t_dense(H, G, t)
        assert got == is_t_dense_by_counting(H, G, t), (G.generators, H.generators, t)
        answers.add(got)
    assert answers == {True, False}


def test_is_t_dense_requires_subgroup():
    with pytest.raises(MalformedInputError):
        is_t_dense(symmetric_action(4), cyclic_action(4), 1)


def test_subgroup_test_matches_element_lists():
    rng = random.Random(43)
    pairs = []
    for _ in range(60):
        N = rng.randint(1, 6)
        pairs.append((random_subgroup(rng, N), random_subgroup(rng, N, k=1)))
    for G in short_base_groups():
        N, els = G.domain_size, elements(G)
        pairs += [(G, FiniteAction(N, (rng.choice(els),))) for _ in range(10)]
        pairs += [(G, random_subgroup(rng, N, k=1)) for _ in range(10)]
    for G, H in pairs:
        els = set(elements(G))
        assert G.contains_action(H) == all(h in els for h in H.generators), (G.generators, H)
    assert not symmetric_action(4).contains_action(symmetric_action(5))


def test_permutation_module_cosets(monkeypatch):
    # the oracle's cosets, in order, are the names the library gives them
    S4 = symmetric_action(4)
    K = FiniteAction(4, (perm_from_cycles("(1 2)", 4),))
    mod = PermutationModule(S4, K)
    assert len(mod.cosets) == 12
    for g in S4.generators:
        imgs = [mod.act_on_index(g, i) for i in range(12)]
        assert sorted(imgs) == list(range(12))
    monkeypatch.setattr(actions, "DEFAULT_GROUP_ORDER_CAP", 12)
    assert sorted(actions._coset_orbit(S4.generators, K)) == mod.reps
    monkeypatch.setattr(actions, "DEFAULT_GROUP_ORDER_CAP", 11)
    with pytest.raises(ResourceCapError):
        actions._coset_orbit(S4.generators, K)


def test_fullness_witness_nontrivial():
    S4 = symmetric_action(4)
    A4 = FiniteAction(4, (perm_from_cycles("(1 2 3)", 4), perm_from_cycles("(2 3 4)", 4)))
    w = restriction_fullness_witness(S4, A4, A4)
    assert w is not None
    # the witness genuinely separates the indicator map from equivariance
    assert w.lhs != w.rhs
    assert w == oracle_fullness_witness(S4, A4, A4)


def test_fullness_witness_none_when_product_covers():
    S4 = symmetric_action(4)
    A4 = FiniteAction(4, (perm_from_cycles("(1 2 3)", 4), perm_from_cycles("(2 3 4)", 4)))
    K = FiniteAction(4, (perm_from_cycles("(1 2)", 4),))
    assert restriction_fullness_witness(S4, A4, K) is None  # A4 * K = S4
    assert restriction_fullness_witness(S4, S4, A4) is None


def all_subgroups(G):
    """Every subgroup generated by at most two elements, deduplicated; for
    S3 and S4 this is exhaustive (both are 2-generated, as are all their
    subgroups)."""
    els = elements(G)
    seen = {}
    for a in els:
        for b in els:
            H = FiniteAction(G.domain_size, (a, b))
            seen.setdefault(frozenset(elements(H)), H)
    return list(seen.values())


def test_fullness_witness_matches_the_module_oracle():
    triples = [
        (G, H, K)
        for G in (symmetric_action(3), symmetric_action(4))
        for H in all_subgroups(G)
        for K in all_subgroups(G)
    ]
    rng = random.Random(47)
    for _ in range(100):
        N = rng.randint(1, 6)
        G = random_subgroup(rng, N)
        els = elements(G)
        H, K = (FiniteAction(N, tuple(rng.choice(els) for _ in range(rng.randint(1, 2)))) for _ in "HK")
        triples.append((G, H, K))
    for G in short_base_groups():
        els = elements(G)
        for _ in range(10):
            H = FiniteAction(G.domain_size, tuple(rng.choice(els) for _ in range(rng.randint(1, 2))))
            K = FiniteAction(G.domain_size, (rng.choice(els),))  # cyclic
            triples += [(G, H, K), (G, K, H)]
    full = 0
    for G, H, K in triples:
        got = restriction_fullness_witness(G, H, K)
        assert got == oracle_fullness_witness(G, H, K), (G.generators, H.generators, K.generators)
        full += got is None
    assert 0 < full < len(triples)


def test_parse_group_file():
    G = parse_group_file("N=5\n(1 2)(3 4 5)\n[2,1,4,5,3]\n")
    assert G.domain_size == 5
    assert len(G.generators) == 2
    assert G.generators[0] == G.generators[1]
    with pytest.raises(MalformedInputError):
        parse_group_file("(1 2)\n")
    with pytest.raises(MalformedInputError):
        parse_group_file("N=3\n(1 4)\n")
