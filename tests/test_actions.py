"""Unit tests for permutation actions, growth functions, density and the
restriction-fullness witness.  Group-theoretic facts are cross-checked by
explicit element enumeration inside the tests."""

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial

import pytest

from orbitlab import actions
from orbitlab.actions import (
    FiniteAction,
    PermutationModule,
    growth_profile,
    identity_perm,
    is_t_dense,
    lemma_equivalence_check,
    mulclose,
    orbit_count,
    orbits,
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


def cyclic_action(n):
    return FiniteAction(n, (tuple(list(range(2, n + 1)) + [1]),))


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
    groups = small_groups() + [random_subgroup(rng, rng.randint(1, 6)) for _ in range(40)]
    for G in groups:
        assert G.order() == len(mulclose(G.generators, G.domain_size)), G.generators


def test_order_above_the_cap_lists_no_elements():
    A6 = FiniteAction(6, tuple(perm_from_cycles(f"(1 2 {k})", 6) for k in range(3, 7)))
    assert A6.order() == 360
    S8, S10 = symmetric_action(8), symmetric_action(10)
    assert S8.order() == 40320
    assert S10.order() == 3628800
    assert S10.fixed_points((1, 2)) == {1, 2}
    assert len(S10.orbit_transversal((1, 2))) == 90
    assert not S8._elements and not S10._elements
    with pytest.raises(ResourceCapError):
        S8.elements()  # listing elements still stops at the cap
    with pytest.raises(ResourceCapError):
        S8.orbit_transversal(tuple(range(1, 8)))  # so do tuple orbits


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
    for G in small_groups():
        N = G.domain_size
        els = G.elements()
        for size in range(N + 1):
            for gamma in combinations(range(1, N + 1), size):
                want = [g for g in els if all(g[x - 1] == x for x in gamma)]
                assert G.pointwise_stabilizer(gamma) == want
                assert G.pointwise_stabilizer(tuple(reversed(gamma))) == want
                assert G.pointwise_stabilizer(set(gamma)) == want
                assert G.pointwise_stabilizer(gamma + gamma[:1]) == want
        with pytest.raises(MalformedInputError):
            G.pointwise_stabilizer((N + 1,))


def test_pointwise_stabilizer_returns_a_fresh_list():
    S4 = symmetric_action(4)
    S4.pointwise_stabilizer((1,)).clear()
    assert len(S4.pointwise_stabilizer((1,))) == 6
    assert len(S4.pointwise_stabilizer((1, 2))) == 2


def test_orbit_transversal_matches_filter():
    for G in small_groups():
        N = G.domain_size
        els = G.elements()
        for size in range(min(N, 3) + 1):
            for pts in permutations(range(1, N + 1), size):
                transversal = G.orbit_transversal(pts)
                assert set(transversal) == {tuple(g[x - 1] for x in pts) for g in els}
                for image, u in transversal.items():
                    assert tuple(u[x - 1] for x in pts) == image
                    assert u in els
        with pytest.raises(MalformedInputError):
            G.orbit_transversal((N + 1,))


def test_fixed_points_match_filter():
    for G in small_groups():
        N = G.domain_size
        els = G.elements()
        for size in range(N + 1):
            for gamma in combinations(range(1, N + 1), size):
                stab = [g for g in els if all(g[x - 1] == x for x in gamma)]
                want = {x for x in range(1, N + 1) if all(g[x - 1] == x for g in stab)}
                assert G.fixed_points(gamma) == want
                assert G.fixed_points(tuple(reversed(gamma))) == want
                assert G.fixed_points(gamma + gamma[:1]) == want
        with pytest.raises(MalformedInputError):
            G.fixed_points((1, N + 1))


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


def test_lemma_check_enumerates_each_level_once(monkeypatch):
    calls = []

    def counting_orbits(action, n, mode="injective", *rest):
        calls.append((n, mode))
        return orbits(action, n, mode, *rest)

    monkeypatch.setattr(actions, "orbits", counting_orbits)
    S4 = symmetric_action(4)
    report = lemma_equivalence_check(S4, S4, 3)
    assert report.consistent and report.cond1
    # levels 1..3, two modes, two groups
    assert len(calls) == 12


def test_is_t_dense_matches_definition():
    # brute force: H is t-dense iff H meets every coset g * G_Gamma
    S4 = symmetric_action(4)
    A4 = FiniteAction(4, (perm_from_cycles("(1 2 3)", 4), perm_from_cycles("(2 3 4)", 4)))
    D4 = FiniteAction(4, (perm_from_cycles("(1 2 3 4)", 4), perm_from_cycles("(1 3)", 4)))
    for H in (A4, D4, S4, trivial_action(4)):
        for t in (1, 2):
            expect = True
            h_set = H.element_set()
            for size in range(1, t + 1):
                for gamma in combinations(range(1, 5), size):
                    stab = S4.pointwise_stabilizer(gamma)
                    for g in S4.elements():
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


def test_is_t_dense_requires_subgroup():
    with pytest.raises(MalformedInputError):
        is_t_dense(symmetric_action(4), cyclic_action(4), 1)


def test_permutation_module_cosets():
    S4 = symmetric_action(4)
    K = FiniteAction(4, (perm_from_cycles("(1 2)", 4),))
    mod = PermutationModule.build(S4, K)
    assert len(mod.cosets) == 12
    for g in S4.generators:
        imgs = [mod.act_on_index(g, i) for i in range(12)]
        assert sorted(imgs) == list(range(12))


def test_fullness_witness_nontrivial():
    S4 = symmetric_action(4)
    A4 = FiniteAction(4, (perm_from_cycles("(1 2 3)", 4), perm_from_cycles("(2 3 4)", 4)))
    w = restriction_fullness_witness(S4, A4, A4)
    assert w is not None
    # the witness genuinely separates the indicator map from equivariance
    mod = PermutationModule.build(S4, A4)
    assert w.lhs != w.rhs


def test_fullness_witness_none_when_product_covers():
    S4 = symmetric_action(4)
    A4 = FiniteAction(4, (perm_from_cycles("(1 2 3)", 4), perm_from_cycles("(2 3 4)", 4)))
    K = FiniteAction(4, (perm_from_cycles("(1 2)", 4),))
    assert restriction_fullness_witness(S4, A4, K) is None  # A4 * K = S4
    assert restriction_fullness_witness(S4, S4, A4) is None


def test_parse_group_file():
    G = parse_group_file("N=5\n(1 2)(3 4 5)\n[2,1,4,5,3]\n")
    assert G.domain_size == 5
    assert len(G.generators) == 2
    assert G.generators[0] == G.generators[1]
    with pytest.raises(MalformedInputError):
        parse_group_file("(1 2)\n")
    with pytest.raises(MalformedInputError):
        parse_group_file("N=3\n(1 4)\n")
