"""Acceptance suite: eight property gates over finite truncations.

Each criterion prints a single PASS/FAIL line (run pytest with -s to see
them live; they also appear in captured output).  Oracles are independent
of the library code paths they check: raw injection filtering, exhaustive
partition counting, explicit coset products, brute-force equivariant maps,
and dense linear algebra.
"""

import random
import time
from itertools import combinations, permutations

from orbitlab.actions import (
    FiniteAction,
    growth_profile,
    is_t_dense,
    lemma_equivalence_check,
    pmul,
    restriction_fullness_witness,
    stirling2,
    symmetric_action,
)
from orbitlab.categories import (
    CategoryKind,
    InjectionMorphism,
    compose,
    factorize,
    hom_set,
    hom_size_formula,
)
from orbitlab.modlab import chain_experiment, groebner_basis
from orbitlab.orbitcat import phi_iso_report
from orbitlab.polynomials import GREVLEX, CoefficientField, QQ, parse_polynomial
from orbitlab.structures import age_has_sap

from test_actions import elements
from test_categories import oracle_hom
from test_modlab import ideal_gen, la_member, random_vector
from test_orbitcat import OrbitCategory, oracle_equivariant_map_count


def _report(num, desc):
    class _Ctx:
        def __enter__(self):
            self.t0 = time.monotonic()
            return self

        def __exit__(self, exc_type, exc, tb):
            dt = time.monotonic() - self.t0
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"[criterion {num}] {desc}: {verdict} ({dt:.1f}s)")
            return False

    return _Ctx()


def test_criterion_1_hom_counts():
    with _report(1, "hom-set sizes match closed forms and raw filtering") as ctx:
        for kind in CategoryKind:
            for m in range(0, 7):
                for n in range(m, 7):
                    enumerated = hom_set(kind, m, n)
                    assert len(enumerated) == hom_size_formula(kind, m, n)
                    if n <= 5:  # oracle re-derives the relations from scratch
                        assert enumerated == sorted(
                            oracle_hom(kind, m, n)
                        )
        assert time.monotonic() - ctx.t0 < 10


def test_criterion_2_factorization_bijection():
    with _report(2, "(eps', g) -> eps' o g is a bijection onto each hom-set"):
        for kind in CategoryKind:
            for m in range(0, 7):
                ends = [InjectionMorphism(kind, m, m, g) for g in hom_set(kind, m, m)]
                for n in range(m, 7):
                    homs = hom_set(kind, m, n)
                    built = set()
                    for image_set in combinations(range(1, n + 1), m):
                        eps_prime = InjectionMorphism(kind, m, n, image_set)
                        for g in ends:
                            f = compose(g, eps_prime)
                            assert f.image not in built  # injective pairing
                            built.add(f.image)
                            # factorize inverts the pairing exactly
                            assert factorize(f) == (eps_prime, g)
                    assert built == set(homs)  # surjective pairing


def _random_action(rng, n, gens=2):
    base = list(permutations(range(1, n + 1)))
    return FiniteAction(n, tuple(rng.choice(base) for _ in range(gens)))


def _exhaustive_partition_count(action, n):
    """Oracle orbit count on [N]^n: explicit union-find over all tuples."""
    from itertools import product as iproduct

    N = action.domain_size
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tuples = list(iproduct(range(1, N + 1), repeat=n))
    for t in tuples:
        parent[t] = t
    for t in tuples:
        for g in action.generators:
            u = tuple(g[x - 1] for x in t)
            ra, rb = find(t), find(u)
            if ra != rb:
                parent[ra] = rb
    return len({find(t) for t in tuples})


def test_criterion_3_growth():
    with _report(3, "Sym([8]) growth profile and Stirling identity") as ctx:
        p = growth_profile(symmetric_action(8), 4)
        assert p.f == (1, 1, 1, 1)
        assert p.F == (1, 1, 1, 1)
        assert p.F_star == (1, 2, 5, 15)
        rng = random.Random(2024)
        for _ in range(20):
            N = rng.randint(2, 7)
            G = _random_action(rng, N)
            max_n = min(4, N)
            prof = growth_profile(G, max_n)
            for n in range(1, max_n + 1):
                formula = sum(
                    stirling2(n, i) * prof.F[i - 1] for i in range(1, n + 1)
                )
                direct = _exhaustive_partition_count(G, n)
                assert prof.F_star[n - 1] == formula == direct
        assert time.monotonic() - ctx.t0 < 30


def test_criterion_4_same_orbits_lemma():
    with _report(4, "lemma conditions consistent; density matches orbits"):
        rng = random.Random(99)
        triples = 0
        while triples < 50:
            N = rng.randint(2, 7)
            G = _random_action(rng, N)
            n = rng.randint(1, min(4, N))
            # H generated by random elements of G, hence a genuine subgroup
            els = elements(G)
            H = FiniteAction(N, tuple(rng.choice(els) for _ in range(2)))
            report = lemma_equivalence_check(G, H, n)
            assert report.consistent, report.witness
            # cond2: G and H have the same orbits on injective n-tuples
            assert is_t_dense(H, G, n) == report.cond2
            triples += 1


def _all_subgroups(G):
    """Every subgroup generated by at most two elements, deduplicated; for
    S3 and S4 this is exhaustive (both are 2-generated, as are all their
    subgroups)."""
    els = elements(G)
    seen = {}
    for a in els:
        for b in els:
            H = FiniteAction(G.domain_size, (a, b))
            key = frozenset(elements(H))
            seen.setdefault(key, H)
    return list(seen.values())


def test_criterion_5_restriction_fullness():
    with _report(5, "fullness witness iff HK != G over all subgroup pairs"):
        for N in (3, 4):
            G = symmetric_action(N)
            subgroups = _all_subgroups(G)
            g_els = set(elements(G))
            for H in subgroups:
                for K in subgroups:
                    hk = {pmul(h, k) for h in elements(H) for k in elements(K)}
                    witness = restriction_fullness_witness(G, H, K)
                    if hk == g_els:
                        assert witness is None
                    else:
                        assert witness is not None
                        assert witness.lhs != witness.rhs


def test_criterion_6_sap():
    with _report(6, "SAP holds for built-in ages, fails for the pair age") as ctx:
        for name in ("set", "linear", "betweenness", "cyclic", "separation"):
            assert age_has_sap(name, 4).holds, name
        report = age_has_sap("pair", 2)
        assert not report.holds
        cert = report.certificate
        assert len(cert.gamma1.universe) <= 2
        assert len(cert.gamma2.universe) <= 2
        assert time.monotonic() - ctx.t0 < 60


def test_criterion_7_orbit_category():
    with _report(7, "phi iso report on S7/S3; report and orbit-category hom vs brute force"):
        assert phi_iso_report(symmetric_action(7), 2).passed
        s3 = phi_iso_report(symmetric_action(3), 2)
        assert not s3.passed
        assert (1, 2) in s3.fixed_point_violations
        assert s3.consistent_with_fixed_points
        groups = [
            symmetric_action(5),  # order 120
            symmetric_action(4),
            FiniteAction(4, ((2, 3, 4, 1),)),
            FiniteAction(4, ((2, 3, 4, 1), (4, 3, 2, 1))),
            FiniteAction(5, ((2, 3, 4, 5, 1),)),
        ]
        for G in groups:
            cat = OrbitCategory(G)
            report = phi_iso_report(G, 2)
            index = {frozenset(s): i for i, s in enumerate(report.objects)}
            N = G.domain_size
            subsets = [
                frozenset(c) for k in (1, 2) for c in combinations(range(1, N + 1), k)
            ]
            for src in subsets:
                for tgt in subsets:
                    want = oracle_equivariant_map_count(G, src, tgt)
                    assert len(cat.hom(cat.object(src), cat.object(tgt))) == want
                    assert report.hom_counts[index[src]][index[tgt]] == want


def test_criterion_8_module_lab():
    with _report(8, "Groebner vs linear algebra, rank identity, chains") as ctx:
        # membership oracle agreement, both fields
        rng = random.Random(7777)
        fields = [QQ, CoefficientField(7)]
        checked = 0
        while checked < 100:
            field = fields[checked % 2]
            width = rng.randint(1, 3)
            rank = rng.randint(1, 2)
            gens = [random_vector(rng, width, rank, field) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            gb = groebner_basis(gens, GREVLEX)
            v = random_vector(rng, width, rank, field, degree=3)
            assert gb.contains(v) == la_member(v, gens, 9, field)
            checked += 1
        # rank identity
        for kind in CategoryKind:
            for n in range(0, 7):
                e = len(hom_set(kind, n, n))
                for s in range(n, 7):
                    assert len(hom_set(kind, n, s)) == e * len(
                        hom_set(CategoryKind.OI, n, s)
                    )
        # documented chains stabilize with a width-uniform index
        OI = CategoryKind.OI
        FI = CategoryKind.FI
        g1 = ideal_gen(OI, 1, "x1^2")
        g2 = ideal_gen(OI, 2, "x1*x2")
        g3 = ideal_gen(OI, 1, "x1")
        oi_rep = chain_experiment(OI, [[g1], [g1, g2], [g1, g2, g3]], 4, 3)
        assert oi_rep.all_stabilized and oi_rep.width_uniform_index
        assert all(r.first_stable_index == 3 for r in oi_rep.results)
        ps = [
            ideal_gen(FI, k, "+".join(f"x{i}^{k}" for i in range(1, k + 1)))
            for k in range(1, 5)
        ]
        fi_rep = chain_experiment(FI, [ps[:i] for i in range(1, 5)], 4, 4)
        assert fi_rep.all_stabilized and fi_rep.width_uniform_index
        assert all(r.first_stable_index == 1 for r in fi_rep.results)
        assert time.monotonic() - ctx.t0 < 300
