"""Unit tests for the injection categories, checked against independent
brute-force oracles implemented directly from the relation definitions."""

from itertools import permutations

import pytest

from orbitlab.categories import (
    CategoryKind,
    InjectionMorphism,
    compose,
    endomorphism_group,
    factorize,
    format_morphism,
    hom_set,
    hom_size_formula,
    is_morphism,
    parse_morphism,
)
from orbitlab import categories
from orbitlab.errors import FalsificationError, MalformedInputError, ResourceCapError


# -- oracle: relations written out independently -------------------------------


def oracle_relation(kind, n, t):
    if kind is CategoryKind.FI:
        return False
    if kind is CategoryKind.OI:
        return t[0] < t[1]
    if kind is CategoryKind.BI:
        x, y, z = t
        return (y < x and x < z) or (z < x and x < y)
    if kind is CategoryKind.CI:
        x, y, z = t
        return sorted(((x, y, z), (y, z, x), (z, x, y)))[0] == tuple(sorted(t))
    if kind is CategoryKind.SI:
        x, y, z, w = t
        # walk the circle from x; z and w separated iff exactly one is met
        # before y
        def before_y(c):
            pos = x
            while True:
                pos = pos % n + 1
                if pos == y:
                    return False
                if pos == c:
                    return True

        return before_y(z) != before_y(w)
    raise AssertionError(kind)


ARITY = {
    CategoryKind.FI: 0,
    CategoryKind.OI: 2,
    CategoryKind.BI: 3,
    CategoryKind.CI: 3,
    CategoryKind.SI: 4,
}


def oracle_is_embedding(kind, m, n, image):
    if len(set(image)) != m:
        return False
    a = ARITY[kind]
    if a == 0 or m < a:
        return True
    for t in permutations(range(1, m + 1), a):
        mapped = tuple(image[i - 1] for i in t)
        if oracle_relation(kind, m, t) != oracle_relation(kind, n, mapped):
            return False
    return True


def oracle_hom(kind, m, n):
    return [
        img
        for img in permutations(range(1, n + 1), m)
        if oracle_is_embedding(kind, m, n, img)
    ]


# -- is_morphism ----------------------------------------------------------------


def test_is_morphism_examples():
    assert is_morphism(CategoryKind.OI, 2, 4, (1, 3))
    assert not is_morphism(CategoryKind.OI, 2, 4, (3, 1))
    assert is_morphism(CategoryKind.CI, 3, 4, (2, 3, 1))
    assert is_morphism(CategoryKind.BI, 3, 4, (4, 2, 1))


def test_is_morphism_against_oracle():
    # up to [6], so SI's 4-point condition meets the oracle on 5 and 6 points
    for kind in CategoryKind:
        for n in range(0, 7):
            for m in range(0, n + 1):
                for img in permutations(range(1, n + 1), m):
                    assert is_morphism(kind, m, n, img) == oracle_is_embedding(
                        kind, m, n, img
                    )


def test_canonical_relation_against_oracle():
    for kind in CategoryKind:
        for n in range(0, 9):
            expected = {
                t for t in permutations(range(1, n + 1), ARITY[kind]) if oracle_relation(kind, n, t)
            }
            assert categories.canonical_relation(kind, n) == expected, (kind, n)


def test_is_morphism_malformed_input():
    with pytest.raises(MalformedInputError):
        is_morphism(CategoryKind.OI, 2, 4, (1,))
    with pytest.raises(MalformedInputError):
        is_morphism(CategoryKind.OI, 2, 4, (1, 5))
    with pytest.raises(MalformedInputError):
        is_morphism(CategoryKind.OI, 2, 4, (0, 1))


def test_non_injective_is_false_not_error():
    assert not is_morphism(CategoryKind.FI, 2, 4, (3, 3))


# -- hom sets ----------------------------------------------------------------------


def test_hom_set_examples():
    assert len(hom_set(CategoryKind.FI, 2, 3)) == 6
    assert len(hom_set(CategoryKind.OI, 2, 4)) == 6
    assert len(hom_set(CategoryKind.SI, 4, 5)) == 40
    assert len(hom_set(CategoryKind.FI, 0, 7)) == 1
    assert hom_set(CategoryKind.OI, 3, 2) == []


def test_hom_set_matches_oracle_and_is_sorted():
    for kind in CategoryKind:
        for m in range(0, 7):
            for n in range(m, 7):
                got = [f.image for f in hom_set(kind, m, n)]
                assert got == sorted(oracle_hom(kind, m, n))


def test_built_morphisms_satisfy_is_morphism():
    # hom_set, compose and factorize build morphisms unchecked; check them here
    for kind in CategoryKind:
        for m in range(0, 6):
            for n in range(m, 6):
                homs = hom_set(kind, m, n)
                for f in homs:
                    assert is_morphism(kind, m, n, f.image)
                    eps_prime, g = factorize(f)
                    assert is_morphism(kind, m, n, eps_prime.image)
                    assert is_morphism(kind, m, m, g.image)
                for r in range(n, 6):
                    for f in homs[:4]:
                        for g in hom_set(kind, n, r)[-4:]:
                            assert is_morphism(kind, m, r, compose(f, g).image)


def test_hom_set_cap(monkeypatch):
    def capped(cap, *args):
        monkeypatch.setattr(categories, "DEFAULT_ENUMERATION_CAP", cap)
        return hom_set(*args)

    with pytest.raises(ResourceCapError):
        capped(10, CategoryKind.FI, 5, 9)
    # the cap is on the morphisms built, C(9,5) = 126 here, not on the
    # 9!/4! = 15,120 injections [5] -> [9]
    assert len(capped(126, CategoryKind.OI, 5, 9)) == 126
    with pytest.raises(ResourceCapError, match=r"hom_set\(OI, 5, 9\): 126 "):
        capped(125, CategoryKind.OI, 5, 9)
    assert len(capped(1260, CategoryKind.SI, 5, 9)) == 1260
    with pytest.raises(ResourceCapError):
        capped(1259, CategoryKind.SI, 5, 9)
    # and at ten times the cap on image entries: the 10 CI morphisms
    # [10] -> [10] hold 100, the 11 of [11] -> [11] hold 121
    assert len(capped(10, CategoryKind.CI, 10, 10)) == 10
    with pytest.raises(ResourceCapError, match=r"\(CI, 11, 11\): 121 image entries exceeds cap 110"):
        capped(11, CategoryKind.CI, 11, 11)


def test_negative_objects_are_malformed():
    for kind in CategoryKind:
        for m, n in ((-1, 3), (0, -1), (-2, -1)):
            with pytest.raises(MalformedInputError, match="natural numbers"):
                hom_size_formula(kind, m, n)
            with pytest.raises(MalformedInputError, match="natural numbers"):
                hom_set(kind, m, n)


# -- composition ---------------------------------------------------------------------


def identity(kind, n):
    return InjectionMorphism(kind, n, n, tuple(range(1, n + 1)))


def test_identity_law():
    f = InjectionMorphism(CategoryKind.OI, 2, 4, (1, 3))
    assert compose(identity(CategoryKind.OI, 2), f) == f
    assert compose(f, identity(CategoryKind.OI, 4)) == f


def test_compose_example():
    f = InjectionMorphism(CategoryKind.OI, 2, 3, (1, 3))
    g = InjectionMorphism(CategoryKind.OI, 3, 5, (1, 2, 4))
    assert compose(f, g).image == (1, 4)


def test_compose_mismatch():
    f = InjectionMorphism(CategoryKind.OI, 2, 3, (1, 3))
    g = InjectionMorphism(CategoryKind.OI, 2, 3, (1, 3))
    with pytest.raises(MalformedInputError):
        compose(f, g)
    h = InjectionMorphism(CategoryKind.FI, 3, 4, (1, 2, 3))
    with pytest.raises(MalformedInputError):
        compose(f, h)


def test_bi_reversal_sign_multiplicative():
    rev = InjectionMorphism(CategoryKind.BI, 3, 3, (3, 2, 1))
    assert compose(rev, rev) == identity(CategoryKind.BI, 3)


def test_associativity_random_sample():
    for kind, m in ((CategoryKind.CI, 3), (CategoryKind.SI, 4)):
        gs = hom_set(kind, m + 1, m + 2)[:3]
        hs = hom_set(kind, m + 2, m + 3)[:3]
        for f in hom_set(kind, m, m + 1):
            for g in gs:
                for h in hs:
                    assert compose(compose(f, g), h) == compose(f, compose(g, h))


# -- factorization -----------------------------------------------------------------


def test_factorize_recomposes_everywhere():
    for kind in CategoryKind:
        for m in range(0, 4):
            for n in range(m, 5):
                for f in hom_set(kind, m, n):
                    eps_prime, g = factorize(f)
                    assert eps_prime.image == tuple(sorted(eps_prime.image))
                    assert frozenset(eps_prime.image) == frozenset(f.image)
                    assert g.source == g.target == m
                    assert compose(g, eps_prime) == f


def test_factorize_rejects_a_bad_factor(monkeypatch):
    # an unchecked non-morphism: its g = (2, 1) is not an OI endomorphism
    with pytest.raises(FalsificationError, match="non-endomorphism"):
        factorize(InjectionMorphism(CategoryKind.OI, 2, 3, (3, 1)))
    # the lemma makes every increasing injection a morphism, so a bad eps'
    # needs a predicate that says otherwise
    monkeypatch.setattr(categories, "_is_morphism", lambda kind, m, n, image: m == n)
    with pytest.raises(FalsificationError, match="non-morphism eps'"):
        factorize(InjectionMorphism(CategoryKind.CI, 3, 4, (2, 3, 1)))


def test_factorize_uniqueness():
    # the pairing (increasing injection, endomorphism) -> morphism is injective
    kind = CategoryKind.CI
    seen = {}
    for f in hom_set(kind, 3, 5):
        key = factorize(f)
        assert key not in seen
        seen[key] = f


# -- endomorphism groups ---------------------------------------------------------------


def test_endomorphism_group_sizes():
    assert len(endomorphism_group(CategoryKind.FI, 3)) == 6
    assert len(endomorphism_group(CategoryKind.OI, 5)) == 1
    assert len(endomorphism_group(CategoryKind.BI, 3)) == 2
    assert len(endomorphism_group(CategoryKind.CI, 3)) == 3
    assert len(endomorphism_group(CategoryKind.SI, 4)) == 8


@pytest.mark.parametrize("kind", list(CategoryKind))
def test_endomorphism_closed_forms_match_the_permutation_filter(kind):
    for m in range(8):
        expected = tuple(g for g in permutations(range(1, m + 1)) if is_morphism(kind, m, m, g))
        assert categories._endomorphism_images(kind, m) == expected, (kind, m)
        assert len(expected) == hom_size_formula(kind, m, m)


def pattern_ok(kind, a, sigma):
    """Whether an injection whose a points take the order pattern sigma
    preserves and reflects the relation: p in R_a iff sigma o p in R_a, over
    the patterns p in S_a, with R_a filtered through `in_relation`."""
    patterns = list(permutations(range(1, a + 1)))
    relation = {p for p in patterns if categories.in_relation(kind, a, p)}
    return all((p in relation) == (tuple(sigma[i - 1] for i in p) in relation) for p in patterns)


@pytest.mark.parametrize("kind", list(CategoryKind))
def test_allowed_patterns_on_the_arity_are_the_endomorphisms(kind):
    # `is_morphism` looks each a-subset's pattern up in End([a])
    a = ARITY[kind]
    ends = set(categories._endomorphism_images(kind, a))
    for sigma in permutations(range(1, a + 1)):
        assert (sigma in ends) == pattern_ok(kind, a, sigma), sigma


def test_endomorphism_groups_are_groups():
    for kind in CategoryKind:
        for n in range(0, 6):
            ends = endomorphism_group(kind, n)
            elems = {e.image for e in ends}
            assert identity(kind, n).image in elems
            for a in ends:
                inverse = tuple(sorted(range(1, n + 1), key=lambda i: a.image[i - 1]))
                assert inverse in elems
                for b in ends:
                    assert compose(a, b).image in elems


def test_si_endomorphisms_are_dihedral():
    ends = {e.image for e in endomorphism_group(CategoryKind.SI, 4)}
    rot = (2, 3, 4, 1)
    ref = (4, 3, 2, 1)
    group = {(1, 2, 3, 4)}
    frontier = [(1, 2, 3, 4)]
    while frontier:
        new = []
        for g in frontier:
            for h in (rot, ref):
                c = tuple(h[v - 1] for v in g)
                if c not in group:
                    group.add(c)
                    new.append(c)
        frontier = new
    assert ends == group


# -- serialization ------------------------------------------------------------------


def test_morphism_round_trip():
    for kind in CategoryKind:
        for m, n in ((0, 3), (1, 4), (2, 4)):
            for f in hom_set(kind, m, n):
                assert parse_morphism(format_morphism(f)) == f
    assert format_morphism(hom_set(CategoryKind.FI, 0, 3)[0]) == "FI 0->3 : []"
    assert format_morphism(hom_set(CategoryKind.CI, 1, 4)[2]) == "CI 1->4 : [3]"


@pytest.mark.parametrize("kind", list(CategoryKind))
def test_factorize_hypothesis(kind):
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def run(data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        m = data.draw(st.integers(min_value=0, max_value=n))
        image = tuple(
            data.draw(
                st.permutations(range(1, n + 1)).map(lambda p: p[:m])
            )
        )
        if not is_morphism(kind, m, n, image):
            return
        f = InjectionMorphism(kind, m, n, image)
        eps_prime, g = factorize(f)
        assert compose(g, eps_prime) == f
        assert eps_prime.image == tuple(sorted(eps_prime.image))

    run()


def test_parse_morphism_rejects_garbage():
    with pytest.raises(MalformedInputError):
        parse_morphism("XX 2->3 : [1,2]")
    with pytest.raises(MalformedInputError):
        parse_morphism("OI 2->3 [1,2]")
    with pytest.raises(MalformedInputError):
        parse_morphism("OI 2->3 : [3,1]")
