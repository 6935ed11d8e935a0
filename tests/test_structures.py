"""Unit tests for relational structures, ages, and amalgamation."""

from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from orbitlab.actions import symmetric_action
from orbitlab.categories import _endomorphism_images
from orbitlab import structures
from orbitlab.errors import MalformedInputError, ResourceCapError
from orbitlab.structures import (
    BUILTIN_KINDS,
    AmalgamationProblem,
    BuiltinAge,
    PairAge,
    StructureEmbedding,
    _candidate_universes,
    _embedding_ok,
    _iso_classes,
    _pushout_labels,
    _sap_problems,
    age_for,
    age_has_sap,
    arrangement_structure,
    enumerate_embeddings,
    format_structure,
    make_structure,
    parse_embedding_file,
    parse_structure,
    plain_set_structure,
    solve_amalgamation,
)

from test_actions import canonical_structure


def linear(labels):
    return arrangement_structure("linear", labels)


def canonical_form(s):
    """Isomorphism invariant: minimal relation encoding over relabelings."""
    labels = list(range(len(s.universe)))
    best = None
    for perm in permutations(labels):
        relabel = dict(zip(s.universe, perm))
        enc = tuple(
            (name, tuple(sorted(tuple(relabel[x] for x in t) for t in tuples)))
            for name, tuples in s.relations
        )
        if best is None or enc < best:
            best = enc
    return (len(s.universe), s.signature, best)


def generate_and_test(p, strong=True):
    """Oracle for `solve_amalgamation`: on each candidate universe, build every
    structure of the age and keep the first that restricts to both sides.
    Returns `(delta, g1 images, g2 images)` or None."""
    labels, m1, m2 = _pushout_labels(p)
    for univ, map1, map2 in _candidate_universes(labels, m1, m2, strong):
        img1 = tuple(map1[x] for x in p.gamma1.universe)
        img2 = tuple(map2[x] for x in p.gamma2.universe)
        for delta in p.age.structures_on(univ):
            if _embedding_ok(p.gamma1, delta, img1) and _embedding_ok(p.gamma2, delta, img2):
                return delta, img1, img2
    return None


def test_structure_validation():
    with pytest.raises(MalformedInputError):
        make_structure(("a", "a"), (), {})
    with pytest.raises(MalformedInputError):
        make_structure(("a",), (("r", 2),), {"r": {("a", "b")}})


def test_arrangement_structures():
    s = linear(("a", "b", "c"))
    assert s.relation("lt") == frozenset({("a", "b"), ("a", "c"), ("b", "c")})
    cyc = arrangement_structure("cyclic", (1, 2, 3))
    assert (1, 2, 3) in cyc.relation("cyc")
    assert (2, 1, 3) not in cyc.relation("cyc")
    sep = arrangement_structure("separation", (1, 2, 3, 4))
    assert (1, 3, 2, 4) in sep.relation("sep")
    assert (1, 2, 3, 4) not in sep.relation("sep")


def test_induced_substructure():
    s = linear(("a", "b", "c", "d"))
    t = s.induced(("b", "d"))
    assert t.universe == ("b", "d")
    assert t.relation("lt") == frozenset({("b", "d")})


def test_embeddings_of_linear_orders():
    small = linear(("x", "y"))
    big = linear(("a", "b", "c"))
    embs = enumerate_embeddings(small, big)
    assert [e.images for e in embs] == [("a", "b"), ("a", "c"), ("b", "c")]


def automorphisms(A):
    return enumerate_embeddings(A, A)


def test_automorphism_counts():
    assert len(automorphisms(linear(("a", "b", "c")))) == 1
    assert len(automorphisms(plain_set_structure((1, 2, 3)))) == 6
    assert len(automorphisms(arrangement_structure("cyclic", (1, 2, 3, 4)))) == 4
    assert len(automorphisms(arrangement_structure("separation", (1, 2, 3, 4)))) == 8
    assert len(automorphisms(arrangement_structure("betweenness", (1, 2, 3)))) == 2


def test_canonical_form_is_iso_invariant():
    a = linear(("a", "b", "c"))
    b = arrangement_structure("linear", ("z", "x", "y"))
    assert canonical_form(a) == canonical_form(b)


def fixed_point_condition(action, gamma) -> bool:
    """True iff the pointwise stabilizer of gamma fixes nothing outside it."""
    gamma = set(gamma)
    if not gamma <= set(range(1, action.domain_size + 1)):
        raise MalformedInputError("gamma must be a subset of the domain")
    return action.fixed_points(gamma) == gamma


def test_canonical_structure_and_fixed_points():
    S4 = symmetric_action(4)
    M = canonical_structure(S4, 2)
    # Sym-orbits on pairs: diagonal and off-diagonal
    assert len([r for r in M.signature if r[1] == 2]) == 2
    assert fixed_point_condition(S4, {1, 2})
    S3 = symmetric_action(3)
    assert not fixed_point_condition(S3, {1, 2})  # stabilizer fixes 3


def test_builtin_age_membership():
    age = BuiltinAge("cyclic")
    assert age.contains(arrangement_structure("cyclic", (3, 1, 2)))
    bad = make_structure((1, 2, 3), (("cyc", 3),), {"cyc": {(1, 2, 3)}})
    assert not age.contains(bad)  # a lone cyclic triple is not a cyclic order


def test_restriction_to_a_structure_of_another_signature_allows_nothing():
    labels = ("a", "b", "c")
    sides = [next(age_for(name).structures_on(labels)) for name in ("set", "linear", "separation", "pair")]
    for name in ("set", "linear", "cyclic", "separation", "pair"):
        age = age_for(name)
        for side in sides:
            found = list(age.structures_on(labels, ((labels, side),)))
            assert (found == []) == (side.signature != age.signature), (name, side.signature)


def test_pair_age_membership():
    s = PairAge.from_pairs(("a", "b"), ((1, 2), (2, 1)))
    age = PairAge()
    assert age.contains(s)
    assert ("a", "b") in s.relation("eq_fs")
    # diagonal point forced by eq_ff + eq_ss cannot be denied
    bad = make_structure(
        ("a",),
        PairAge.signature,
        {"diag": set(), "eq_ff": set(), "eq_fs": {("a", "a")}},
    )
    # (a,a) tuples never appear for distinct-pair relations in realizable ones
    assert not age.contains(bad)


def test_pair_age_rejects_reflexive_tuples():
    # slot constraints come from pairs of distinct points; a tuple (a,a)
    # constrains nothing, yet no structure of the age has one
    good = PairAge.from_pairs(("a", "b"), ((0, 1), (2, 3)))
    rels = {name: set(good.relation(name)) for name, _ in PairAge.signature}
    rels["eq_ff"].add(("a", "a"))
    bad = make_structure(("a", "b"), PairAge.signature, rels)
    age = PairAge()
    assert age.contains(good)
    assert not age.contains(bad)
    assert list(age.structures_on(("a", "b"), ((("a", "b"), bad),))) == []


def test_pair_age_structures_on_counts():
    age = PairAge()
    singles = list(age.structures_on(("a",)))
    assert len(singles) == 2  # diagonal or not


def slot_partitions(slots):
    """Every set partition of the slots, as a block index per slot (restricted
    growth strings)."""
    if not slots:
        yield ()
        return
    for head in slot_partitions(slots[:-1]):
        for block in range(max(head, default=-1) + 2):
            yield head + (block,)


def test_pair_age_yields_one_structure_per_partition_with_distinct_pairs():
    # the relations record every equality between two coordinate slots, so
    # no two slot partitions give one structure, and nothing needs dropping
    age = PairAge()
    for k, expected in enumerate((1, 2, 13, 162, 3075)):
        labels = tuple("abcd"[:k])
        with_distinct_pairs = sum(
            1
            for blocks in slot_partitions(tuple(range(2 * k)))
            if len({(blocks[2 * i], blocks[2 * i + 1]) for i in range(k)}) == k
        )
        found = [s.relations for s in age.structures_on(labels)]
        assert len(found) == len(set(found)) == with_distinct_pairs == expected


def test_solve_amalgamation_linear_strong():
    sigma = linear(("s",))
    g1 = linear(("s", "x"))
    g2 = arrangement_structure("linear", ("y", "s"))
    p = AmalgamationProblem(
        sigma,
        g1,
        g2,
        StructureEmbedding(sigma, g1, ("s",)),
        StructureEmbedding(sigma, g2, ("s",)),
        BuiltinAge("linear"),
    )
    am = solve_amalgamation(p, strong=True)
    assert am is not None
    assert len(am.delta.universe) == 3  # pushout: no extra identifications
    # both squares commute over sigma
    assert am.g1.apply(("S", "s") if ("S", "s") in am.g1.mapping else "s") == am.g2.apply("s")


def test_pair_age_weak_but_not_strong():
    # sigma = one off-diagonal point; both sides add the mirror point that is
    # forced to coincide, so the strong (pushout) amalgam fails but a weak
    # amalgam that merges the two private points exists
    age = PairAge()
    sigma = PairAge.from_pairs(("a",), ((0, 1),))
    side = PairAge.from_pairs(("a", "b"), ((0, 1), (1, 0)))
    f = StructureEmbedding(sigma, side, ("a",))
    p = AmalgamationProblem(sigma, side, side, f, f, age)
    assert solve_amalgamation(p, strong=True) is None
    weak = solve_amalgamation(p, strong=False)
    assert weak is not None
    assert len(weak.delta.universe) == 2


def test_age_has_sap_small_caps():
    for name in ("set", "linear", "cyclic"):
        assert age_has_sap(name, 2).holds
    report = age_has_sap("pair", 2)
    assert not report.holds
    cert = report.certificate
    assert len(cert.gamma1.universe) <= 2 and len(cert.gamma2.universe) <= 2


@pytest.mark.parametrize("name", ["set", "linear", "betweenness", "cyclic", "separation", "pair"])
def test_sap_above_the_pushout_cap_stops_as_its_search_would(monkeypatch, name):
    # with the pushout cap at c, the diagrams ({}, Gamma1, Gamma2) amalgamate
    # as disjoint unions until two sides of `size` points outgrow it, so the
    # search fails on that cap once 2 * size > c; age_has_sap raises that
    # error before enumerating
    for cap, size in ((3, 4), (5, 3), (6, 4), (7, 4), (9, 5)):
        if (name, size) == ("pair", 5):
            continue  # the pair age's search to five-point sides takes 80 s
        monkeypatch.setattr(structures, "PUSHOUT_LABEL_CAP", cap)
        with pytest.raises(ResourceCapError) as searched:
            for problem in _sap_problems(age_for(name), size):
                if solve_amalgamation(problem, strong=True) is None:
                    break
        with monkeypatch.context() as patch:
            patch.setattr(structures, "_sap_problems", lambda *_: pytest.fail("enumerated"))
            with pytest.raises(ResourceCapError) as guarded:
                age_has_sap(name, size)
        message = f"pushout universe of size {cap + 1} exceeds cap"
        assert str(guarded.value) == str(searched.value) == message, (cap, size)


def test_amalgam_embeddings_verified():
    age = age_for("betweenness")
    assert age_has_sap(age, 3).holds
    for p in _sap_problems(age, 3):
        am = solve_amalgamation(p)
        assert age.contains(am.delta)
        assert _embedding_ok(p.gamma1, am.delta, am.g1.images)
        assert _embedding_ok(p.gamma2, am.delta, am.g2.images)
        # the square commutes, and the sides meet only in the image of sigma
        over_sigma = {am.g1.apply(p.f1.apply(a)) for a in p.sigma.universe}
        assert over_sigma == {am.g2.apply(p.f2.apply(a)) for a in p.sigma.universe}
        assert set(am.g1.images) & set(am.g2.images) == over_sigma
        assert len(am.delta.universe) == len(set(am.g1.images) | set(am.g2.images))


@pytest.mark.parametrize("name", ["linear", "betweenness", "cyclic", "separation"])
def test_unrestricted_enumeration_is_permutation_order(name):
    age = BuiltinAge(name)
    for n in range(6):
        labels = tuple("abcdef"[:n])
        expected = {}
        for arr in permutations(labels):
            s = arrangement_structure(name, arr)
            expected.setdefault(s.relations, s)
        assert list(age.structures_on(labels)) == list(expected.values())


def inducing_by_filter(age, gamma):
    """Oracle for `BuiltinAge._inducing_arrangement`: every arrangement of
    gamma's universe, filtered by the structure it induces."""
    fits = gamma.signature == age.signature
    return tuple(
        arr
        for arr in (permutations(gamma.universe) if fits else ())
        if arrangement_structure(age.kind_name, arr).relations == gamma.relations
    )


@pytest.mark.parametrize("name", ["set", "linear", "betweenness", "cyclic", "separation"])
def test_inducing_arrangements_by_extension_match_the_filter(name):
    # the first arrangement is the filter's first, and composed with
    # End([n]) it gives every other
    age = BuiltinAge(name)
    for n in range(7):
        labels = tuple(range(1, n + 1))
        by_relations = {}  # one pass of the filter over all n! arrangements
        for arr in permutations(labels):
            by_relations.setdefault(arrangement_structure(name, arr).relations, []).append(arr)
        structures = list(age.structures_on(labels))
        assert len(structures) == len(by_relations)
        ends = _endomorphism_images(BUILTIN_KINDS[name], n)
        for s in structures:
            arr = age._inducing_arrangement(s)
            assert arr == by_relations[s.relations][0], (name, n)
            composed = sorted(tuple(arr[i - 1] for i in g) for g in ends)
            assert composed == by_relations[s.relations], (name, n)
    # structures outside the age: an arrangement's relation with one tuple of
    # a repeated label added, a lone tuple, another signature
    if name != "set":
        (rel, arity), = age.signature
        induced = arrangement_structure(name, (1, 2, 3, 4)).relation(rel)
        for tuples in (induced | {(1,) * arity}, {tuple(range(1, arity + 1))}):
            gamma = make_structure(range(1, 5), ((rel, arity),), {rel: tuples})
            assert age._inducing_arrangement(gamma) is None and inducing_by_filter(age, gamma) == ()
    other = arrangement_structure("cyclic" if name == "linear" else "linear", (1, 2, 3))
    assert age._inducing_arrangement(other) is None and inducing_by_filter(age, other) == ()


def iso_classes_by_canonical_form(age, size):
    """Oracle for `_iso_classes`: the first structure of each
    `canonical_form`, sorted by it, with one `canonical_form` per structure."""
    classes = {}
    for s in age.structures_on(tuple(range(1, size + 1))):
        classes.setdefault(canonical_form(s), s)
    return [classes[k] for k in sorted(classes)]


@pytest.mark.parametrize(
    "name, max_size",
    [("set", 5), ("linear", 5), ("betweenness", 5), ("cyclic", 5), ("separation", 5), ("pair", 4)],
)
def test_iso_classes_match_the_canonical_form_grouping(name, max_size):
    age = age_for(name)
    for size in range(max_size + 1):
        classes = [s for s, _ in _iso_classes(age, size)]
        assert classes == iso_classes_by_canonical_form(age, size)
        if name != "pair":  # a built-in age has one class per size
            assert len(classes) == 1


@pytest.mark.parametrize(
    "name, cap",
    [("set", 2), ("linear", 2), ("betweenness", 2), ("cyclic", 2), ("separation", 2), ("pair", 1)],
)
def test_restricted_enumeration_is_the_filtered_one(name, cap):
    # every structure, not only the first; all weak universes too
    age = age_for(name)
    for p in _sap_problems(age, cap):
        labels, m1, m2 = _pushout_labels(p)
        for univ, map1, map2 in _candidate_universes(labels, m1, m2, strong=False):
            restrictions = tuple(
                (tuple(m[x] for x in g.universe), g) for m, g in ((map1, p.gamma1), (map2, p.gamma2))
            )
            expected = [
                s for s in age.structures_on(univ) if all(_embedding_ok(g, s, img) for img, g in restrictions)
            ]
            assert list(age.structures_on(univ, restrictions)) == expected


@pytest.mark.parametrize(
    "name, cap, weak_side_cap",
    [
        ("set", 3, 3),
        ("linear", 3, 3),
        ("betweenness", 3, 3),
        ("cyclic", 3, 3),
        ("separation", 3, 3),
        ("pair", 2, 1),  # weak brute force on two-point sides takes seconds
    ],
)
def test_search_matches_generate_and_test(name, cap, weak_side_cap):
    age = age_for(name)
    for p in _sap_problems(age, cap):
        weak = max(p.gamma1.size, p.gamma2.size) <= weak_side_cap
        for strong in (True, False) if weak else (True,):
            am = solve_amalgamation(p, strong=strong)
            expected = generate_and_test(p, strong=strong)
            if expected is None:
                assert am is None, (p, strong)
                continue
            assert (am.delta, am.g1.images, am.g2.images) == expected, (p, strong)
            assert _embedding_ok(p.gamma1, am.delta, am.g1.images)
            assert _embedding_ok(p.gamma2, am.delta, am.g2.images)


AGES = ("set", "linear", "betweenness", "cyclic", "separation", "pair")


@pytest.mark.parametrize("name", AGES)
def test_sap_does_each_sides_work_once(monkeypatch, name):
    # one run of the check (the pair age's takes seconds) counts the per-side
    # search data built, per side, and the isomorphism classes listed, per size
    built, listed, sides = Counter(), Counter(), set()
    age = age_for(name)
    if name == "pair":
        real_facts = PairAge._slot_facts
        monkeypatch.setattr(PairAge, "_slot_facts", staticmethod(lambda g: built.update([g]) or real_facts(g)))
    else:
        real_arrangement = BuiltinAge._inducing_arrangement
        monkeypatch.setattr(
            BuiltinAge, "_inducing_arrangement", lambda age, g: built.update([g]) or real_arrangement(age, g)
        )
    real_classes = type(age).iso_classes
    monkeypatch.setattr(type(age), "iso_classes", lambda age, k: listed.update([k]) or real_classes(age, k))
    real_solve = structures.solve_amalgamation
    monkeypatch.setattr(
        structures,
        "solve_amalgamation",
        lambda p, strong=True: sides.update((p.gamma1, p.gamma2)) or real_solve(p, strong),
    )
    age_has_sap(age, 4)
    # every side the search meets is built for once; the set age restricts
    # by signature alone and builds nothing
    assert sides and built == Counter(() if name == "set" else sides)
    # the classes of each size, with their automorphisms, are listed once
    assert listed == Counter(range(5))


def one_point_problems(age, max_base):
    """The one-point diagrams (sigma, sigma+x, sigma+y) with |sigma| <= max_base,
    up to automorphisms of each side: a side gamma keeps one of
    `age.embeddings` of sigma per pullback, gamma's relations read back
    through the embedding with the one point outside its image sent to None.
    Two embeddings into a one-point extension differ by an automorphism of
    it iff their pullbacks are equal."""
    for size in range(max_base + 1):
        extensions = age.iso_classes(size + 1)
        for sigma, _ in age.iso_classes(size):
            sides = []
            for gamma, _ in extensions:
                kept = {}
                for f in age.embeddings(sigma, gamma):
                    back = dict(zip(f.images, sigma.universe))
                    key = tuple(
                        frozenset(tuple(back.get(x) for x in t) for t in ts)
                        for _, ts in gamma.relations
                    )
                    kept.setdefault(key, f)
                sides += [(gamma, f) for f in kept.values()]
            for (gamma1, f1), (gamma2, f2) in product(sides, repeat=2):
                yield AmalgamationProblem(sigma, gamma1, gamma2, f1, f2, age)


@pytest.mark.parametrize("name", AGES)
def test_one_point_diagrams_decide_strong_amalgamation(name):
    # adding the points of a side one at a time reduces every diagram whose
    # pushout has at most 2k points to one-point diagrams over bases of at
    # most 2k - 2 points; on every age they give the verdict of the search
    # over sides of at most k points
    age = age_for(name)
    for k in range(1, 4):
        holds = all(solve_amalgamation(p) is not None for p in one_point_problems(age, 2 * k - 2))
        assert holds == age_has_sap(age, k).holds, (name, k)


REDUCTS = ("set", "linear", "betweenness", "cyclic", "separation")


@pytest.mark.parametrize("name", REDUCTS)
def test_a_reducts_classes_and_embeddings_are_the_relabeled_and_filtered_ones(name):
    # End([n]) and hom([s], [n]) against the relabeling and the injection
    # filter that the pair age still uses
    age = BuiltinAge(name)
    classes = {n: age.iso_classes(n) for n in range(7)}
    for n, listed in classes.items():
        assert listed == _iso_classes(age, n), (name, n)
        ((gamma, _),) = listed
        for s in range(n + 1):
            ((sigma, _),) = classes[s]
            assert age.embeddings(sigma, gamma) == enumerate_embeddings(sigma, gamma), (name, s, n)


def sap_problems_by_relabeling(age, size_cap):
    """Oracle for `_sap_problems`: its loop over `_iso_classes` and
    `enumerate_embeddings`, which any age answers."""
    by_size = {k: _iso_classes(age, k) for k in range(0, size_cap + 1)}
    for s_size in range(0, size_cap + 1):
        for sigma, _ in by_size[s_size]:
            sides = []
            for n in range(s_size, size_cap + 1):
                for gamma, aut in by_size[n]:
                    kept = {}
                    for f in enumerate_embeddings(sigma, gamma):
                        key = min(tuple(p[y - 1] for y in f.images) for p in aut)
                        kept.setdefault(key, f)
                    if kept:
                        sides.append((gamma, list(kept.values())))
            for (gamma1, side1), (gamma2, side2) in product(sides, repeat=2):
                for f1, f2 in product(side1, side2):
                    yield AmalgamationProblem(sigma, gamma1, gamma2, f1, f2, age)


@pytest.mark.parametrize("name", REDUCTS)
def test_a_reducts_problems_are_the_relabeled_and_filtered_ones(name):
    age = BuiltinAge(name)
    for cap in range(1, 6):
        assert list(_sap_problems(age, cap)) == list(sap_problems_by_relabeling(age, cap)), (name, cap)


class Relabeled(Exception):
    pass


def test_only_the_pair_age_relabels_and_filters(monkeypatch):
    def refuse(*_):
        raise Relabeled

    monkeypatch.setattr(structures, "_iso_classes", refuse)
    monkeypatch.setattr(structures, "enumerate_embeddings", refuse)
    for name in REDUCTS:
        assert age_has_sap(name, 5).holds, name
    point = PairAge.from_pairs("a", [(0, 0)])
    for search in (lambda: age_has_sap("pair", 1), lambda: PairAge().embeddings(point, point)):
        with pytest.raises(Relabeled):
            search()


@pytest.mark.parametrize(
    "name, max_size",
    [("set", 4), ("linear", 4), ("betweenness", 4), ("cyclic", 4), ("separation", 4), ("pair", 3)],
)
def test_automorphisms_read_off_the_relabelings_are_the_self_embeddings(name, max_size):
    age = age_for(name)
    for size in range(max_size + 1):
        for s, aut in _iso_classes(age, size):
            assert s.universe == tuple(range(1, size + 1))
            assert aut == [e.images for e in automorphisms(s)], (name, s)


def relabeled(draw, s):
    """s on fresh labels of one drawn family, its universe in a drawn order;
    returns the structure and the relabeling."""
    family = draw(
        st.sampled_from(
            (
                st.integers(-50, 50),
                st.text("abcxyz", min_size=1, max_size=3),
                st.tuples(st.sampled_from("pq"), st.integers(0, 9)),
            )
        )
    )
    fresh = draw(st.lists(family, min_size=s.size, max_size=s.size, unique=True))
    relabel = dict(zip(s.universe, fresh))
    order = draw(st.permutations(s.universe))
    relations = tuple(
        (name, frozenset(tuple(relabel[x] for x in t) for t in tuples)) for name, tuples in s.relations
    )
    return structures.FiniteStructure(tuple(relabel[x] for x in order), s.signature, relations), relabel


_PROBLEMS = {}  # age name -> its `_sap_problems` at a small cap


@st.composite
def relabeled_problems(draw):
    name = draw(st.sampled_from(AGES))
    if name not in _PROBLEMS:
        _PROBLEMS[name] = list(_sap_problems(age_for(name), 2 if name == "pair" else 3))
    p = draw(st.sampled_from(_PROBLEMS[name]))
    sigma, to_sigma = relabeled(draw, p.sigma)
    sides = []
    for f in (p.f1, p.f2):
        gamma, to_gamma = relabeled(draw, f.target)
        images = {to_sigma[a]: to_gamma[b] for a, b in zip(p.sigma.universe, f.images)}
        sides.append((gamma, StructureEmbedding(sigma, gamma, tuple(images[a] for a in sigma.universe))))
    (g1, f1), (g2, f2) = sides
    return name, AmalgamationProblem(sigma, g1, g2, f1, f2, None), draw(st.booleans())


SHARED_AGES = {}  # one age per name, reused by every example


@settings(max_examples=300, deadline=None)
@given(relabeled_problems())
def test_an_age_reused_across_problems_solves_as_a_fresh_one(drawn):
    # the per-side data an age keeps is read in each side's own labels, so
    # sides met before, on other labels or in another order, change nothing
    name, p, strong = drawn
    shared = SHARED_AGES.setdefault(name, age_for(name))

    def solved(age):
        am = solve_amalgamation(p._replace(age=age), strong=strong)
        return am and (am.delta, am.g1.images, am.g2.images)

    assert solved(shared) == solved(age_for(name))


def test_structure_text_round_trip():
    s = linear(("a", "b", "c"))
    assert parse_structure(format_structure(s)) == s
    with pytest.raises(MalformedInputError):
        parse_structure("lt/2: (a,b)")


def test_parse_embedding_file():
    text = """
[source]
universe = a
lt/2:
[target]
universe = a b
lt/2: (a,b)
[map]
a -> a
"""
    e = parse_embedding_file(text)
    assert e.images == ("a",)
    with pytest.raises(MalformedInputError):
        parse_embedding_file("[source]\nuniverse = a\n")
