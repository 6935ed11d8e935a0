"""Unit tests for the module laboratory, with an independent linear-algebra
membership oracle (Gaussian elimination over the exact field on a bounded
slice of the free module)."""

import random
from collections import deque
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from orbitlab import categories, modlab
from orbitlab.categories import CategoryKind, InjectionMorphism, compose, hom_set
from orbitlab.errors import MalformedInputError, ResourceCapError
from orbitlab.modlab import (
    DEFAULT_PAIR_CAP,
    GroebnerBasis,
    ModuleVector,
    apply_morphism,
    chain_experiment,
    groebner_basis,
    parse_chain_file,
    parse_element_line,
    restriction_decomposition_check,
    submodule_dimension_upto,
    width_component,
    _add_multiple,
    _coords,
    _head,
    _leads,
    _reduce,
    _reduce_basis,
)
from orbitlab.polynomials import (
    GREVLEX,
    LEX,
    CoefficientField,
    QQ,
    monomial_degree,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    parse_polynomial,
)

OI = CategoryKind.OI
FI = CategoryKind.FI


# -- linear-algebra oracle -------------------------------------------------------


def monomials_upto(width, degree):
    out = [(0,) * width]
    frontier = out[:]
    for _ in range(degree):
        new = []
        for m in frontier:
            for i in range(width):
                cand = tuple(e + (1 if j == i else 0) for j, e in enumerate(m))
                if cand not in new:
                    new.append(cand)
        frontier = [m for m in new if m not in out]
        out.extend(frontier)
    return out


def la_span(generators, bound, field):
    """Membership test for the span of all monomial multiples of the
    generators staying within the degree bound: Gaussian elimination, no
    Groebner machinery.  The elimination is done once, here, and the test
    carries the span's dimension as `dimension`."""
    coords = {}

    def coord(key):
        return coords.setdefault(key, len(coords))

    def reduce(row, pivots):
        row = {c: x for c, x in row.items() if x != field.zero}
        while row:
            lead = min(row)
            if lead not in pivots:
                return row
            factor = row[lead]
            for c2, v2 in pivots[lead].items():
                row[c2] = field.add(row.get(c2, field.zero), field.neg(field.mul(factor, v2)))
            row = {c: x for c, x in row.items() if x != field.zero}
        return row

    pivots = {}
    for g in generators:
        gdeg = max((monomial_degree(m) for _, m in g.terms), default=0)
        if gdeg > bound:
            continue
        for m in monomials_upto(g.width, bound - gdeg):
            shifted = shift(g, m, 1, field)
            row = reduce({coord(k): c for k, c in shifted.items()}, pivots)
            if row:
                lead = min(row)
                inv = field.inv(row[lead])
                pivots[lead] = {c: field.mul(x, inv) for c, x in row.items()}

    def member(v):
        return not reduce({coord(k): c for k, c in v.terms.items()}, pivots)

    member.dimension = len(pivots)
    return member


def la_member(v, generators, bound, field):
    """Is v in the span of all monomial multiples of the generators staying
    within the degree bound?"""
    return la_span(generators, bound, field)(v)


def oracle_groebner_basis(generators, order, degree_cap=None, pair_cap=DEFAULT_PAIR_CAP):
    """The engine without pair criteria: every pair of vectors, first in,
    first out, counted against `pair_cap` as it leaves the queue; pairs of
    different leading positions are skipped, and pairs above the degree cap
    dropped with the result flagged."""
    basis = [g for g in generators if not g.is_zero()]
    heads = [_head(g, order) for g in basis]
    leads = _leads(basis, heads)
    capped = False
    pairs = deque((i, j) for i in range(len(basis)) for j in range(i + 1, len(basis)))
    processed = 0
    while pairs:
        processed += 1
        if processed > pair_cap:
            raise ResourceCapError(f"S-pair queue exceeded cap {pair_cap}")
        i, j = pairs.popleft()
        (pi_, mi, inv_i), (pj_, mj, inv_j) = heads[i], heads[j]
        if pi_ != pj_:
            continue
        lcm = monomial_lcm(mi, mj)
        if degree_cap is not None and monomial_degree(lcm) > degree_cap:
            capped = True
            continue
        gi, gj = basis[i], basis[j]
        f = gi.field
        s = {}
        _add_multiple(s, gi, monomial_div(lcm, mi), inv_i)
        _add_multiple(s, gj, monomial_div(lcm, mj), f.neg(inv_j))
        r = _reduce(s, leads, order, f)
        if r:
            r = ModuleVector(gi.width, f, r)
            head = _head(r, order)
            basis.append(r)
            heads.append(head)
            leads.setdefault(head[0], []).append((head[1], head[2], r))
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    return GroebnerBasis(_reduce_basis(basis, heads, order), order, capped)


def homogenize(v):
    """v with one more variable h, last in each monomial, raising every term
    to the top degree of v."""
    top = max((monomial_degree(m) for _, m in v.terms), default=0)
    terms = {(pos, m + (top - monomial_degree(m),)): c for (pos, m), c in v.terms.items()}
    return vec(v.width + 1, v.field, terms)


def oracle_dimension_upto(gb, width, degree):
    """`submodule_dimension_upto` by listing the monomials of degree <=
    `degree` at each position holding a leading term."""
    leads = {}
    for g in gb.vectors:
        (pos, mono), _ = g.leading(gb.order)
        leads.setdefault(pos, []).append(mono)
    return sum(
        1
        for monos in leads.values()
        for mono in monomials_upto(width, degree)
        if any(monomial_divides(m, mono) for m in monos)
    )


# -- Groebner engine -------------------------------------------------------------


def vec(width, field, terms):
    """ModuleVector from a flat map (position, monomial) -> coefficient, its
    zero coefficients dropped."""
    coords = {}
    for (pos, mono), c in terms.items():
        if c:
            coords.setdefault(pos, {})[mono] = c
    return ModuleVector(width, field, coords)


def shift(g, mono, c, field):
    """The flat terms of c * mono * g, for a nonzero c."""
    return {
        (pos, tuple(a + b for a, b in zip(m, mono))): field.mul(gc, c)
        for (pos, m), gc in g.terms.items()
    }


def add_terms(field, *summands):
    """The sum of flat term maps, zero coefficients included."""
    total = {}
    for terms in summands:
        for key, c in terms.items():
            total[key] = field.add(total.get(key, field.zero), c)
    return total


def test_groebner_ideal_examples():
    # {x^2 - 1, x - 1} -> {x - 1}
    f = vec(1, QQ, {(0, (2,)): 1, (0, (0,)): -1})
    g = vec(1, QQ, {(0, (1,)): 1, (0, (0,)): -1})
    gb = groebner_basis([f, g], LEX)
    assert [v.terms for v in gb.vectors] == [g.terms]


def test_groebner_lex_textbook():
    # {xy - 1, y^2 - 1} lex x>y -> {x - y, y^2 - 1}
    a = vec(2, QQ, {(0, (1, 1)): 1, (0, (0, 0)): -1})
    b = vec(2, QQ, {(0, (0, 2)): 1, (0, (0, 0)): -1})
    gb = groebner_basis([a, b], LEX)
    got = {frozenset(v.terms.items()) for v in gb.vectors}
    want = {
        frozenset({((0, (1, 0)), Fraction(1)), ((0, (0, 1)), Fraction(-1))}),
        frozenset({((0, (0, 2)), Fraction(1)), ((0, (0, 0)), Fraction(-1))}),
    }
    assert got == want


def test_groebner_single_module_term():
    v = vec(1, QQ, {(0, (1,)): 1})
    gb = groebner_basis([v], GREVLEX)
    assert [w.terms for w in gb.vectors] == [v.terms]


@pytest.mark.parametrize("field", [QQ, CoefficientField(7)])
@pytest.mark.parametrize("cap", [None, 3, 5])
def test_monomial_generators_reduce_no_s_pair(monkeypatch, field, cap):
    # the S-polynomial of two single-term vectors is 0, so no pair of them
    # is reduced; the degree cap still sees every pair first
    calls = []

    def recording(*args):
        calls.append(args)
        return add_multiple(*args)

    add_multiple = modlab._add_multiple
    monkeypatch.setattr(modlab, "_add_multiple", recording)
    quadratic = [m for m in monomials_upto(5, 2) if monomial_degree(m) == 2]
    monos = quadratic + [(1, 1, 1, 0, 0)]  # x1*x2 divides the last one
    gb = groebner_basis([vec(5, field, {(0, m): field.coerce(3)}) for m in monos], GREVLEX, cap)
    assert calls == []
    assert [v.terms for v in gb.vectors] == [{(0, m): 1} for m in sorted(quadratic)]
    assert gb.degree_capped == any(
        cap is not None and monomial_degree(monomial_lcm(u, v)) > cap for u, v in combinations(monos, 2)
    )


def test_generators_reduce_to_zero():
    rng = random.Random(3)
    for _ in range(10):
        gens = [random_vector(rng, 2, 2, QQ) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        gb = groebner_basis(gens, GREVLEX)
        for g in gens:
            assert gb.contains(g)


def random_vector(rng, width, rank, field, degree=2):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = tuple(rng.randint(0, degree) for _ in range(width))
        if monomial_degree(mono) > degree:
            continue
        pos = rng.randrange(rank)
        terms[(pos, mono)] = field.coerce(rng.randint(-3, 3))
    return vec(width, field, terms)


def test_membership_vs_linear_algebra_oracle():
    rng = random.Random(42)
    fields = [QQ, CoefficientField(5)]
    agree = 0
    for trial in range(120):
        if agree >= 100:
            break
        field = fields[trial % 2]
        width = rng.randint(1, 3)
        rank = rng.randint(1, 2)
        gens = [random_vector(rng, width, rank, field) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = groebner_basis(gens, GREVLEX)
        if trial % 3 == 0:
            # guaranteed member: a random combination of the generators
            multiples = []
            for g in gens:
                mono = tuple(rng.randint(0, 1) for _ in range(width))
                multiples.append(shift(g, mono, field.coerce(rng.randint(1, 2)), field))
            v = vec(width, field, add_terms(field, *multiples))
        else:
            v = random_vector(rng, width, rank, field, degree=3)
        vdeg = max((monomial_degree(m) for _, m in v.terms), default=0)
        gdeg = max(max((monomial_degree(m) for _, m in g.terms), default=0) for g in gens)
        # generous slack: combinations witnessing membership may pass through
        # degrees above deg(v) before cancelling
        bound = max(vdeg, gdeg) + 6
        assert gb.contains(v) == la_member(v, gens, bound, field), (trial, v.terms)
        agree += 1
    assert agree >= 100


def test_pair_criteria_against_the_criteria_free_engine():
    # widths 1-3, one to three positions, vectors of one coordinate (where
    # the product criterion applies) or of several, homogeneous (where the
    # criteria also run under a degree cap) or not, Q and F7, lex and grevlex;
    # from trial 400 on, single-term generators (whose S-polynomials are 0):
    # all of them in even trials, about half of them in odd ones
    rng = random.Random(5)
    F7 = CoefficientField(7)
    capped = 0
    for trial in range(600):
        field = (QQ, F7)[trial % 2]
        order = (GREVLEX, LEX)[trial // 2 % 2]
        homogeneous = trial // 4 % 2
        width, rank = rng.randint(1, 3), rng.randint(1, 3)
        single = rng.random() < 0.5
        terms_only = trial >= 400 and trial % 2 == 0
        gens = []
        for _ in range(rng.randint(1, 4)):
            if trial >= 400 and (terms_only or rng.random() < 0.5):
                mono = tuple(rng.randint(0, 2) for _ in range(width))
                gens.append(vec(width, field, {(rng.randrange(rank), mono): field.coerce(rng.choice((1, -2, 3)))}))
                continue
            terms = {}
            pos = rng.randrange(rank)
            degree = rng.randint(0, 4)
            for _ in range(rng.randint(1, 4)):
                mono = tuple(rng.randint(0, 3) for _ in range(width))
                if homogeneous and monomial_degree(mono) != degree:
                    continue
                if monomial_degree(mono) <= 4:
                    key = (pos if single else rng.randrange(rank), mono)
                    terms[key] = field.coerce(rng.randint(-3, 3))
            gens.append(vec(width, field, terms))
        cap = rng.choice((None, 2, 3, 4))
        gb = groebner_basis(gens, order, cap)
        vectors, slack = gb.vectors, 8
        if cap is not None and any(len({monomial_degree(m) for _, m in g.terms}) > 1 for g in gens):
            # capped inhomogeneous input is homogenized, and the basis keeps
            # h only when one of its vectors uses it
            gens = [homogenize(g) for g in gens]
            vectors = tuple(v if v.width > width else homogenize(v) for v in vectors)
            kept = any(m[-1] for v in vectors for _, m in v.terms)
            assert all(v.width == width + kept for v in gb.vectors), trial
            # a homogeneous vector of degree d lies in the span of the
            # multiples of degree d when it lies in the submodule
            slack = 0
        oracle = oracle_groebner_basis(gens, order, cap)
        # without a cap the reduced basis is unique; with one, so is the
        # truncated basis of homogeneous vectors
        assert vectors == oracle.vectors, trial
        assert oracle.degree_capped or not gb.degree_capped, trial
        if terms_only:
            # no new vector arises, so both engines form the same pairs
            assert gb.degree_capped == oracle.degree_capped, trial
        capped += oracle.degree_capped
        degree = max((monomial_degree(m) for v in gens + list(vectors) for _, m in v.terms), default=0)
        member = la_span(gens, degree + slack, field)
        assert all(member(v) for v in vectors), trial
    assert capped >= 50


def random_inhomogeneous(rng, width):
    """A polynomial at position 0 of two or three terms, each of a degree
    from 0 to 3."""
    terms = {}
    for _ in range(rng.randint(2, 3)):
        mono = [0] * width
        for _ in range(rng.randint(0, 3)):
            mono[rng.randrange(width)] += 1
        terms[0, tuple(mono)] = QQ.coerce(rng.choice((1, -1, 2, -3)))
    return vec(width, QQ, terms)


def low_part(gb, width, degree):
    """The basis vectors of degree <= `degree`, each with the variable h."""
    return frozenset(
        v if v.width > width else homogenize(v)
        for v in gb.vectors
        if max(monomial_degree(m) for _, m in v.terms) <= degree
    )


def test_capped_basis_does_not_depend_on_the_generator_order():
    # under a degree cap the rank profile and the basis vectors of degree
    # <= D belong to the submodule, not to the order of its generators
    rng = random.Random(2)
    for trial in range(400):
        order = (GREVLEX, LEX)[trial % 2]
        width, cap = rng.randint(1, 3), rng.randint(1, 5)
        gens = [random_inhomogeneous(rng, width) for _ in range(3)]
        seen = set()
        for permuted in permutations(gens):
            gb = groebner_basis(list(permuted), order, cap)
            seen.add((low_part(gb, width, cap), submodule_dimension_upto(gb, width, cap)))
        assert len(seen) == 1, trial


# the FI chain of the CLI tests, whose generators are inhomogeneous
FI_CHAIN = "FI 0 2 : [] : x1^2 - 3/2*x2\n--\nFI 0 2 : [] : x1*x2\n--\nFI 0 1 : [] : 2*x1^3\n"


def test_capped_profile_is_the_dimension_of_the_span():
    # a capped profile counts dim span{m*g : deg m + deg g <= D} of the
    # generators g, for both orders, on the FI chain and on random sets
    chain = parse_chain_file(FI_CHAIN, FI)
    profiles = {}
    for order in (LEX, GREVLEX):
        for degree in range(5):
            for r in chain_experiment(FI, chain, 3, degree, order).results:
                images = [
                    [apply_morphism(g, pi, r.width) for g in step for pi in hom_set(FI, g.width, r.width)] for step in chain
                ]
                assert r.rank_profile == tuple(la_span(step, degree, QQ).dimension for step in images)
                profiles[order, r.width, degree] = list(r.rank_profile)
    # rows that a capped run without homogenization reads otherwise
    assert profiles[LEX, 2, 1] == profiles[LEX, 3, 1] == [0, 0, 0]
    assert profiles[LEX, 2, 2] == [2, 3, 3]
    assert profiles[LEX, 3, 2] == profiles[GREVLEX, 3, 2] == [5, 8, 8]
    assert profiles[LEX, 3, 3] == profiles[GREVLEX, 3, 3] == [17, 19, 19]
    rng = random.Random(3)
    for trial in range(200):
        order = (GREVLEX, LEX)[trial % 2]
        width, cap = rng.randint(1, 3), rng.randint(1, 5)
        gens = [random_inhomogeneous(rng, width) for _ in range(3)]
        gb = groebner_basis(gens, order, cap)
        assert submodule_dimension_upto(gb, width, cap) == la_span(gens, cap, QQ).dimension, trial


def test_arithmetic_builds_canonical_values():
    # the constructors trust their input, so every vector the engine builds
    # from parsed data must already be canonical: term dicts of monomials of
    # the ring's width, nonzero coefficients that are field values; and no
    # term dict a vector holds is changed afterwards
    from hypothesis import given, settings
    from hypothesis import strategies as st

    F7 = CoefficientField(7)

    def assert_canonical(v, width, field):
        assert (v.width, v.field) == (width, field)
        for terms in v.coords.values():
            assert type(terms) is dict and terms
            for mono, c in terms.items():
                assert type(mono) is tuple and len(mono) == width
                if field is QQ:
                    assert type(c) is Fraction and c != 0
                else:
                    assert type(c) is int and 1 <= c <= 6

    @st.composite
    def cases(draw):
        field = draw(st.sampled_from([QQ, F7]))
        width = draw(st.integers(min_value=1, max_value=3))
        n = draw(st.integers(min_value=0, max_value=min(width, 2)))
        monos = st.tuples(*[st.integers(min_value=0, max_value=2)] * width)
        # denominators below 7 have a value in F7; 7 is zero there
        coeffs = st.sampled_from(("1", "2", "3/2", "1/6", "7", "0"))

        def line():
            """An FI element line of generator width n at this width."""
            image = draw(st.permutations(range(1, width + 1)))[:n]
            text = ""
            for _ in range(draw(st.integers(0, 3))):
                factors = [draw(coeffs)] + [f"x{i + 1}^{e}" for i, e in enumerate(draw(monos)) if e]
                text += draw(st.sampled_from("+-")) + "*".join(factors)
            return f"FI {n} {width} : [{','.join(map(str, image))}] : {text or '0'}"

        def vector():
            coords = {}
            for _ in range(draw(st.integers(1, 2))):
                _, _, v = parse_element_line(line(), field)
                coords.update(v.coords)
            return ModuleVector(width, field, coords)

        new_width = draw(st.integers(min_value=width, max_value=width + 2))
        pi = InjectionMorphism.checked(FI, width, new_width, draw(st.permutations(range(1, new_width + 1)))[:width])
        gens = [vector() for _ in range(draw(st.integers(1, 3)))]
        return field, width, pi, gens, vector()

    @settings(max_examples=60, deadline=None)
    @given(cases(), st.sampled_from([LEX, GREVLEX]))
    def run(case, order):
        field, width, pi, gens, v = case
        held = [{pos: dict(terms) for pos, terms in g.coords.items()} for g in gens + [v]]
        for g in gens + [v]:
            assert_canonical(g, width, field)
            assert_canonical(apply_morphism(g, pi.image, pi.target), pi.target, field)
        gb = groebner_basis(gens, order, degree_cap=4)
        # a capped basis of inhomogeneous vectors may keep the variable h
        ring = gb.vectors[0].width if gb.vectors else width
        assert ring in (width, width + 1)
        for g in gb.vectors:
            assert_canonical(g, ring, field)
        # the remainders of v by the basis, in its ring, and by the nonzero generators
        nonzero = [g for g in gens if not g.is_zero()]
        for u, leads, w in (
            (v if ring == width else homogenize(v), gb.leads, ring),
            (v, _leads(nonzero, [_head(g, order) for g in nonzero]), width),
        ):
            assert_canonical(ModuleVector(w, field, _reduce(_coords(u), leads, order, field)), w, field)
        assert [g.coords for g in gens + [v]] == held

    run()


# -- presheaf elements ------------------------------------------------------------


def eps(kind, n, s, image):
    return InjectionMorphism(kind, n, s, tuple(image))


def element(width, coeffs):
    """Presheaf element at this width: {basis morphism image: polynomial text}."""
    return ModuleVector(
        width, QQ, {image: parse_polynomial(text, width) for image, text in coeffs.items()}
    )


def test_apply_morphism_known_example():
    v = element(1, {(1,): "x1"})
    w = apply_morphism(v, (2,), 2)
    assert w.coords == {(2,): parse_polynomial("x2", 2)}


def test_apply_morphism_identity_and_functoriality():
    v = element(2, {(1,): "x1*x2", (2,): "x2 - 3"})
    assert apply_morphism(v, (1, 2), 2) == v
    for pi in hom_set(OI, 2, 3):
        for rho in hom_set(OI, 3, 4):
            assert apply_morphism(apply_morphism(v, pi, 3), rho, 4) == apply_morphism(
                v, compose(eps(OI, 2, 3, pi), eps(OI, 3, 4, rho)).image, 4
            )


def product(a, b, field=QQ):
    """The product of two term dicts, its zero coefficients dropped."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = field.add(out.get(m, field.zero), field.mul(c1, c2))
    return {m: c for m, c in out.items() if c}


def test_apply_morphism_semilinear():
    a = parse_polynomial("x1 + 2", 2)
    v = element(2, {(1,): "x2"})
    scaled = ModuleVector(2, QQ, {m: product(a, p) for m, p in v.coords.items()})
    for pi in hom_set(OI, 2, 3):
        lhs = apply_morphism(scaled, pi, 3)
        moved_a = parse_polynomial(f"x{pi[0]} + 2", 3)
        rhs_map = {m: product(moved_a, p) for m, p in apply_morphism(v, pi, 3).coords.items()}
        assert lhs.coords == rhs_map


def test_apply_morphism_relabels_exponents():
    # an FI morphism need not be increasing: x_i goes to x_image[i]
    v = element(2, {(1, 2): "x1^2*x2 - x2"})
    w = apply_morphism(v, (3, 1), 3)
    assert w.coords == {(3, 1): parse_polynomial("x3^2*x1 - x1", 3)}


def test_apply_morphism_rejects_a_morphism_from_another_width():
    # the image array's length is the morphism's source; it must be v's width
    v = element(2, {(1,): "x1*x2"})
    for pi, target in (((2,), 3), ((1, 2, 3), 3)):
        with pytest.raises(
            MalformedInputError, match=rf"^morphism starts at \[{len(pi)}\], element has width 2$"
        ):
            apply_morphism(v, pi, target)
    assert apply_morphism(v, (3, 1), 3).width == 3


def test_vector_leading_term():
    # position over term: the lowest position, then the order's largest
    # monomial there
    v = element(2, {(1,): "x1*x2 + x2^3", (2,): "x1^5"})
    assert v.leading(LEX) == (((1,), (1, 1)), 1)
    assert v.leading(GREVLEX) == (((1,), (0, 3)), 1)


def test_width_component_known_example():
    gen = element(1, {(1,): "x1^2"})
    M = width_component(OI, [gen], 3)
    x3sq = element(3, {(3,): "x3^2"})
    x1x2 = element(3, {(1,): "x1*x2"})
    zero = element(3, {})
    assert M.contains(x3sq)
    assert not M.contains(x1x2)
    assert M.contains(zero)


def test_width_component_empty_and_unit():
    M0 = width_component(OI, [], 2)
    assert not M0.vectors
    unit = element(1, {(): "1"})
    M = width_component(FI, [unit], 3)
    anything = element(3, {(): "x1*x2*x3 - 7"})
    assert M.contains(anything)


def test_width_closure():
    # pushing the width-2 component along any OI map lands in the width-3 one
    gen = element(1, {(1,): "x1^2"})
    M2 = width_component(OI, [gen], 2)
    M3 = width_component(OI, [gen], 3)
    for v in M2.vectors:
        for pi in hom_set(OI, 2, 3):
            assert M3.contains(apply_morphism(v, pi, 3))


def morphism_images(kind, generators, width):
    """The images of the generators under every morphism into [width], per
    generator in hom-set order."""
    return [apply_morphism(g, pi, width) for g in generators for pi in hom_set(kind, g.width, width)]


def oracle_width_component(kind, generators, width, order=GREVLEX, degree_cap=None):
    """`width_component` through whole hom-sets: the basis of the distinct
    morphism images of the generators."""
    images = dict.fromkeys(morphism_images(kind, generators, width))
    return groebner_basis(list(images), order, degree_cap)


@st.composite
def generator_sets(draw):
    """(kind, generators): one to three vectors of vector width 0-3 sharing a
    generator width n, each with one or two coordinates keyed by morphisms
    [n] -> [s] of the kind, with polynomials of degree <= 2."""
    kind = draw(st.sampled_from(CategoryKind))
    field = draw(st.sampled_from((QQ, CoefficientField.from_string("fp:7"))))
    n = draw(st.integers(0, 2))
    generators = []
    for _ in range(draw(st.integers(1, 3))):
        s = draw(st.integers(n, 3))
        keys = hom_set(kind, n, s)
        coords = {}
        for key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=2, unique=True)):
            terms = [
                draw(st.sampled_from((" + ", " - ")))
                + draw(st.sampled_from(("1", "2", "3/2")))
                + "".join(f"*x{draw(st.integers(1, s))}" for _ in range(draw(st.integers(0, 2)) if s else 0))
                for _ in range(draw(st.integers(1, 3)))
            ]
            coords[key] = parse_polynomial("0" + "".join(terms), s, field)
        generators.append(ModuleVector(s, field, coords))
    return kind, generators


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    generator_sets(),
    st.integers(0, 4),
    st.sampled_from((GREVLEX, LEX)),
    st.sampled_from((None, 2, 3, 4)),
)
def test_width_component_is_the_oi_span_of_the_endomorphism_images(gens, width, order, cap):
    # eps = eps' o g with g in End([s]) and eps' increasing: the span of all
    # morphism images is the OI-span of the End-images, capped or not
    kind, generators = gens
    got = width_component(kind, generators, width, order, cap)
    want = oracle_width_component(kind, generators, width, order, cap)
    assert got.vectors == want.vectors
    assert got.degree_capped == want.degree_capped


# -- chain experiments ---------------------------------------------------------------


def ideal_gen(kind, width, text, field=QQ):
    """The generator-width-0 element `text` at this width, read as an element line."""
    _, _, v = parse_element_line(f"{kind.value} 0 {width} : [] : {text}", field)
    return v


def test_chain_constant_stabilizes_at_one():
    g = ideal_gen(OI, 1, "x1^2")
    rep = chain_experiment(OI, [[g], [g], [g]], 3, 3)
    for r in rep.results:
        assert r.first_stable_index == 1
        assert r.stabilized


def test_chain_oi_documented_example():
    g1 = ideal_gen(OI, 1, "x1^2")
    g2 = ideal_gen(OI, 2, "x1*x2")
    g3 = ideal_gen(OI, 1, "x1")
    rep = chain_experiment(OI, [[g1], [g1, g2], [g1, g2, g3]], 4, 3)
    assert rep.all_stabilized
    assert rep.width_uniform_index
    assert all(r.first_stable_index == 3 for r in rep.results)
    for r in rep.results:
        assert list(r.rank_profile) == sorted(r.rank_profile)


def test_chain_fi_power_sums():
    ps = [
        ideal_gen(FI, k, "+".join(f"x{i}^{k}" for i in range(1, k + 1)))
        for k in range(1, 5)
    ]
    chain = [ps[:i] for i in range(1, 5)]
    rep = chain_experiment(FI, chain, 5, 4)
    assert rep.all_stabilized
    assert rep.width_uniform_index
    assert all(r.first_stable_index == 1 for r in rep.results)
    # x1 is in every component, so only the constant 1 is missing in degree <= 4
    for r in rep.results:
        assert r.rank_profile == (comb(r.width + 4, 4) - 1,) * 4


def test_dimension_count_matches_enumeration():
    # random leading-monomial sets, with repeats, non-minimal monomials and
    # the monomial 1, over up to three positions
    rng = random.Random(11)
    for trial in range(200):
        width, degree = rng.randint(1, 4), rng.randint(0, 7)
        keys = [
            (rng.randrange(3), tuple(rng.randint(0, 4) for _ in range(width)))
            for _ in range(rng.randint(0, 6))
        ]
        gb = GroebnerBasis(tuple(vec(width, QQ, {key: 1}) for key in keys), (GREVLEX, LEX)[trial % 2], False)
        assert submodule_dimension_upto(gb, width, degree) == oracle_dimension_upto(gb, width, degree), trial


# the ROADMAP's rank-2 chain: two positions from the first step on
RANK2_CHAIN = (
    "FI 2 2 : [1,2] : x1 - x2\n--\nFI 2 3 : [1,2] : x3*x1 - x3*x2\nFI 2 2 : [2,1] : x1^2\n"
)


def test_rank_two_chain_components_against_linear_algebra():
    # each component is the span of the morphism images of its generators:
    # its basis lies in that span, and the images in the span of its basis
    # (the chain is homogeneous, so degree 4 bounds both certificates)
    chain = parse_chain_file(RANK2_CHAIN, FI)
    for width in range(1, 5):
        for step in chain:
            M = width_component(FI, step, width, GREVLEX, 4)
            assert not M.degree_capped
            images = morphism_images(FI, step, width)
            in_images = la_span(images, 4, QQ)
            in_basis = la_span(M.vectors, 4, QQ)
            assert all(in_images(v) for v in M.vectors)
            assert all(in_basis(v) for v in images)


def test_the_kind_enters_only_through_endomorphisms(monkeypatch):
    # width components call hom_set only for End([s]) and for OI morphisms
    calls = []

    def recording(kind, m, n, *rest):
        calls.append((kind, m, n))
        return hom_set(kind, m, n, *rest)

    monkeypatch.setattr(categories, "hom_set", recording)
    monkeypatch.setattr(modlab, "hom_set", recording)
    chain_experiment(FI, parse_chain_file(RANK2_CHAIN, FI), 4, 3)
    assert {kind for kind, _, _ in calls} == {FI, OI}
    assert all(kind is OI or m == n for kind, m, n in calls), calls


def test_pushes_are_held_to_the_hom_set_cap():
    # the 200 rotations of x1 in [200], each pushed along the C(202, 200) =
    # 20,301 OI morphisms into [202], exceed the cap; the rotations of 1
    # coincide
    CI = CategoryKind.CI
    with pytest.raises(ResourceCapError, match="4060200 images of a width-200 generator"):
        width_component(CI, [ideal_gen(CI, 200, "x1")], 202)
    one = width_component(CI, [ideal_gen(CI, 200, "1")], 202)
    assert one.vectors == (ideal_gen(CI, 202, "1"),)


def test_repeated_morphism_images_do_not_flag_degree_cap():
    # both endomorphisms of [2] map x1^5 + x2^5 to itself; the one S-pair of
    # the two copies is above the cap but says nothing about the submodule
    g = ideal_gen(FI, 2, "x1^5 + x2^5")
    M = width_component(FI, [g], 2, degree_cap=4)
    assert len(M.vectors) == 1
    assert not M.degree_capped
    rep = chain_experiment(FI, [[g]], 2, 4)
    assert not any(r.degree_capped for r in rep.results)


def test_capped_membership_in_the_ring_with_h():
    # under a cap x1 + 1 becomes x1 + h: a query without h is homogenized to
    # degree D, and a query with h loses it against a basis without h
    a, one = ideal_gen(OI, 1, "x1 + 1"), ideal_gen(OI, 1, "1")
    M = width_component(OI, [a], 1, degree_cap=2)
    (g,) = M.vectors
    assert g.width == 2
    assert M.contains(element(1, {(): "x1^2 - 1"}))
    assert not M.contains(element(1, {(): "x1"}))
    assert not M.contains(one)
    unit = width_component(OI, [a, one], 1, degree_cap=2)
    assert unit.vectors == (one,)
    assert unit.contains(g)
    (r,) = chain_experiment(OI, [[a], [a, one]], 1, 2).results
    assert r.rank_profile == (2, 3) and r.stabilized and not r.degree_capped


def test_capped_membership_is_membership_in_the_span():
    # under a cap, v of degree <= D is a member exactly when it lies in
    # span{m*g : deg m + deg g <= D}, also when only an S-pair below the
    # generators' degree reaches it: x1 + h and x1 give h, so 1 = (x1 + 1) - x1
    # is a member at degree 2 though the basis {x1, h} never holds 1
    gens = [ideal_gen(OI, 1, "x1 + 1"), ideal_gen(OI, 1, "x1")]
    M = width_component(OI, gens, 1, degree_cap=2)
    assert M.vectors[0].width == 2 and not M.degree_capped
    member = la_span(gens, 2, QQ)
    for text in ("1", "x1 - 2", "x1^2 + 1"):
        v = ideal_gen(OI, 1, text)
        assert M.contains(v) and member(v)
    rng = random.Random(4)
    members = 0
    for trial in range(200):
        order = (GREVLEX, LEX)[trial % 2]
        width, cap = rng.randint(1, 3), rng.randint(1, 5)
        gens = [random_inhomogeneous(rng, width) for _ in range(3)]
        gb = groebner_basis(gens, order, cap)
        member = la_span(gens, cap, QQ)
        queries = [random_inhomogeneous(rng, width) for _ in range(2)]
        low = [g for g in gens if max(monomial_degree(m) for _, m in g.terms) <= cap]
        for _ in range(2 if low else 0):
            # a sum of multiples within the cap
            multiples = []
            for g in rng.sample(low, rng.randint(1, len(low))):
                gdeg = max(monomial_degree(m) for _, m in g.terms)
                mono = rng.choice(monomials_upto(width, cap - gdeg))
                multiples.append(shift(g, mono, QQ.coerce(rng.choice((1, -2, 3))), QQ))
            queries.append(vec(width, QQ, add_terms(QQ, *multiples)))
        for v in queries:
            if max((monomial_degree(m) for _, m in v.terms), default=0) <= cap:
                assert gb.contains(v) == member(v), (trial, v.terms)
                members += member(v)
    assert members >= 100


def test_capped_chain_index_reads_the_degree_d_part():
    # x1 + 1 and x1 give the basis {x1, h} at degree 2, and adding 1 gives
    # {1}: both are the whole degree <= 2 part, so the chain is stable at 1
    chain = parse_chain_file("FI 0 1 : [] : x1 + 1\nFI 0 1 : [] : x1\n--\nFI 0 0 : [] : 1\n", FI)
    for order in (GREVLEX, LEX):
        for r in chain_experiment(FI, chain, 3, 2, order).results:
            assert r.first_stable_index == 1 and r.stabilized and not r.degree_capped
            assert r.rank_profile == (comb(r.width + 2, 2),) * 2


def test_chain_requires_ascending():
    g1 = ideal_gen(OI, 1, "x1")
    g2 = ideal_gen(OI, 1, "x1^2")
    with pytest.raises(MalformedInputError):
        chain_experiment(OI, [[g1], [g2]], 2, 2)


# -- restriction decomposition ---------------------------------------------------------


def test_restriction_decomposition_examples():
    r = restriction_decomposition_check(CategoryKind.CI, 3, 5)
    assert r.ok
    assert len(r.classes) == 3
    assert all(len(m) == 10 for _, m in r.classes)
    r = restriction_decomposition_check(OI, 3, 5)
    assert r.ok and len(r.classes) == 1
    r = restriction_decomposition_check(CategoryKind.SI, 4, 6)
    assert r.ok and len(r.classes) == 8
    assert all(len(m) == 15 for _, m in r.classes)


def test_rank_identity():
    for kind in CategoryKind:
        for n in range(1, 5):
            for s in range(n, 7):
                lhs = len(hom_set(kind, n, s))
                rhs = len(hom_set(kind, n, n)) * len(hom_set(OI, n, s))
                assert lhs == rhs


# -- text formats ------------------------------------------------------------------------


def test_parse_element_line():
    kind, gen_width, v = parse_element_line("OI 1 2 : [2] : 3/2*x1^2 - x2")
    assert kind is OI and gen_width == 1 and v.width == 2
    ((image, p),) = v.coords.items()
    assert image == (2,)
    assert p == parse_polynomial("3/2*x1^2 - x2", 2)
    with pytest.raises(MalformedInputError):
        parse_element_line("OI 1 : [1] : x1")


def test_parse_chain_file_accumulates():
    text = "OI 0 1 : [] : x1^2\n--\nOI 0 2 : [] : x1*x2\n"
    chain = parse_chain_file(text, OI)
    assert len(chain) == 2
    assert len(chain[0]) == 1 and len(chain[1]) == 2


def test_parse_chain_file_skips_blank_and_comment_lines():
    # blank lines and `#` lines, indented or not, add no generator and no step
    commented = "# the FI chain\n\n" + FI_CHAIN.replace("--\n", "  \n--\n# next step\n   # indented\n")
    chain = parse_chain_file(commented, FI)
    assert len(chain) == 3 and chain == parse_chain_file(FI_CHAIN, FI)


@pytest.mark.parametrize(
    "text, kind, message",
    [
        ("OI 0 1 : [] : x1\n", FI, "kind mismatch"),
        ("FI 1 1 : [1] : x1\n--\nFI 0 1 : [] : x1\n", FI, "one generator width"),
        # a zero element keeps the generator width of its header
        ("FI 1 1 : [1] : x1\nFI 0 1 : [] : 0\n", FI, "one generator width"),
        # steps are checked in order: the first step's kind fails first
        ("OI 0 1 : [] : x1\n--\nFI 1 1 : [1] : x1\n", FI, "kind mismatch"),
    ],
)
def test_parse_chain_file_checks_kind_and_generator_width(text, kind, message):
    with pytest.raises(MalformedInputError, match=message):
        parse_chain_file(text, kind)
