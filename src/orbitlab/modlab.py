"""Equivariant-module laboratory.

Free presheaves with generator width n have, at evaluation width s, one free
polynomial-module summand per category morphism [n] -> [s].  An element is
a ModuleVector of that free module over the width-s polynomial ring, keyed
by the images of the morphisms: `{(2,): x2}` is x2 on the summand of the
morphism [1] -> [s] with image (2,).  A category morphism out of [s] acts by
substituting variables in the coefficients and post-composing the keys.
Width components of finitely generated subpresheaves are submodules of that
free module: the OI-spans of the End([s])-images of the generators.  They are
handled by a Buchberger engine with the Gebauer-Moller pair criteria
(position-over-term extension of the chosen monomial order); it never
reduces the S-pair of two single-term vectors, whose S-polynomial is 0.
Keys of one generator width order like the hom-set, lexicographically by
image.  A coefficient is a term dict {monomial: nonzero coefficient}, the
form `parse_polynomial` returns, and vectors are added and multiplied only
in `_add_multiple` and `_reduce`.

Everything is truncated: statements are certified only up to a width W and,
when Buchberger pairs are discarded, up to a degree bound D.  Both appear in
every report.  Under the degree cap, inhomogeneous generators are
homogenized, so that the bound applies to one homogeneous submodule.
"""

from __future__ import annotations

from collections import deque, namedtuple
from functools import cached_property
from math import comb

from .actions import DEFAULT_SPACE_CAP, _depth_first, _work_budget
from .categories import (
    DEFAULT_ENUMERATION_CAP,
    CategoryKind,
    InjectionMorphism,
    compose,
    factorize,
    hom_set,
    hom_size_formula,
)
from .errors import FalsificationError, MalformedInputError, ResourceCapError, format_count, parse_int
from .polynomials import (
    GREVLEX,
    CoefficientField,
    MonomialOrder,
    QQ,
    monomial_degree,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    parse_polynomial,
)

DEFAULT_PAIR_CAP = 20_000


# -- free-module vectors and Buchberger ---------------------------------------


class ModuleVector(namedtuple("ModuleVector", "width field coords")):
    """Element of a free module over R, the width-variable polynomial ring:
    `coords` maps each position with a nonzero coordinate to its term dict
    {exponent tuple: nonzero coefficient}.  Positions are any mutually
    comparable keys; presheaf elements use the images of their basis
    morphisms.  The constructor trusts its term dicts to be canonical for
    its width and field and only drops empty ones; outside data enters
    through `parse_element_line`.  No term dict is mutated once a vector
    holds it.  Vectors are equal by their fields and hashed by their width
    and terms."""

    __slots__ = ()

    def __new__(cls, width, field, coords):
        coords = {pos: terms for pos, terms in coords.items() if terms}
        return super().__new__(cls, width, field, coords)

    @property
    def terms(self) -> dict:
        """Flat view: (position, monomial) -> nonzero coefficient."""
        return {(pos, mono): c for pos, terms in self.coords.items() for mono, c in terms.items()}

    def is_zero(self):
        return not self.coords

    def leading(self, order: MonomialOrder):
        """Position-over-term: lower positions dominate."""
        pos = min(self.coords)
        terms = self.coords[pos]
        mono = max(terms, key=order.key)
        return (pos, mono), terms[mono]

    def __hash__(self):
        return hash((self.width, frozenset(self.terms.items())))


def _head(g: ModuleVector, order: MonomialOrder) -> tuple:
    """(position, leading monomial, 1 / leading coefficient) of g."""
    (pos, mono), c = g.leading(order)
    return pos, mono, g.field.inv(c)


def _add_multiple(coords: dict, g: ModuleVector, mono, c) -> None:
    """coords += c * mono * g in place, coords being {position: {monomial:
    coefficient}} without zero coefficients or empty positions."""
    f = g.field
    for pos, gterms in g.coords.items():
        terms = coords.setdefault(pos, {})
        for m, gc in gterms.items():
            m = monomial_mul(m, mono)
            s = f.add(terms.get(m, f.zero), f.mul(gc, c))
            if s:
                terms[m] = s
            else:
                del terms[m]
        if not terms:
            del coords[pos]


def _reduce(coords: dict, leads: dict, order: MonomialOrder, field, skip=None) -> dict:
    """Multivariate division of the vector `coords` (as in `_add_multiple`,
    consumed) by the basis `leads`, which maps each position to the (leading
    monomial, 1 / leading coefficient, vector) of the basis vectors leading
    there, in basis order; `skip` is left out.  The leading term is
    cancelled by the first vector whose leading monomial divides it, or else
    moved to the remainder, which is returned in the same form."""
    f = field
    remainder = {}
    while coords:
        pos = min(coords)
        terms = coords[pos]
        mono = max(terms, key=order.key)
        c = terms[mono]
        for gmono, ginv, g in leads.get(pos, ()):
            if g is not skip and monomial_divides(gmono, mono):
                _add_multiple(coords, g, monomial_div(mono, gmono), f.neg(f.mul(c, ginv)))
                break
        else:
            remainder.setdefault(pos, {})[mono] = c
            del terms[mono]
            if not terms:
                del coords[pos]
    return remainder


def _leads(basis, heads) -> dict:
    """The `leads` of `_reduce` for the basis vectors and their `_head`s."""
    leads = {}
    for g, (pos, mono, inv) in zip(basis, heads):
        leads.setdefault(pos, []).append((mono, inv, g))
    return leads


def _coords(v: ModuleVector) -> dict:
    """A copy of v's coordinates for `_reduce` to consume."""
    return {pos: dict(terms) for pos, terms in v.coords.items()}


class GroebnerBasis(
    namedtuple("GroebnerBasis", "vectors order degree_capped degree_cap", defaults=(None,))
):
    """vectors: reduced, monic, in a deterministic order; order: a
    MonomialOrder; degree_capped: True when S-pairs above the degree cap were
    skipped; degree_cap: the cap of the run, or None.  Instances keep a
    `__dict__` for the `leads` cache."""

    @cached_property
    def leads(self) -> dict:
        """The `leads` of `_reduce` for the vectors, computed once."""
        return _leads(self.vectors, [_head(g, self.order) for g in self.vectors])

    def contains(self, v: ModuleVector) -> bool:
        """Whether v reduces to zero, in the ring of the basis.  Against a
        basis with the h of `groebner_basis`, v of degree d <= D is tested as
        h^(D - d) * v^h, which lies in the degree-D part exactly when v lies
        in span{m*g : deg m + deg g <= D}; against an h-free basis (then
        homogeneous), v with h loses it."""
        if self.vectors and self.vectors[0].width != v.width:
            v = _in_ring(v, self.vectors[0].width, self.degree_cap or 0)
        return not _reduce(_coords(v), self.leads, self.order, v.field)


def _update(basis, heads, k: int, pairs: deque, degree_cap) -> tuple:
    """Queue the S-pairs of basis vector k with the vectors before it:
    (the new queue, whether a pair was dropped on the degree cap).

    A pair (i, k, lcm of the leading monomials) joins only vectors leading
    at one position, and one above the degree cap is dropped first.  The
    Gebauer-Moller criteria (JSC 6, 1988; valid for submodules of free
    modules, Kreuzer-Robbiano, CCA 1, 2.5) see only the pairs within the
    cap:
    - B_k drops an old pair (i, j) when lm(k) divides its lcm and neither
      lcm(i, k) nor lcm(j, k) equals it;
    - M and F keep, of the new pairs, the first one of each minimal lcm;
    - a new pair whose S-polynomial is 0 is dropped, with every other new
      pair of that lcm: by the product criterion when both vectors have one
      coordinate and coprime leading monomials, and at once when both are
      single terms (one position, one monomial), whose S-polynomial is
      exactly 0 over any field.
    Old pairs keep their order, and the new ones follow by i."""
    pos, mk, _ = heads[k]
    one_k = len(basis[k].coords) == 1
    term_k = one_k and len(basis[k].coords[pos]) == 1
    capped = False
    new = {}  # lcm -> [first i, S-polynomial is 0]
    for i in range(k):
        ipos, mi, _ = heads[i]
        if ipos != pos:
            continue
        lcm = monomial_lcm(mi, mk)
        if degree_cap is not None and monomial_degree(lcm) > degree_cap:
            capped = True
            continue
        gi = basis[i]
        zero = (
            one_k
            and len(gi.coords) == 1
            and (term_k and len(gi.coords[pos]) == 1 or monomial_mul(mi, mk) == lcm)
        )
        entry = new.setdefault(lcm, [i, False])
        entry[1] = entry[1] or zero
    kept = deque(
        (i, j, lcm)
        for i, j, lcm in pairs
        if heads[i][0] != pos
        or not monomial_divides(mk, lcm)
        or monomial_lcm(heads[i][1], mk) == lcm
        or monomial_lcm(heads[j][1], mk) == lcm
    )
    if not all(zero for _, zero in new.values()):
        minimal = _minimal(new)
        kept.extend((i, k, lcm) for lcm, (i, zero) in new.items() if not zero and lcm in minimal)
    return kept, capped


def groebner_basis(
    generators,
    order: MonomialOrder = GREVLEX,
    degree_cap: int | None = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of the submodule generated by the vectors.

    Each vector, given or found, queues its S-pairs through `_update`, which
    forms them only between vectors with the same leading position and
    leaves out those the Gebauer-Moller criteria show to reduce to zero,
    among them every pair of two single-term vectors, whose S-polynomial
    is 0, so a monomial submodule reduces no pair.
    With a degree cap, pairs whose lcm degree exceeds the cap are dropped,
    before any criterion, and the result is flagged as degree-truncated;
    inhomogeneous generators are then homogenized with a variable h
    (Kreuzer-Robbiano, CCA 2, 4.3), so the result is the degree <= D part
    of one homogeneous submodule, whatever the pair order, and keeps h only
    when one of its vectors uses it.  Pairs are taken first in, first out,
    and at most `DEFAULT_PAIR_CAP` of them are reduced: the cap counts only
    the pairs left on the queue.  Each basis vector's `_head` is computed
    once.
    """
    basis = [g for g in generators if not g.is_zero()]
    homogenize = degree_cap is not None and any(
        len({monomial_degree(m) for _, m in g.terms}) > 1 for g in basis
    )
    if homogenize:
        basis = [_in_ring(g, g.width + 1) for g in basis]
    heads = [_head(g, order) for g in basis]
    leads = _leads(basis, heads)
    pairs, capped = deque(), False
    for k in range(len(basis)):
        pairs, dropped = _update(basis, heads, k, pairs, degree_cap)
        capped = capped or dropped
    # the generators' pairs in (i, j) order, which decides the work a run
    # does and, at times, whether it meets a pair above the cap
    pairs = deque(sorted(pairs))
    processed = 0
    while pairs:
        processed += 1
        if processed > DEFAULT_PAIR_CAP:
            raise ResourceCapError(f"S-pair queue exceeded cap {DEFAULT_PAIR_CAP}")
        i, j, lcm = pairs.popleft()
        (_, mi, inv_i), (_, mj, inv_j) = heads[i], heads[j]
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
            pairs, dropped = _update(basis, heads, len(basis) - 1, pairs, degree_cap)
            capped = capped or dropped
    vectors = _reduce_basis(basis, heads, order)
    if homogenize and not any(m[-1] for g in vectors for _, m in g.terms):
        vectors = tuple(_in_ring(g, g.width - 1) for g in vectors)
    return GroebnerBasis(vectors, order, capped, degree_cap)


def _in_ring(v: ModuleVector, width: int, degree: int = 0) -> ModuleVector:
    """v with `width` exponents per monomial, one more or one fewer than it
    has.  The last is the h of `groebner_basis`, the smallest variable in
    lex and grevlex, which raises each term to the larger of `degree` and
    v's top degree, or is dropped."""
    top = max([degree, *(monomial_degree(m) for _, m in v.terms)])
    coords = {
        pos: {(m + (top - monomial_degree(m),))[:width]: c for m, c in terms.items()}
        for pos, terms in v.coords.items()
    }
    return ModuleVector(width, v.field, coords)


def _reduce_basis(basis, heads, order: MonomialOrder) -> tuple:
    """The reduced basis of the nonzero vectors `basis`, given their `_head`s."""
    # drop elements whose leading term another leading term divides: keep,
    # per position, the first index of each minimal leading monomial
    first: dict = {}
    for i, (pos, mono, _) in enumerate(heads):
        first.setdefault(pos, {}).setdefault(mono, i)
    kept = sorted(at[mono] for at in first.values() for mono in _minimal(at))
    # tail-reduce each survivor against the others and make it monic
    leads = _leads([basis[i] for i in kept], [heads[i] for i in kept])
    reduced = []
    for i in kept:
        g, f, inv = basis[i], basis[i].field, heads[i][2]
        # no other kept leading monomial divides g's, so the remainder keeps
        # g's leading term
        r = _reduce(_coords(g), leads, order, f, skip=g)
        monic = {pos: {m: f.mul(c, inv) for m, c in terms.items()} for pos, terms in r.items()}
        reduced.append(ModuleVector(g.width, f, monic))
    reduced.sort(key=lambda v: sorted(v.terms))
    return tuple(reduced)


def submodule_dimension_upto(gb: GroebnerBasis, width: int, degree: int) -> int:
    """k-dimension of the degree <= `degree` slice of the submodule, counted
    via leading terms (exact for degree-compatible orders and homogeneous
    submodules, a profile metric for lex on uncapped inhomogeneous input);
    with the h of `groebner_basis`, the slice is the degree-`degree` part.
    Only positions holding a leading term contribute: each contributes the
    monomials of the slice less those outside its leading-term ideal, which
    `_outside_count` counts without listing them.  The count may take
    3 * DEFAULT_SPACE_CAP steps of `_outside_count`."""
    memo: dict = {}
    charge = _work_budget("rank profile")

    def count(monos, n, d):
        return _depth_first(_outside_count(monos, n, d, memo, charge))

    everything = count(frozenset(), width, degree)

    def outside(monos):
        n = len(next(iter(monos)))  # with h, those of degree `degree` only
        below = count(monos, n, degree - 1) if n > width else 0
        return count(monos, n, degree) - below

    return sum(
        everything - outside(_minimal(mono for mono, _, _ in entries))
        for entries in gb.leads.values()
    )


def _minimal(monos) -> frozenset:
    """The monomials that no other one divides.  One that another divides
    properly has a larger degree, so a scan by degree meets its minimal
    divisors first."""
    kept = []
    for m in sorted(set(monos), key=monomial_degree):
        if not any(monomial_divides(o, m) for o in kept):
            kept.append(m)
    return frozenset(kept)


def _outside_count(monos: frozenset, width: int, degree: int, memo: dict, charge):
    """Number of monomials in `width` variables of degree <= `degree` that no
    monomial of `monos` (minimal, each of length `width`) divides, as a
    generator for `_depth_first`, since it takes one level per variable.
    The recursion is on the exponent e of the last variable: such a monomial
    is one in the first width - 1 variables, of degree <= degree - e, that
    no m[:-1] with m[-1] <= e divides.  Memoized on (monos, degree) in
    `memo`; each miss charges its degree + 1 steps to `charge` before it
    loops."""
    if degree < 0:
        return 0
    if not monos:
        return comb(width + degree, degree)
    if (0,) * width in monos:
        return 0
    key = (monos, degree)
    if key not in memo:
        charge(degree + 1)
        by_last: dict = {}
        for m in monos:
            by_last.setdefault(m[-1], []).append(m[:-1])
        below = frozenset()
        total = 0
        for e in range(degree + 1):
            if e in by_last:
                below = _minimal(below | set(by_last[e]))
            total += yield _outside_count(below, width - 1, degree - e, memo, charge)
        memo[key] = total
    return memo[key]


# -- presheaf elements ---------------------------------------------------------


def apply_morphism(v: ModuleVector, pi: tuple[int, ...], target: int) -> ModuleVector:
    """Push v along the morphism [s] -> [target] with image array pi;
    coefficients get pi's substitution and each key (a basis morphism's
    image) is post-composed with pi."""
    if len(pi) != v.width:
        raise MalformedInputError(
            f"morphism starts at [{len(pi)}], element has width {v.width}"
        )

    def moved(mono):
        exps = [0] * target
        for i, e in zip(pi, mono):
            exps[i - 1] = e
        return tuple(exps)

    # pi is injective, so distinct keys and distinct monomials stay distinct
    return ModuleVector(
        target,
        v.field,
        {
            tuple(pi[i - 1] for i in image): {moved(m): c for m, c in terms.items()}
            for image, terms in v.coords.items()
        },
    )


def width_component(
    kind: CategoryKind,
    generators,
    width: int,
    order: MonomialOrder = GREVLEX,
    degree_cap: int | None = None,
) -> GroebnerBasis:
    """Groebner basis of the span at the given width of all morphism-images
    of the generators, which share one generator width (one key length).

    A morphism [s] -> [width] factors as eps' o g, with g in End([s]) and eps'
    increasing (`factorize`), so the span is the OI-span of the images g.v:
    the kind enters only through End([s]).  A generator's distinct images
    times C(width, s) are held to the hom-set cap before any is pushed."""
    vectors = {}
    for v in generators:
        s = v.width
        if s > width:  # no morphism [s] -> [width]
            continue
        # images often coincide (a symmetric polynomial under FI), and each
        # repeat only adds S-pairs
        images = dict.fromkeys(apply_morphism(v, g, s) for g in hom_set(kind, s, s))
        pushes = len(images) * hom_size_formula(CategoryKind.OI, s, width)
        if pushes > DEFAULT_ENUMERATION_CAP:
            raise ResourceCapError(
                f"width_component: {format_count(pushes)} images of a width-{s} generator "
                f"at width {width} exceed cap {DEFAULT_ENUMERATION_CAP}"
            )
        oi = hom_set(CategoryKind.OI, s, width)
        vectors.update(dict.fromkeys(apply_morphism(u, eps, width) for u in images for eps in oi))
    return groebner_basis(list(vectors), order, degree_cap)


# -- chain experiments ------------------------------------------------------------


class WidthChainResult(
    namedtuple(
        "WidthChainResult", "width first_stable_index rank_profile monotone degree_capped"
    )
):
    """first_stable_index: 1-based, the earliest chain index from which the
    component's degree-<=D part persists; rank_profile: the leading-term
    dimension count per chain index; monotone: consecutive components are
    nested (unchecked past a degree-capped one)."""

    __slots__ = ()

    @property
    def stabilized(self) -> bool:
        """The component sequence is verified ascending and constant from the
        first stable index on; a violation would be a falsification and is
        surfaced through this flag."""
        return self.monotone and all(
            a <= b for a, b in zip(self.rank_profile, self.rank_profile[1:])
        )


class ChainReport(namedtuple("ChainReport", "kind max_width degree_cap order results")):
    """results: a WidthChainResult per width 1..max_width."""

    __slots__ = ()

    @property
    def all_stabilized(self) -> bool:
        return all(r.stabilized for r in self.results)

    @property
    def width_uniform_index(self) -> bool:
        return len({r.first_stable_index for r in self.results}) == 1

    def to_json_obj(self):
        return [
            {
                "width": r.width,
                "chain_index": r.first_stable_index,
                "component_rank_profile": list(r.rank_profile),
                "stabilized": r.stabilized,
                "degree_capped": r.degree_capped,
            }
            for r in self.results
        ]


def chain_experiment(
    kind: CategoryKind,
    chain,
    max_width: int,
    degree_cap: int,
    order: MonomialOrder = GREVLEX,
) -> ChainReport:
    """Track an ascending chain of generator sets across widths.

    Each chain entry must contain the previous one (subobject ascent); for
    each width the report gives a dimension profile of the degree-truncated
    components, and the earliest index from which the truncated width
    component never changes again inside the window: the first whose
    profile count is the last one's.
    """
    if max_width < 1:
        raise MalformedInputError("max_width must be >= 1")
    if degree_cap < 0:
        raise MalformedInputError("degree_cap must be a natural number")
    chain = [tuple(step) for step in chain]
    if not chain:
        raise MalformedInputError("empty chain")
    for prev, cur in zip(chain, chain[1:]):
        if not set(prev) <= set(cur):
            raise MalformedInputError("chain generator sets must be ascending")
    results = []
    for width in range(1, max_width + 1):
        gbs = [width_component(kind, step, width, order, degree_cap) for step in chain]
        profile = tuple(
            submodule_dimension_upto(gb, width, degree_cap) for gb in gbs
        )
        # the first step from which the degree-<=D part is the last one's:
        # each count is that part's dimension and the steps ascend, so equal
        # counts mean equal parts
        first_stable = len(chain)
        while first_stable > 1 and profile[first_stable - 2] == profile[-1]:
            first_stable -= 1
        # a reduction to zero proves membership, but a nonzero normal form
        # disproves it only modulo a Groebner basis, which a degree-capped
        # basis need not be: there the nesting is left unverified
        monotone = all(
            later.degree_capped or all(later.contains(v) for v in earlier.vectors)
            for earlier, later in zip(gbs, gbs[1:])
        )
        results.append(
            WidthChainResult(
                width,
                first_stable,
                profile,
                monotone,
                any(gb.degree_capped for gb in gbs),
            )
        )
    return ChainReport(kind, max_width, degree_cap, order, tuple(results))


# -- restriction decomposition ------------------------------------------------------


# classes: ((g image, tuple of morphism images), ...); failures: a tuple
RestrictionReport = namedtuple("RestrictionReport", "kind gen_width width ok classes failures")


def restriction_decomposition_check(
    kind: CategoryKind, gen_width: int, width: int
) -> RestrictionReport:
    """Partition the hom-set by the endomorphism factor of the factorization.

    Verifies the class count equals the endomorphism group order, each class
    is in increasing-injection bijection with the OI hom-set, and increasing
    post-composition preserves classes.  Each of those is an increasing
    injection, a morphism of every kind; one that is not raises
    FalsificationError.
    """
    if gen_width > width:
        raise MalformedInputError("need gen_width <= width")
    # one factorization per morphism and per post-composition by one of the
    # width + 1 increasing injections [width] -> [width + 1]
    work = hom_size_formula(kind, gen_width, width) * (width + 2)
    if work > DEFAULT_ENUMERATION_CAP:
        raise ResourceCapError(
            f"restriction_decomposition_check({kind.value}, {gen_width}, {width}): "
            f"{format_count(work)} factorizations exceeds cap {DEFAULT_ENUMERATION_CAP}"
        )
    # factorize and compose take morphisms: the one place images are wrapped
    homs = [InjectionMorphism(kind, gen_width, width, f) for f in hom_set(kind, gen_width, width)]
    classes: dict = {}
    for eps in homs:
        eps_prime, g = factorize(eps)
        classes.setdefault(g.image, []).append((eps, eps_prime))
    ends = hom_set(kind, gen_width, gen_width)
    oi_count = hom_size_formula(CategoryKind.OI, gen_width, width)
    failures = []
    if len(classes) != len(ends):
        failures.append(
            f"{len(classes)} classes but {len(ends)} endomorphisms"
        )
    for g_image, members in classes.items():
        eps_primes = {ep.image for _, ep in members}
        if len(members) != oi_count or len(eps_primes) != oi_count:
            failures.append(
                f"class of g={g_image} has {len(members)} members, expected {oi_count}"
            )
    for pi in hom_set(CategoryKind.OI, width, width + 1):
        try:
            pi_kind = InjectionMorphism.checked(kind, width, width + 1, pi)
        except MalformedInputError:
            raise FalsificationError(
                f"increasing injection {pi} is not a {kind.value} morphism "
                f"[{width}] -> [{width + 1}]"
            ) from None
        for g_image, members in classes.items():
            for eps, _ in members:
                _, g2 = factorize(compose(eps, pi_kind))
                if g2.image != g_image:
                    failures.append(
                        f"post-composition by {pi} moved {eps.image} "
                        f"from class {g_image} to {g2.image}"
                    )
    ordered = tuple(
        (g_image, tuple(eps.image for eps, _ in classes[g_image]))
        for g_image in sorted(classes)
    )
    return RestrictionReport(
        kind, gen_width, width, not failures, ordered, tuple(failures)
    )


# -- element files ---------------------------------------------------------------


def parse_element_line(line: str, field: CoefficientField = QQ) -> tuple:
    """One line `KIND n s : [image] : polynomial` describing a single term:
    (kind, generator width n, the width-s vector `{image: polynomial}`)."""
    parts = line.split(":", 2)
    if len(parts) != 3:
        raise MalformedInputError(f"bad element line: {line!r}")
    head = parts[0].split()
    if len(head) != 3:
        raise MalformedInputError(f"bad element header: {parts[0]!r}")
    kind = CategoryKind.from_string(head[0])
    n = parse_int(head[1], "generator width")
    s = parse_int(head[2], "width")
    if s > DEFAULT_SPACE_CAP:  # the polynomial holds one exponent per variable
        raise ResourceCapError(f"width {s} exceeds cap {DEFAULT_SPACE_CAP}")
    image_text = parts[1].strip()
    if not (image_text.startswith("[") and image_text.endswith("]")):
        raise MalformedInputError(f"bad image: {image_text!r}")
    image = tuple(
        parse_int(tok, "image entry")
        for tok in image_text[1:-1].split(",")
        if tok.strip()
    )
    eps = InjectionMorphism.checked(kind, n, s, image)
    poly = parse_polynomial(parts[2], s, field)
    return kind, n, ModuleVector(s, field, {eps.image: poly})


def parse_chain_file(
    text: str, kind: CategoryKind, field: CoefficientField = QQ
) -> list:
    """Chain file: element lines, with `--` lines separating chain steps.
    Steps accumulate: each step's generators are added to the previous set.
    Each step's generators must be of `kind` and share one generator width;
    the steps are checked in order, width first."""
    steps = [[]]
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if set(ln) == {"-"}:
            steps.append([])
            continue
        steps[-1].append(parse_element_line(ln, field))
    chain = []
    acc = []
    for step in steps:
        acc = acc + step
        if len({n for _, n, _ in acc}) > 1:
            raise MalformedInputError("generators must share one generator width")
        if any(k is not kind for k, _, _ in acc):
            raise MalformedInputError("generator kind mismatch")
        chain.append(tuple(v for _, _, v in acc))
    return chain
