"""Finite relational structures, embeddings, and amalgamation checking.

Built-in structure kinds mirror the five injection categories: plain sets,
linear orders, betweenness, cyclic orders and separation relations, each
induced by a linear or circular arrangement of the universe.  A further
"pair" age models points that are ordered pairs over a base set, carrying
coordinate-equality relations; it is the stock negative example for the
strong amalgamation property.  A built-in age reads its isomorphism classes,
their automorphisms and the embeddings between them off its injection
category; the pair age finds them by relabeling and filtering.

Structures and embeddings trust their constructor arguments; data from outside
is checked where it is built (`make_structure`) or parsed
(`parse_embedding_file`).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations, permutations, product
from operator import itemgetter

from .categories import (
    RELATION_ARITY,
    CategoryKind,
    _endomorphism_images,
    canonical_relation,
    hom_set,
)
from .errors import MalformedInputError, ResourceCapError, parse_int

BUILTIN_KINDS = {
    "set": CategoryKind.FI,
    "linear": CategoryKind.OI,
    "betweenness": CategoryKind.BI,
    "cyclic": CategoryKind.CI,
    "separation": CategoryKind.SI,
}

PUSHOUT_LABEL_CAP = 10

_KIND_RELATION = {"linear": "lt", "betweenness": "btw", "cyclic": "cyc", "separation": "sep"}


def _signature(kind_name: str) -> tuple:
    """((relation name, arity),) of a built-in kind with a relation, else ()."""
    if kind_name == "set":
        return ()
    return ((_KIND_RELATION[kind_name], RELATION_ARITY[BUILTIN_KINDS[kind_name]]),)


class FiniteStructure(namedtuple("FiniteStructure", "universe signature relations")):
    """universe: a tuple of labels; signature: ((name, arity), ...);
    relations: ((name, frozenset of tuples), ...), aligned with signature."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.universe)

    def relation(self, name) -> frozenset:
        return dict(self.relations)[name]

    def induced(self, subset) -> "FiniteStructure":
        subset = tuple(x for x in self.universe if x in set(subset))
        keep = set(subset)
        rels = tuple(
            (name, frozenset(t for t in tuples if all(x in keep for x in t)))
            for name, tuples in self.relations
        )
        return FiniteStructure(subset, self.signature, rels)


def make_structure(universe, signature, relations) -> FiniteStructure:
    """The structure, or MalformedInputError naming the first invalid tuple
    in the order each relation's tuples are given."""
    universe = tuple(universe)
    uni = set(universe)
    if len(uni) != len(universe):
        raise MalformedInputError("universe labels must be distinct")
    sig = tuple((str(n), int(a)) for n, a in signature)
    rels = {str(n): [tuple(t) for t in ts] for n, ts in dict(relations).items()}
    for name, arity in sig:
        for tup in rels.get(name, ()):
            if len(tup) != arity or any(x not in uni for x in tup):
                raise MalformedInputError(
                    f"tuple {tup} invalid for relation {name}/{arity}"
                )
    aligned = tuple((name, frozenset(rels.get(name, ()))) for name, _ in sig)
    return FiniteStructure(universe, sig, aligned)


def plain_set_structure(labels) -> FiniteStructure:
    return make_structure(labels, (), {})


@lru_cache(maxsize=None)
def _relation_getters(kind_name: str, n: int) -> tuple:
    """One `itemgetter` per tuple of `canonical_relation(kind, n)`, reading
    that tuple's positions off an arrangement of n labels."""
    relation = canonical_relation(BUILTIN_KINDS[kind_name], n)
    return tuple(itemgetter(*(i - 1 for i in t)) for t in relation)


def arrangement_structure(kind_name: str, arrangement) -> FiniteStructure:
    """Structure on the given labels induced by a linear/circular arrangement."""
    arrangement = tuple(arrangement)
    if kind_name == "set":
        return FiniteStructure(arrangement, (), ())
    tuples = frozenset(g(arrangement) for g in _relation_getters(kind_name, len(arrangement)))
    return FiniteStructure(
        tuple(sorted(arrangement)), _signature(kind_name), ((_KIND_RELATION[kind_name], tuples),)
    )


class StructureEmbedding(namedtuple("StructureEmbedding", "source target images")):
    """An embedding of FiniteStructures; images is aligned with source.universe."""

    __slots__ = ()

    @property
    def mapping(self) -> dict:
        return dict(zip(self.source.universe, self.images))


def _embedding_ok(A: FiniteStructure, B: FiniteStructure, images) -> bool:
    if len(images) != len(A.universe):
        return False
    keep = set(images)
    if len(keep) != len(images) or not keep <= set(B.universe):
        return False
    if A.signature != B.signature:
        return False
    # m is injective, so it preserves and reflects a relation exactly when
    # it maps the relation onto its restriction to the images
    m = dict(zip(A.universe, images)).__getitem__
    return all(
        {tuple(map(m, t)) for t in ra} == {t for t in rb if keep.issuperset(t)}
        for (_, ra), (_, rb) in zip(A.relations, B.relations)
    )


def enumerate_embeddings(A: FiniteStructure, B: FiniteStructure) -> list[StructureEmbedding]:
    """All embeddings A -> B, ordered by image tuple over B's universe order."""
    out = []
    for images in permutations(B.universe, len(A.universe)):
        if _embedding_ok(A, B, images):
            out.append(StructureEmbedding(A, B, images))
    return out


# -- ages ----------------------------------------------------------------------


class _Age:
    def contains(self, s: FiniteStructure) -> bool:
        """Whether some structure of the age on s's universe is s."""
        return s.signature == self.signature and any(
            t.relations == s.relations
            for t in self.structures_on(s.universe, ((s.universe, s),))
        )

    def iso_classes(self, size: int):
        """`(s, Aut(s))` per isomorphism class on [size]: `_iso_classes`,
        which relabels every structure the age builds."""
        return _iso_classes(self, size)

    def embeddings(self, sigma: FiniteStructure, gamma: FiniteStructure):
        """The embeddings sigma -> gamma of two `iso_classes` structures, by
        image tuple: every injection, filtered."""
        return enumerate_embeddings(sigma, gamma)


class BuiltinAge(_Age):
    """Enumeration of all age structures on a fixed label set, one per
    inducing arrangement, deduplicated."""

    def __init__(self, kind_name: str):
        if kind_name not in BUILTIN_KINDS:
            raise MalformedInputError(f"unknown built-in age {kind_name!r}")
        self.kind_name = kind_name
        self._positions = {}  # side structure -> label -> place in `_inducing_arrangement`

    @property
    def signature(self):
        return _signature(self.kind_name)

    def iso_classes(self, size: int):
        """All structures on [size] are isomorphic: the one class is that of
        the identity arrangement, whose automorphisms are End([size])."""
        kind = BUILTIN_KINDS[self.kind_name]
        s = arrangement_structure(self.kind_name, range(1, size + 1))
        return [(s, list(_endomorphism_images(kind, size)))]

    def embeddings(self, sigma: FiniteStructure, gamma: FiniteStructure):
        """The embeddings [s] -> [n] of two `iso_classes` structures: the
        images of hom([s], [n]), already sorted."""
        images = hom_set(BUILTIN_KINDS[self.kind_name], sigma.size, gamma.size)
        return [StructureEmbedding(sigma, gamma, image) for image in images]

    def structures_on(self, labels, restrictions=()):
        """The age structures on the labels, each at its first inducing
        arrangement in `permutations(labels)` order.

        `restrictions` is `((images, gamma), ...)` with `images` among the
        labels: only structures whose restriction to `images` is `gamma`
        (its universe mapped onto `images` in order) are built.  The
        arrangements inducing `gamma` are `arr o g` for one of them, `arr`,
        and g in End([n]), so a partial arrangement is dropped as soon as the
        places in `arr` of its subsequence on some `images` are no prefix of
        an image array of End([n]).  Each `gamma`'s places are found once and
        kept for later calls; a `gamma` that no arrangement induces admits no
        structure.
        """
        labels = tuple(labels)
        if self.kind_name == "set":
            if all(gamma.signature == () for _, gamma in restrictions):
                yield plain_set_structure(labels)
            return
        prefixes = []
        member = {x: [] for x in labels}  # label -> (restriction, place in its arr)
        for r, (images, gamma) in enumerate(restrictions):
            if gamma not in self._positions:
                arr = self._inducing_arrangement(gamma)
                self._positions[gamma] = (
                    None if arr is None else {x: i for i, x in enumerate(arr, 1)}
                )
            position = self._positions[gamma]
            if position is None:
                return
            prefixes.append(_end_prefixes(BUILTIN_KINDS[self.kind_name], gamma.size))
            for x, y in zip(images, gamma.universe):
                member[x].append((r, position[y]))

        def extend(arr, subs):
            if len(arr) == len(labels):
                yield arr
                return
            for x in labels:
                if x in arr:
                    continue
                grown = list(subs)
                for r, i in member[x]:
                    grown[r] = subs[r] + (i,)
                    if grown[r] not in prefixes[r]:
                        break
                else:
                    yield from extend(arr + (x,), grown)

        seen = set()
        for arr in extend((), [()] * len(prefixes)):
            s = arrangement_structure(self.kind_name, arr)
            if s.relations not in seen:
                seen.add(s.relations)
                yield s

    def _inducing_arrangement(self, gamma: FiniteStructure):
        """The first arrangement of gamma's universe, in
        `permutations(gamma.universe)` order, whose structure is gamma, or
        None.  It is grown one label at a time, each prefix checked on the
        a-subsets through its newest label."""
        universe = gamma.universe
        if gamma.signature != self.signature:
            return None
        if self.kind_name == "set":
            return universe
        ((_, a),) = gamma.signature
        ((_, relation),) = gamma.relations
        if any(len(set(t)) != a for t in relation):
            return None  # an arrangement induces only tuples of distinct labels
        # R_a, the relation on [a], as positions into a's labels
        patterns = tuple(
            tuple(i - 1 for i in p)
            for p in canonical_relation(BUILTIN_KINDS[self.kind_name], a)
        )
        on = {}  # label set -> the tuples of the relation on it
        for t in relation:
            on.setdefault(frozenset(t), set()).add(t)

        def fits(labels):  # labels in arrangement order
            return on.get(frozenset(labels), set()) == {
                tuple(map(labels.__getitem__, p)) for p in patterns
            }

        def extend(arr):
            if len(arr) == len(universe):
                yield arr
                return
            for x in universe:
                if x not in arr and all(
                    fits(rest + (x,)) for rest in combinations(arr, a - 1)
                ):
                    yield from extend(arr + (x,))

        return next(extend(()), None)


@lru_cache(maxsize=None)
def _end_prefixes(kind: CategoryKind, n: int) -> frozenset:
    """Every prefix of every image array of End([n]).  Any two arrangements
    inducing one structure differ by a permutation of [n] preserving and
    reflecting R_n, so these are the places, in one inducing arrangement, of
    the prefixes of all of them."""
    return frozenset(g[:j] for g in _endomorphism_images(kind, n) for j in range(n + 1))


def _set_partitions(items, want):
    """Set partitions of the items, recursing on the tail first.

    `want` maps pairs `(a, b)`, `a` before `b` in items, to whether a and b
    share a block; partitions that break it are skipped, the rest keep their
    order.
    """
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    ties = [(b, want[first, b]) for b in rest if (first, b) in want]
    same = [b for b, equal in ties if equal]
    apart = [b for b, equal in ties if not equal]
    for part in _set_partitions(rest, want):
        block = {x: i for i, blk in enumerate(part) for x in blk}
        banned = {block[b] for b in apart}
        if same:  # first joins the block of same[0], if that keeps every tie
            i = block[same[0]]
            if i not in banned and all(block[b] == i for b in same):
                yield part[:i] + [[first] + part[i]] + part[i + 1 :]
            continue
        for i in range(len(part)):
            if i not in banned:
                yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


class PairAge(_Age):
    """Structures whose points are distinct ordered pairs over a base set.

    The signature records which coordinates coincide: a unary relation for
    diagonal points and four binary coordinate-equality relations.  A labeled
    structure belongs to the age iff some identification of the 2k coordinate
    slots realizes exactly the recorded relations with all pairs distinct.
    """

    signature = (
        ("diag", 1),
        ("eq_ff", 2),
        ("eq_fs", 2),
        ("eq_sf", 2),
        ("eq_ss", 2),
    )

    def __init__(self):
        self._facts = {}  # side structure -> `_slot_facts` of it

    @staticmethod
    def from_pairs(labels, pairs) -> FiniteStructure:
        labels = tuple(labels)
        pairs = [tuple(p) for p in pairs]
        if len(labels) != len(pairs) or len(set(pairs)) != len(pairs):
            raise MalformedInputError("need one distinct pair per label")
        coord = dict(zip(labels, pairs))
        rels = {name: set() for name, _ in PairAge.signature}
        rels["diag"].update((x,) for x in labels if coord[x][0] == coord[x][1])
        for x, y in permutations(labels, 2):
            (a, b), (c, d) = coord[x], coord[y]
            if a == c:
                rels["eq_ff"].add((x, y))
            if a == d:
                rels["eq_fs"].add((x, y))
            if b == c:
                rels["eq_sf"].add((x, y))
            if b == d:
                rels["eq_ss"].add((x, y))
        relations = tuple((name, frozenset(ts)) for name, ts in rels.items())
        return FiniteStructure(labels, PairAge.signature, relations)

    def structures_on(self, labels, restrictions=()):
        """The age structures on the labels, one per slot partition with
        distinct pairs (the relations record every equality of two slots, so
        no two coincide), in `_set_partitions` order; label i owns slots 2i
        and 2i + 1.

        `restrictions` is as for `BuiltinAge.structures_on`.  Each one fixes,
        for every pair of slots of its points, whether the two coordinates are
        equal, and only partitions that keep all of these are built.
        """
        labels = tuple(labels)
        k = len(labels)
        want = self._slot_constraints(labels, restrictions)
        if want is None:
            return
        for part in _set_partitions(range(2 * k), want):
            cls = {}
            for i, block in enumerate(part):
                for s in block:
                    cls[s] = i
            pairs = [(cls[2 * i], cls[2 * i + 1]) for i in range(k)]
            if len(set(pairs)) == k:
                yield PairAge.from_pairs(labels, pairs)

    @staticmethod
    def _slot_facts(gamma: FiniteStructure):
        """`((a, b), equal)` over gamma's own slots `a < b`, label i of its
        universe owning slots 2i and 2i + 1: whether gamma has the two
        coordinates equal.  None if gamma is outside the signature, relates a
        point to itself, or states one pair of slots both ways."""
        if gamma.signature != PairAge.signature:
            return None
        slot = {x: 2 * i for i, x in enumerate(gamma.universe)}
        rels = dict(gamma.relations)
        facts = {(slot[x], slot[x] + 1): (x,) in rels["diag"] for x in gamma.universe}
        for name, (i, j) in _PAIR_SLOTS.items():
            for x, y in product(gamma.universe, repeat=2):
                if x != y:
                    a, b = slot[x] + i, slot[y] + j
                    equal = (x, y) in rels[name]
                    if facts.setdefault((a, b) if a < b else (b, a), equal) != equal:
                        return None
                elif (x, x) in rels[name]:
                    return None  # no structure of the age relates a point to itself
        return tuple(facts.items())

    def _slot_constraints(self, labels, restrictions):
        """`{(a, b): equal}` over slots `a < b` of the labels, label i owning
        slots 2i and 2i + 1: each gamma's `_slot_facts`, built once per gamma,
        moved onto the slots of its images.  None if the restrictions
        contradict each other or no structure can meet them."""
        slot_of = {x: 2 * i for i, x in enumerate(labels)}
        want = {}
        for images, gamma in restrictions:
            if gamma not in self._facts:
                self._facts[gamma] = self._slot_facts(gamma)
            facts = self._facts[gamma]
            if facts is None:
                return None
            to = [slot_of[y] + o for y in images for o in (0, 1)]
            for (a, b), equal in facts:
                a, b = to[a], to[b]
                if want.setdefault((a, b) if a < b else (b, a), equal) != equal:
                    return None
        return want


# slot offsets (first coordinate 0, second 1) compared by each binary relation
_PAIR_SLOTS = {"eq_ff": (0, 0), "eq_fs": (0, 1), "eq_sf": (1, 0), "eq_ss": (1, 1)}


def age_for(name: str):
    if name == "pair":
        return PairAge()
    return BuiltinAge(name)


# -- amalgamation ---------------------------------------------------------------


class AmalgamationProblem(namedtuple("AmalgamationProblem", "sigma gamma1 gamma2 f1 f2 age")):
    """Embeddings f1: sigma -> gamma1 and f2: sigma -> gamma2 of structures
    in an age."""

    __slots__ = ()

    @classmethod
    def checked(cls, f1, f2, age) -> "AmalgamationProblem":
        """The problem posed by two embeddings read from outside, or
        MalformedInputError if they do not share a source inside the age."""
        if f2.source != f1.source:
            raise MalformedInputError("f2 must embed sigma into gamma2")
        problem = cls(f1.source, f1.target, f2.target, f1, f2, age)
        _pushout_labels(problem)  # the cap fires before the membership checks
        for s in (f1.source, f1.target, f2.target):
            if not age.contains(s):
                raise MalformedInputError("structure outside the age")
        return problem


# embeddings g1: gamma1 -> delta and g2: gamma2 -> delta
Amalgam = namedtuple("Amalgam", "delta g1 g2")


def _pushout_labels(p: AmalgamationProblem):
    """Labels for the set pushout, plus the two canonical injections.
    Raises ResourceCapError above `PUSHOUT_LABEL_CAP` labels."""
    f1 = p.f1.mapping
    f2 = p.f2.mapping
    inv1 = {v: k for k, v in f1.items()}
    inv2 = {v: k for k, v in f2.items()}
    labels = [("S", a) for a in p.sigma.universe]
    m1 = {f1[a]: ("S", a) for a in p.sigma.universe}
    m2 = {f2[a]: ("S", a) for a in p.sigma.universe}
    for x in p.gamma1.universe:
        if x not in inv1:
            m1[x] = ("L", x)
            labels.append(("L", x))
    for x in p.gamma2.universe:
        if x not in inv2:
            m2[x] = ("R", x)
            labels.append(("R", x))
    if len(labels) > PUSHOUT_LABEL_CAP:
        raise ResourceCapError(f"pushout universe of size {len(labels)} exceeds cap")
    return labels, m1, m2


def _candidate_universes(labels, m1, m2, strong: bool):
    """`(universe, map1, map2)` in search order: the set pushout, then, unless
    strong, every way of merging private points of the two sides."""
    yield tuple(labels), m1, m2
    if strong:
        return
    left = [x for x in labels if x[0] == "L"]
    right = [x for x in labels if x[0] == "R"]
    for k in range(1, min(len(left), len(right)) + 1):
        for lsel in combinations(left, k):
            for rsel in permutations(right, k):
                merge = dict(zip(lsel, rsel))
                univ = tuple(x for x in labels if x not in merge)
                yield univ, {x: merge.get(y, y) for x, y in m1.items()}, m2


def solve_amalgamation(p: AmalgamationProblem, strong: bool = True) -> Amalgam | None:
    """Search for a (strong) amalgam of the problem within the age.

    For strong the universe is fixed to the set pushout; for weak, every way
    of additionally identifying points of the two sides is tried as well.
    On each universe the age builds only structures that restrict to both
    sides.  Returns the first amalgam in a deterministic search order, or None.
    """
    labels, m1, m2 = _pushout_labels(p)
    for univ, map1, map2 in _candidate_universes(labels, m1, m2, strong):
        img1 = tuple(map1[x] for x in p.gamma1.universe)
        img2 = tuple(map2[x] for x in p.gamma2.universe)
        restrictions = ((img1, p.gamma1), (img2, p.gamma2))
        delta = next(p.age.structures_on(univ, restrictions), None)
        if delta is not None:
            return Amalgam(
                delta,
                StructureEmbedding(p.gamma1, delta, img1),
                StructureEmbedding(p.gamma2, delta, img2),
            )
    return None


def _iso_classes(age, size: int):
    """`(s, Aut(s))` for the first structure s the age builds in each
    isomorphism class on [size], sorted by the least of its relabelings.
    A kept structure covers all its relabelings, listed once, so later
    members of its class cost one set lookup; Aut(s) is read off the same
    list, as the permutations p (each a tuple, p[x - 1] the image of x) whose
    relabeling equals the identity's, the first."""
    labels = tuple(range(1, size + 1))
    perms = list(permutations(labels))
    keyed, covered = [], set()
    for s in age.structures_on(labels):
        if s.relations not in covered:
            relabelings = [
                [
                    (name, sorted(tuple([p[x - 1] for x in t]) for t in ts))
                    for name, ts in s.relations
                ]
                for p in perms
            ]
            covered.update(tuple((name, frozenset(ts)) for name, ts in r) for r in relabelings)
            aut = [p for p, r in zip(perms, relabelings) if r == relabelings[0]]
            keyed.append((min(relabelings), s, aut))
    return [(s, aut) for _, s, aut in sorted(keyed, key=itemgetter(0))]


# certificate: an AmalgamationProblem without a strong amalgam, or None
SapReport = namedtuple("SapReport", "holds certificate")


def _sap_problems(age, size_cap: int):
    """The diagrams with sides <= cap that `age_has_sap` checks, in order.

    Problems are enumerated up to isomorphism of the three structures and up
    to automorphisms of the sides, which act on the two embeddings
    separately: each side keeps the first of `age.embeddings` of sigma with
    each key, the least image of its image tuple under Aut(gamma) from
    `age.iso_classes`, and the problems are the product of two sides' lists.
    """
    by_size = {k: age.iso_classes(k) for k in range(0, size_cap + 1)}
    for s_size in range(0, size_cap + 1):
        for sigma, _ in by_size[s_size]:
            sides = []  # (gamma, its embeddings of sigma, one per key)
            for n in range(s_size, size_cap + 1):
                for gamma, aut in by_size[n]:
                    kept = {}
                    for f in age.embeddings(sigma, gamma):
                        key = min(tuple(p[y - 1] for y in f.images) for p in aut)
                        kept.setdefault(key, f)
                    if kept:
                        sides.append((gamma, list(kept.values())))
            for (gamma1, side1), (gamma2, side2) in product(sides, repeat=2):
                for f1, f2 in product(side1, side2):
                    yield AmalgamationProblem(sigma, gamma1, gamma2, f1, f2, age)


def age_has_sap(age, size_cap: int) -> SapReport:
    """Exhaustive strong-amalgamation check over `_sap_problems`."""
    if size_cap < 1:
        raise MalformedInputError("size_cap must be >= 1")
    if isinstance(age, str):
        age = age_for(age)
    if 2 * size_cap > PUSHOUT_LABEL_CAP:
        # sigma = {} comes first, and every built-in age holds the disjoint
        # union of two of its structures, so ({}, Gamma1, Gamma2) amalgamates
        # until two sides of size_cap points outgrow the pushout cap: fail now
        # as that search would (an age without disjoint unions may fail first)
        raise ResourceCapError(f"pushout universe of size {PUSHOUT_LABEL_CAP + 1} exceeds cap")
    for problem in _sap_problems(age, size_cap):
        if solve_amalgamation(problem, strong=True) is None:
            return SapReport(False, problem)
    return SapReport(True, None)


# -- text format -----------------------------------------------------------------


def format_structure(s: FiniteStructure) -> str:
    lines = ["universe = " + " ".join(str(x) for x in s.universe)]
    for (name, arity), (_, tuples) in zip(s.signature, s.relations):
        body = " ".join(
            "(" + ",".join(str(x) for x in t) + ")" for t in sorted(tuples)
        )
        lines.append(f"{name}/{arity}: {body}".rstrip())
    return "\n".join(lines)


def parse_structure(text: str) -> FiniteStructure:
    """Parse `universe = a b c` followed by `R/3: (a,b,c) (b,a,c) ...` lines."""
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines or not lines[0].startswith("universe"):
        raise MalformedInputError("structure file must start with `universe = ...`")
    _, _, rest = lines[0].partition("=")
    universe = tuple(rest.split())
    signature = []
    relations = {}
    for ln in lines[1:]:
        head, _, body = ln.partition(":")
        if "/" not in head:
            raise MalformedInputError(f"bad relation header: {ln!r}")
        name, _, arity = head.strip().partition("/")
        tuples = []  # in file order, so that an invalid one is named as read
        for tok in body.split():
            if not (tok.startswith("(") and tok.endswith(")")):
                raise MalformedInputError(f"bad tuple token: {tok!r}")
            tuples.append(tuple(t.strip() for t in tok[1:-1].split(",") if t.strip()))
        signature.append((name.strip(), parse_int(arity, "relation arity")))
        relations[name.strip()] = tuples
    return make_structure(universe, signature, relations)


def parse_embedding_file(text: str) -> StructureEmbedding:
    """Embedding file: `[source]` and `[target]` structure sections and a
    `[map]` section with `a -> x` lines."""
    sections = {}
    current = None
    for ln in text.splitlines():
        stripped = ln.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].lower()
            sections[current] = []
        elif current is not None:
            sections[current].append(ln)
    for needed in ("source", "target", "map"):
        if needed not in sections:
            raise MalformedInputError(f"embedding file missing [{needed}] section")
    src = parse_structure("\n".join(sections["source"]))
    tgt = parse_structure("\n".join(sections["target"]))
    mapping = {}
    for ln in sections["map"]:
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        a, _, b = ln.partition("->")
        mapping[a.strip()] = b.strip()
    images = tuple(mapping.get(x) for x in src.universe)
    if any(v is None for v in images):
        raise MalformedInputError("map section does not cover the source universe")
    if not _embedding_ok(src, tgt, images):
        raise MalformedInputError("not an embedding")
    return StructureEmbedding(src, tgt, images)
