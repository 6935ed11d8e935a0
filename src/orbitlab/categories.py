"""The five injection categories FI, OI, BI, CI, SI on objects [n] = {1,...,n}.

Morphisms are injections that preserve *and* reflect the canonical relation
of their kind (no relation for FI, the linear order for OI, betweenness for
BI, the cyclic order for CI, the separation relation for SI).  Each relation
holds on a tuple exactly when it holds on the tuple's order pattern, so an
injection is valid exactly when the pattern of each a-subset of [m], a the
relation's arity, lies in End([a]).  Everything is materialized explicitly:
composition is array lookup, and a hom-set is the sorted list of the image
arrays of eps' o g over the increasing injections eps' and g in End([m]),
the unique factorization of a morphism, composed in one pass per g;
End([m]) = hom_set(kind, m, m) has a closed form per kind.  A morphism the
library builds is its image array, and the arrays of one hom-set are
formatted from one `%` template.  `InjectionMorphism` is the checked form of
a morphism read from outside (`parse_morphism`, `InjectionMorphism.checked`),
and the argument and results of `factorize` and `compose`.
"""

from __future__ import annotations

import re
from collections import namedtuple
from enum import Enum
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial
from operator import itemgetter

from .errors import FalsificationError, MalformedInputError, ResourceCapError, format_count, parse_int

# Bound on the morphisms built per hom-set (all 10! of FI [10] -> [10] fit),
# ten times it on their image entries, and on the factorizations of one
# restriction check.
DEFAULT_ENUMERATION_CAP = 4_000_000


class CategoryKind(Enum):
    FI = "FI"
    OI = "OI"
    BI = "BI"
    CI = "CI"
    SI = "SI"

    # members are singletons: hash by identity, since Enum.__hash__ runs in
    # Python on every cache lookup keyed by a kind
    __hash__ = object.__hash__

    @classmethod
    def from_string(cls, s: str) -> "CategoryKind":
        try:
            return cls[s.strip().upper()]
        except KeyError:
            raise MalformedInputError(f"unknown category kind: {s!r}")


# Arity of the canonical relation; FI has none, OI's order is binary.
RELATION_ARITY = {
    CategoryKind.FI: 0,
    CategoryKind.OI: 2,
    CategoryKind.BI: 3,
    CategoryKind.CI: 3,
    CategoryKind.SI: 4,
}


def _cyclically_inside(n: int, a: int, b: int, c: int) -> bool:
    """True if c lies strictly inside the arc from a to b, walking 1,2,...,n,1."""
    return 0 < (c - a) % n < (b - a) % n


def in_relation(kind: CategoryKind, n: int, tup: tuple[int, ...]) -> bool:
    """Membership of a tuple of distinct points of [n] in the canonical relation."""
    if kind is CategoryKind.FI:
        return False
    if kind is CategoryKind.OI:
        x, y = tup
        return x < y
    if kind is CategoryKind.BI:
        x, y, z = tup  # x between y and z
        return y < x < z or z < x < y
    if kind is CategoryKind.CI:
        x, y, z = tup
        return x < y < z or y < z < x or z < x < y
    if kind is CategoryKind.SI:
        x, y, z, w = tup  # chord {x,y} separates {z,w}
        return _cyclically_inside(n, x, y, z) != _cyclically_inside(n, x, y, w)
    raise AssertionError(kind)


@lru_cache(maxsize=None)
def _relation_patterns(kind: CategoryKind, a: int) -> frozenset[tuple[int, ...]]:
    """R_a: the order patterns p in S_a with in_relation(kind, a, p).  The
    relations are the reducts of (Q,<) (Cameron 1976): each holds on a tuple
    exactly when it holds on the tuple's pattern."""
    return frozenset(p for p in permutations(range(1, a + 1)) if in_relation(kind, a, p))


@lru_cache(maxsize=None)
def canonical_relation(kind: CategoryKind, n: int) -> frozenset[tuple[int, ...]]:
    """All tuples of distinct points of [n] in the canonical relation of `kind`:
    S o p over the a-subsets S of [n] and the patterns p in R_a."""
    a = RELATION_ARITY[kind]
    patterns = _relation_patterns(kind, a)
    return frozenset(
        tuple(S[i - 1] for i in p)
        for S in combinations(range(1, n + 1), a)
        for p in patterns
    )


def _validate_image(m: int, n: int, image) -> tuple[int, ...]:
    image = tuple(image)
    if len(image) != m:
        raise MalformedInputError(f"image has length {len(image)}, expected {m}")
    for v in image:
        if not isinstance(v, int) or not 1 <= v <= n:
            raise MalformedInputError(f"image entry {v!r} not in 1..{n}")
    return image


def is_morphism(kind: CategoryKind, m: int, n: int, image) -> bool:
    """Whether `image` defines an embedding [m] -> [n] of the given kind.

    Malformed input (wrong length, out-of-range entries) raises; a valid
    injection that fails the embedding condition returns False.
    """
    image = _validate_image(m, n, image)
    if len(set(image)) != m:
        return False
    a = RELATION_ARITY[kind]
    if m < a:
        return True
    allowed = _endomorphism_images(kind, a)
    for values in combinations(image, a):
        ordered = sorted(values)
        if tuple(ordered.index(v) + 1 for v in values) not in allowed:
            return False
    return True


class InjectionMorphism(namedtuple("InjectionMorphism", "kind source target image")):
    """An embedding [source] -> [target] of a CategoryKind; the tuple
    image[i] is the value of i+1."""

    __slots__ = ()

    @classmethod
    def checked(cls, kind, source, target, image) -> "InjectionMorphism":
        """The morphism with this image, or MalformedInputError if it is none."""
        image = tuple(image)
        if not is_morphism(kind, source, target, image):
            raise MalformedInputError(
                f"{image} is not a {kind.value} morphism [{source}] -> [{target}]"
            )
        return cls(kind, source, target, image)

    def __str__(self) -> str:
        return format_morphism(self)


def compose(f: InjectionMorphism, g: InjectionMorphism) -> InjectionMorphism:
    """The composite of f: [m]->[n] followed by g: [n]->[r]."""
    if f.kind is not g.kind:
        raise MalformedInputError(f"kind mismatch: {f.kind} vs {g.kind}")
    if f.target != g.source:
        raise MalformedInputError(
            f"object mismatch: f lands in [{f.target}], g starts at [{g.source}]"
        )
    return InjectionMorphism(
        f.kind, f.source, g.target, tuple([g.image[v - 1] for v in f.image])
    )


def hom_set(kind: CategoryKind, m: int, n: int) -> list[tuple[int, ...]]:
    """The image arrays of all morphisms [m] -> [n], sorted lexicographically;
    ResourceCapError, before any is built, when there are more than
    DEFAULT_ENUMERATION_CAP or their images hold more than ten times as many
    entries.  Each g in End([m]) composes all the increasing injections eps'
    in one pass."""
    size, cap = hom_size_formula(kind, m, n), DEFAULT_ENUMERATION_CAP
    if size > cap:
        raise ResourceCapError(
            f"hom_set({kind.value}, {m}, {n}): {format_count(size)} injections exceeds cap {cap}"
        )
    if size * m > 10 * cap:
        raise ResourceCapError(
            f"hom_set({kind.value}, {m}, {n}): {format_count(size * m)} image entries "
            f"exceeds cap {10 * cap}"
        )
    if size == 0:
        return []
    ends = _endomorphism_images(kind, m)
    if len(ends) == 1:  # the identity (always at m < 2, where itemgetter gives no tuple)
        return list(combinations(range(1, n + 1), m))
    images = []
    for g in ends:
        images.extend(map(itemgetter(*[i - 1 for i in g]), combinations(range(1, n + 1), m)))
    images.sort()
    return images


@lru_cache(maxsize=None)
def _endomorphism_images(kind: CategoryKind, m: int) -> tuple[tuple[int, ...], ...]:
    """End([m]) as sorted image arrays: all of S_m (FI), the identity (OI),
    the identity and the reversal (BI), the m rotations (CI), or the
    rotations and reflections (SI).  For small m these repeat (the reversal
    of [2] is a rotation); the set keeps each once."""
    ident = tuple(range(1, m + 1))
    if kind is CategoryKind.FI:
        return tuple(permutations(ident))
    images = {ident}
    if kind in (CategoryKind.BI, CategoryKind.SI):
        images.add(ident[::-1])
    if kind in (CategoryKind.CI, CategoryKind.SI):
        for g in tuple(images):
            images.update(g[r:] + g[:r] for r in range(m))
    return tuple(sorted(images))


# factorize checks its g (a permutation of [m]) and its eps' (an increasing
# injection) against the lemma; across a hom-set the same few recur
@lru_cache(maxsize=None)
def _is_morphism(kind: CategoryKind, m: int, n: int, image: tuple[int, ...]) -> bool:
    return is_morphism(kind, m, n, image)


def hom_size_formula(kind: CategoryKind, m: int, n: int) -> int:
    """Closed-form hom-set sizes, validated against enumeration in the tests."""
    if m < 0 or n < 0:
        raise MalformedInputError("objects must be natural numbers")
    if m > n:
        return 0
    if m == 0:
        return 1
    if kind is CategoryKind.FI:
        return factorial(n) // factorial(n - m)
    if kind is CategoryKind.OI:
        return comb(n, m)
    if kind is CategoryKind.BI:
        return n if m == 1 else 2 * comb(n, m)
    if kind is CategoryKind.CI:
        return m * comb(n, m)
    if kind is CategoryKind.SI:
        if m == 1:
            return n
        if m == 2:
            return n * (n - 1)
        return 2 * m * comb(n, m)
    raise AssertionError(kind)


def factorize(f: InjectionMorphism) -> tuple[InjectionMorphism, InjectionMorphism]:
    """Split f into (eps_prime, g) with f = eps_prime after g.

    eps_prime is the unique strictly increasing injection with the same image
    set as f; g is the endomorphism of [m] positioning f's entries inside the
    sorted image.  The factorization lemma says both are morphisms of f's kind
    and recompose to f; a failure of either claim raises FalsificationError.
    """
    kind, m, image = f.kind, f.source, f.image
    sorted_image = tuple(sorted(image))
    # m is small: a scan of the sorted image beats building a dict
    g_image = tuple([sorted_image.index(v) + 1 for v in image])
    if not _is_morphism(kind, m, m, g_image):
        raise FalsificationError(
            f"factorization of {f} produced a non-endomorphism g = {g_image}"
        )
    if not _is_morphism(kind, m, f.target, sorted_image):
        raise FalsificationError(
            f"factorization of {f} produced a non-morphism eps' = {sorted_image}"
        )
    if tuple([sorted_image[i - 1] for i in g_image]) != image:
        raise FalsificationError(f"factorization of {f} does not recompose")
    return (
        InjectionMorphism(kind, m, f.target, sorted_image),
        InjectionMorphism(kind, m, m, g_image),
    )


_MORPHISM_RE = re.compile(
    r"^\s*(FI|OI|BI|CI|SI)\s+(\d+)\s*->\s*(\d+)\s*:\s*\[([\d,\s]*)\]\s*$",
    re.IGNORECASE,
)


def format_morphism(f: InjectionMorphism) -> str:
    return morphism_template(f.kind, f.source, f.target) % f.image


@lru_cache(maxsize=None)  # fixed per hom-set
def morphism_template(kind: CategoryKind, source: int, target: int) -> str:
    """The `%` template that formats an image array [source] -> [target]."""
    return f"{kind.value} {source}->{target} : [{','.join(['%d'] * source)}]"


def parse_morphism(text: str) -> InjectionMorphism:
    """Parse the `KIND m->n : [i1,i2,...,im]` serialization."""
    m = _MORPHISM_RE.match(text)
    if not m:
        raise MalformedInputError(f"cannot parse morphism: {text!r}")
    kind = CategoryKind.from_string(m.group(1))
    src, tgt = int(m.group(2)), int(m.group(3))
    image = tuple(parse_int(tok, "image entry") for tok in m.group(4).split(",") if tok.strip())
    return InjectionMorphism.checked(kind, src, tgt, image)
