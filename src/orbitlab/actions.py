"""Finite permutation actions: orbits, growth functions, density, restriction.

A group is given by generators.  The orbit of a tuple of points comes with a
transversal (one element sending the tuple to each image), built from the
generators alone.  On 1-tuples it drives a base and strong generating set
(deterministic Schreier-Sims), which gives the group order; on subsets,
Schreier's lemma turns it into generators of the pointwise stabilizer
G_Gamma, whose common fixed points are Fix(G_Gamma).  Pointwise stabilizers
as element lists, subgroup tests and the fullness witness list the group
once by breadth-first closure of the generators, in sorted order and against
the group-order cap.  Permutations are tuples p of length N with p[i-1] the
image of the point i; points are 1-based to match the rest of the library.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb, factorial

from .errors import MalformedInputError, ResourceCapError, parse_int

Perm = tuple[int, ...]

DEFAULT_GROUP_ORDER_CAP = 20_000
DEFAULT_SPACE_CAP = 1_000_000


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def pmul(a: Perm, b: Perm) -> Perm:
    """The permutation 'a after b': x -> a(b(x))."""
    return tuple(a[v - 1] for v in b)


def pinv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v - 1] = i + 1
    return tuple(out)


def act_tuple(g: Perm, tup: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(g[x - 1] for x in tup)


def act_set(g: Perm, s: frozenset[int]) -> frozenset[int]:
    return frozenset(g[x - 1] for x in s)


def mulclose(gens, n: int, cap: int = DEFAULT_GROUP_ORDER_CAP) -> list[Perm]:
    """All products of the generators, in deterministic sorted order."""
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
                        raise ResourceCapError(
                            f"group order exceeds cap {cap}"
                        )
        bdy = new
    return sorted(els)


def _sift(g: Perm, base, transversals, start: int) -> tuple[Perm, int]:
    """Divide g by transversal elements from level `start` on; return the
    residue and the level where it left the chain (len(base) if none)."""
    for i in range(start, len(base)):
        u = transversals[i].get((g[base[i] - 1],))
        if u is None:
            return g, i
        g = pmul(pinv(u), g)
    return g, len(base)


def _orbit_transversal(base: tuple, gens, ident: Perm, cap: int | None = None) -> dict:
    """Orbit of the point tuple `base` under <gens>: each image tuple -> an
    element sending `base` to it.  Raises ResourceCapError as soon as the
    orbit outgrows `cap`."""
    transversal = {base: ident}
    bdy = [base]
    while bdy:
        new = []
        for k in bdy:
            for s in gens:
                image = act_tuple(s, k)
                if image not in transversal:
                    transversal[image] = pmul(s, transversal[k])
                    new.append(image)
                    if cap is not None and len(transversal) > cap:
                        raise ResourceCapError(f"orbit of {base} exceeds cap {cap}")
        bdy = new
    return transversal


def _schreier_sims_order(gens, n: int) -> int:
    """Order of the group generated by `gens`, as the product of the basic
    orbit lengths of a base and strong generating set built by deterministic
    Schreier-Sims (Sims 1970; Seress, Permutation Group Algorithms, ch. 4).
    Lists no group elements."""
    ident = identity_perm(n)
    gens = [g for g in gens if g != ident]

    def moved(g: Perm) -> int:
        return next(x for x in range(1, n + 1) if g[x - 1] != x)

    base: list = []
    for g in gens:
        if all(g[b - 1] == b for b in base):
            base.append(moved(g))
    # strong[i] generates the pointwise stabilizer of base[:i] once done
    strong = [[g for g in gens if all(g[b - 1] == b for b in base[:i])] for i in range(len(base))]
    transversals = [_orbit_transversal((b,), s, ident) for b, s in zip(base, strong)]

    def residue(i: int):
        """A Schreier generator of level i that does not sift, or None."""
        t = transversals[i]
        for (p,), u in t.items():
            for s in strong[i]:
                h, j = _sift(pmul(pinv(t[(s[p - 1],)]), pmul(s, u)), base, transversals, i + 1)
                if h != ident:
                    return h, j
        return None

    i = len(base) - 1
    while i >= 0:
        found = residue(i)
        if found is None:
            i -= 1
            continue
        h, j = found
        if j == len(base):
            base.append(moved(h))
            strong.append([])
            transversals.append(None)
        for level in range(i + 1, j + 1):
            strong[level].append(h)
            transversals[level] = _orbit_transversal((base[level],), strong[level], ident)
        i = j
    order = 1
    for t in transversals:
        order *= len(t)
    return order


def _check_perm(p, n: int) -> Perm:
    p = tuple(p)
    if sorted(p) != list(range(1, n + 1)):
        raise MalformedInputError(f"{p} is not a permutation of [{n}]")
    return p


@dataclass(frozen=True)
class FiniteAction:
    """A permutation group on {1,...,N} given by generators."""

    domain_size: int
    generators: tuple[Perm, ...]
    order_cap: int = DEFAULT_GROUP_ORDER_CAP
    _elements: list = field(default=None, compare=False, repr=False)
    # write-once indexes: stabilizers over elements(), keyed by sorted point
    # tuples, and orbit transversals, keyed by point tuples
    _stabilizers: dict = field(default=None, init=False, compare=False, repr=False)
    _orbits: dict = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.domain_size < 1:
            raise MalformedInputError("domain size must be positive")
        gens = tuple(_check_perm(g, self.domain_size) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_elements", [])
        object.__setattr__(self, "_stabilizers", {})
        object.__setattr__(self, "_orbits", {})

    def elements(self) -> list[Perm]:
        # write-once memo; the value is deterministic so races are harmless
        if not self._elements:
            self._elements.extend(
                mulclose(self.generators, self.domain_size, self.order_cap)
            )
        return self._elements

    def order(self) -> int:
        """The group order, from the generators alone (no cap applies)."""
        return _schreier_sims_order(self.generators, self.domain_size)

    def element_set(self) -> frozenset:
        return frozenset(self.elements())

    def contains_action(self, other: "FiniteAction") -> bool:
        """Whether `other` generates a subgroup of this group."""
        if other.domain_size != self.domain_size:
            return False
        mine = self.element_set()
        return all(g in mine for g in other.generators)

    def _points(self, points) -> tuple[int, ...]:
        pts = tuple(sorted(set(points)))
        if pts and not (1 <= pts[0] and pts[-1] <= self.domain_size):
            raise MalformedInputError(f"points {pts} are not all in [{self.domain_size}]")
        return pts

    def pointwise_stabilizer(self, points) -> list[Perm]:
        """The elements fixing every given point, in sorted order."""
        return list(self._stabilizer(self._points(points)))

    def _stabilizer(self, pts: tuple[int, ...]) -> list[Perm]:
        """G_pts for sorted distinct pts, refined from G_{pts[:-1]}: the
        elements of the shorter prefix's stabilizer that fix pts[-1]."""
        stab = self._stabilizers.get(pts)
        if stab is None:
            if pts:
                x = pts[-1]
                stab = [g for g in self._stabilizer(pts[:-1]) if g[x - 1] == x]
            else:
                stab = self.elements()
            self._stabilizers[pts] = stab
        return stab

    def orbit_transversal(self, points) -> dict:
        """The orbit of the point tuple under the group: each image tuple ->
        an element sending `points` to it.  Built from the generators, held
        to the group-order cap, and cached per tuple; callers must not
        modify it."""
        pts = tuple(points)
        transversal = self._orbits.get(pts)
        if transversal is None:
            if not all(1 <= x <= self.domain_size for x in pts):
                raise MalformedInputError(f"points {pts} are not all in [{self.domain_size}]")
            ident = identity_perm(self.domain_size)
            transversal = _orbit_transversal(pts, self.generators, ident, self.order_cap)
            self._orbits[pts] = transversal
        return transversal

    def fixed_points(self, points) -> frozenset:
        """Fix(G_points), the points fixed by every element fixing the given
        points.  By Schreier's lemma the u_{s(k)}^-1 * s * u_k, over the orbit
        transversal u of the sorted points and the generators s, generate
        G_points, so a point is in Fix(G_points) iff they all fix it."""
        transversal = self.orbit_transversal(self._points(points))
        fixed = set(range(1, self.domain_size + 1))
        for k, u in transversal.items():
            for s in self.generators:
                h = pmul(pinv(transversal[act_tuple(s, k)]), pmul(s, u))
                fixed = {x for x in fixed if h[x - 1] == x}
        return frozenset(fixed)


def symmetric_action(n: int) -> FiniteAction:
    gens = []
    if n >= 2:
        gens.append(tuple([2, 1] + list(range(3, n + 1))))
    if n >= 3:
        gens.append(tuple(list(range(2, n + 1)) + [1]))
    if not gens:
        gens = [identity_perm(n)]
    return FiniteAction(n, tuple(gens))


def trivial_action(n: int) -> FiniteAction:
    return FiniteAction(n, (identity_perm(n),))


# -- orbit enumeration -------------------------------------------------------

MODES = ("power", "injective", "subsets")


@dataclass(frozen=True)
class Orbit:
    representative: tuple
    elements: frozenset

    @property
    def size(self) -> int:
        return len(self.elements)


def _space(N: int, n: int, mode: str):
    if mode == "power":
        return product(range(1, N + 1), repeat=n), N**n
    if mode == "injective":
        return permutations(range(1, N + 1), n), factorial(N) // factorial(N - n)
    if mode == "subsets":
        return (frozenset(c) for c in combinations(range(1, N + 1), n)), comb(N, n)
    raise MalformedInputError(f"unknown mode {mode!r}")


def _act(mode: str):
    return act_set if mode == "subsets" else act_tuple


def _key(x, mode: str):
    return tuple(sorted(x)) if mode == "subsets" else x


def orbits(
    action: FiniteAction,
    n: int,
    mode: str = "injective",
    space_cap: int = DEFAULT_SPACE_CAP,
) -> list[Orbit]:
    """Orbits on n-tuples (power/injective) or n-subsets, reps lex-minimal."""
    N = action.domain_size
    if mode in ("injective", "subsets") and n > N:
        raise MalformedInputError(f"n={n} exceeds domain size {N} for mode {mode}")
    points, total = _space(N, n, mode)
    if total > space_cap:
        raise ResourceCapError(f"space of size {total} exceeds cap {space_cap}")
    act = _act(mode)
    gens = action.generators
    seen = set()
    out = []
    for x in points:
        kx = _key(x, mode)
        if kx in seen:
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
        seen.update(_key(y, mode) for y in orbit)
        rep = min(_key(y, mode) for y in orbit)
        out.append(Orbit(rep, frozenset(orbit)))
    out.sort(key=lambda o: o.representative)
    return out


def orbit_count(action: FiniteAction, n: int, mode: str) -> int:
    if n == 0:
        return 1
    return len(orbits(action, n, mode))


# -- growth functions --------------------------------------------------------


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Partitions of an n-set into k nonempty blocks."""
    if n < 0 or k < 0:
        raise MalformedInputError(f"need n, k >= 0, got n={n}, k={k}")
    if k > n:
        return 0
    if n == 0:
        return 1
    if k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


@dataclass(frozen=True)
class GrowthProfile:
    """Orbit counts for n = 1..max_n: f on subsets, F on injective tuples,
    F_star on all tuples."""

    f: tuple[int, ...]
    F: tuple[int, ...]
    F_star: tuple[int, ...]
    max_n: int

    def validate(self, domain_size: int | None = None) -> None:
        for i in range(self.max_n):
            n = i + 1
            if not self.f[i] <= self.F[i] <= factorial(n) * self.f[i]:
                raise AssertionError(f"sandwich inequality fails at n={n}")
            expected = sum(
                stirling2(n, j) * self.F[j - 1] for j in range(1, n + 1)
            )
            if self.F_star[i] != expected:
                raise AssertionError(f"Stirling identity fails at n={n}")
        for arr in (self.F, self.F_star):
            if any(a > b for a, b in zip(arr, arr[1:])):
                raise AssertionError("F and F_star must be nondecreasing")
        # f can genuinely dip past the midpoint of a finite domain (e.g. the
        # trivial group has f(n) = C(N,n)); monotonicity is only guaranteed
        # while n+1 <= N-n, so the check stops there.
        if domain_size is not None:
            for i in range(self.max_n - 1):
                n = i + 1
                if n + 1 <= domain_size - n and self.f[i] > self.f[i + 1]:
                    raise AssertionError(f"f decreases at n={n} inside the safe range")


def growth_profile(action: FiniteAction, max_n: int) -> GrowthProfile:
    if max_n > action.domain_size:
        raise MalformedInputError("max_n exceeds domain size")
    if max_n < 0:
        raise MalformedInputError("max_n must be a natural number")
    f = tuple(orbit_count(action, n, "subsets") for n in range(1, max_n + 1))
    F = tuple(orbit_count(action, n, "injective") for n in range(1, max_n + 1))
    F_star = tuple(orbit_count(action, n, "power") for n in range(1, max_n + 1))
    profile = GrowthProfile(f, F, F_star, max_n)
    profile.validate(action.domain_size)
    return profile


# -- shared orbits and density -----------------------------------------------


def _orbit_partition(action: FiniteAction, n: int, mode: str) -> frozenset:
    return frozenset(
        frozenset(_key(y, mode) for y in o.elements) for o in orbits(action, n, mode)
    )


def same_orbits(G: FiniteAction, H: FiniteAction, n: int, mode: str = "injective") -> bool:
    """Whether G and H induce the same orbit partition on the given space."""
    if G.domain_size != H.domain_size:
        raise MalformedInputError("actions live on different domains")
    if n == 0:
        return True
    return _orbit_partition(G, n, mode) == _orbit_partition(H, n, mode)


@dataclass(frozen=True)
class LemmaReport:
    """Evaluations of the four same-orbit conditions at level n:
    (1) on all n-tuples, (2) on injective n-tuples, (3) on all s-tuples for
    every s <= n, (4) on injective s-tuples for every s <= n."""

    n: int
    cond1: bool
    cond2: bool
    cond3: bool
    cond4: bool
    witness: str | None

    @property
    def consistent(self) -> bool:
        return len({self.cond1, self.cond2, self.cond3, self.cond4}) == 1


def lemma_equivalence_check(G: FiniteAction, H: FiniteAction, n: int) -> LemmaReport:
    if n > G.domain_size:
        raise MalformedInputError("n exceeds domain size")
    if n < 0:
        raise MalformedInputError("n must be a natural number")
    c1 = same_orbits(G, H, n, "power")
    c2 = same_orbits(G, H, n, "injective")
    # (3) and (4) include level n itself, which (1) and (2) already settled
    c3 = c1 and all(same_orbits(G, H, s, "power") for s in range(1, n))
    c4 = c2 and all(same_orbits(G, H, s, "injective") for s in range(1, n))
    witness = None
    if len({c1, c2, c3, c4}) != 1:
        witness = f"conditions disagree: ({c1}, {c2}, {c3}, {c4})"
    return LemmaReport(n, c1, c2, c3, c4, witness)


def _require_subgroup(H: FiniteAction, G: FiniteAction) -> None:
    if not G.contains_action(H):
        raise MalformedInputError("H is not a subgroup of G")


def is_t_dense(H: FiniteAction, G: FiniteAction, t: int) -> bool:
    """Whether H meets every coset of every stabilizer of a set of size <= t.

    Computed as |H| * |G_Gamma| == |G| * |H intersect G_Gamma| for each Gamma,
    the counting form of the product condition H * G_Gamma = G.
    """
    _require_subgroup(H, G)
    N = G.domain_size
    if t > N:
        raise MalformedInputError("t exceeds domain size")
    if t < 0:
        raise MalformedInputError("t must be a natural number")
    order_G, order_H = G.order(), H.order()
    for size in range(1, t + 1):
        for gamma in combinations(range(1, N + 1), size):
            stab = G.pointwise_stabilizer(gamma)
            meet = H.pointwise_stabilizer(gamma)
            if order_H * len(stab) != order_G * len(meet):
                return False
    return True


# -- the permutation module Q(G/K) and the fullness witness -------------------


@dataclass
class PermutationModule:
    """The free Q-module on the left cosets of K in G, permuted by G."""

    action: FiniteAction
    subgroup: FiniteAction
    cosets: list  # list of frozensets of group elements
    coset_index: dict
    reps: list

    @classmethod
    def build(cls, G: FiniteAction, K: FiniteAction) -> "PermutationModule":
        _require_subgroup(K, G)
        k_els = K.elements()
        cosets = []
        index = {}
        reps = []
        for g in G.elements():
            if g in index:
                continue
            coset = frozenset(pmul(g, k) for k in k_els)
            for x in coset:
                index[x] = len(cosets)
            reps.append(min(coset))
            cosets.append(coset)
        return cls(G, K, cosets, index, reps)

    def act_on_index(self, g: Perm, i: int) -> int:
        return self.coset_index[pmul(g, self.reps[i])]


@dataclass(frozen=True)
class FullnessWitness:
    g: Perm
    coset_index: int
    lhs: Fraction
    rhs: Fraction


def restriction_fullness_witness(
    G: FiniteAction, H: FiniteAction, K: FiniteAction
) -> FullnessWitness | None:
    """Probe whether every H-equivariant map out of Q(G/K) is G-equivariant.

    Builds the indicator map f of the H-orbit of the trivial coset, checks it
    is H-equivariant, and returns None when HK = G (f is then G-equivariant).
    Otherwise returns a group element and coset on which f and the G-action
    disagree, assembled from one coset inside HK and one outside.
    """
    _require_subgroup(H, G)
    _require_subgroup(K, G)
    module = PermutationModule.build(G, K)
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
    for h in H.elements():
        for i in range(len(module.cosets)):
            if f[module.act_on_index(h, i)] != f[i]:
                raise AssertionError("indicator map is not H-equivariant")

    if len(hk) == len(module.cosets):
        return None

    outside = min(i for i in range(len(module.cosets)) if i not in hk)
    g1 = min(module.cosets[outside])
    # g0 = identity represents the trivial coset, so g = g1 * g0^{-1} = g1
    g = g1
    lhs = f[module.act_on_index(g, base)]
    rhs = f[base]
    if lhs == rhs:
        raise AssertionError("constructed witness does not separate")
    return FullnessWitness(g, base, lhs, rhs)


# -- parsing -------------------------------------------------------------------

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def perm_from_cycles(text: str, n: int) -> Perm:
    out = list(range(1, n + 1))
    body = text.replace(",", " ")
    consumed = _CYCLE_RE.sub("", body).strip()
    if consumed:
        raise MalformedInputError(f"junk in cycle notation: {text!r}")
    for cyc in _CYCLE_RE.findall(body):
        pts = [parse_int(tok, "cycle entry") for tok in cyc.split()]
        if not pts:
            continue
        if len(set(pts)) != len(pts) or any(not 1 <= p <= n for p in pts):
            raise MalformedInputError(f"bad cycle {cyc!r} for domain [{n}]")
        for a, b in zip(pts, pts[1:] + pts[:1]):
            out[a - 1] = b
    return _check_perm(out, n)


def parse_group_file(text: str) -> FiniteAction:
    """Group input: header `N=5`, then one permutation per line, either in
    cycle notation `(1 2)(3 4 5)` or one-line notation `[2,1,5,3,4]`."""
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines or not re.match(r"^N\s*=\s*\d+$", lines[0]):
        raise MalformedInputError("group file must start with a header like N=5")
    n = int(lines[0].split("=")[1])
    if n > DEFAULT_SPACE_CAP:  # every permutation is a list of n points
        raise ResourceCapError(f"domain size {n} exceeds cap {DEFAULT_SPACE_CAP}")
    gens = []
    for ln in lines[1:]:
        if ln.startswith("["):
            if not ln.endswith("]"):
                raise MalformedInputError(f"bad one-line permutation: {ln!r}")
            vals = [
                parse_int(tok, "permutation entry")
                for tok in ln[1:-1].split(",")
                if tok.strip()
            ]
            gens.append(_check_perm(vals, n))
        else:
            gens.append(perm_from_cycles(ln, n))
    if not gens:
        gens = [identity_perm(n)]
    return FiniteAction(n, tuple(gens))
