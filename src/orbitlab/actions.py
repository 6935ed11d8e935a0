"""Finite permutation actions: orbits, growth functions, density, restriction.

A group is given by generators, and everything else is built from them.  The
orbit of a tuple of points comes with a transversal (one element sending the
tuple to each image), and Schreier's lemma turns it into generators of the
pointwise stabilizer G_Gamma, whose common fixed points are Fix(G_Gamma).
Such stabilizers, one point at a time, are the nodes of the orbit tree, the
one orbit engine: along the sorted support, up to the first trivial one,
they give the group order and form a base and strong generating set
(the least element of each coset gK, so membership too); its node counts,
on all tuples and on injective ones in one descent, give the growth
functions F* and F, the same-orbit conditions and density;
its least sets give f; and its nodes name the relations of the canonical
structure.  No group is ever listed element by element.  Permutations are
tuples p of length N with p[i-1] the image of the point i; points are
1-based to match the rest of the library.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import factorial, prod
from operator import add, mul

from .errors import FalsificationError, MalformedInputError, ResourceCapError, parse_int

Perm = tuple[int, ...]

DEFAULT_GROUP_ORDER_CAP = 20_000
DEFAULT_SPACE_CAP = 1_000_000


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def pmul(a: Perm, b: Perm) -> Perm:
    """The permutation 'a after b': x -> a(b(x))."""
    return tuple([a[v - 1] for v in b])


def pinv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v - 1] = i + 1
    return tuple(out)


def act_tuple(g: Perm, tup: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([g[x - 1] for x in tup])


def _inverses(transversal: dict) -> dict:
    """Each point p of a point transversal -> the inverse of its element."""
    return {image: pinv(u) for (image,), u in transversal.items()}


def _orbit_transversal(base: tuple, gens, ident: Perm) -> dict:
    """Orbit of the point tuple `base` under <gens>: each image tuple -> an
    element sending `base` to it."""
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
        bdy = new
    return transversal


def _orbit(x, gens, act, cap: int | None = None, name: str = "orbit") -> set:
    """The orbit of x under <gens>, act(s, y) being the image of y under s.
    Raises ResourceCapError as soon as it outgrows `cap`."""
    orbit, bdy = {x}, [x]
    for y in bdy:
        for s in gens:
            z = act(s, y)
            if z not in orbit:
                orbit.add(z)
                bdy.append(z)
                if cap is not None and len(orbit) > cap:
                    raise ResourceCapError(f"{name} exceeds cap {cap}")
    return orbit


def _schreier_generators(transversal: dict, gens):
    """Yield u_{s(k)}^-1 * s * u_k over the orbit transversal u of a point
    tuple and the generators s, skipping the identities (s * u_k = u_{s(k)}):
    by Schreier's lemma they generate the stabilizer of that tuple (Seress,
    Permutation Group Algorithms, 4.1)."""
    inverses = {}
    for k, u in transversal.items():
        for s in gens:
            image, su = act_tuple(s, k), pmul(s, u)
            if su != transversal[image]:
                if image not in inverses:
                    inverses[image] = pinv(transversal[image])
                yield pmul(inverses[image], su)


def _least_in_coset(g: Perm, base, transversals) -> Perm:
    """The least element of the coset gK, K given by its chain.  Positions
    outside K's support are the same across gK; at each base point in
    ascending order, the transversal element minimising g's image there fixes
    every earlier base point, so the greedy choice is the lexicographic one."""
    for b, t in zip(base, transversals):
        g = pmul(g, min(t.values(), key=lambda u: g[u[b - 1] - 1]))
    return g


def _check_perm(p, n: int) -> Perm:
    p = tuple(p)
    if sorted(p) != list(range(1, n + 1)):
        raise MalformedInputError(f"{p} is not a permutation of [{n}]")
    return p


class FiniteAction(namedtuple("FiniteAction", "domain_size generators")):
    """A permutation group on {1,...,N} given by generators.  Instances keep
    a `__dict__` for the `_nodes` and `chain` caches."""

    def __new__(cls, domain_size: int, generators):
        if domain_size < 1:
            raise MalformedInputError("domain size must be positive")
        gens = tuple(_check_perm(g, domain_size) for g in generators)
        return super().__new__(cls, domain_size, gens)

    @cached_property
    def _nodes(self) -> dict:
        """The orbit-tree nodes expanded so far, keyed by point sets."""
        return {}

    def _support(self) -> tuple:
        N = self.domain_size
        return tuple(sorted({x for g in self.generators for x in range(1, N + 1) if g[x - 1] != x}))

    @cached_property
    def chain(self) -> tuple[list, list]:
        """A base and strong generating set (base, transversals), read-only:
        base is the sorted support up to its first point whose orbit-tree
        node G_{base} is trivial (`_prefix_nodes`), as that node fixes every
        later point; transversals[i] maps each point (p,) of the orbit of
        base[i] under G_{base[:i]} to an element of it sending base[i] to p."""
        support, ident = self._support(), identity_perm(self.domain_size)
        base, transversals = [], []
        for b, (gens, _) in zip(support, self._prefix_nodes(support)):
            if gens:
                base.append(b)
                transversals.append(_orbit_transversal((b,), gens, ident))
        return base, transversals

    def order(self) -> int:
        """The group order, from the generators alone (no cap applies): the
        orbit size of the support, whose pointwise stabilizer is trivial."""
        return self.orbit_size(self._support())

    def contains_action(self, other: "FiniteAction") -> bool:
        """Whether `other` generates a subgroup of this group G: whether the
        least element of gG is the identity for every generator g of
        `other`, as g lies in G iff the identity, the least permutation of
        all, lies in gG."""
        if other.domain_size != self.domain_size:
            return False
        ident = identity_perm(self.domain_size)
        return all(_least_in_coset(g, *self.chain) == ident for g in other.generators)

    def _points(self, points) -> tuple[int, ...]:
        pts = tuple(sorted(set(points)))
        if pts and not (1 <= pts[0] and pts[-1] <= self.domain_size):
            raise MalformedInputError(f"points {pts} are not all in [{self.domain_size}]")
        return pts

    def _node(self, points: tuple) -> tuple:
        """The orbit-tree node (gens, least) of a point tuple: Sims-filtered
        Schreier generators of its pointwise stabilizer K, built from the
        node of points[:-1] (expanded first by every caller, as in
        `_prefix_nodes`), and least[x - 1] the least point of x's K-orbit,
        or None for a trivial K.  Cached per point set; callers must not
        modify it."""
        key = frozenset(points)
        node = self._nodes.get(key)
        if node is not None:
            return node
        N, ident = self.domain_size, identity_perm(self.domain_size)
        if not points:
            gens = _sims_filter(self.generators, ident)
        else:
            parent = self._node(points[:-1])
            transversal = _orbit_transversal(points[-1:], parent[0], ident)
            if len(transversal) == 1:  # a fixed point: K is the parent's stabilizer
                self._nodes[key] = parent
                return parent
            gens = _sims_filter(_schreier_generators(transversal, parent[0]), ident)
        least = [0] * N if gens else None
        for y in range(1, N + 1 if gens else 1):
            if not least[y - 1]:
                for z in _orbit(y, gens, lambda s, x: s[x - 1]):
                    least[z - 1] = y
        self._nodes[key] = gens, least
        return gens, least

    def _prefix_nodes(self, pts: tuple):
        """Yield the orbit-tree nodes of pts[:0], pts[:1], ..., pts in turn,
        up to and including the first trivial one, which fixes every later
        point.  Each prefix is expanded after the one before it, so no node
        expansion recurses."""
        for k in range(len(pts) + 1):
            node = self._node(pts[:k])
            yield node
            if not node[0]:
                return

    def orbit_size(self, points) -> int:
        """The length of the orbit of the sorted points as a tuple: the
        product over its points of the orbit length of each under the
        orbit-tree node of the points before it, read off that node's least
        points, so no orbit is listed."""
        pts = self._points(points)
        nodes = zip(pts, self._prefix_nodes(pts))
        return prod(least.count(least[p - 1]) for p, (_, least) in nodes if least)

    def fixed_points(self, points) -> frozenset:
        """Fix(G_points), the points fixed by every element fixing the given
        points.  The generators of the last prefix node of the sorted points
        generate G_points, so a point is in Fix(G_points) iff they all fix
        it."""
        *_, (gens, _) = self._prefix_nodes(self._points(points))
        return frozenset(
            x for x in range(1, self.domain_size + 1) if all(h[x - 1] == x for h in gens)
        )


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


# -- the orbit tree -------------------------------------------------------------


def _sims_filter(gens, ident: Perm) -> list:
    """A generating set of <gens> with at most one element per pair (i, g(i)),
    i the first point g moves (Sims' filter; Seress, Permutation Group
    Algorithms, 4.1): an element whose pair is taken is divided by the
    holder, which leaves it fixing i too, until it takes a free pair or
    becomes the identity."""
    inverses = {}  # (i, g(i)) -> the inverse of its holder
    holders = []
    for g in gens:
        while g != ident:
            i = next(x for x, y in enumerate(g, 1) if x != y)
            inverse = inverses.get((i, g[i - 1]))
            if inverse is None:
                inverses[(i, g[i - 1])] = pinv(g)
                holders.append(g)
                break
            g = pmul(inverse, g)
    return holders


def _work_budget(what: str = "orbit tree"):
    """A charge(units) function for one walk of the orbit tree (or another
    capped count, named by `what`), which raises ResourceCapError once the
    walk has done more than 3 * DEFAULT_SPACE_CAP units."""
    left = 3 * DEFAULT_SPACE_CAP

    def charge(units: int) -> None:
        nonlocal left
        left -= units
        if left < 0:
            raise ResourceCapError(f"{what} exceeds {3 * DEFAULT_SPACE_CAP} units of work")

    return charge


def _depth_first(root):
    """Run the generator `root` as a recursive function whose depth is not
    bounded by Python's recursion limit: a generator calls another by
    yielding it, and is sent that one's return value.  The waiting
    generators are held on an explicit stack, the path from the root."""
    stack, value = [root], None
    while stack:
        try:
            call = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(call)
            value = None
    return value


def _descent_counts(action: FiniteAction, n: int) -> tuple[list[int], list[int]]:
    """The orbit counts on all k-tuples and on injective k-tuples for
    k = 0..n, as the node counts of the orbit tree (Cameron, Oligomorphic
    Permutation Groups, 2-3), both in one walk.  The injective children of a
    tuple t are the orbits of its pointwise stabilizer G_t on the points
    outside t; on all points, those of t are |t| more children, fixed
    singletons whose counts are t's own one level down.  G_t depends only on
    t's point set, so each set is expanded once (`FiniteAction._node`) and
    its pair of counts is kept; below a trivial G_t the counts are N^j and
    the falling factorial of the free points.  The tree is walked depth first
    by `_depth_first`.

    The whole descent may do at most 3 * DEFAULT_SPACE_CAP units of work: a
    point scanned, or a pair of counts of at most w words each built or
    added, where every count is at most N^n < 2^(64 w).  An expansion of a
    set of j < n points scans N points, builds a pair of n - j + 1 counts and
    adds at most N pairs of n - j counts, so the descent costs at most
    sum_{j<n} C(N, j) * (N + (n - j + 1) w + N (n - j) w).  For the default
    cap that is at most 2,005,003 (at N = 1000, n = 2) wherever the n-tuples
    number at most 1,000,000, so every space the enumeration answers stays
    answered, and the scans and counts stay bounded at any n."""
    N = action.domain_size
    if n < 0:
        raise MalformedInputError("n must be a natural number")
    words = n * (N - 1).bit_length() // 64 + 1
    charge = _work_budget()
    memo = {}

    def counts(chosen: tuple):
        """The counts below the tuple `chosen`, for `_depth_first`."""
        r = n - len(chosen)
        least = action._node(chosen)[1] if r else None
        if least is None:
            charge((r + 1) * words)
            free = N - len(chosen)
            return [N**j for j in range(r + 1)], list(
                accumulate((free - j for j in range(r)), mul, initial=1)
            )
        charge(N)
        outside = set(chosen)
        reps = [y for y in range(1, N + 1) if least[y - 1] == y and y not in outside]
        charge((r + 1) * words)
        if r == 1:
            memo[frozenset(chosen)] = out = [1, len(reps) + len(chosen)], [1, len(reps)]
            return out
        power, injective = [1] + [0] * r, [1] + [0] * r
        for y in reps:
            child = chosen + (y,)
            sub = memo.get(frozenset(child))
            if sub is not None:
                charge(len(sub[0]) * words)
            else:
                sub = yield counts(child)
            for out, below in zip((power, injective), sub):
                for j, c in enumerate(below, 1):
                    out[j] += c
        for j in range(1, r + 1):
            power[j] += len(chosen) * power[j - 1]
        memo[frozenset(chosen)] = power, injective
        return power, injective

    return _depth_first(counts(()))


def _is_least(C: tuple, path: list, charge) -> bool:
    """Whether the set of the increasing tuple C is least in its G-orbit as a
    sorted tuple: a smallest-image search (Linton, ISSAC 2004) down K_k =
    G_{C[:k]}, path[k] the frame [least, inverse] of C[:k] in
    `_least_set_counts`.  Level-k states are images of C with least points
    C[:k]; any such image is a state moved by K_k.  A state point outside
    C[:k] whose K_k-orbit goes below C[k] gives a smaller image; else moving
    each point of C[k]'s orbit to C[k] gives the next states.  One unit of
    work per state."""
    charge(1)
    if path[0][0] is None:  # G is trivial
        return True
    states = {frozenset(C)}
    for k, c in enumerate(C):
        least, inverse = path[k]
        if least is None:
            return all(tuple(sorted(T)) >= C for T in states)
        prefix, images = frozenset(C[:k]), []
        for T in states:
            for t in T - prefix:
                if least[t - 1] < c:
                    return False
                if least[t - 1] == c and k < len(C) - 1:
                    # the transversal element of c itself is the identity
                    images.append(T if t == c else frozenset(inverse[t][x - 1] for x in T))
        charge(len(images))
        states = set(images)
    return True


def _least_set_counts(action: FiniteAction, n: int) -> list[int]:
    """The orbit counts on k-subsets for k = 0..n: the k-sets least in their
    orbit as sorted tuples, by orderly generation (Read, "Every one a winner",
    1978).  A least set less its largest point y is a least S, with y > max S
    the least of its G_S-orbit outside S: a child of S in the orbit tree.  So
    each least S is extended by those children that pass `_is_least`, depth
    first by `_depth_first`.  Work: N per nontrivial node scanned, 1 per
    least-test state."""
    N = action.domain_size
    if n > N:
        raise MalformedInputError(f"n={n} exceeds domain size {N} for mode subsets")
    if n < 0:
        raise MalformedInputError("n must be a natural number")
    ident = identity_perm(N)
    charge = _work_budget()
    out = [1] + [0] * n
    path = []  # a frame [least, the next extension's inverted transversal] per level

    def extend(S: tuple, node: tuple):
        """Count the least sets above S, whose orbit-tree node is `node`."""
        gens, least = node
        start = S[-1] + 1 if S else 1
        points = range(start, N + 1)
        if least is not None:
            charge(N)
            points = [y for y in points if least[y - 1] == y]
        frame = [least, None]
        path.append(frame)
        for y in points:
            C = S + (y,)
            if _is_least(C, path, charge):
                out[len(C)] += 1
                if len(C) < n:
                    frame[1] = least and _inverses(_orbit_transversal((y,), gens, ident))
                    yield extend(C, action._node(C) if least else node)
        path.pop()

    if n:
        _depth_first(extend((), action._node(())))
    return out


def orbit_count(action: FiniteAction, n: int, mode: str) -> int:
    """The number of orbits on n-tuples (power), injective n-tuples or n-subsets."""
    if mode not in ("power", "injective", "subsets"):
        raise MalformedInputError(f"unknown mode {mode!r}")
    if n == 0:
        return 1
    if mode == "subsets":
        return _least_set_counts(action, n)[n]
    if mode == "injective" and n > action.domain_size:
        raise MalformedInputError(f"n={n} exceeds domain size {action.domain_size} for mode {mode}")
    power, injective = _descent_counts(action, n)
    return (power if mode == "power" else injective)[n]


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


class GrowthProfile(namedtuple("GrowthProfile", "f F F_star max_n")):
    """Orbit counts for n = 1..max_n, as tuples of ints: f on subsets, F on
    injective tuples, F_star on all tuples."""

    __slots__ = ()

    def validate(self, domain_size: int) -> None:
        """The sandwich inequality, the Stirling identity and monotonicity
        on a domain of `domain_size` points; FalsificationError names the
        first that fails."""
        for i in range(self.max_n):
            n = i + 1
            if not self.f[i] <= self.F[i] <= factorial(n) * self.f[i]:
                raise FalsificationError(f"sandwich inequality fails at n={n}")
            expected = sum(
                stirling2(n, j) * self.F[j - 1] for j in range(1, n + 1)
            )
            if self.F_star[i] != expected:
                raise FalsificationError(f"Stirling identity fails at n={n}")
        for arr in (self.F, self.F_star):
            if any(a > b for a, b in zip(arr, arr[1:])):
                raise FalsificationError("F and F_star must be nondecreasing")
        # f can genuinely dip past the midpoint of a finite domain (e.g. the
        # trivial group has f(n) = C(N,n)); monotonicity is only guaranteed
        # while n+1 <= N-n, so the check stops there.
        for i in range(self.max_n - 1):
            n = i + 1
            if n + 1 <= domain_size - n and self.f[i] > self.f[i + 1]:
                raise FalsificationError(f"f decreases at n={n} inside the safe range")


def growth_profile(action: FiniteAction, max_n: int) -> GrowthProfile:
    if max_n > action.domain_size:
        raise MalformedInputError("max_n exceeds domain size")
    if max_n < 0:
        raise MalformedInputError("max_n must be a natural number")
    f = tuple(_least_set_counts(action, max_n)[1:])
    F_star, F = (tuple(counts[1:]) for counts in _descent_counts(action, max_n))
    profile = GrowthProfile(f, F, F_star, max_n)
    profile.validate(action.domain_size)
    return profile


# -- shared orbits and density -----------------------------------------------


def _levels_agree(G: FiniteAction, H: FiniteAction, counts) -> list[bool]:
    """Whether G and H have the same orbits, level by level, where
    counts(X) lists X's orbit counts per level.  The orbits of <G u H> are
    the joins of theirs, so G and H agree at a level iff the counts of G,
    <G u H> and H are equal there, whether or not H <= G."""
    if G.domain_size != H.domain_size:
        raise MalformedInputError("actions live on different domains")
    J = FiniteAction(G.domain_size, G.generators + H.generators)
    return [len(set(c)) == 1 for c in zip(*(counts(X) for X in (G, J, H)))]


class LemmaReport(namedtuple("LemmaReport", "n cond1 cond2 cond3 cond4 witness")):
    """Evaluations of the four same-orbit conditions at level n:
    (1) on all n-tuples, (2) on injective n-tuples, (3) on all s-tuples for
    every s <= n, (4) on injective s-tuples for every s <= n; the witness is
    a str when they disagree, else None."""

    __slots__ = ()

    @property
    def consistent(self) -> bool:
        return len({self.cond1, self.cond2, self.cond3, self.cond4}) == 1


def lemma_equivalence_check(G: FiniteAction, H: FiniteAction, n: int) -> LemmaReport:
    if n > G.domain_size:
        raise MalformedInputError("n exceeds domain size")
    if n < 0:
        raise MalformedInputError("n must be a natural number")
    # whether G and H have the same orbits on all s-tuples, then on
    # injective ones, s = 0..n: one descent of each group gives both
    agree = _levels_agree(G, H, lambda X: add(*_descent_counts(X, n)))
    power, injective = agree[: n + 1], agree[n + 1 :]
    c1, c2 = power[n], injective[n]
    c3, c4 = all(power[1:]), all(injective[1:])
    witness = None
    if len({c1, c2, c3, c4}) != 1:
        witness = f"conditions disagree: ({c1}, {c2}, {c3}, {c4})"
    return LemmaReport(n, c1, c2, c3, c4, witness)


def _require_subgroup(H: FiniteAction, G: FiniteAction) -> None:
    if not G.contains_action(H):
        raise MalformedInputError("H is not a subgroup of G")


def is_t_dense(H: FiniteAction, G: FiniteAction, t: int) -> bool:
    """Whether H meets every coset of every stabilizer of a set of size <= t,
    that is H * G_Gamma = G, or |H| * |G_Gamma| = |G| * |H_Gamma|, for every
    such Gamma.

    As H <= G, each G-orbit on injective t-tuples is a union of H-orbits, so
    the orbit counts agree iff |Gamma^H| = |Gamma^G| for every t-set Gamma,
    that is iff |H| * |G_Gamma| = |G| * |H_Gamma|.  Smaller Gamma follow by
    projecting t-tuples to their prefixes.
    """
    _require_subgroup(H, G)
    N = G.domain_size
    if t > N:
        raise MalformedInputError("t exceeds domain size")
    if t < 0:
        raise MalformedInputError("t must be a natural number")
    return orbit_count(G, t, "injective") == orbit_count(H, t, "injective")


# -- the fullness witness on the coset space G/K -------------------------------


# g: Perm, coset_index: int, lhs and rhs: Fraction
FullnessWitness = namedtuple("FullnessWitness", "g coset_index lhs rhs")


def _coset_orbit(gens, K: FiniteAction) -> set:
    """The orbit of the coset K under <gens>, each coset gK named by its
    least element (K by the identity).  Raises ResourceCapError above
    DEFAULT_GROUP_ORDER_CAP cosets."""
    base, transversals = K.chain

    def act(s: Perm, c: Perm) -> Perm:
        return _least_in_coset(pmul(s, c), base, transversals)

    return _orbit(identity_perm(K.domain_size), gens, act, DEFAULT_GROUP_ORDER_CAP, "coset space")


def restriction_fullness_witness(
    G: FiniteAction, H: FiniteAction, K: FiniteAction
) -> FullnessWitness | None:
    """Probe whether every H-equivariant map out of Q(G/K) is G-equivariant.

    Takes the indicator map f of the H-orbit of the trivial coset K, which is
    H-equivariant, and returns None when HK = G (f is then G-equivariant).
    Otherwise returns the least element g of G outside HK: f(gK) = 0 while
    f(K) = 1, although g sends K to gK.  Cosets are ordered by their least
    elements, so the trivial coset, named by the identity, has index 0.
    """
    _require_subgroup(H, G)
    _require_subgroup(K, G)
    hk = _coset_orbit(H.generators, K)
    # the H-orbit of K has |HK|/|K| cosets
    if len(hk) * K.order() == G.order():
        return None
    g = min(_coset_orbit(G.generators, K) - hk)
    return FullnessWitness(g, 0, Fraction(0), Fraction(1))


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
    n = parse_int(lines[0].split("=")[1], "domain size")
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
