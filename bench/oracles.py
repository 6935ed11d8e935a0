"""Independent computations that the benchmark checks orbitlab's reports against.

Nothing here imports orbitlab.  Every expected value comes from a closed
form, from Burnside's lemma over group elements enumerated here, or from a
brute-force search written for this file alone.  Permutations are tuples p
with p[i-1] the image of the point i, the convention of orbitlab's group
files in one-line notation.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import comb, factorial

# -- permutation groups -----------------------------------------------------


def compose(a, b):
    """a after b."""
    return tuple(a[x - 1] for x in b)


def cycle(points, n):
    """The cycle (p1 p2 ... pk) on [n]."""
    out = list(range(1, n + 1))
    for a, b in zip(points, points[1:] + points[:1]):
        out[a - 1] = b
    return tuple(out)


def symmetric_gens(n):
    return (cycle([1, 2], n), cycle(list(range(1, n + 1)), n))


def cyclic_gens(n):
    return (cycle(list(range(1, n + 1)), n),)


def dihedral_gens(n):
    return (cycle(list(range(1, n + 1)), n), tuple(n + 1 - i for i in range(1, n + 1)))


def alternating_gens(n):
    return tuple(cycle([1, 2, k], n) for k in range(3, n + 1))


def closure(gens, n):
    """Every product of the generators, as a frozenset."""
    ident = tuple(range(1, n + 1))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(g, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def cycle_lengths(p):
    seen = set()
    out = []
    for start in range(1, len(p) + 1):
        if start in seen:
            continue
        length = 0
        x = start
        while x not in seen:
            seen.add(x)
            x = p[x - 1]
            length += 1
        out.append(length)
    return out


def _fixed_subsets(p, k):
    """Number of k-subsets mapped onto themselves: unions of whole cycles."""
    ways = [1] + [0] * k
    for c in cycle_lengths(p):
        for s in range(k, c - 1, -1):
            ways[s] += ways[s - c]
    return ways[k]


def _falling(x, k):
    out = 1
    for i in range(k):
        out *= x - i
    return out


def burnside(elements, k, mode):
    """Orbit count on k-tuples ('power'), injective k-tuples or k-subsets."""
    total = 0
    for p in elements:
        fix = sum(1 for i, v in enumerate(p, 1) if i == v)
        if mode == "power":
            total += fix**k
        elif mode == "injective":
            total += _falling(fix, k)
        else:
            total += _fixed_subsets(p, k)
    if total % len(elements):
        raise ArithmeticError("Burnside sum not divisible by the group order")
    return total // len(elements)


def growth(elements, max_n):
    """(f, F, F_star) for n = 1..max_n."""
    return tuple(
        [burnside(elements, n, mode) for n in range(1, max_n + 1)]
        for mode in ("subsets", "injective", "power")
    )


def bell(n):
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def symmetric_growth(max_n):
    return [1] * max_n, [1] * max_n, [bell(n) for n in range(1, max_n + 1)]


def is_transitive_on_tuples(elements, n, t):
    """Whether the group is transitive on injective t-tuples of [n]."""
    base = tuple(range(1, t + 1))
    images = {tuple(p[x - 1] for x in base) for p in elements}
    return len(images) == factorial(n) // factorial(n - t)


def is_dense_in_symmetric(elements, n, t):
    """H is t-dense in S_n iff H G_Gamma = S_n for |Gamma| <= t, i.e. iff H is
    transitive on injective s-tuples for every s <= t."""
    return all(is_transitive_on_tuples(elements, n, s) for s in range(1, t + 1))


def product_covers(G, H, K):
    """|HK| = |H||K|/|H n K| equals |G|."""
    return len(H) * len(K) == len(G) * len(H & K)


def inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p, 1):
        out[v - 1] = i
    return tuple(out)


def in_product(g, H, K):
    """Whether g = hk for some h in H, k in K."""
    return any(compose(inverse(h), g) in K for h in H)


# -- injection categories ------------------------------------------------------


def end_group(kind, m):
    """End([m]) of each category as image tuples: S_m, trivial, reversal,
    rotations C_m, dihedral D_m."""
    ident = tuple(range(1, m + 1))
    if kind == "fi":
        return frozenset(permutations(ident))
    if kind == "oi":
        return frozenset([ident])
    reversal = tuple(reversed(ident))
    if kind == "bi":
        return frozenset([ident, reversal])
    rotations = [tuple((i + r) % m + 1 for i in range(m)) for r in range(m)]
    if kind == "ci":
        return frozenset(rotations)
    if kind == "si":
        return frozenset(rotations + [compose(rot, reversal) for rot in rotations])
    raise ValueError(kind)


def hom_count(kind, m, n):
    """Closed-form hom-set sizes for 3 <= m <= n."""
    return {
        "fi": factorial(n) // factorial(n - m),
        "oi": comb(n, m),
        "bi": 2 * comb(n, m),
        "ci": m * comb(n, m),
        "si": 2 * m * comb(n, m),
    }[kind]


def endomorphism_factor(image):
    """g with image = (sorted image) after g."""
    rank = {v: i for i, v in enumerate(sorted(image), 1)}
    return tuple(rank[v] for v in image)


def check_hom_list(kind, m, n, images):
    """None when `images` is exactly hom(kind, m, n) in strict lex order.

    Distinct injections [m] -> [n] whose endomorphism factors all lie in
    End([m]) form a subset of {eps' g}; with |End| * C(n, m) of them it is
    the whole set.
    """
    ends = end_group(kind, m)
    if len(images) != hom_count(kind, m, n):
        return f"{len(images)} morphisms, expected {hom_count(kind, m, n)}"
    for a, b in zip(images, images[1:]):
        if not a < b:
            return f"{a} does not precede {b}"
    for image in images:
        if len(image) != m or len(set(image)) != m or not all(1 <= v <= n for v in image):
            return f"{image} is not an injection [{m}] -> [{n}]"
        if endomorphism_factor(image) not in ends:
            return f"{image} factors through {endomorphism_factor(image)}, not in End"
    return None


# -- module chains ---------------------------------------------------------------


def fi_power_sum_chain(width, degree, length):
    """Expected per-width results of the FI chain x1, x1^2+x2^2, ... .

    The linear images x_i already generate the maximal ideal, so every step
    has the same component: all monomials of degree 1..D, C(w+D, D) - 1 of
    them, and the chain index is 1.  Under grevlex the leading monomial of
    sum_{i in S} x_i^k is x_{min S}^k, and no S-pair leaves a remainder, so
    the degree cap fires exactly when two generators with different leading
    variables have degrees summing past D.
    """
    out = []
    for w in range(1, width + 1):
        dim = comb(w + degree, degree) - 1
        capped = False
        for step in range(1, length + 1):
            leads = {
                (min(s), k)
                for k in range(1, min(step, w) + 1)
                for s in combinations(range(1, w + 1), k)
            }
            capped = capped or any(
                a != b and k + l > degree for (a, k), (b, l) in combinations(leads, 2)
            )
        out.append(_chain_row(w, 1, [dim] * length, capped))
    return out


def oi_documented_chain(width, degree):
    """Expected results of the OI chain x1^2 | x1*x2 | x1 (generator width 0).

    Step 1 is the ideal of squares (everything but squarefree monomials),
    step 2 adds all degree-2 monomials, step 3 the variables.  All generators
    are monomials, so the cap fires iff two of them have lcm degree past D.
    """
    out = []
    for w in range(1, width + 1):
        total = comb(w + degree, degree)
        profile = [
            total - sum(comb(w, k) for k in range(degree + 1)),
            total - 1 - w,
            total - 1,
        ]
        gens = [tuple(2 if i == a else 0 for i in range(w)) for a in range(w)]
        gens += [tuple(1 if i in (a, b) else 0 for i in range(w)) for a, b in combinations(range(w), 2)]
        gens += [tuple(1 if i == a else 0 for i in range(w)) for a in range(w)]
        capped = any(sum(map(max, u, v)) > degree for u, v in combinations(gens, 2))
        out.append(_chain_row(w, 3, profile, capped))
    return out


def _chain_row(width, index, profile, capped):
    return {
        "width": width,
        "chain_index": index,
        "component_rank_profile": list(profile),
        "stabilized": True,
        "degree_capped": capped,
    }


# -- relational structures and the pair age ----------------------------------------


def parse_structure_text(text):
    """(universe, {name: set of tuples}) from orbitlab's structure text."""
    lines = text.splitlines()
    head, _, rest = lines[0].partition("=")
    if head.strip() != "universe":
        raise ValueError(f"bad structure header {lines[0]!r}")
    universe = tuple(rest.split())
    rels = {}
    for ln in lines[1:]:
        name, _, body = ln.partition(":")
        rels[name.split("/")[0].strip()] = {
            tuple(tok[1:-1].split(",")) for tok in body.split()
        }
    return universe, rels


PAIR_RELATIONS = ("diag", "eq_ff", "eq_fs", "eq_sf", "eq_ss")


def pair_relations(coords):
    """Relations induced by an assignment label -> (first, second)."""
    rels = {name: set() for name in PAIR_RELATIONS}
    for x, (a, b) in coords.items():
        if a == b:
            rels["diag"].add((x,))
    for x, y in permutations(coords, 2):
        (a, b), (c, d) = coords[x], coords[y]
        for name, u, v in (("eq_ff", a, c), ("eq_fs", a, d), ("eq_sf", b, c), ("eq_ss", b, d)):
            if u == v:
                rels[name].add((x, y))
    return rels


def set_partitions(n):
    """Every partition of range(n), as a list of block ids (restricted growth)."""
    def rec(prefix, blocks):
        if len(prefix) == n:
            yield list(prefix)
            return
        for b in range(blocks + 1):
            yield from rec(prefix + [b], max(blocks, b + 1))

    yield from rec([], 0)


def pair_assignments(labels):
    """Every way to realise the labels as distinct pairs, up to renaming."""
    k = len(labels)
    for blocks in set_partitions(2 * k):
        pairs = [(blocks[2 * i], blocks[2 * i + 1]) for i in range(k)]
        if len(set(pairs)) == k:
            yield dict(zip(labels, pairs))


def in_pair_age(universe, rels):
    target = {name: rels.get(name, set()) for name in PAIR_RELATIONS}
    return any(pair_relations(c) == target for c in pair_assignments(universe))


def is_embedding(src, tgt, images):
    (su, srels), (tu, trels) = src, tgt
    if len(images) != len(su) or len(set(images)) != len(su) or not set(images) <= set(tu):
        return False
    m = dict(zip(su, images))
    for name in PAIR_RELATIONS:
        ra, rb = srels.get(name, set()), trels.get(name, set())
        arity = 1 if name == "diag" else 2
        for tup in _tuples(su, arity):
            if (tup in ra) != (tuple(m[x] for x in tup) in rb):
                return False
    return True


def _tuples(universe, arity):
    if arity == 1:
        return [(x,) for x in universe]
    return [(x, y) for x in universe for y in universe]


def strong_pair_amalgam_exists(sigma, gamma1, gamma2, f1, f2):
    """Brute force over coordinate identifications on the set pushout."""
    inv1 = dict(zip(f1, sigma[0]))
    inv2 = dict(zip(f2, sigma[0]))
    m1 = {x: ("S", inv1[x]) if x in inv1 else ("L", x) for x in gamma1[0]}
    m2 = {x: ("S", inv2[x]) if x in inv2 else ("R", x) for x in gamma2[0]}
    labels = sorted(set(m1.values()) | set(m2.values()))
    for coords in pair_assignments(labels):
        ok = True
        for (universe, rels), m in ((gamma1, m1), (gamma2, m2)):
            pulled = pair_relations({x: coords[m[x]] for x in universe})
            if pulled != {name: rels.get(name, set()) for name in PAIR_RELATIONS}:
                ok = False
                break
        if ok:
            return True
    return False


def check_pair_certificate(cert):
    """None when the certificate is a diagram of the pair age without a
    strong amalgam."""
    sigma = parse_structure_text(cert["sigma"])
    gamma1 = parse_structure_text(cert["gamma1"])
    gamma2 = parse_structure_text(cert["gamma2"])
    f1, f2 = tuple(cert["f1_images"]), tuple(cert["f2_images"])
    for name, s in (("sigma", sigma), ("gamma1", gamma1), ("gamma2", gamma2)):
        if not in_pair_age(*s):
            return f"{name} is not in the pair age"
    if not is_embedding(sigma, gamma1, f1) or not is_embedding(sigma, gamma2, f2):
        return "certificate maps are not embeddings"
    if strong_pair_amalgam_exists(sigma, gamma1, gamma2, f1, f2):
        return "certificate diagram has a strong amalgam"
    return None
