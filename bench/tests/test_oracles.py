"""Tests of the benchmark's oracles, workloads and span aggregation.

The oracles are checked against brute force written here, never against
orbitlab.  Run from the root of a checkout:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from itertools import combinations, permutations, product
from math import comb
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import oracles as O  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# -- groups and Burnside ------------------------------------------------------------


def orbits_by_search(elements, n, k, mode):
    if mode == "power":
        points = list(product(range(1, n + 1), repeat=k))
    elif mode == "injective":
        points = list(permutations(range(1, n + 1), k))
    else:
        points = [frozenset(c) for c in combinations(range(1, n + 1), k)]
    seen, count = set(), 0
    for x in points:
        if x in seen:
            continue
        count += 1
        for g in elements:
            seen.add(frozenset(g[v - 1] for v in x) if mode == "subsets" else tuple(g[v - 1] for v in x))
    return count


GROUPS = {
    "s5": (5, O.symmetric_gens(5)),
    "a5": (5, O.alternating_gens(5)),
    "d5": (5, O.dihedral_gens(5)),
    "c6": (6, O.cyclic_gens(6)),
    "d6": (6, O.dihedral_gens(6)),
    "v4": (4, ((2, 1, 4, 3), (3, 4, 1, 2))),
}


def test_group_orders():
    orders = {name: len(O.closure(g, n)) for name, (n, g) in GROUPS.items()}
    assert orders == {"s5": 120, "a5": 60, "d5": 10, "c6": 6, "d6": 12, "v4": 4}


@pytest.mark.parametrize("name", sorted(GROUPS))
@pytest.mark.parametrize("mode", ["power", "injective", "subsets"])
def test_burnside_matches_orbit_search(name, mode):
    n, gens = GROUPS[name]
    els = O.closure(gens, n)
    for k in range(1, min(n, 4) + 1):
        assert O.burnside(els, k, mode) == orbits_by_search(els, n, k, mode)


def test_symmetric_growth_is_bell():
    els = O.closure(O.symmetric_gens(5), 5)
    assert O.growth(els, 5) == tuple(map(list, O.symmetric_growth(5)))
    assert [O.bell(n) for n in range(1, 8)] == [1, 2, 5, 15, 52, 203, 877]


def test_density_from_transitivity():
    s5, a5, d5 = (O.closure(GROUPS[k][1], 5) for k in ("s5", "a5", "d5"))
    assert O.is_dense_in_symmetric(s5, 5, 5)
    assert O.is_dense_in_symmetric(a5, 5, 3) and not O.is_dense_in_symmetric(a5, 5, 4)
    assert O.is_dense_in_symmetric(d5, 5, 1) and not O.is_dense_in_symmetric(d5, 5, 2)


def test_product_cover_and_membership():
    s5, a5, d5 = (O.closure(GROUPS[k][1], 5) for k in ("s5", "a5", "d5"))
    c5 = O.closure(O.cyclic_gens(5), 5)
    for H, K in ((a5, d5), (d5, c5), (c5, c5), (a5, a5)):
        hk = {O.compose(h, k) for h in H for k in K}
        assert O.product_covers(s5, H, K) == (len(hk) == len(s5))
        assert all(O.in_product(g, H, K) == (g in hk) for g in s5)


# -- injection categories -------------------------------------------------------------


def _inside(n, a, b, c):
    return 0 < (c - a) % n < (b - a) % n


RELATIONS = {
    "fi": (0, lambda n, t: False),
    "oi": (2, lambda n, t: t[0] < t[1]),
    "bi": (3, lambda n, t: min(t[1], t[2]) < t[0] < max(t[1], t[2])),
    "ci": (3, lambda n, t: _inside(n, t[0], t[2], t[1])),
    "si": (4, lambda n, t: _inside(n, t[0], t[1], t[2]) != _inside(n, t[0], t[1], t[3])),
}


def brute_hom(kind, m, n):
    arity, rel = RELATIONS[kind]
    out = []
    for image in permutations(range(1, n + 1), m):
        if all(
            rel(m, t) == rel(n, tuple(image[i - 1] for i in t))
            for t in permutations(range(1, m + 1), arity)
        ):
            out.append(image)
    return out


@pytest.mark.parametrize("kind", sorted(RELATIONS))
def test_hom_oracle_matches_brute_force(kind):
    for m, n in ((3, 3), (3, 5), (4, 6), (5, 6)):
        homs = brute_hom(kind, m, n)
        assert len(homs) == O.hom_count(kind, m, n)
        assert O.check_hom_list(kind, m, n, homs) is None
        assert set(O.end_group(kind, m)) == set(brute_hom(kind, m, m))


def test_hom_oracle_rejects_wrong_lists():
    homs = brute_hom("ci", 4, 6)
    assert O.check_hom_list("ci", 4, 6, homs[:-1]) is not None
    assert O.check_hom_list("ci", 4, 6, homs[::-1]) is not None
    wrong = brute_hom("fi", 4, 6)[: len(homs)]
    assert O.check_hom_list("ci", 4, 6, sorted(wrong)) is not None


# -- chains ---------------------------------------------------------------------------


def monomials(w, degree):
    return [e for e in product(range(degree + 1), repeat=w) if sum(e) <= degree]


def ideal_dimension(w, degree, generators):
    """Monomials of degree <= D divisible by a monomial generator."""
    return sum(
        any(all(a >= b for a, b in zip(e, g)) for g in generators) for e in monomials(w, degree)
    )


def test_oi_chain_profile_by_counting():
    for w in range(1, 6):
        unit = [tuple(int(i == a) for i in range(w)) for a in range(w)]
        squares = [tuple(2 * x for x in u) for u in unit]
        products = [tuple(int(i in (a, b)) for i in range(w)) for a, b in combinations(range(w), 2)]
        expected = [
            ideal_dimension(w, 4, squares),
            ideal_dimension(w, 4, squares + products),
            ideal_dimension(w, 4, squares + products + unit),
        ]
        (row,) = O.oi_documented_chain(w, 4)[w - 1 :]
        assert row["component_rank_profile"] == expected
        assert row["chain_index"] == 3 and row["degree_capped"] is False


def test_fi_chain_profile_and_cap():
    rows = O.fi_power_sum_chain(5, 4, 4)
    for row in rows:
        w = row["width"]
        assert row["component_rank_profile"] == [len(monomials(w, 4)) - 1] * 4
        assert row["chain_index"] == 1
    assert rows[4]["component_rank_profile"] == [125] * 4
    assert [r["degree_capped"] for r in rows] == [False, False, True, True, True]
    assert all(not r["degree_capped"] for r in O.fi_power_sum_chain(4, 8, 4))


# -- the pair age -----------------------------------------------------------------------


def test_set_partitions_are_bell():
    assert [sum(1 for _ in O.set_partitions(n)) for n in range(1, 7)] == [1, 2, 5, 15, 52, 203]


SWAPPED = "universe = 1 2\ndiag/1:\neq_ff/2:\neq_fs/2: (1,2) (2,1)\neq_sf/2: (1,2) (2,1)\neq_ss/2:"
POINT = "universe = 1\ndiag/1:\neq_ff/2:\neq_fs/2:\neq_sf/2:\neq_ss/2:"


def test_pair_certificate_accepted():
    cert = {"sigma": POINT, "gamma1": SWAPPED, "gamma2": SWAPPED, "f1_images": ["1"], "f2_images": ["1"]}
    assert O.check_pair_certificate(cert) is None


def test_pair_certificate_rejected_when_an_amalgam_exists():
    free = "universe = 1 2\ndiag/1:\neq_ff/2:\neq_fs/2:\neq_sf/2:\neq_ss/2:"
    cert = {"sigma": POINT, "gamma1": SWAPPED, "gamma2": free, "f1_images": ["1"], "f2_images": ["1"]}
    assert O.check_pair_certificate(cert) == "certificate diagram has a strong amalgam"
    bad = dict(cert, gamma2="universe = 1 2\ndiag/1: (1) (2)\neq_ff/2: (1,2) (2,1)\neq_fs/2:\neq_sf/2:\neq_ss/2:")
    assert O.check_pair_certificate(bad) == "gamma2 is not in the pair age"


# -- workloads --------------------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workloads_are_deterministic(name):
    a, b = workloads.build(name, 5), workloads.build(name, 5)
    assert a.files == b.files
    assert [r.argv for r in a.reports] == [r.argv for r in b.reports]
    assert len({r.name for r in a.reports}) == len(a.reports)
    other = workloads.build(name, 6)
    assert [r.argv for r in other.reports] == [r.argv for r in a.reports]
    if name != "orbits":
        assert other.files == a.files
    faults = [r.name for r in a.reports if r.fault]
    assert faults == {"injections": ["chain-fi-w5-q"], "orbits": ["growth-s8-4"], "amalgams": []}[name]


def test_only_the_random_groups_depend_on_the_seed():
    a, b = workloads.build("orbits", 1), workloads.build("orbits", 2)
    changed = sorted(Path(p).name for p in a.files if a.files[p] != b.files[p])
    assert changed == ["rand1.grp", "rand2.grp", "rand3.grp"]


def test_checks_reject_a_wrong_exit_code_and_wrong_content():
    report = workloads.build("amalgams", 1).reports[0]
    good = json.dumps({"tool": "orbitlab", "config": {"age": "set", "cap": 4}, "sap": True})
    assert report.check(0, good) is None
    assert report.check(1, good) == "exit code 1, expected 0"
    assert report.check(0, good.replace("true", "false")) is not None


def test_a_known_fault_is_expected_only_when_it_fails_its_own_way():
    import run

    report = next(r for r in workloads.build("orbits", 1).reports if r.fault)
    workload = workloads.Workload("orbits", {}, (report,))

    def result(code, stdout="", stderr=report.fault.stderr):
        return {"code": code, "stdout": stdout, "stderr": stderr}

    def unexpected(*results):
        attempted, failed, messages = run.check_rounds(workload, [{"reports": [r]} for r in results])
        assert (attempted, failed) == (len(results), len(results))
        return len(messages)

    assert unexpected(result(3), result(3)) == 0
    assert unexpected(result(0, "{}", "")) == 1  # a wrong answer after exit 0
    assert unexpected(result(3, stderr="resource cap: another cap\n")) == 1
    assert unexpected(result(3), result(3, "partial")) == 1  # the digest changed between rounds


# -- spans --------------------------------------------------------------------------------


def test_self_time_subtracts_children():
    t = spans.Tracer()
    outer, inner = t.name_id["orbitcat.extensions"], t.name_id["actions.mulclose"]
    # outer [0, 10] in report 0 holds inner [1, 4] and [5, 6]; a second outer [20, 22] in report 1
    for name, parent, report, start, end in (
        (outer, -1, 0, 0.0, 10.0),
        (inner, 0, 0, 1.0, 4.0),
        (inner, 0, 0, 5.0, 6.0),
        (outer, -1, 1, 20.0, 22.0),
    ):
        t.span_name.append(name)
        t.span_parent.append(parent)
        t.span_report.append(report)
        t.span_start.append(start)
        t.span_end.append(end)
    selfs, total = t.self_times(0.5)
    assert selfs["orbitcat.extensions"] == [(6.0 + 2.0) * 0.5, 2]
    assert selfs["actions.mulclose"] == [4.0 * 0.5, 2]
    assert total == 12.0


def test_tracer_wraps_every_binding_site():
    script = f"""
import contextlib, io, json, sys
sys.path[:0] = [{str(BENCH.parent / 'src')!r}, {str(BENCH)!r}]
import orbitlab, orbitlab.cli, orbitlab.categories, orbitlab.modlab, spans
t = spans.Tracer()
t.install()
assert orbitlab.cli.hom_set is orbitlab.categories.hom_set is orbitlab.modlab.hom_set is orbitlab.hom_set
assert orbitlab.categories.hom_set.__wrapped__ is not None
t.report = 0
with contextlib.redirect_stdout(io.StringIO()):
    assert orbitlab.cli.main(["homset", "--kind", "oi", "--m", "2", "--n", "3"]) == 0
values, total = t.metrics(1.0)
print(json.dumps(values))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    values = json.loads(proc.stdout)
    assert values["categories.hom_set.calls"] == 1
    assert values["categories.hom_set.morphisms"] == comb(3, 2)
    assert values["categories.hom_set.yield"] == 0.5
    assert values["actions.mulclose.calls"] == 0
    assert values["cli.emit.self_s"] > 0
