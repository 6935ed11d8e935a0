"""The three workloads: their input files, their reports and the expected
content of every report.

`build(name, seed)` returns the files to write and the reports to run.  Each
report is one `orbitlab` CLI invocation; its `check` compares the captured
output with values from `oracles`, never with a stored copy of an earlier
output.  Only the seeded part of `orbits` depends on the seed.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field
from itertools import combinations
from math import comb, factorial
from typing import Callable

import oracles as O

WORKLOADS = ("injections", "orbits", "amalgams")
INPUT_DIR = ".bench_inputs"


@dataclass(frozen=True)
class Fault:
    """A known program fault, and the exact way it makes a report fail."""

    why: str
    code: int  # the exit code it gives
    stderr: str  # the whole of what it writes to stderr

    def matches(self, code: int, stderr: str) -> bool:
        return code == self.code and stderr == self.stderr


@dataclass(frozen=True)
class Report:
    name: str
    argv: tuple
    check: Callable = field(compare=False, repr=False)  # (exit code, stdout) -> error or None
    fault: Fault | None = None  # a known fault; the report counts as failed only if it fails so


@dataclass(frozen=True)
class Workload:
    name: str
    files: dict  # path relative to the checkout -> text
    reports: tuple


def build(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    files: dict = {}
    reports = {"injections": _injections, "orbits": _orbits, "amalgams": _amalgams}[name](
        files, f"{INPUT_DIR}/{name}", seed
    )
    return Workload(name, files, tuple(reports))


def _json_check(config, body, code=0):
    """Compare the exit code (an int, or a function computing it), parse the
    JSON report, compare the echoed configuration, then run `body`.  Expected
    values are computed on first use, so building a workload stays cheap."""

    def check(actual_code, stdout):
        expected_code = code() if callable(code) else code
        if actual_code != expected_code:
            return f"exit code {actual_code}, expected {expected_code}"
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"output is not one JSON document: {exc}"
        if report.get("tool") != "orbitlab":
            return "missing tool field"
        for key, value in config.items():
            if report.get("config", {}).get(key) != value:
                return f"config {key} = {report.get('config', {}).get(key)!r}, expected {value!r}"
        return body(report)

    return check


def _expect(**fields):
    def body(report):
        for key, value in fields.items():
            if report.get(key) != value:
                return f"{key} = {str(report.get(key))[:200]}, expected {str(value)[:200]}"
        return None

    return body


def _group_file(files, path, n, gens):
    files[path] = f"N={n}\n" + "".join(f"[{','.join(map(str, g))}]\n" for g in gens)
    return path


# -- injections -------------------------------------------------------------------

FI_POWER_SUMS = "".join(
    ("--\n" if k > 1 else "")
    + f"FI 0 {k} : [] : "
    + "+".join(f"x{i}" + (f"^{k}" if k > 1 else "") for i in range(1, k + 1))
    + "\n"
    for k in range(1, 5)
)
OI_DOCUMENTED = "OI 0 1 : [] : x1^2\n--\nOI 0 2 : [] : x1*x2\n--\nOI 0 1 : [] : x1\n"


def _homset_body(kind, m, n):
    def body(report):
        images = []
        prefix = f"{kind.upper()} {m}->{n} : ["
        for text in report.get("morphisms", []):
            if not (text.startswith(prefix) and text.endswith("]")):
                return f"bad morphism text {text!r}"
            images.append(tuple(int(v) for v in text[len(prefix) : -1].split(",")))
        if report.get("count") != len(images):
            return "count differs from the listed morphisms"
        return O.check_hom_list(kind, m, n, images)

    return body


def _restrict_body(kind, m, n):
    def body(report):
        ends = O.end_group(kind, m)
        classes = report.get("classes", [])
        if report.get("ok") is not True or report.get("failures") != []:
            return "restriction check reported failures"
        if report.get("class_count") != len(ends) or len(classes) != len(ends):
            return f"class_count {report.get('class_count')}, expected |End| = {len(ends)}"
        if [c["g"] for c in classes] != sorted(map(list, ends)):
            return "class labels are not End([m]) in order"
        seen = set()
        for c in classes:
            members = [tuple(x) for x in c["members"]]
            if len(members) != comb(n, m):
                return f"class {c['g']} has {len(members)} members, expected C({n},{m})"
            if any(O.endomorphism_factor(x) != tuple(c["g"]) for x in members):
                return f"class {c['g']} holds a member with another factor"
            seen.update(members)
        if len(seen) != O.hom_count(kind, m, n):
            return "classes do not partition the hom-set"
        return None

    return body


def _injections(files, d, seed):
    fi_chain, oi_chain = f"{d}/fi-power-sums.chain", f"{d}/oi-documented.chain"
    files[fi_chain] = FI_POWER_SUMS
    files[oi_chain] = OI_DOCUMENTED
    reports = []
    for kind in ("fi", "oi", "bi", "ci", "si"):
        argv = ("homset", "--kind", kind, "--m", "5", "--n", "8")
        check = _json_check({"kind": kind, "m": 5, "n": 8}, _homset_body(kind, 5, 8))
        reports.append(Report(f"homset-{kind}-5-8", argv, check))
    for kind in ("si", "ci"):
        argv = ("restrict-check", "--kind", kind, "--n", "4", "--s", "7")
        check = _json_check({"kind": kind, "n": 4, "s": 7}, _restrict_body(kind, 4, 7))
        reports.append(Report(f"restrict-check-{kind}-4-7", argv, check))

    def chain(name, kind, path, width, field_, rows, fault=None):
        argv = ("noeth-chain", "--kind", kind, "--chain", path, "--width", str(width), "--degree", "4")
        if field_ != "q":
            argv += ("--field", field_)
        config = {"kind": kind, "chain": path, "width": width, "degree": 4, "field": field_}
        rows = functools.cache(rows)

        def body(report):
            return _expect(results=rows(), all_stabilized=True, width_uniform_index=True)(report)

        return Report(name, argv, _json_check(config, body), fault)

    fi4 = functools.partial(O.fi_power_sum_chain, 4, 4, 4)
    reports.append(chain("chain-fi-w4-q", "fi", fi_chain, 4, "q", fi4))
    reports.append(chain("chain-fi-w4-fp7", "fi", fi_chain, 4, "fp:7", fi4))
    reports.append(chain("chain-oi-w7", "oi", oi_chain, 7, "q", functools.partial(O.oi_documented_chain, 7, 4)))
    reports.append(
        chain(
            "chain-fi-w5-q",
            "fi",
            fi_chain,
            5,
            "q",
            functools.partial(O.fi_power_sum_chain, 5, 4, 4),
            fault=Fault(
                "width_component passes 205 generator vectors (30 distinct) to "
                "groebner_basis, whose S-pair queue exceeds its 20,000 cap",
                3,
                "resource cap: S-pair queue exceeded cap 20000\n",
            ),
        )
    )
    return reports


# -- orbits -------------------------------------------------------------------------


def _orbitcat_body(n, cap):
    def body(report):
        subsets = [list(c) for size in range(cap + 1) for c in combinations(range(1, n + 1), size)]
        counts = [
            [factorial(len(s)) // factorial(len(s) - len(g)) if len(g) <= len(s) else 0 for g in subsets]
            for s in subsets
        ]
        return _expect(
            objects=subsets,
            hom_counts=counts,
            isomorphism=True,
            object_collisions=[],
            hom_mismatches=[],
            missing_extensions=[],
            fixed_point_violations=[],
            consistent_with_fixed_points=True,
        )(report)

    return body


def _growth_tsv_check(path, max_n):
    def check(code, stdout):
        if code != 0:
            return f"exit code {code}, expected 0"
        f, F, Fs = O.symmetric_growth(max_n)
        rows = [f"{i}\t{f[i - 1]}\t{F[i - 1]}\t{Fs[i - 1]}" for i in range(1, max_n + 1)]
        lines = stdout.splitlines()
        if len(lines) != 3 + max_n or not lines[0].startswith("# orbitlab "):
            return "unexpected TSV shape"
        if not lines[1].startswith("# config: "):
            return "missing config line"
        config = json.loads(lines[1][len("# config: ") :])
        if config.get("group") != path or config.get("max-n") != max_n:
            return "config line does not echo the invocation"
        if lines[2] != "n\tf\tF\tF_star" or lines[3:] != rows:
            return f"growth rows {lines[3:]}, expected {rows}"
        return None

    return check


def _random_subgroup_gens(rng, n):
    pts = list(range(1, n + 1))
    gens = []
    for _ in range(2):
        rng.shuffle(pts)
        gens.append(tuple(pts))
    return gens


def _orbits(files, d, seed):
    groups = {
        "s6": (6, O.symmetric_gens(6)),
        "s7": (7, O.symmetric_gens(7)),
        "s8": (8, O.symmetric_gens(8)),
        "s10": (10, O.symmetric_gens(10)),
        "c10": (10, O.cyclic_gens(10)),
        "d10": (10, O.dihedral_gens(10)),
        "a6": (6, O.alternating_gens(6)),
        "d6": (6, O.dihedral_gens(6)),
    }
    rng = random.Random(seed)
    for i in (1, 2, 3):
        groups[f"rand{i}"] = (6, _random_subgroup_gens(rng, 6))
    path = {name: _group_file(files, f"{d}/{name}.grp", n, g) for name, (n, g) in groups.items()}
    els = {name: functools.cache(lambda n=n, g=g: O.closure(g, n)) for name, (n, g) in groups.items()}
    reports = []

    for name, n in (("s7", 7), ("s6", 6)):
        argv = ("orbitcat", "--group", path[name], "--cap", "2")
        check = _json_check({"group": path[name], "cap": 2}, _orbitcat_body(n, 2))
        reports.append(Report(f"orbitcat-{name}-2", argv, check))
    argv = ("growth", "--group", path["s10"], "--max-n", "5", "--format", "tsv")
    reports.append(Report("growth-s10-5-tsv", argv, _growth_tsv_check(path["s10"], 5)))

    def growth(name, max_n, expected, fault=None):
        def body(report):
            order, (f, F, Fs) = expected()
            return _expect(group_order=order, f=f, F=F, F_star=Fs)(report)

        argv = ("growth", "--group", path[name], "--max-n", str(max_n))
        check = _json_check({"group": path[name], "max-n": max_n}, body)
        return Report(f"growth-{name}-{max_n}", argv, check, fault)

    for name in ("c10", "d10"):
        reports.append(growth(name, 5, lambda name=name: (len(els[name]()), O.growth(els[name](), 5))))
    reports.append(
        growth(
            "s8",
            4,
            lambda: (factorial(8), O.symmetric_growth(4)),
            fault=Fault(
                "cmd_growth asks FiniteAction.order(), which lists all 40,320 "
                "elements against the 20,000 group-order cap",
                3,
                "resource cap: group order exceeds cap 20000\n",
            ),
        )
    )

    def same_orbits(G, H, n):
        def conditions():
            def same(s, mode):
                return O.burnside(els[G](), s, mode) == O.burnside(els[H](), s, mode)

            return {
                "all_tuples": same(n, "power"),
                "injective_tuples": same(n, "injective"),
                "all_tuples_all_levels": all(same(s, "power") for s in range(1, n + 1)),
                "injective_tuples_all_levels": all(same(s, "injective") for s in range(1, n + 1)),
            }

        conditions = functools.cache(conditions)

        def consistent():
            return len(set(conditions().values())) == 1

        def body(report):
            return _expect(conditions=conditions(), consistent=consistent(), witness=None)(report)

        argv = ("same-orbits", "--group", path[G], "--subgroup", path[H], "--n", str(n))
        check = _json_check(
            {"group": path[G], "subgroup": path[H], "n": n}, body, lambda: 0 if consistent() else 1
        )
        return Report(f"same-orbits-{G}-{H}-{n}", argv, check)

    def dense(G, H, t):
        def body(report):
            return _expect(dense=O.is_dense_in_symmetric(els[H](), groups[G][0], t))(report)

        argv = ("dense", "--group", path[G], "--subgroup", path[H], "--t", str(t))
        check = _json_check({"group": path[G], "subgroup": path[H], "t": t}, body)
        return Report(f"dense-{G}-{H}-{t}", argv, check)

    def fullness(G, H, K):
        full = functools.cache(lambda: O.product_covers(els[G](), els[H](), els[K]()))

        def body(report):
            if report.get("full") is not full():
                return f"full = {report.get('full')}, expected {full()}"
            w = report.get("witness")
            if full():
                return None if w is None else "witness given although HK = G"
            g = tuple(w["g"])
            if g not in els[G]() or O.in_product(g, els[H](), els[K]()):
                return f"witness g = {g} is not an element of G outside HK"
            if (w["f_at_g_coset"], w["f_at_coset"]) != ("0", "1"):
                return "witness values are not f(gK) = 0, f(K) = 1"
            return None

        argv = ("fullness-witness", "--group", path[G], "--subgroup", path[H], "--k-subgroup", path[K])
        config = {"group": path[G], "subgroup": path[H], "k-subgroup": path[K]}
        check = _json_check(config, body, lambda: 0 if full() else 1)
        return Report(f"fullness-{G}-{H}-{K}", argv, check)

    reports.append(same_orbits("d10", "c10", 5))
    reports.append(dense("s7", "s7", 4))
    reports.append(dense("s6", "a6", 4))
    reports.append(dense("s6", "d6", 2))
    for i in (1, 2, 3):
        reports.append(same_orbits("s6", f"rand{i}", 4))
        reports.append(dense("s6", f"rand{i}", 2))
    for h, k in ((1, 2), (2, 3), (3, 1)):
        reports.append(fullness("s6", f"rand{h}", f"rand{k}"))
    return reports


# -- amalgams -----------------------------------------------------------------------


def _amalgams(files, d, seed):
    reports = []
    for kind in ("set", "linear", "betweenness", "cyclic", "separation"):
        argv = ("sap", "--kind", kind, "--cap", "4")
        reports.append(Report(f"sap-{kind}-4", argv, _json_check({"age": kind, "cap": 4}, _expect(sap=True))))

    def pair_body(report):
        if report.get("sap") is not False or "certificate" not in report:
            return "pair age reported SAP or gave no certificate"
        return O.check_pair_certificate(report["certificate"])

    argv = ("sap", "--kind", "pair", "--cap", "2")
    reports.append(Report("sap-pair-2", argv, _json_check({"age": "pair", "cap": 2}, pair_body, 1)))
    return reports
