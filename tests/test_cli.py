"""End-to-end tests of the command-line interface and its exit-code
contract: 0 success, 1 property violation, 2 malformed input, 3 resource cap."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from itertools import permutations
from math import comb, perm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import orbitlab
from orbitlab import actions, categories, modlab
from orbitlab.cli import SUBCOMMANDS, build_parser, main, parse_plain
from orbitlab.modlab import parse_chain_file, width_component
from orbitlab.structures import (
    AmalgamationProblem,
    BuiltinAge,
    PairAge,
    StructureEmbedding,
    _embedding_ok,
    arrangement_structure,
    format_structure,
    parse_structure,
)
from test_modlab import FI_CHAIN, RANK2_CHAIN
from test_structures import generate_and_test

S3 = "N=3\n(1 2)\n(1 2 3)\n"
S4 = "N=4\n(1 2)\n(1 2 3 4)\n"
S8 = "N=8\n(1 2)\n(1 2 3 4 5 6 7 8)\n"
A4 = "N=4\n(1 2 3)\n(2 3 4)\n"
C4 = "N=4\n(1 2 3 4)\n"


@pytest.fixture
def grp(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_homset(capsys):
    code, data = run_json(capsys, "homset", "--kind", "ci", "--m", "3", "--n", "4")
    assert code == 0
    assert data["count"] == 12
    assert data["config"] == {"kind": "ci", "m": 3, "n": 4, "subcommand": "homset"}
    assert data["version"]


@pytest.mark.parametrize("kind", list(orbitlab.CategoryKind))
@pytest.mark.parametrize("m, n", [(0, 3), (1, 4), (3, 5)])
def test_homset_lists_the_formatted_hom_set(capsys, kind, m, n):
    code, data = run_json(capsys, "homset", "--kind", kind.value.lower(), "--m", str(m), "--n", str(n))
    assert code == 0
    assert data["morphisms"] == [
        orbitlab.format_morphism(orbitlab.InjectionMorphism(kind, m, n, f)) for f in orbitlab.hom_set(kind, m, n)
    ]
    assert data["count"] == len(data["morphisms"])


def test_factorize(capsys):
    code, data = run_json(capsys, "factorize", "--morphism", "CI 3->4 : [2,3,1]")
    assert code == 0
    assert data["eps_prime"] == "CI 3->4 : [1,2,3]"
    assert data["g"] == "CI 3->3 : [2,3,1]"


def test_factorize_reads_image_entries_as_element_lines_do(capsys):
    # empty entries are skipped, as in a chain file's element lines, and an
    # entry that is no integer is malformed input
    for text in ("OI 2->3 : [1,,2]", "OI 2->3 : [1,2,]"):
        code, data = run_json(capsys, "factorize", "--morphism", text)
        assert code == 0 and data["input"] == data["eps_prime"] == "OI 2->3 : [1,2]"
    for text, message in (
        ("OI 2->3 : [,]", "image has length 0, expected 2"),
        ("OI 2->3 : [1 2]", "bad image entry: '1 2'"),
    ):
        assert main(["factorize", "--morphism", text]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_growth_tsv(capsys, grp):
    code, out = run(capsys, "growth", "--group", grp("s8.grp", S8), "--max-n", "4", "--format", "tsv")
    assert code == 0
    rows = [ln.split("\t") for ln in out.strip().splitlines() if not ln.startswith("#")]
    assert rows[0] == ["n", "f", "F", "F_star"]
    assert [r[3] for r in rows[1:]] == ["1", "2", "5", "15"]


def test_growth_tsv_rows_run_from_n_1_to_max_n(capsys, grp):
    code, out = run(capsys, "growth", "--group", grp("s4.grp", S4), "--max-n", "3", "--format", "tsv")
    assert code == 0
    assert out.splitlines()[2:] == ["n\tf\tF\tF_star", "1\t1\t1\t1", "2\t1\t1\t2", "3\t1\t1\t5"]


def test_growth_json_deterministic(capsys, grp):
    path = grp("s4.grp", S4)
    code1, out1 = run(capsys, "growth", "--group", path, "--max-n", "3")
    code2, out2 = run(capsys, "growth", "--group", path, "--max-n", "3")
    assert code1 == code2 == 0
    assert out1 == out2


def test_growth_json_above_the_group_order_cap(capsys, grp):
    code, data = run_json(capsys, "growth", "--group", grp("s8.grp", S8), "--max-n", "4")
    assert code == 0
    assert data["group_order"] == 40320
    assert data["f"] == data["F"] == [1, 1, 1, 1]
    assert data["F_star"] == [1, 2, 5, 15]


def test_growth_reports_a_broken_identity_as_a_falsification(capsys, grp, monkeypatch):
    # one more orbit on 3-tuples than the injective counts allow
    real = actions._descent_counts

    def broken(action, max_n):
        power, injective = real(action, max_n)
        return power[:3] + [power[3] + 1] + power[4:], injective

    monkeypatch.setattr(actions, "_descent_counts", broken)
    assert main(["growth", "--group", grp("s4.grp", S4), "--max-n", "3"]) == 1
    assert capsys.readouterr() == ("", "FALSIFICATION: Stirling identity fails at n=3\n")


def test_listing_elements_above_the_cap_exits_3(capsys, grp):
    # S8 over the trivial group has 40,320 cosets, above the 20,000 cap
    g = grp("s8.grp", S8)
    k = grp("trivial.grp", "N=8\n")
    assert main(["fullness-witness", "--group", g, "--subgroup", g, "--k-subgroup", k]) == 3
    assert capsys.readouterr().err.startswith("resource cap: ")


def alternating(n):
    return f"N={n}\n" + "".join(f"(1 2 {k})\n" for k in range(3, n + 1))


@pytest.mark.parametrize("n", [8, 10, 12])
def test_dense_and_fullness_on_symmetric_over_alternating(capsys, grp, n):
    # the chain and coset names list no elements of S_n or A_n
    s = grp("s.grp", f"N={n}\n(1 2)\n({' '.join(map(str, range(1, n + 1)))})\n")
    a = grp("a.grp", alternating(n))
    code, data = run_json(capsys, "dense", "--group", s, "--subgroup", a, "--t", "2")
    assert code == 0 and data["dense"] is True
    code, data = run_json(capsys, "fullness-witness", "--group", s, "--subgroup", a, "--k-subgroup", a)
    assert code == 1 and data["full"] is False
    assert data["witness"] == {
        "g": list(range(1, n - 1)) + [n, n - 1],
        "coset_index": 0,
        "f_at_g_coset": "0",
        "f_at_coset": "1",
    }
    code, data = run_json(capsys, "fullness-witness", "--group", s, "--subgroup", s, "--k-subgroup", a)
    assert code == 0 and data["full"] is True


def symmetric(n):
    return f"N={n}\n(1 2)\n({' '.join(map(str, range(1, n + 1)))})\n"


def test_orbit_counts_past_the_tuple_space_cap(capsys, grp):
    # each space below has more than 1,000,000 tuples; the orbit tree does not
    trivial = grp("trivial.grp", "N=20\n")
    code, data = run_json(capsys, "dense", "--group", trivial, "--subgroup", trivial, "--t", "5")
    assert code == 0 and data["dense"] is True
    s12 = grp("s12.grp", symmetric(12))
    code, data = run_json(capsys, "growth", "--group", s12, "--max-n", "8")
    assert code == 0
    assert data["f"] == data["F"] == [1] * 8
    assert data["F_star"] == [1, 2, 5, 15, 52, 203, 877, 4140]
    a12 = grp("a12.grp", alternating(12))
    code, data = run_json(capsys, "same-orbits", "--group", s12, "--subgroup", a12, "--n", "8")
    assert code == 0 and data["consistent"]


def test_least_sets_past_the_subset_space_cap(capsys, grp):
    # f of S_N and A_N has one least set per level, however many subsets
    a20 = grp("a20.grp", alternating(20))
    start = time.monotonic()
    code, data = run_json(capsys, "growth", "--group", a20, "--max-n", "8")
    assert time.monotonic() - start < 15
    assert code == 0
    assert data["f"] == data["F"] == [1] * 8
    s30 = grp("s30.grp", symmetric(30))
    start = time.monotonic()
    code, data = run_json(capsys, "growth", "--group", s30, "--max-n", "10")
    assert time.monotonic() - start < 15
    assert code == 0
    assert data["f"] == data["F"] == [1] * 10
    # the trivial group on 40 points: every set is least, so the walk
    # reaches its work cap
    trivial = grp("trivial.grp", "N=40\n")
    start = time.monotonic()
    assert main(["growth", "--group", trivial, "--max-n", "20"]) == 3
    assert time.monotonic() - start < 15
    assert capsys.readouterr().err.startswith("resource cap: ")


def test_orbit_tree_cap_fires_on_work(capsys, grp):
    # <(1 2)> fixes 98 of 100 points, so the stabilizers stay nontrivial
    # while the tree fans out.  On 100,000 points a path to depth 50,000
    # scans 5e9 points, and the closed forms below trivial stabilizers hold
    # 50,000 counts of up to 850,000 bits each.  The cap covers the work of
    # the whole descent, so each run stops early
    small = grp("small.grp", "N=100\n(1 2)\n")
    pair = grp("pair.grp", "N=100000\n(1 2)\n")
    trivial = grp("trivial.grp", "N=100000\n")
    for sub, group, level in (
        ("dense", small, "6"),
        ("dense", pair, "50000"),
        ("dense", trivial, "50000"),
        ("same-orbits", trivial, "50000"),
    ):
        flag = "--t" if sub == "dense" else "--n"
        start = time.monotonic()
        assert main([sub, "--group", group, "--subgroup", group, flag, level]) == 3
        assert time.monotonic() - start < 15
        assert capsys.readouterr().err.startswith("resource cap: ")


def test_orbitcat_above_the_group_order_cap(capsys, grp):
    # tuple orbits and Schreier generators list no elements of S8 or S10
    s10 = "N=10\n(1 2)\n(1 2 3 4 5 6 7 8 9 10)\n"
    for name, text in (("s8.grp", S8), ("s10.grp", s10)):
        code, data = run_json(capsys, "orbitcat", "--group", grp(name, text), "--cap", "2")
        assert code == 0
        assert data["isomorphism"] is True
        assert not data["fixed_point_violations"]


def test_orbitcat_up_to_symmetry_at_larger_caps(capsys, grp):
    for n, cap in ((10, 3), (8, 4), (10, 5)):
        path = grp(f"s{n}.grp", symmetric(n))
        start = time.monotonic()
        code, data = run_json(capsys, "orbitcat", "--group", path, "--cap", str(cap))
        assert time.monotonic() - start < 15
        assert code == 0
        assert data["isomorphism"] is True
        # hom(G/G_S, G/G_T) has one morphism per injection of T into S
        objects = data["objects"]
        assert data["hom_counts"] == [[perm(len(s), len(t)) for t in objects] for s in objects]


def test_orbitcat_caps_fire_before_the_pairs_are_checked(capsys, grp):
    # S20 has 1,351 subsets of size <= 3, so 1,825,201 ordered pairs; the
    # report lists no tuple orbit, so only the subset pairs are capped
    s20 = grp("s20.grp", symmetric(20))
    for cap in ("3", "5"):
        start = time.monotonic()
        assert main(["orbitcat", "--group", s20, "--cap", cap]) == 3
        assert time.monotonic() - start < 5
        message = f"ordered pairs of subsets of size <= {cap} exceed cap 1000000"
        assert capsys.readouterr().err == f"resource cap: {message}\n"


def test_same_orbits(capsys, grp):
    code, data = run_json(
        capsys,
        "same-orbits",
        "--group",
        grp("s4.grp", S4),
        "--subgroup",
        grp("a4.grp", A4),
        "--n",
        "2",
    )
    assert code == 0
    assert data["consistent"]
    assert data["conditions"]["injective_tuples"]


def test_same_orbits_at_level_0_holds_all_four_conditions(capsys, grp):
    # the empty tuple is one orbit of every group, though S4 and C4 part at level 2
    argv = ("same-orbits", "--group", grp("s4.grp", S4), "--subgroup", grp("c4.grp", C4), "--n", "0")
    code, data = run_json(capsys, *argv)
    assert code == 0
    assert list(data["conditions"].values()) == [True] * 4
    assert data["consistent"] and data["witness"] is None


def test_group_file_header_admits_at_most_a_million_points(capsys, grp):
    # the header is checked before a permutation of N points is built
    assert actions.parse_group_file("N=1000000\n").domain_size == 10**6
    big = grp("big.grp", "N=1000001\n")
    assert main(["dense", "--group", big, "--subgroup", big, "--t", "0"]) == 3
    assert capsys.readouterr() == ("", "resource cap: domain size 1000001 exceeds cap 1000000\n")


def test_dense(capsys, grp):
    code, data = run_json(
        capsys, "dense", "--group", grp("s4.grp", S4), "--subgroup", grp("c4.grp", C4), "--t", "2"
    )
    assert code == 0
    assert data["dense"] is False


def test_fullness_witness_exit_codes(capsys, grp):
    g = grp("s4.grp", S4)
    a = grp("a4.grp", A4)
    code, data = run_json(capsys, "fullness-witness", "--group", g, "--subgroup", a, "--k-subgroup", a)
    assert code == 1
    assert data["full"] is False
    code, data = run_json(capsys, "fullness-witness", "--group", g, "--subgroup", g, "--k-subgroup", a)
    assert code == 0
    assert data["full"] is True


def test_sap(capsys):
    code, data = run_json(capsys, "sap", "--kind", "linear", "--cap", "3")
    assert code == 0 and data["sap"] is True
    code, data = run_json(capsys, "sap", "--kind", "pair", "--cap", "2")
    assert code == 1 and data["sap"] is False
    assert "certificate" in data


def test_sap_at_the_pushed_out_caps(capsys):
    code, data = run_json(capsys, "sap", "--kind", "linear", "--cap", "5")
    assert code == 0 and data["sap"] is True
    code, data = run_json(capsys, "sap", "--kind", "pair", "--cap", "3")
    assert code == 1 and data["sap"] is False
    cert = data["certificate"]
    sigma, gamma1, gamma2 = (parse_structure(cert[k]) for k in ("sigma", "gamma1", "gamma2"))
    f1 = StructureEmbedding(sigma, gamma1, tuple(cert["f1_images"]))
    f2 = StructureEmbedding(sigma, gamma2, tuple(cert["f2_images"]))
    assert _embedding_ok(sigma, gamma1, f1.images) and _embedding_ok(sigma, gamma2, f2.images)
    problem = AmalgamationProblem.checked(f1, f2, PairAge())
    assert generate_and_test(problem, strong=True) is None


def test_sap_at_cap_6_hits_the_pushout_cap_at_once(capsys):
    # iso classes cost n! relabelings per class, not per structure, so the
    # 11-point pushout of two 6-point sides is reached in well under a second
    start = time.monotonic()
    assert main(["sap", "--kind", "linear", "--cap", "6"]) == 3
    assert time.monotonic() - start < 10
    assert capsys.readouterr().err == "resource cap: pushout universe of size 11 exceeds cap\n"


def test_sap_above_the_pushout_cap_exits_3_before_enumerating(capsys):
    # two sides of more than 5 points amalgamate only past the pushout cap;
    # listing the isomorphism classes of every size up to the cap took from
    # seconds to minutes before the search could only hit it
    for kind, cap in (("set", "11"), ("pair", "6"), ("separation", "8")):
        start = time.monotonic()
        assert main(["sap", "--kind", kind, "--cap", cap]) == 3
        assert time.monotonic() - start < 1, kind
        assert capsys.readouterr().err == "resource cap: pushout universe of size 11 exceeds cap\n"


def test_amalgamate_hits_the_pushout_cap_before_the_age_check(capsys, tmp_path):
    # the membership check of an 11-point linear order walks 11! arrangements
    points = [f"p{i}" for i in range(11)]
    order = " ".join(f"({a},{b})" for i, a in enumerate(points) for b in points[i + 1 :])
    empty = "[source]\nuniverse =\nlt/2:\n[target]\n"
    big = tmp_path / "big.emb"
    big.write_text(f"{empty}universe = {' '.join(points)}\nlt/2: {order}\n[map]\n")
    one = tmp_path / "one.emb"
    one.write_text(f"{empty}universe = q\nlt/2:\n[map]\n")
    argv = ["amalgamate", "--embedding1", str(big), "--embedding2", str(one), "--age", "linear"]
    start = time.monotonic()
    assert main(argv) == 3
    assert time.monotonic() - start < 5
    assert capsys.readouterr().err == "resource cap: pushout universe of size 12 exceeds cap\n"


@pytest.mark.parametrize("age", ["linear", "separation"])
def test_amalgamate_nine_point_sides(capsys, tmp_path, age):
    # each side's inducing arrangements are grown one label at a time, not
    # filtered from the 9! arrangements of its universe
    base = [f"p{i}" for i in range(8)]

    def side(name, arrangement):
        source = format_structure(arrangement_structure(age, base))
        target = format_structure(arrangement_structure(age, arrangement))
        mapping = "".join(f"{x} -> {x}\n" for x in base)
        path = tmp_path / name
        path.write_text(f"[source]\n{source}\n[target]\n{target}\n[map]\n{mapping}")
        return str(path)

    e1 = side("e1.emb", base[:3] + ["x"] + base[3:])
    e2 = side("e2.emb", base[:5] + ["y"] + base[5:])
    start = time.monotonic()
    code, data = run_json(capsys, "amalgamate", "--embedding1", e1, "--embedding2", e2, "--age", age)
    assert time.monotonic() - start < 30
    assert code == 0
    assert len(set(data["g1_images"]) | set(data["g2_images"])) == 10


@pytest.mark.parametrize("age", ["separation", "cyclic"])
def test_amalgamate_ten_point_side_with_itself(capsys, tmp_path, age):
    # the arrangements inducing a side are one arrangement composed with
    # End([10]), not every surviving prefix of the label-by-label search
    labels = [f"p{i}" for i in range(10)]
    side = format_structure(arrangement_structure(age, labels))
    mapping = "".join(f"{x} -> {x}\n" for x in labels)
    path = tmp_path / "e.emb"
    path.write_text(f"[source]\n{side}\n[target]\n{side}\n[map]\n{mapping}")
    argv = ("amalgamate", "--embedding1", str(path), "--embedding2", str(path), "--age", age)
    start = time.monotonic()
    code, data = run_json(capsys, *argv)
    assert time.monotonic() - start < 1
    assert code == 0
    # both sides map onto the one 10-point pushout, over the source
    assert data["g1_images"] == data["g2_images"]
    assert len(set(data["g1_images"])) == 10


def test_embedding_check_reads_relation_tuples_not_the_tuple_space(capsys, tmp_path):
    # an empty relation of arity 24 on 2-point sides: 2^24 tuples of the
    # source, none of them in the relation
    side = "universe = a b\nR/24:\n"
    path = tmp_path / "e.emb"
    path.write_text(f"[source]\n{side}[target]\n{side}[map]\na -> a\nb -> b\n")
    argv = ["amalgamate", "--embedding1", str(path), "--embedding2", str(path), "--age", "linear"]
    start = time.monotonic()
    assert main(argv) == 2
    assert time.monotonic() - start < 5
    assert capsys.readouterr().err == "error: structure outside the age\n"


def test_amalgamate_names_the_first_invalid_tuple_in_file_order(tmp_path):
    # the tuples of a relation are checked as read, not in the hash order of
    # the set they end up in
    side = "universe = a b c d e\nlt/2: (d) (e) (c) (a,b)\n"
    (tmp_path / "e.emb").write_text(f"[source]\n{side}[target]\n{side}[map]\na -> a\n")
    script = (
        "from orbitlab.cli import main\n"
        "main(['amalgamate', '--embedding1', 'e.emb', '--embedding2', 'e.emb', '--age', 'linear'])\n"
    )
    src = str(Path(orbitlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    for seed in ("0", "3"):
        run = subprocess.run(
            [sys.executable, "-c", script],
            cwd=tmp_path,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (run.stdout, run.stderr) == ("", "error: tuple ('d',) invalid for relation lt/2\n"), seed


def test_amalgamate(capsys, tmp_path):
    e1 = tmp_path / "e1.emb"
    e1.write_text(EMBEDDING_A_BELOW_B)
    e2 = tmp_path / "e2.emb"
    e2.write_text(EMBEDDING_C_BELOW_A)
    code, data = run_json(
        capsys, "amalgamate", "--embedding1", str(e1), "--embedding2", str(e2), "--age", "linear"
    )
    assert code == 0
    assert data["amalgam"] != "NONE"


def test_orbitcat(capsys, grp):
    code, data = run_json(capsys, "orbitcat", "--group", grp("s3.grp", S3), "--cap", "2")
    assert code == 1
    assert data["isomorphism"] is False
    assert data["consistent_with_fixed_points"] is True
    assert [1, 2] in data["fixed_point_violations"]


def test_orbitcat_deterministic(capsys, grp):
    path = grp("s5.grp", "N=5\n(1 2)\n(1 2 3 4 5)\n")
    code1, out1 = run(capsys, "orbitcat", "--group", path, "--cap", "2")
    code2, out2 = run(capsys, "orbitcat", "--group", path, "--cap", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["objects"][:2] == [[], [1]]
    # G/G is a point; no other coset space of S5 has a G-fixed point to receive it
    assert data["hom_counts"][0] == [1] + [0] * 15


OI_CHAIN = "OI 0 1 : [] : x1^2\n--\nOI 0 2 : [] : x1*x2\n--\nOI 0 1 : [] : x1\n"


def test_noeth_chain(capsys, tmp_path):
    chain = tmp_path / "oi.chain"
    chain.write_text(OI_CHAIN)
    code, data = run_json(
        capsys,
        "noeth-chain",
        "--kind",
        "oi",
        "--chain",
        str(chain),
        "--width",
        "3",
        "--degree",
        "3",
    )
    assert code == 0
    assert data["all_stabilized"] and data["width_uniform_index"]
    assert data["results"][0]["chain_index"] == 3
    assert data["config"]["width"] == 3 and data["config"]["degree"] == 3


def test_noeth_chain_takes_fp_2_and_rejects_fp_1_and_fp_0(capsys, tmp_path):
    # 2 is the least prime; 1 and 0 name no field
    chain = tmp_path / "oi.chain"
    chain.write_text(OI_CHAIN)
    argv = ("noeth-chain", "--kind", "oi", "--chain", str(chain), "--width", "3", "--degree", "3", "--field")
    code, data = run_json(capsys, *argv, "fp:2")
    assert code == 0 and data["config"]["field"] == "fp:2" and data["all_stabilized"]
    for spec in ("fp:1", "fp:0"):
        assert main([*argv, spec]) == 2
        assert capsys.readouterr() == ("", f"error: bad prime modulus {spec[3:]}\n")


def test_noeth_chain_under_the_degree_cap_is_no_failed_check(capsys, tmp_path):
    # 1 + x1 is inhomogeneous, so the width-2 components are homogenized:
    # x1 + h and x2 + h beside x1^3 and x2^3.  At degree 2 the pair of x1^3
    # and x1 + h is above the cap and x1^3 reduces to -h^3, not to zero; a
    # capped basis need not be a Groebner basis, so the nesting is
    # unverified, not refuted.  At degree 4 that pair gives h^3, but pairs
    # of degree 6 are still dropped.
    chain = tmp_path / "c.chain"
    chain.write_text("FI 0 1 : [] : x1^3\n--\nFI 0 2 : [] : 1 + x1\n")
    for degree in ("2", "4"):
        argv = ("noeth-chain", "--kind", "fi", "--chain", str(chain), "--width", "2", "--degree", degree)
        code, data = run_json(capsys, *argv)
        assert code == 0
        assert data["all_stabilized"] is True
        assert data["results"][1]["degree_capped"] is True


def test_noeth_chain_rank_profile_at_a_high_degree(capsys, tmp_path):
    # the leading-term ideals of the documented chain are generated by the
    # squares, then also the products x_i x_j, then the variables: their
    # complements are the squarefree monomials, then 1 and the variables,
    # then 1
    chain = tmp_path / "oi.chain"
    chain.write_text(OI_CHAIN)
    start = time.perf_counter()
    argv = ("noeth-chain", "--kind", "oi", "--chain", str(chain), "--width", "4", "--degree", "120")
    code, data = run_json(capsys, *argv)
    assert time.perf_counter() - start < 5
    assert code == 0
    for r in data["results"]:
        w, total = r["width"], comb(r["width"] + 120, 120)
        squarefree = sum(comb(w, k) for k in range(121))
        assert r["component_rank_profile"] == [total - squarefree, total - 1 - w, total - 1]


def test_noeth_chain_caps_the_rank_profile_work(capsys, tmp_path):
    # each step of the rank-profile recursion is charged before it loops, so
    # a degree whose profile would take hours exits 3 at its first step
    chain = tmp_path / "oi.chain"
    chain.write_text(OI_CHAIN)
    start = time.monotonic()
    argv = ["noeth-chain", "--kind", "oi", "--chain", str(chain), "--width", "4", "--degree", "1000000000"]
    assert main(argv) == 3
    assert time.monotonic() - start < 2
    assert capsys.readouterr().err == "resource cap: rank profile exceeds 3000000 units of work\n"


def test_noeth_chain_rank_profile_deeper_than_the_recursion_limit(capsys, tmp_path):
    # the rank profile takes one level per variable, so at width 1100 its
    # levels outnumber Python's default recursion limit
    chain = tmp_path / "c.chain"
    chain.write_text("OI 0 1100 : [] : x1\n")
    argv = ("noeth-chain", "--kind", "oi", "--chain", str(chain), "--width", "1100", "--degree", "1")
    code, data = run_json(capsys, *argv)
    assert code == 0
    profiles = [r["component_rank_profile"] for r in data["results"]]
    assert profiles == [[0]] * 1099 + [[1]]


def test_noeth_chain_stops_at_the_s_pair_cap(capsys, tmp_path, monkeypatch):
    # the FI chain reduces between 11 and 100 S-pairs at width 3
    chain = tmp_path / "fi.chain"
    chain.write_text(FI_CHAIN)
    monkeypatch.setattr(modlab, "DEFAULT_PAIR_CAP", 10)
    argv = ["noeth-chain", "--kind", "fi", "--chain", str(chain), "--width", "3", "--degree", "3"]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", "resource cap: S-pair queue exceeded cap 10\n")


def test_noeth_chain_s_pair_cap_counts_the_whole_widths_run(capsys, tmp_path, monkeypatch):
    # at width 3 each step restarted reduces at most 15 S-pairs, and the one
    # run that feeds both steps 24: the cap counts the run, whose second
    # step never reduces the first step's pairs again
    text = "FI 0 2 : [] : x1^2 - 3/2*x2\nFI 0 2 : [] : x1*x2\n--\nFI 0 1 : [] : x1 - 1\n"
    chain = tmp_path / "c.chain"
    chain.write_text(text)
    monkeypatch.setattr(modlab, "DEFAULT_PAIR_CAP", 15)
    for step in parse_chain_file(text, orbitlab.CategoryKind.FI):
        width_component(orbitlab.CategoryKind.FI, step, 3, degree_cap=3)
    argv = ["noeth-chain", "--kind", "fi", "--chain", str(chain), "--width", "3", "--degree", "3"]
    monkeypatch.setattr(modlab, "DEFAULT_PAIR_CAP", 24)
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(modlab, "DEFAULT_PAIR_CAP", 23)
    assert main(argv) == 3
    assert capsys.readouterr() == ("", "resource cap: S-pair queue exceeded cap 23\n")


def test_noeth_chain_index_is_read_off_the_rank_profile(capsys, tmp_path):
    # the second step adds x1^2, above D = 1, so the bases differ while the
    # degree-<=1 parts, and so the profile counts, do not: index 1 everywhere
    chain = tmp_path / "rank2.chain"
    chain.write_text(RANK2_CHAIN)
    argv = ("noeth-chain", "--kind", "fi", "--chain", str(chain), "--width", "3", "--degree", "1")
    code, data = run_json(capsys, *argv)
    assert code == 0
    assert [r["component_rank_profile"] for r in data["results"]] == [[0, 0], [2, 2], [6, 6]]
    assert [r["chain_index"] for r in data["results"]] == [1, 1, 1]
    assert data["width_uniform_index"] is True


def test_noeth_chain_rank_two_chain_at_width_8(capsys, tmp_path):
    chain = tmp_path / "rank2.chain"
    chain.write_text(RANK2_CHAIN)
    start = time.perf_counter()
    argv = ("noeth-chain", "--kind", "fi", "--chain", str(chain), "--width", "8", "--degree", "4")
    code, data = run_json(capsys, *argv)
    assert time.perf_counter() - start < 15
    assert code == 0
    assert data["all_stabilized"]
    assert not any(r["degree_capped"] for r in data["results"])


def dihedral(n):
    return f"N={n}\n({' '.join(map(str, range(1, n + 1)))})\n[1,{','.join(map(str, range(n, 1, -1)))}]\n"


PAIR_SIGMA = "[source]\nuniverse = a\ndiag/1:\neq_ff/2:\neq_fs/2:\neq_sf/2:\neq_ss/2:\n[target]\n"


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    # str and frozenset iteration order follows PYTHONHASHSEED; reports must not
    files = {
        "oi.chain": OI_CHAIN,
        "fi.chain": FI_CHAIN,
        "rank2.chain": RANK2_CHAIN,
        "inhomogeneous.chain": "FI 0 1 : [] : x1^3\n--\nFI 0 2 : [] : 1 + x1\n",
        "e1.emb": EMBEDDING_A_BELOW_B,
        "e2.emb": EMBEDDING_C_BELOW_A,
        # a pair-age point and its mirror on each side: only a weak amalgam
        "m1.emb": PAIR_SIGMA + "universe = a b\ndiag/1:\neq_ff/2:\neq_fs/2: (a,b) (b,a)\n"
        + "eq_sf/2: (a,b) (b,a)\neq_ss/2:\n[map]\na -> a\n",
        "m2.emb": PAIR_SIGMA + "universe = c a\ndiag/1:\neq_ff/2:\neq_fs/2: (a,c) (c,a)\n"
        + "eq_sf/2: (a,c) (c,a)\neq_ss/2:\n[map]\na -> a\n",
        "d12.grp": dihedral(12),
        "d6.grp": dihedral(6),
        "c6.grp": "N=6\n(1 2 3 4 5 6)\n",
        "c8.grp": "N=8\n(1 2 3 4 5 6 7 8)\n",
        "s10.grp": symmetric(10),
        # AGL(1,13): x -> x+1 and x -> 2x (mod 13) on the points x+1
        "agl13.grp": "N=13\n"
        + "".join(f"{[(a * x + b) % 13 + 1 for x in range(13)]}\n" for a, b in ((1, 1), (2, 0))),
        # its translations, and the stabilizer of the point 1 (x -> 2x)
        "t13.grp": f"N=13\n{[(x + 1) % 13 + 1 for x in range(13)]}\n",
        "m13.grp": f"N=13\n{[2 * x % 13 + 1 for x in range(13)]}\n",
        "c12.grp": "N=12\n(1 2 3 4 5 6 7 8 9 10 11 12)\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    commands = (
        ("noeth-chain", "--kind", "oi", "--chain", "oi.chain", "--width", "4", "--degree", "3"),
        ("noeth-chain", "--kind", "fi", "--chain", "fi.chain", "--width", "3", "--degree", "3")
        + ("--field", "fp:7"),
        ("noeth-chain", "--kind", "fi", "--chain", "rank2.chain", "--width", "8", "--degree", "4"),
        # inhomogeneous under the degree cap, so homogenized
        ("noeth-chain", "--kind", "fi", "--chain", "inhomogeneous.chain", "--width", "3", "--degree", "2")
        + ("--order", "lex", "--field", "fp:7"),
        ("sap", "--kind", "pair", "--cap", "2"),
        ("sap", "--kind", "linear", "--cap", "5"),
        ("sap", "--kind", "separation", "--cap", "4"),
        ("sap", "--kind", "cyclic", "--cap", "4"),
        ("amalgamate", "--embedding1", "e1.emb", "--embedding2", "e2.emb", "--age", "linear"),
        ("amalgamate", "--embedding1", "m1.emb", "--embedding2", "m2.emb", "--age", "pair", "--weak"),
        ("growth", "--group", "d12.grp", "--max-n", "12"),
        ("orbitcat", "--group", "d6.grp", "--cap", "2"),
        ("orbitcat", "--group", "c6.grp", "--cap", "2"),  # exits 1 with hom mismatches
        ("orbitcat", "--group", "c8.grp", "--cap", "3"),  # exits 1, every failing pair listed
        ("orbitcat", "--group", "agl13.grp", "--cap", "2"),  # exits 1, failing orbits shared
        ("orbitcat", "--group", "s10.grp", "--cap", "5"),  # 5-tuple orbits of 30,240 images
        # the join's tree, subgroup tests on the chain, and cosets named by it
        ("same-orbits", "--group", "agl13.grp", "--subgroup", "t13.grp", "--n", "3"),
        ("same-orbits", "--group", "d12.grp", "--subgroup", "c12.grp", "--n", "3"),
        ("dense", "--group", "agl13.grp", "--subgroup", "t13.grp", "--t", "2"),
        ("dense", "--group", "d12.grp", "--subgroup", "c12.grp", "--t", "2"),
        ("fullness-witness", "--group", "agl13.grp", "--subgroup", "t13.grp", "--k-subgroup", "m13.grp"),
        ("fullness-witness", "--group", "d12.grp", "--subgroup", "c12.grp", "--k-subgroup", "c12.grp"),
    )
    script = f"from orbitlab.cli import main\nfor argv in {commands!r}:\n    main(list(argv))\n"
    src = str(Path(orbitlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", script],
            cwd=tmp_path,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in ("0", "1")
    ]
    (out0, err0), (out1, err1) = (run.communicate(timeout=300) for run in runs)
    assert err0 == err1 == ""
    assert out0.count('"tool": "orbitlab"') == len(commands)
    assert out0 == out1


def test_restrict_check(capsys):
    code, data = run_json(capsys, "restrict-check", "--kind", "ci", "--n", "3", "--s", "5")
    assert code == 0
    assert data["ok"] and data["class_count"] == 3


def test_restrict_check_caps_its_factorizations_before_building(capsys):
    # 11!/5! morphisms times 13 factorizations each: refused at once, where
    # it used to build 332,640 morphisms before a hom-set cap fired
    start = time.monotonic()
    assert main(["restrict-check", "--kind", "fi", "--n", "6", "--s", "11"]) == 3
    assert time.monotonic() - start < 1
    assert capsys.readouterr().err == (
        "resource cap: restriction_decomposition_check(FI, 6, 11): "
        "4324320 factorizations exceeds cap 4000000\n"
    )


def test_restrict_check_cap_admits_exactly_its_count(capsys, monkeypatch):
    # SI [4] -> [7]: 280 morphisms times 9 factorizations
    monkeypatch.setattr(modlab, "DEFAULT_ENUMERATION_CAP", 2520)
    assert main(["restrict-check", "--kind", "si", "--n", "4", "--s", "7"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(modlab, "DEFAULT_ENUMERATION_CAP", 2519)
    assert main(["restrict-check", "--kind", "si", "--n", "4", "--s", "7"]) == 3
    assert capsys.readouterr().err == (
        "resource cap: restriction_decomposition_check(SI, 4, 7): "
        "2520 factorizations exceeds cap 2519\n"
    )


def test_restrict_check_past_the_old_injection_cap(capsys):
    # 2,520 morphisms; the 11!/1! injections [10] -> [11] are never scanned
    code, data = run_json(capsys, "restrict-check", "--kind", "si", "--n", "5", "--s", "10")
    assert code == 0
    assert data["ok"] and data["class_count"] == 10
    assert sum(len(c["members"]) for c in data["classes"]) == 2520


def brute_force_classes(kind, n, s):
    """The report's classes from scratch: every injection [n] -> [s] that
    `is_morphism` accepts, grouped by the order pattern (the ranks) of its
    image; labels sorted, members in lexicographic (hom-set) order."""
    classes = {}
    for image in permutations(range(1, s + 1), n):
        if orbitlab.is_morphism(kind, n, s, image):
            pattern = tuple(sum(w <= v for w in image) for v in image)
            classes.setdefault(pattern, []).append(list(image))
    return [{"g": list(g), "members": classes[g]} for g in sorted(classes)]


@pytest.mark.parametrize("kind", list(orbitlab.CategoryKind))
@pytest.mark.parametrize("n, s", [(0, 2), (1, 4), (2, 2), (2, 5), (3, 6), (4, 7)])
def test_restrict_check_classes_match_a_brute_force_partition(capsys, kind, n, s):
    code, data = run_json(capsys, "restrict-check", "--kind", kind.value.lower(), "--n", str(n), "--s", str(s))
    assert code == 0
    assert data["ok"] and data["failures"] == []
    assert data["classes"] == brute_force_classes(kind, n, s)
    assert data["class_count"] == len(data["classes"])


def test_restrict_check_reports_a_wrong_factorization(capsys, monkeypatch):
    real = modlab.factor_image
    identity = (1, 2, 3)

    # every g claimed to be the identity: one class of all 30 morphisms
    monkeypatch.setattr(
        modlab, "factor_image", lambda kind, m, n, image: (real(kind, m, n, image)[0], identity)
    )
    code, data = run_json(capsys, "restrict-check", "--kind", "ci", "--n", "3", "--s", "5")
    assert code == 1
    assert not data["ok"]
    assert data["failures"] == [
        "1 classes but 3 endomorphisms",
        "class of g=(1, 2, 3) has 30 members, expected 10",
    ]

    # right classes, but every post-composition [3] -> [6] lands in the
    # identity's: the 20 members of the other two classes move, per each of
    # the 6 increasing injections [5] -> [6]
    monkeypatch.setattr(
        modlab,
        "factor_image",
        lambda kind, m, n, image: (
            real(kind, m, n, image)[0], identity if n == 6 else real(kind, m, n, image)[1]
        ),
    )
    code, data = run_json(capsys, "restrict-check", "--kind", "ci", "--n", "3", "--s", "5")
    assert code == 1
    assert not data["ok"] and data["class_count"] == 3
    assert len(data["failures"]) == 6 * 20
    assert data["failures"][0] == (
        "post-composition by (1, 2, 3, 4, 5) moved (2, 3, 1) from class (2, 3, 1) to (1, 2, 3)"
    )


def test_restrict_check_reports_a_non_morphism_increasing_injection_as_a_falsification(capsys, monkeypatch):
    # valid input, so a failed claim of the library is exit 1, not 2
    real = categories.is_morphism
    monkeypatch.setattr(
        categories, "is_morphism", lambda kind, m, n, image: (m, n) != (5, 6) and real(kind, m, n, image)
    )
    assert main(["restrict-check", "--kind", "ci", "--n", "3", "--s", "5"]) == 1
    assert capsys.readouterr() == (
        "",
        "FALSIFICATION: increasing injection (1, 2, 3, 4, 5) is not a CI morphism [5] -> [6]\n",
    )


def test_library_builds_no_morphism_objects(capsys, monkeypatch):
    # a morphism the library builds is its image array; InjectionMorphism is
    # only the checked form of one read from outside
    generators = parse_chain_file(RANK2_CHAIN, orbitlab.CategoryKind.FI)[-1]
    age = BuiltinAge("cyclic")
    ((sigma, _),), ((gamma, _),) = age.iso_classes(3), age.iso_classes(5)
    built = []
    new = orbitlab.InjectionMorphism.__new__

    def counting(cls, *args):
        built.append(args)
        return new(cls, *args)

    monkeypatch.setattr(orbitlab.InjectionMorphism, "__new__", counting)
    assert orbitlab.InjectionMorphism(orbitlab.CategoryKind.OI, 0, 0, ()) and len(built) == 1
    built.clear()
    assert main(["homset", "--kind", "fi", "--m", "5", "--n", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == perm(8, 5)
    assert len(age.embeddings(sigma, gamma)) == 3 * comb(5, 3)
    assert width_component(orbitlab.CategoryKind.FI, generators, 4).vectors
    assert main(["restrict-check", "--kind", "si", "--n", "4", "--s", "7"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]
    assert built == []


def test_parser_is_built_once_and_reused(capsys):
    assert build_parser() is build_parser()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["orbitcat", "--cap", "1"])
        assert exc.value.code == 2
        assert "the following arguments are required: --group" in capsys.readouterr().err


# tokens outside the plain form, and values that int() reads its own way
EDGE_TOKENS = (
    "-1", "", " 3", "+2", "\u0663", "3_0", "--m=5", "--ma", "x", "--", "-h", "--help",
    "--version", "bogus",
)
ALL_FLAGS = sorted({flag for _, _, *arguments in SUBCOMMANDS.values() for flag, _ in arguments})


def _good_values(options):
    if "choices" in options:
        return list(options["choices"])
    return ["0", "1", "3"] if "type" in options else ["g.grp", "q", "fp:5"]


@st.composite
def argvs(draw):
    """A subcommand's flags in any order, each with a value it accepts or, in
    one case of four, an edge token; some flags left out, some tokens put in."""

    def rarely():
        return draw(st.integers(0, 3)) == 3  # False where Hypothesis shrinks to

    argv = [draw(st.sampled_from(EDGE_TOKENS if rarely() else list(SUBCOMMANDS)))]
    arguments = SUBCOMMANDS[argv[0]][2:] if argv[0] in SUBCOMMANDS else ()
    for flag, options in draw(st.permutations(arguments)):
        if rarely() and rarely():
            continue
        argv.append(flag)
        if options.get("action") != "store_true":
            argv.append(draw(st.sampled_from(EDGE_TOKENS if rarely() else _good_values(options))))
    while rarely():
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(ALL_FLAGS + list(EDGE_TOKENS))))
    return argv


def _argparse_namespace(argv):
    """`build_parser().parse_args(argv)`, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return build_parser().parse_args(argv)
        except SystemExit:
            return None


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_plain_parser_declines_or_agrees_with_argparse(argv):
    plain = parse_plain(argv)
    if plain is not None:
        assert list(vars(plain).items()) == list(vars(_argparse_namespace(argv)).items())


@pytest.mark.parametrize(
    "argv",
    [
        ["homset", "--kind", "fi", "--m", "2", "--n", "-1"],
        ["homset", "--kind", "fi", "--m", "2", "--m", "2", "--n", "3"],
        ["homset", "--kind", "fi", "--m=2", "--n", "3"],
        ["homset", "--kind", "fi", "--m", "2", "--n"],
        ["homset", "--kind", "xi", "--m", "2", "--n", "3"],
        ["homset", "--kind", "fi", "--m", "two", "--n", "3"],
        ["homset", "--kind", "fi", "--m", "2"],
        ["homset", "--kind", "fi", "--m", "2", "--n", "3", "-h"],
        ["homset", "--kind", "fi", "--m", 2, "--n", "3"],
        ["homset", "--kind", "fi", 1, "--n", "3"],
        ["amalgamate", "--embedding1", "a", "--embedding2", "b", "--age", "set", "--weak", "x"],
        ["sap", "--age", "set", "--cap", "1"],
        [1, "--kind", "fi"],
        ["--version"],
        [],
    ],
    ids=[
        "negative-value", "repeated-flag", "flag=value", "flag-without-value", "bad-choice",
        "bad-int", "missing-flag", "help", "non-str-value", "non-str-flag", "store-true-with-value",
        "dest-as-flag", "non-str-subcommand", "version", "empty",
    ],
)
def test_plain_parser_declines_what_argparse_must_parse(argv):
    assert parse_plain(argv) is None


def test_plain_parser_fills_absent_flags_with_their_defaults():
    args = parse_plain(["amalgamate", "--embedding1", "a", "--embedding2", "b", "--age", "set"])
    assert (args.weak, args.subcommand) == (False, "amalgamate")
    args = parse_plain(["noeth-chain", "--kind", "fi", "--chain", "c", "--width", "1", "--degree", "2"])
    assert (args.field, args.order, args.width, args.degree) == ("q", "grevlex", 1, 2)
    assert list(vars(args)) == ["subcommand", "kind", "chain", "width", "degree", "field", "order", "func"]
    args = parse_plain(["sap", "--cap", " 3", "--kind", "pair"])
    assert (args.age, args.cap, args.func) == ("pair", 3, SUBCOMMANDS["sap"][0])


def test_plain_runs_build_no_argparse_parser(tmp_path):
    # argparse's first parser imports shutil (with zlib, bz2 and lzma);
    # one plain run of each subcommand must need none of it
    for name, text in {"s3.grp": S3, "c3.grp": "N=3\n(1 2 3)\n", "c.chain": FI_CHAIN,
                       "e.emb": EMBEDDING_A_BELOW_B}.items():
        (tmp_path / name).write_text(text)
    runs = [
        ["homset", "--kind", "oi", "--m", "2", "--n", "3"],
        ["factorize", "--morphism", "CI 3->4 : [2,3,1]"],
        ["growth", "--group", "s3.grp", "--max-n", "2", "--format", "tsv"],
        ["same-orbits", "--group", "s3.grp", "--subgroup", "c3.grp", "--n", "2"],
        ["dense", "--group", "s3.grp", "--subgroup", "c3.grp", "--t", "1"],
        ["fullness-witness", "--group", "s3.grp", "--subgroup", "c3.grp", "--k-subgroup", "c3.grp"],
        ["amalgamate", "--embedding1", "e.emb", "--embedding2", "e.emb", "--age", "linear", "--weak"],
        ["sap", "--kind", "set", "--cap", "2"],
        ["orbitcat", "--group", "s3.grp", "--cap", "2"],
        ["noeth-chain", "--kind", "fi", "--chain", "c.chain", "--width", "2", "--degree", "3",
         "--field", "fp:5", "--order", "lex"],
        ["restrict-check", "--kind", "fi", "--n", "2", "--s", "3"],
    ]
    assert [name for name, *_ in runs] == list(SUBCOMMANDS)
    script = (
        "import contextlib, io, sys\n"
        "from orbitlab.cli import build_parser, main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {runs!r}]\n"
        "print(codes, build_parser.cache_info().currsize, 'shutil' in sys.modules)"
    )
    src = str(Path(orbitlab.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-S", "-c", script],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "[0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0] 0 False\n", "")


def test_console_entry_ends_quietly_when_its_reader_closes_stdout():
    # 6,720 morphisms, more than a pipe holds: the report is still being
    # written when the reader goes, which is no failed property (exit 1)
    script = (
        "import sys\n"
        "from orbitlab.cli import main\n"
        "sys.argv = ['orbitlab', 'homset', '--kind', 'fi', '--m', '5', '--n', '8']\n"
        "main()\n"
    )
    src = str(Path(orbitlab.__file__).resolve().parents[1])
    with subprocess.Popen(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as run:
        assert run.stdout.read(8) == "{\n  \"too"
        run.stdout.close()
        err = run.stderr.read()
        assert run.wait(timeout=60) != 1
    assert "Traceback" not in err, err


def test_import_loads_no_costly_standard_modules():
    # a one-shot run pays for every import before it reports; typing is
    # listed so that typing.NamedTuple is no way round
    script = (
        "import sys, orbitlab.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'pathlib', 'typing'} & set(sys.modules)))"
    )
    src = str(Path(orbitlab.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


def test_malformed_group_file(capsys, grp):
    code = main(["growth", "--group", grp("bad.grp", "(1 2)\n"), "--max-n", "2"])
    assert code == 2


def test_missing_file(capsys):
    assert main(["growth", "--group", "/nonexistent.grp", "--max-n", "2"]) == 2


def test_resource_cap_exit(capsys):
    assert main(["homset", "--kind", "fi", "--m", "9", "--n", "11"]) == 3


def test_homset_caps_image_entries_before_building(capsys):
    # 7,000 CI morphisms [7000] -> [7000] fit the morphism cap, but hold
    # 49,000,000 entries; building them took 12 s and 1.4 GB
    start = time.monotonic()
    assert main(["homset", "--kind", "ci", "--m", "7000", "--n", "7000"]) == 3
    assert time.monotonic() - start < 1
    assert capsys.readouterr().err == (
        "resource cap: hom_set(CI, 7000, 7000): 49000000 image entries exceeds cap 40000000\n"
    )


def test_cap_messages_give_a_count_past_the_int_to_str_limit_as_a_power_of_ten(capsys):
    # 4000! has 12,674 digits; formatting it whole raised ValueError
    for argv, message in (
        (
            ("homset", "--kind", "fi", "--m", "4000", "--n", "4000"),
            "hom_set(FI, 4000, 4000): about 10^12673 injections exceeds cap 4000000",
        ),
        (
            ("restrict-check", "--kind", "fi", "--n", "4000", "--s", "4000"),
            "restriction_decomposition_check(FI, 4000, 4000): "
            "about 10^12677 factorizations exceeds cap 4000000",
        ),
    ):
        assert main(list(argv)) == 3
        assert capsys.readouterr() == ("", f"resource cap: {message}\n")


EMBEDDING_WITH_BAD_ARITY = (
    "[source]\nuniverse = a\nlt/x:\n[target]\nuniverse = a b\nlt/2: (a,b)\n[map]\na -> a\n"
)
EMBEDDING_NOT_AN_EMBEDDING = (
    "[source]\nuniverse = a b\nlt/2: (a,b)\n[target]\nuniverse = a b\nlt/2: (a,b)\n"
    "[map]\na -> b\nb -> a\n"
)
EMBEDDING_INTO_UNORDERED_PAIR = (
    "[source]\nuniverse = a\nlt/2:\n[target]\nuniverse = a b\nlt/2:\n[map]\na -> a\n"
)
EMBEDDING_FROM_B = (
    "[source]\nuniverse = b\nlt/2:\n[target]\nuniverse = b c\nlt/2: (b,c)\n[map]\nb -> b\n"
)
EMBEDDING_A_BELOW_B = (
    "[source]\nuniverse = a\nlt/2:\n[target]\nuniverse = a b\nlt/2: (a,b)\n[map]\na -> a\n"
)
EMBEDDING_C_BELOW_A = (
    "[source]\nuniverse = a\nlt/2:\n[target]\nuniverse = a c\nlt/2: (c,a)\n[map]\na -> a\n"
)
GROWTH = ("growth", "--group", "g.grp", "--max-n", "2")
CHAIN_FILE = ("noeth-chain", "--kind", "fi", "--chain", "c.chain")
CHAIN = CHAIN_FILE + ("--width", "1", "--degree", "1")


@pytest.mark.parametrize(
    "files, argv",
    [
        ({"g.grp": "N=3\n[1,2,x]\n"}, GROWTH),
        ({"g.grp": "N=3\n(1 x)\n"}, GROWTH),
        (
            {"g.grp": "N=3\n(1 2)\n"},
            ("same-orbits", "--group", "g.grp", "--subgroup", "g.grp", "--n", "-1"),
        ),
        ({"c.chain": "FI 0 1 : [] : 1/7*x1\n"}, CHAIN + ("--field", "fp:7")),
        ({"c.chain": "FI 0 1 : [] : x1\n"}, CHAIN + ("--field", "fp:abc")),
        ({"c.chain": "FI 0 x : [] : x1\n"}, CHAIN),
        (
            {"e.emb": EMBEDDING_WITH_BAD_ARITY},
            ("amalgamate", "--embedding1", "e.emb", "--embedding2", "e.emb", "--age", "linear"),
        ),
        ({"g.grp": S3}, ("growth", "--group", "g.grp", "--max-n", "-1")),
        ({"g.grp": S3}, ("dense", "--group", "g.grp", "--subgroup", "g.grp", "--t", "-1")),
        ({"g.grp": S3}, ("orbitcat", "--group", "g.grp", "--cap", "-1")),
        ({"c.chain": "FI 0 1 : [] : x1\n"}, CHAIN_FILE + ("--width", "0", "--degree", "1")),
        ({"c.chain": "FI 0 1 : [] : x1\n"}, CHAIN_FILE + ("--width", "1", "--degree", "-1")),
        ({"c.chain": "OI 2 3 : [3,1] : x1\n"}, CHAIN),
        ({}, ("factorize", "--morphism", "OI 2->3 : [3,1]")),
        (
            {"e.emb": EMBEDDING_NOT_AN_EMBEDDING},
            ("amalgamate", "--embedding1", "e.emb", "--embedding2", "e.emb", "--age", "linear"),
        ),
        ({"g.grp": b"\xff\xfeN=3\n(1 2)\n"}, ("orbitcat", "--group", "g.grp", "--cap", "1")),
        ({"c.chain": b"\xff\xfeFI 0 1 : [] : x1\n"}, CHAIN),
        (
            {"e.emb": EMBEDDING_INTO_UNORDERED_PAIR},
            ("amalgamate", "--embedding1", "e.emb", "--embedding2", "e.emb", "--age", "linear"),
        ),
        (
            {"a.emb": EMBEDDING_A_BELOW_B, "b.emb": EMBEDDING_FROM_B},
            ("amalgamate", "--embedding1", "a.emb", "--embedding2", "b.emb", "--age", "linear"),
        ),
        (
            {"c.chain": "FI 0 1 : [] : x1\n"},
            ("noeth-chain", "--kind", "oi", "--chain", "c.chain", "--width", "1", "--degree", "1"),
        ),
    ],
    ids=[
        "one-line-token",
        "cycle-token",
        "negative-level",
        "non-invertible-denominator",
        "field-modulus",
        "element-header",
        "relation-arity",
        "negative-max-n",
        "negative-t",
        "negative-orbitcat-cap",
        "zero-width",
        "negative-degree",
        "image-not-a-morphism",
        "factorize-not-a-morphism",
        "map-not-an-embedding",
        "group-file-not-utf8",
        "chain-file-not-utf8",
        "structure-outside-the-age",
        "embeddings-with-different-sources",
        "chain-kind-mismatch",
    ],
)
def test_malformed_input_exits_2(capsys, tmp_path, monkeypatch, files, argv):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        if isinstance(text, bytes):
            (tmp_path / name).write_bytes(text)
        else:
            (tmp_path / name).write_text(text)
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "name, text, argv",
    [
        ("g.grp", "N=1000000000000\n(1 2)\n", ("growth", "--group", "g.grp", "--max-n", "1")),
        ("g.grp", "N=1000000000000\n[2,1]\n", ("orbitcat", "--group", "g.grp", "--cap", "1")),
        ("g.grp", "N=1000000000000\n", ("orbitcat", "--group", "g.grp", "--cap", "1")),
        ("c.chain", "FI 0 1000000000000 : [] : x1\n", CHAIN),
    ],
    ids=["cycle-generator", "one-line-generator", "no-generator", "chain-width"],
)
def test_sizes_read_from_files_are_capped_before_allocation(capsys, tmp_path, monkeypatch, name, text, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(text)
    assert main(list(argv)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource cap: ")


LONG_INT = "9" * 5000  # past int()'s 4,300-digit limit for str


@pytest.mark.parametrize(
    "files, argv, what",
    [
        ({"g.grp": f"N={LONG_INT}\n(1 2)\n"}, GROWTH, "domain size"),
        ({"c.chain": f"FI 0 1 : [] : x1^{LONG_INT}\n"}, CHAIN, "exponent"),
        ({"c.chain": f"FI 0 1 : [] : x{LONG_INT}\n"}, CHAIN, "variable index"),
        ({}, ("factorize", "--morphism", f"FI {LONG_INT}->3 : [1]"), "source size"),
        ({}, ("factorize", "--morphism", f"FI 1->{LONG_INT} : [1]"), "target size"),
    ],
    ids=["group-header", "exponent", "variable-index", "morphism-source", "morphism-target"],
)
def test_integers_past_the_int_to_str_limit_are_malformed_input(capsys, tmp_path, monkeypatch, files, argv, what):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(list(argv)) == 2
    assert capsys.readouterr() == ("", f"error: bad {what}: '{LONG_INT}'\n")


# --help of the program and of each subcommand, and two usage errors, as
# printed (exit code, stdout, stderr) when every subcommand's arguments were
# added up front; argparse of Python 3.11 at 80 columns
PARSER_TEXTS = {
    "--help": (0, """\
usage: orbitlab [-h] [--version]
                {homset,factorize,growth,same-orbits,dense,fullness-witness,amalgamate,sap,orbitcat,noeth-chain,restrict-check}
                ...

finite orbit/category experiments

positional arguments:
  {homset,factorize,growth,same-orbits,dense,fullness-witness,amalgamate,sap,orbitcat,noeth-chain,restrict-check}
    homset              enumerate a hom-set
    factorize           factor a morphism as eps' after g
    growth              orbit growth profile of a group file
    same-orbits         lemma conditions for two groups
    dense               t-density of a subgroup
    fullness-witness    restriction fullness probe
    amalgamate          amalgamate two embedding files
    sap                 strong amalgamation property check
    orbitcat            orbit-category comparison report
    noeth-chain         ascending chain stabilization experiment
    restrict-check      restriction decomposition check

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""", ""),
    "homset --help": (0, """\
usage: orbitlab homset [-h] --kind {fi,oi,bi,ci,si} --m M --n N

options:
  -h, --help            show this help message and exit
  --kind {fi,oi,bi,ci,si}
  --m M
  --n N
""", ""),
    "factorize --help": (0, """\
usage: orbitlab factorize [-h] --morphism MORPHISM

options:
  -h, --help           show this help message and exit
  --morphism MORPHISM  e.g. 'CI 3->4 : [2,3,1]'
""", ""),
    "growth --help": (0, """\
usage: orbitlab growth [-h] --group GROUP --max-n MAX_N [--format {json,tsv}]

options:
  -h, --help           show this help message and exit
  --group GROUP
  --max-n MAX_N
  --format {json,tsv}
""", ""),
    "same-orbits --help": (0, """\
usage: orbitlab same-orbits [-h] --group GROUP --subgroup SUBGROUP --n N

options:
  -h, --help           show this help message and exit
  --group GROUP
  --subgroup SUBGROUP
  --n N
""", ""),
    "dense --help": (0, """\
usage: orbitlab dense [-h] --group GROUP --subgroup SUBGROUP --t T

options:
  -h, --help           show this help message and exit
  --group GROUP
  --subgroup SUBGROUP
  --t T
""", ""),
    "fullness-witness --help": (0, """\
usage: orbitlab fullness-witness [-h] --group GROUP --subgroup SUBGROUP
                                 --k-subgroup K_SUBGROUP

options:
  -h, --help            show this help message and exit
  --group GROUP
  --subgroup SUBGROUP   the subgroup H being restricted to
  --k-subgroup K_SUBGROUP
                        the subgroup K of the coset module
""", ""),
    "amalgamate --help": (0, """\
usage: orbitlab amalgamate [-h] --embedding1 EMBEDDING1 --embedding2
                           EMBEDDING2 --age
                           {set,linear,betweenness,cyclic,separation,pair}
                           [--weak]

options:
  -h, --help            show this help message and exit
  --embedding1 EMBEDDING1
  --embedding2 EMBEDDING2
  --age {set,linear,betweenness,cyclic,separation,pair}
  --weak                allow non-pushout universes
""", ""),
    "sap --help": (0, """\
usage: orbitlab sap [-h] --kind
                    {set,linear,betweenness,cyclic,separation,pair} --cap CAP

options:
  -h, --help            show this help message and exit
  --kind {set,linear,betweenness,cyclic,separation,pair}
  --cap CAP
""", ""),
    "orbitcat --help": (0, """\
usage: orbitlab orbitcat [-h] --group GROUP --cap CAP

options:
  -h, --help     show this help message and exit
  --group GROUP
  --cap CAP
""", ""),
    "noeth-chain --help": (0, """\
usage: orbitlab noeth-chain [-h] --kind {fi,oi,bi,ci,si} --chain CHAIN --width
                            WIDTH --degree DEGREE [--field FIELD]
                            [--order {lex,grevlex}]

options:
  -h, --help            show this help message and exit
  --kind {fi,oi,bi,ci,si}
  --chain CHAIN         chain file of element lines
  --width WIDTH         max width W
  --degree DEGREE       degree cap D
  --field FIELD         q or fp:P
  --order {lex,grevlex}
""", ""),
    "restrict-check --help": (0, """\
usage: orbitlab restrict-check [-h] --kind {fi,oi,bi,ci,si} --n N --s S

options:
  -h, --help            show this help message and exit
  --kind {fi,oi,bi,ci,si}
  --n N
  --s S
""", ""),
    "homset --kind fi": (2, "", """\
usage: orbitlab homset [-h] --kind {fi,oi,bi,ci,si} --m M --n N
orbitlab homset: error: the following arguments are required: --m, --n
"""),
    "bogus": (2, "", """\
usage: orbitlab [-h] [--version]
                {homset,factorize,growth,same-orbits,dense,fullness-witness,amalgamate,sap,orbitcat,noeth-chain,restrict-check}
                ...
orbitlab: error: argument subcommand: invalid choice: 'bogus' (choose from 'homset', 'factorize', 'growth', 'same-orbits', 'dense', 'fullness-witness', 'amalgamate', 'sap', 'orbitcat', 'noeth-chain', 'restrict-check')
"""),
}


@pytest.mark.parametrize("argv", list(PARSER_TEXTS))
def test_help_and_usage_errors_are_unchanged(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == PARSER_TEXTS[argv]
