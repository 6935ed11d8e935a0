"""Property-based tests of the subcommands that read a group file: the
exit-code contract on arbitrary group files for `orbitcat`, `growth`,
`same-orbits`, `dense` and `fullness-witness`, witnesses for every failure,
`orbitcat` hom counts against the coset oracle of test_orbitcat, its whole
report against the all-pairs oracle of test_orbitcat, and the
orbit counts of `growth` and `same-orbits` against the enumeration oracle of
test_actions."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from orbitlab.actions import parse_group_file  # noqa: E402
from orbitlab.cli import main  # noqa: E402
from orbitlab.orbitcat import phi_iso_report  # noqa: E402

from test_actions import orbit_point_sets  # noqa: E402
from test_orbitcat import (  # noqa: E402
    assert_report_matches_oracles,
    oracle_collisions,
    oracle_orbit_hom,
)

FUZZ = settings(max_examples=60, deadline=None)


def run_cli(files: dict, *argv):
    """(exit code, stdout) of the CLI on `argv`, where each name in `files`
    stands for a file with that text."""
    with tempfile.TemporaryDirectory() as d:
        paths = {}
        for name, text in files.items():
            paths[name] = Path(d) / name
            paths[name].write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(paths.get(a, a)) for a in argv])
    return code, out.getvalue()


def run_orbitcat(text: str, cap: int):
    """(exit code, stdout) of `orbitcat --cap cap` on a group file with this text."""
    return run_cli({"g.grp": text}, "orbitcat", "--group", "g.grp", "--cap", str(cap))


def cycle_notation(perm) -> str:
    seen, cycles = set(), []
    for start in range(1, len(perm) + 1):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        x = perm[start - 1]
        while x != start:
            cycle.append(x)
            seen.add(x)
            x = perm[x - 1]
        cycles.append(f"({' '.join(map(str, cycle))})")
    return "".join(cycles)


@st.composite
def group_files(draw, n=None):
    """(text of a group file with random generators on N <= 5 points, or on
    n points if given, cap)."""
    if n is None:
        n = draw(st.integers(1, 5))
    perms = draw(st.lists(st.permutations(range(1, n + 1)), max_size=3))
    lines = [
        cycle_notation(p) if draw(st.booleans()) else "[" + ",".join(map(str, p)) + "]"
        for p in perms
    ]
    text = "\n".join([f"N={n}"] + lines) + "\n"
    return text, draw(st.integers(0, min(n, 2)))


ARBITRARY_TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=40),
    # a header and a body of group-file punctuation reach the permutation parsers
    st.builds(
        "N={}\n{}".format,
        st.integers(0, 6),
        st.text(alphabet="()[], 0123456789\n-#", max_size=30),
    ),
)


@FUZZ
@given(text=ARBITRARY_TEXT, cap=st.integers(-1, 3))
def test_orbitcat_exit_code_contract_on_arbitrary_text(text, cap):
    code, out = run_orbitcat(text, cap)
    assert code in (0, 1, 2, 3)
    if code == 1:
        data = json.loads(out)
        assert data["object_collisions"] or data["hom_mismatches"]


@FUZZ
@given(
    text=st.one_of(ARBITRARY_TEXT, group_files().map(lambda group: group[0])),
    sub=st.one_of(st.none(), ARBITRARY_TEXT),
    t=st.integers(-1, 3),
)
def test_dense_and_fullness_exit_code_contract_on_arbitrary_text(text, sub, t):
    if sub is None:  # the first line alone; a header gives the trivial subgroup
        sub = text.split("\n", 1)[0] + "\n"
    files = {"g.grp": text, "h.grp": sub}
    code, out = run_cli(files, "dense", "--group", "g.grp", "--subgroup", "h.grp", "--t", str(t))
    assert code in (0, 2, 3)  # dense reports a verdict, never a failed check
    if code == 0:
        assert json.loads(out)["dense"] in (True, False)
    argv = ("fullness-witness", "--group", "g.grp", "--subgroup", "h.grp", "--k-subgroup", "h.grp")
    code, out = run_cli(files, *argv)
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        data = json.loads(out)
        assert data["full"] is (code == 0)
        assert (data["witness"] is None) is (code == 0)


@FUZZ
@given(group_files())
def test_orbitcat_on_random_groups_matches_the_coset_oracle(group):
    text, cap = group
    code, out = run_orbitcat(text, cap)
    assert code in (0, 1)
    data = json.loads(out)
    assert data["isomorphism"] is (code == 0)
    if code == 1:
        assert data["object_collisions"] or data["hom_mismatches"]
    G = parse_group_file(text)
    objects = [tuple(s) for s in data["objects"]]
    collisions = [[list(a), list(b)] for a, b in oracle_collisions(G, objects)]
    assert data["object_collisions"] == collisions
    subsets = [frozenset(s) for s in objects]
    want = [[len(oracle_orbit_hom(G, s, g)) for g in subsets] for s in subsets]
    assert data["hom_counts"] == want


@settings(max_examples=25, deadline=None)
@given(group_files(), st.integers(0, 3))
def test_report_up_to_symmetry_on_random_groups_matches_all_pairs(group, cap):
    G = parse_group_file(group[0])
    assert_report_matches_oracles(G, min(cap, G.domain_size))


@FUZZ
@given(st.integers(1, 7).flatmap(group_files), st.integers(1, 3))
def test_orbitcat_fails_exactly_at_a_fixed_point_violation_from_cap_1(group, cap):
    # a point x of Fix(G_A) outside A is a morphism G/G_A -> G/G_{x} that no
    # embedding {x} -> A gives, and each failure names such a point
    G = parse_group_file(group[0])
    assert phi_iso_report(G, min(cap, G.domain_size)).consistent_with_fixed_points


def test_orbitcat_at_cap_0_passes_beside_a_global_fixed_point():
    # C3 on 4 points fixes 4, which no hom-set of 0-point objects can show
    code, out = run_orbitcat("N=4\n(1 2 3)\n", 0)
    data = json.loads(out)
    assert code == 0 and data["isomorphism"] is True
    assert data["fixed_point_violations"] == [[]]
    assert data["consistent_with_fixed_points"] is False
    code, out = run_orbitcat("N=4\n(1 2 3)\n", 1)
    assert code == 1 and json.loads(out)["consistent_with_fixed_points"] is True


@FUZZ
@given(
    text=st.one_of(ARBITRARY_TEXT, group_files().map(lambda group: group[0])),
    sub=st.one_of(st.none(), ARBITRARY_TEXT, group_files().map(lambda group: group[0])),
    n=st.integers(-1, 4),
)
def test_growth_and_same_orbits_exit_code_contract_on_arbitrary_text(text, sub, n):
    if sub is None:  # the first line alone; a header gives the trivial group
        sub = text.split("\n", 1)[0] + "\n"
    files = {"g.grp": text, "h.grp": sub}
    code, out = run_cli(files, "growth", "--group", "g.grp", "--max-n", str(n))
    assert code in (0, 2, 3)  # growth reports counts, never a failed check
    code, out = run_cli(files, "same-orbits", "--group", "g.grp", "--subgroup", "h.grp", "--n", str(n))
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        data = json.loads(out)
        assert data["consistent"] is (code == 0)
        assert (data["witness"] is None) is (code == 0)


def enumerated_counts(G, levels, mode):
    return [sum(1 for _ in orbit_point_sets(G, n, mode)) for n in levels]


def enumerated_partition(G, n, mode):
    return frozenset(map(frozenset, orbit_point_sets(G, n, mode)))


@FUZZ
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(group_files(n), group_files(n))))
def test_growth_and_same_orbits_on_random_groups_match_enumeration(groups):
    (text, _), (sub, _) = groups
    G, H = parse_group_file(text), parse_group_file(sub)
    N = G.domain_size
    levels = range(1, N + 1)
    code, out = run_cli({"g.grp": text}, "growth", "--group", "g.grp", "--max-n", str(N))
    assert code == 0
    data = json.loads(out)
    assert data["f"] == enumerated_counts(G, levels, "subsets")
    assert data["F"] == enumerated_counts(G, levels, "injective")
    assert data["F_star"] == enumerated_counts(G, levels, "power")
    files = {"g.grp": text, "h.grp": sub}
    code, out = run_cli(files, "same-orbits", "--group", "g.grp", "--subgroup", "h.grp", "--n", str(N))
    assert code == 0
    data = json.loads(out)
    assert data["consistent"] is True
    same = {
        mode: [enumerated_partition(G, n, mode) == enumerated_partition(H, n, mode) for n in levels]
        for mode in ("power", "injective")
    }
    assert data["conditions"] == {
        "all_tuples": same["power"][-1],
        "injective_tuples": same["injective"][-1],
        "all_tuples_all_levels": all(same["power"]),
        "injective_tuples_all_levels": all(same["injective"]),
    }
