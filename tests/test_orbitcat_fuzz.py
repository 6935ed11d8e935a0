"""Property-based tests of the `orbitcat` subcommand: the exit-code contract
on arbitrary group files, witnesses for every failure, and hom counts
against the coset oracle of test_orbitcat."""

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

from test_orbitcat import oracle_collisions, oracle_orbit_hom  # noqa: E402

FUZZ = settings(max_examples=60, deadline=None)


def run_orbitcat(text: str, cap: int):
    """(exit code, stdout) of `orbitcat --cap cap` on a group file with this text."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "g.grp"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["orbitcat", "--group", str(path), "--cap", str(cap)])
    return code, out.getvalue()


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
def group_files(draw):
    """(text of a group file with random generators on N <= 5 points, cap)."""
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
        assert data["object_collisions"] or data["hom_mismatches"] or data["missing_extensions"]


@FUZZ
@given(group_files())
def test_orbitcat_on_random_groups_matches_the_coset_oracle(group):
    text, cap = group
    code, out = run_orbitcat(text, cap)
    assert code in (0, 1)
    data = json.loads(out)
    assert data["isomorphism"] is (code == 0)
    if code == 1:
        assert data["object_collisions"] or data["hom_mismatches"] or data["missing_extensions"]
    G = parse_group_file(text)
    objects = [tuple(s) for s in data["objects"]]
    collisions = [[list(a), list(b)] for a, b in oracle_collisions(G, objects)]
    assert data["object_collisions"] == collisions
    subsets = [frozenset(s) for s in objects]
    want = [[len(oracle_orbit_hom(G, s, g)) for g in subsets] for s in subsets]
    assert data["hom_counts"] == want
