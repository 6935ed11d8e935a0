"""Property-based tests of the parsers behind `amalgamate` (embedding files,
every age, strong and weak), `factorize` (the morphism serialization),
`homset` and `restrict-check`: on any input each exits 0, 1, 2 or 3, never
with a traceback, and a report that exits 0 is JSON."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from orbitlab.cli import main  # noqa: E402
from orbitlab.structures import PairAge, arrangement_structure, format_structure  # noqa: E402

from test_orbitcat_fuzz import ARBITRARY_TEXT  # noqa: E402

FUZZ = settings(max_examples=50, deadline=None)
AGES = ("set", "linear", "betweenness", "cyclic", "separation", "pair")
KINDS = ("fi", "oi", "bi", "ci", "si")


def run_cli(files: dict, *argv):
    """(exit code, stdout) of the CLI on `argv`, where each name in `files`
    stands for a file with that text; argparse's exits count as exit codes."""
    with tempfile.TemporaryDirectory() as d:
        paths = {}
        for name, text in files.items():
            paths[name] = Path(d) / name
            paths[name].write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([str(paths.get(a, a)) for a in argv])
            except SystemExit as exc:
                code = exc.code
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue()


def assert_contract(code, out):
    assert code in (0, 1, 2, 3)
    if code == 0:
        json.loads(out)


LABELS = st.sampled_from("abcde")


@st.composite
def structure_texts(draw):
    """A structure section: an arrangement structure of a random age, or a
    universe with random relations of random arity over a few labels."""
    universe = draw(st.lists(LABELS, max_size=4, unique=True))
    if draw(st.booleans()):
        age = draw(st.sampled_from(AGES[:5]))
        return format_structure(arrangement_structure(age, draw(st.permutations(universe))))
    lines = ["universe = " + " ".join(universe)]
    names = st.sampled_from(("lt", "btw", "cyc", "sep", "R") + tuple(dict(PairAge.signature)))
    for _ in range(draw(st.integers(0, 2))):
        arity = draw(st.integers(0, 4))
        tuples = draw(st.lists(st.lists(LABELS, min_size=arity, max_size=arity), max_size=4))
        body = " ".join("(" + ",".join(t) + ")" for t in tuples)
        lines.append(f"{draw(names)}/{draw(st.sampled_from((str(arity), 'x', '-1')))}: {body}")
    return "\n".join(lines)


@st.composite
def embedding_files(draw):
    source, target = draw(structure_texts()), draw(structure_texts())
    pairs = draw(st.lists(st.tuples(LABELS, LABELS), max_size=4))
    mapping = "".join(f"{x} -> {y}\n" for x, y in pairs)
    return f"[source]\n{source}\n[target]\n{target}\n[map]\n{mapping}"


EMBEDDING_TEXT = st.one_of(embedding_files(), ARBITRARY_TEXT)


@st.composite
def amalgamation_problems(draw):
    """(age, embedding text, embedding text): two structures of the age
    extending one source structure, each embedded by the identity on the
    source's labels (a map sometimes scrambled)."""
    age = draw(st.sampled_from(AGES))
    source = draw(st.lists(st.sampled_from("abc"), max_size=3, unique=True))
    coords = st.tuples(st.integers(0, 2), st.integers(0, 2))
    if age == "pair":
        layout = draw(st.lists(coords, min_size=len(source), max_size=len(source), unique=True))
    else:
        layout = list(source)

    def structure(labels, layout):
        if age == "pair":
            return format_structure(PairAge.from_pairs(labels, layout))
        return format_structure(arrangement_structure(age, layout))

    sigma = structure(source, layout)
    texts = []
    for extra in ("pq", "qr"):
        labels, grown = list(source), list(layout)
        for x in draw(st.lists(st.sampled_from(extra), max_size=2, unique=True)):
            labels.append(x)
            if age == "pair":
                grown.append(draw(coords.filter(lambda p: p not in grown)))
            else:
                grown.insert(draw(st.integers(0, len(grown))), x)
        images = draw(st.permutations(source)) if draw(st.integers(0, 4)) == 0 else source
        mapping = "".join(f"{x} -> {y}\n" for x, y in zip(source, images))
        texts.append(f"[source]\n{sigma}\n[target]\n{structure(labels, grown)}\n[map]\n{mapping}")
    return age, texts[0], texts[1]


AMALGAMATION_INPUTS = st.one_of(
    amalgamation_problems(),
    st.tuples(st.sampled_from(AGES), EMBEDDING_TEXT, EMBEDDING_TEXT),
)


@FUZZ
@given(AMALGAMATION_INPUTS, st.booleans())
def test_amalgamate_exit_code_contract(inputs, weak):
    age, e1, e2 = inputs
    argv = ("amalgamate", "--embedding1", "e1.emb", "--embedding2", "e2.emb", "--age", age)
    code, out = run_cli({"e1.emb": e1, "e2.emb": e2}, *argv + (("--weak",) if weak else ()))
    assert_contract(code, out)


MORPHISM_TEXT = st.one_of(
    ARBITRARY_TEXT,
    st.builds(
        "{} {}->{} : [{}]".format,
        st.sampled_from(("FI", "OI", "BI", "CI", "SI", "fi", "XI", "")),
        st.integers(-1, 6),
        st.integers(-1, 7),
        st.lists(st.integers(-1, 8), max_size=6).map(lambda xs: ",".join(map(str, xs))),
    ),
)


@FUZZ
@given(MORPHISM_TEXT)
@example("OI 2->3 : [1,,2]")
@example("OI 2->3 : [1,2,]")
@example("OI 2->3 : [,]")
@example("OI 2->3 : [1 2]")
def test_factorize_exit_code_contract(text):
    # `--morphism=...` keeps a text that starts with "-" an argument value
    assert_contract(*run_cli({}, "factorize", f"--morphism={text}"))


SMALL_INT = st.one_of(st.integers(-2, 7).map(str), st.sampled_from(("", "x", "1.5", "-")))


KIND = st.sampled_from(KINDS + ("xi",))


@FUZZ
@given(KIND, SMALL_INT, SMALL_INT)
def test_homset_exit_code_contract(kind, m, n):
    assert_contract(*run_cli({}, "homset", f"--kind={kind}", f"--m={m}", f"--n={n}"))


@FUZZ
@given(KIND, SMALL_INT, SMALL_INT)
def test_restrict_check_exit_code_contract(kind, n, s):
    assert_contract(*run_cli({}, "restrict-check", f"--kind={kind}", f"--n={n}", f"--s={s}"))
