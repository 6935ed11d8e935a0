"""Property-based tests of the chain-file boundary: `noeth-chain --width 2
--degree 2` keeps the exit-code contract on arbitrary chain text and on
generated element lines, and exits 1 only with a witness."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from test_orbitcat_fuzz import FUZZ, run_cli  # noqa: E402

KINDS = ("fi", "oi", "bi", "ci", "si")


def run_chain(text: str, kind: str, field: str):
    """(exit code, stdout) of `noeth-chain --width 2 --degree 2` on this chain text."""
    argv = ("noeth-chain", "--kind", kind, "--chain", "c.chain", "--width", "2", "--degree", "2")
    return run_cli({"c.chain": text}, *argv, "--field", field)


def check_contract(code, out):
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        data = json.loads(out)
        assert data["all_stabilized"] is (code == 0)
        if code == 1:
            assert not all(r["stabilized"] for r in data["results"])


@st.composite
def polynomials(draw, variables):
    """Polynomial text in x1..x_variables."""
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        coeff = draw(st.sampled_from(("1", "-2", "3/2", "1/7", "0")))
        factors = [coeff] + [
            f"x{draw(st.integers(1, variables))}^{draw(st.integers(0, 3))}"
            for _ in range(draw(st.integers(0, 2)) if variables else 0)
        ]
        terms.append("*".join(factors))
    return " + ".join(terms) or "0"


FAULTS = ("kind", "generator width", "image entry", "variable")


@st.composite
def element_lines(draw, kind, n):
    """`KIND n s : [image] : polynomial` in the chain's kind and generator
    width, with an injective image that need not be a morphism of the kind;
    about one line in five has one of the FAULTS."""
    fault = draw(st.sampled_from(FAULTS + (None,) * 16))
    if fault == "kind":
        kind = draw(st.sampled_from(KINDS + ("xi",)))
    if fault == "generator width":
        n = draw(st.integers(0, 2))
    s = draw(st.integers(n, 2))
    top = s + 1 if fault == "image entry" else s
    image = draw(st.permutations(range(1, top + 1)))[:n]
    poly = draw(polynomials(s + 1 if fault == "variable" else s))
    return f"{kind.upper()} {n} {s} : [{','.join(map(str, image))}] : {poly}"


@st.composite
def chain_files(draw):
    """(chain text, the kind it is mostly written in)."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(0, 2))
    lines = element_lines(kind, n)
    steps = draw(st.lists(st.lists(lines, max_size=3), min_size=1, max_size=3))
    return "\n--\n".join("\n".join(step) for step in steps) + "\n", kind


ARBITRARY_CHAIN_TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=40),
    # element-line punctuation reaches the header, image and polynomial parsers
    st.text(alphabet="FIOBCS 0123[],:x^*+-/\n#", max_size=40),
)


@FUZZ
@given(
    text=ARBITRARY_CHAIN_TEXT,
    kind=st.sampled_from(KINDS),
    field=st.sampled_from(("q", "fp:7", "fp:x")),
)
def test_noeth_chain_exit_code_contract_on_arbitrary_text(text, kind, field):
    check_contract(*run_chain(text, kind, field))


@FUZZ
@given(chain=chain_files(), field=st.sampled_from(("q", "fp:7")))
def test_noeth_chain_exit_code_contract_on_element_lines(chain, field):
    check_contract(*run_chain(*chain, field))
