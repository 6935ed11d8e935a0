"""Unit tests for fields, monomial orders and polynomial parsing."""

from fractions import Fraction

import pytest

from orbitlab.errors import MalformedInputError
from orbitlab.polynomials import (
    GREVLEX,
    LEX,
    CoefficientField,
    MonomialOrder,
    QQ,
    parse_polynomial,
)


def test_field_construction():
    assert CoefficientField.from_string("q") == QQ
    f5 = CoefficientField.from_string("fp:5")
    assert f5.modulus == 5
    with pytest.raises(MalformedInputError):
        CoefficientField(4)
    with pytest.raises(MalformedInputError):
        CoefficientField.from_string("r")


def test_field_arithmetic():
    f5 = CoefficientField(5)
    assert f5.add(3, 4) == 2
    assert f5.mul(f5.inv(2), 2) == 1
    assert f5.coerce(Fraction(1, 2)) == 3
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)


def test_zero_terms_dropped():
    assert parse_polynomial("x1 + 0*x2", 2) == {(1, 0): 1}
    assert parse_polynomial("x1 - x1", 2) == {}
    # a cancelled monomial that comes back is a new term
    assert list(parse_polynomial("x2 + x1 - x2 + 2*x2", 2)) == [(1, 0), (0, 1)]


def test_monomial_checks_and_coerces_outside_data():
    F7 = CoefficientField(7)
    assert parse_polynomial("8*x1", 1, F7) == {(1,): 1}
    assert parse_polynomial("14", 1, F7) == {}
    with pytest.raises(MalformedInputError, match="has no value in F7"):
        parse_polynomial("1/7*x1", 1, F7)
    with pytest.raises(MalformedInputError, match="outside width-1 ring"):
        parse_polynomial("x2", 1, F7)
    (c,) = parse_polynomial("2*x2", 2).values()
    assert type(c) is Fraction


def test_orders():
    # x1 > x2^2 in lex, x2^2 > x1 in grevlex (degree first)
    a, b = (1, 0), (0, 2)
    assert LEX.key(a) > LEX.key(b)
    assert GREVLEX.key(a) < GREVLEX.key(b)
    # grevlex tie-break: x1*x3 < x2^2 at equal degree... compare standard:
    # x1^2 > x1x2 > x2^2 > x1x3 > x2x3 > x3^2
    ms = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    assert sorted(ms, key=GREVLEX.key, reverse=True) == ms
    with pytest.raises(MalformedInputError):
        MonomialOrder("degrevlex")


def test_parse_rejects_garbage():
    for bad in ("", "x0 + 1", "x4", "x1 +", "1..2*x1"):
        with pytest.raises(MalformedInputError):
            parse_polynomial(bad, 3)


def test_parse_over_fp():
    f3 = CoefficientField(3)
    assert parse_polynomial("4*x1 + 1/2", 1, f3) == {(1,): 1, (0,): 2}


def test_parse_returns_canonical_terms():
    # whatever the text, the terms are exponent tuples of the ring's width
    # with nonzero coefficients of the field: Fraction over Q, a residue in
    # 1..p-1 over F_p; and they are the sums of the written terms
    from hypothesis import given, settings
    from hypothesis import strategies as st

    F7 = CoefficientField(7)

    @st.composite
    def cases(draw):
        field = draw(st.sampled_from([QQ, F7]))
        width = draw(st.integers(min_value=1, max_value=3))
        # repeated monomials and opposite coefficients make cancellations
        # likely; denominators below 7 have a value in F7
        written = draw(
            st.lists(
                st.tuples(
                    st.sampled_from([(0,) * width, (1,) + (0,) * (width - 1)])
                    | st.tuples(*[st.integers(min_value=0, max_value=2)] * width),
                    st.fractions(min_value=-3, max_value=3, max_denominator=6),
                ),
                min_size=1,
                max_size=5,
            )
        )
        return field, width, written

    def text(written):
        out = ""
        for mono, c in written:
            factors = [str(abs(c))] + [f"x{i + 1}^{e}" for i, e in enumerate(mono) if e]
            out += ("-" if c < 0 else "+") + "*".join(factors)
        return out

    @settings(max_examples=150, deadline=None)
    @given(cases())
    def run(case):
        field, width, written = case
        terms = parse_polynomial(text(written), width, field)
        for mono, c in terms.items():
            assert type(mono) is tuple and len(mono) == width
            assert all(type(e) is int and e >= 0 for e in mono)
            if field is QQ:
                assert type(c) is Fraction and c != 0
            else:
                assert type(c) is int and 1 <= c <= 6
        sums = {}
        for mono, c in written:
            sums[mono] = sums.get(mono, 0) + c
        if field is F7:
            sums = {m: s.numerator * pow(s.denominator, -1, 7) % 7 for m, s in sums.items()}
        assert terms == {m: s for m, s in sums.items() if s}

    run()
