"""Unit tests for exact polynomial arithmetic and parsing."""

from fractions import Fraction

import pytest

from orbitlab.errors import MalformedInputError
from orbitlab.polynomials import (
    GREVLEX,
    LEX,
    CoefficientField,
    MonomialOrder,
    Polynomial,
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
    p = Polynomial(2, QQ, {(1, 0): 1, (0, 1): 0})
    assert list(p.terms) == [(1, 0)]
    assert (p - p).is_zero()


def test_monomial_checks_and_coerces_outside_data():
    F7 = CoefficientField(7)
    with pytest.raises(MalformedInputError):
        Polynomial.monomial(2, (1,))
    with pytest.raises(MalformedInputError):
        Polynomial.monomial(1, (1, 0), 3, F7)
    assert Polynomial.monomial(1, (1,), 8, F7).terms == {(1,): 1}
    assert Polynomial.constant(1, 14, F7).is_zero()
    (c,) = Polynomial.monomial(2, [0, 1], 2).terms.values()
    assert type(c) is Fraction


def test_arithmetic_ring_axioms_sample():
    x = Polynomial.variable(2, 1)
    y = Polynomial.variable(2, 2)
    one = Polynomial.constant(2, 1)
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + one) * (x + one) == x * x + x.scale(2) + one
    assert x * y == y * x


def test_substitution():
    p = parse_polynomial("x1^2*x2 - x2", 2)
    q = p.substitute((3, 1), 3)
    assert q == parse_polynomial("x3^2*x1 - x1", 3)


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


def test_leading_term():
    p = parse_polynomial("x1*x2 + x2^3", 2)
    assert p.leading(LEX)[0] == (1, 1)
    assert p.leading(GREVLEX)[0] == (0, 3)


def test_parse_and_str_round_trip():
    for text in ("3/2*x1^2*x3 - x2", "x1 + 1", "-x1^4 + 2*x2 - 7"):
        p = parse_polynomial(text, 3)
        assert parse_polynomial(str(p), 3) == p


def test_parse_rejects_garbage():
    for bad in ("", "x0 + 1", "x4", "x1 +", "1..2*x1"):
        with pytest.raises(MalformedInputError):
            parse_polynomial(bad, 3)


def test_ring_axioms_hypothesis():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    monos = st.tuples(
        st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
    )
    coeffs = st.fractions(min_value=-5, max_value=5)
    polys = st.dictionaries(monos, coeffs, max_size=4).map(
        lambda d: Polynomial(2, QQ, d)
    )

    @settings(max_examples=80, deadline=None)
    @given(polys, polys, polys)
    def run(a, b, c):
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a

    run()


def test_parse_over_fp():
    f3 = CoefficientField(3)
    p = parse_polynomial("4*x1 + 1/2", 1, f3)
    assert p.terms == {(1,): 1, (0,): 2}
