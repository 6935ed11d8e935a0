"""Exact sparse multivariate polynomials over Q or a prime field F_p.

A polynomial is a dict {monomial: nonzero coefficient}, the form the
Groebner engine of `modlab` computes with.  Monomials are exponent tuples
of a fixed length (the width of the ambient ring).  Coefficients are
Fraction for Q and canonical residues for F_p; no floating point anywhere.
This module holds the monomial helpers, the orders, the fields and the
parser; the arithmetic on term dicts lives in `modlab`.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from operator import add, le, sub

from .errors import MalformedInputError, parse_int

Monomial = tuple


def monomial_degree(m: Monomial) -> int:
    return sum(m)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(sub, a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


class MonomialOrder(namedtuple("MonomialOrder", "name")):
    """lex or grevlex; exposes a sort key, larger key = larger monomial."""

    __slots__ = ()

    def __new__(cls, name: str):
        if name not in ("lex", "grevlex"):
            raise MalformedInputError(f"unknown monomial order {name!r}")
        return super().__new__(cls, name)

    def key(self, m: Monomial):
        if self.name == "lex":
            return m
        return (monomial_degree(m), tuple(-e for e in reversed(m)))


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class CoefficientField(namedtuple("CoefficientField", "modulus")):
    """Q when modulus is None, else F_p for a prime p <= 2**31."""

    __slots__ = ()

    def __new__(cls, modulus: int | None = None):
        if modulus is not None:
            if modulus > 2**31 or not _is_prime(modulus):
                raise MalformedInputError(f"bad prime modulus {modulus}")
        return super().__new__(cls, modulus)

    def coerce(self, x):
        if self.modulus is None:
            return Fraction(x)
        if isinstance(x, Fraction):
            try:
                inverse = pow(x.denominator, -1, self.modulus)
            except ValueError:
                raise MalformedInputError(f"{x} has no value in {self}") from None
            return x.numerator * inverse % self.modulus
        return int(x) % self.modulus

    def add(self, a, b):
        return a + b if self.modulus is None else (a + b) % self.modulus

    def mul(self, a, b):
        return a * b if self.modulus is None else (a * b) % self.modulus

    def neg(self, a):
        return -a if self.modulus is None else (-a) % self.modulus

    def inv(self, a):
        if self.modulus is None:
            return Fraction(1) / a
        return pow(a, -1, self.modulus)

    @property
    def zero(self):
        return Fraction(0) if self.modulus is None else 0

    def __str__(self):
        return "Q" if self.modulus is None else f"F{self.modulus}"

    @classmethod
    def from_string(cls, s: str) -> "CoefficientField":
        s = s.strip().lower()
        if s == "q":
            return cls(None)
        if s.startswith("fp:"):
            return cls(parse_int(s[3:], "prime modulus"))
        raise MalformedInputError(f"unknown field spec {s!r} (use q or fp:P)")


QQ = CoefficientField(None)


_TERM_SPLIT = re.compile(r"(?=[+-])")
_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_polynomial(text: str, width: int, field: CoefficientField = QQ) -> dict:
    """Parse ASCII polynomials like `3/2*x1^2*x3 - x2 + 1` into
    {exponent tuple of length `width`: nonzero coefficient of `field`}."""
    body = text.replace(" ", "")
    if not body:
        raise MalformedInputError("empty polynomial")
    terms = {}
    for chunk in _TERM_SPLIT.split(body):
        if not chunk or chunk in "+-":
            if chunk:
                raise MalformedInputError(f"dangling sign in {text!r}")
            continue
        sign = 1
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sign = -1
            chunk = chunk[1:]
        coeff = Fraction(sign)
        exps = [0] * width
        for factor in chunk.split("*"):
            if not factor:
                raise MalformedInputError(f"empty factor in {text!r}")
            m = _FACTOR_RE.match(factor)
            if m:
                i = parse_int(m.group(1), "variable index")
                e = parse_int(m.group(2) or "1", "exponent")
                if not 1 <= i <= width:
                    raise MalformedInputError(
                        f"variable x{i} outside width-{width} ring"
                    )
                exps[i - 1] += e
            else:
                try:
                    coeff *= Fraction(factor)
                except (ValueError, ZeroDivisionError):
                    raise MalformedInputError(f"bad factor {factor!r} in {text!r}")
        mono = tuple(exps)
        c = field.add(terms.get(mono, field.zero), field.coerce(coeff))
        if c:
            terms[mono] = c
        else:
            terms.pop(mono, None)
    return terms
