"""Exact sparse multivariate polynomials over Q or a prime field F_p.

Monomials are exponent tuples of a fixed length (the width of the ambient
ring).  Coefficients are Fraction for Q and canonical residues for F_p;
no floating point anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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


@dataclass(frozen=True)
class MonomialOrder:
    """lex or grevlex; exposes a sort key, larger key = larger monomial."""

    name: str

    def __post_init__(self):
        if self.name not in ("lex", "grevlex"):
            raise MalformedInputError(f"unknown monomial order {self.name!r}")

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


@dataclass(frozen=True)
class CoefficientField:
    """Q when modulus is None, else F_p for a prime p <= 2**31."""

    modulus: int | None = None

    def __post_init__(self):
        if self.modulus is not None:
            if self.modulus > 2**31 or not _is_prime(self.modulus):
                raise MalformedInputError(f"bad prime modulus {self.modulus}")

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

    @property
    def one(self):
        return Fraction(1) if self.modulus is None else 1

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


class Polynomial:
    """Sparse polynomial in x1..x_width; zero coefficients are never stored.

    The constructor trusts its terms (exponent tuples of length `width`,
    values of `field`) and only drops zeros.  Outside data enters through
    `parse_polynomial`, `monomial`, `constant`, `variable` and `scale`."""

    __slots__ = ("width", "field", "terms")

    def __init__(self, width: int, field: CoefficientField, terms=None):
        self.width = width
        self.field = field
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, width: int, field: CoefficientField = QQ) -> "Polynomial":
        return cls(width, field, {})

    @classmethod
    def constant(cls, width: int, c, field: CoefficientField = QQ) -> "Polynomial":
        return cls.monomial(width, (0,) * width, c, field)

    @classmethod
    def variable(cls, width: int, i: int, field: CoefficientField = QQ) -> "Polynomial":
        if not 1 <= i <= width:
            raise MalformedInputError(f"x{i} not in width-{width} ring")
        exps = [0] * width
        exps[i - 1] = 1
        return cls(width, field, {tuple(exps): field.one})

    @classmethod
    def monomial(cls, width: int, exps, c=1, field: CoefficientField = QQ) -> "Polynomial":
        exps = tuple(exps)
        if len(exps) != width:
            raise MalformedInputError(f"monomial {exps} has wrong width")
        return cls(width, field, {exps: field.coerce(c)})

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.width == other.width
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.width, self.field, frozenset(self.terms.items())))

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        terms = dict(self.terms)
        f = self.field
        for m, c in other.terms.items():
            terms[m] = f.add(terms.get(m, f.zero), c)
        return Polynomial(self.width, f, terms)

    def __neg__(self) -> "Polynomial":
        f = self.field
        return Polynomial(self.width, f, {m: f.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        f = self.field
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_mul(m1, m2)
                terms[m] = f.add(terms.get(m, f.zero), f.mul(c1, c2))
        return Polynomial(self.width, f, terms)

    def scale(self, c) -> "Polynomial":
        f = self.field
        c = f.coerce(c)
        return Polynomial(self.width, f, {m: f.mul(cc, c) for m, cc in self.terms.items()})

    def term_mul(self, mono: Monomial, c) -> "Polynomial":
        f = self.field
        return Polynomial(
            self.width,
            f,
            {monomial_mul(m, mono): f.mul(cc, c) for m, cc in self.terms.items()},
        )

    def substitute(self, image, new_width: int) -> "Polynomial":
        """Apply x_i -> x_{image[i-1]} (an injection into a width-new_width ring)."""
        terms = {}
        f = self.field
        for m, c in self.terms.items():
            exps = [0] * new_width
            for i, e in enumerate(m):
                exps[image[i] - 1] += e
            key = tuple(exps)
            terms[key] = f.add(terms.get(key, f.zero), c)
        return Polynomial(new_width, f, terms)

    def leading(self, order: MonomialOrder):
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    # -- text ---------------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=GREVLEX.key, reverse=True):
            c = self.terms[m]
            factors = [
                f"x{i+1}^{e}" if e > 1 else f"x{i+1}" for i, e in enumerate(m) if e
            ]
            if not factors:
                parts.append(str(c))
            elif c == self.field.one:
                parts.append("*".join(factors))
            else:
                parts.append(str(c) + "*" + "*".join(factors))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self):
        return f"Polynomial({self})"


_TERM_SPLIT = re.compile(r"(?=[+-])")
_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_polynomial(text: str, width: int, field: CoefficientField = QQ) -> Polynomial:
    """Parse ASCII polynomials like `3/2*x1^2*x3 - x2 + 1`."""
    body = text.replace(" ", "")
    if not body:
        raise MalformedInputError("empty polynomial")
    total = Polynomial.zero(width, field)
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
                i, e = int(m.group(1)), int(m.group(2) or 1)
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
        total = total + Polynomial.monomial(width, exps, coeff, field)
    return total
