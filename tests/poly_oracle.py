"""Test oracle for legquad.poly: the Euler identity sum x_i dp/dx_i =
deg(p) p, on `Polynomial` arithmetic alone, and the polynomial helpers only
the tests and the other oracles call: coefficients, monic scaling, the
gradient, the monomials of one degree, evaluation at a point and
substitution; and the character-by-character parser that `parse_poly`
replaced, kept as the oracle of its token reader."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Dict, List, Optional, Sequence

from legquad.poly import Exponent, Polynomial, PolyParseError, grevlex_key, monomial_mul


def coefficient(p: Polynomial, exps: Exponent) -> Fraction:
    return p.terms.get(tuple(exps), Fraction(0))


def leading_coefficient(p: Polynomial) -> Fraction:
    return p.terms[p.leading_monomial()]


def monic(p: Polynomial) -> Polynomial:
    return p.scale(1 / leading_coefficient(p)) if p.terms else p


def gradient(p: Polynomial) -> List[Polynomial]:
    return [p.partial_derivative(i) for i in range(p.nvars)]


def monomials_of_degree(nvars: int, degree: int) -> List[Exponent]:
    """Every monomial of the given degree in nvars variables, largest
    grevlex monomial first."""
    supports = combinations_with_replacement(range(nvars), degree)
    monomials = [tuple(map(support.count, range(nvars))) for support in supports]
    return sorted(monomials, key=grevlex_key, reverse=True)


def euler_weighted_sum(p: Polynomial) -> Polynomial:
    """Sum of x_i * dp/dx_i over all variables; input must be homogeneous.

    For a homogeneous p this equals deg(p) * p, which the callers rely on.
    """
    if not p.is_homogeneous():
        raise ValueError("euler_weighted_sum requires a homogeneous polynomial")
    total = Polynomial.zero(p.nvars)
    for i in range(p.nvars):
        total = total + Polynomial.variable(p.nvars, i) * p.partial_derivative(i)
    return total


def evaluate(p: Polynomial, point: Sequence) -> Fraction:
    """Exact value at a rational point; point length must equal nvars."""
    if len(point) != p.nvars:
        raise ValueError(f"point has {len(point)} coordinates, expected {p.nvars}")
    pt = [Fraction(x) for x in point]
    total = Fraction(0)
    for m, c in p.terms.items():
        value = c
        for x, e in zip(pt, m):
            if e:
                value *= x ** e
        total += value
    return total


def substitute(p: Polynomial, images: Sequence[Polynomial]) -> Polynomial:
    """Compose: replace x_i by images[i] (all over a common ring)."""
    if len(images) != p.nvars:
        raise ValueError("one image polynomial per variable is required")
    target_nvars = images[0].nvars
    result = Polynomial.zero(target_nvars)
    for m, c in p.terms.items():
        term = Polynomial.constant(target_nvars, c)
        for img, e in zip(images, m):
            for _ in range(e):
                term = term * img
        result = result + term
    return result


class _Parser:
    """The character-by-character recursive descent `legquad.poly` used
    before its token reader, kept as the oracle of `parse_poly`: same
    grammar, messages and positions, except that it reads any Unicode digit
    (`str.isdigit`) where `parse_poly` reads ASCII digits only."""

    def __init__(self, text: str, nvars: int):
        self.text = text
        self.nvars = nvars
        self.pos = 0

    def error(self, message: str):
        raise PolyParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def read_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.text[start : self.pos])

    def parse_expr(self) -> Dict[Exponent, Fraction]:
        """The terms of an expression, summed in one dict; a term that
        cancels stays, as a zero, for the `Polynomial` to drop."""
        terms: Dict[Exponent, Fraction] = {}
        sign = 1
        ch = self.peek()
        if ch in ("+", "-"):
            self.take()
            sign = -1 if ch == "-" else 1
        self.parse_term(terms, sign)
        while True:
            ch = self.peek()
            if ch not in ("+", "-"):
                break
            self.take()
            self.parse_term(terms, -1 if ch == "-" else 1)
        return terms

    def parse_term(self, terms: Dict[Exponent, Fraction], sign: int) -> None:
        """Add sign * term to `terms`.  Numbers multiply into one coefficient
        and variables into one exponent vector; only parenthesised factors
        are multiplied as polynomials."""
        coeff = sign
        exps = [0] * self.nvars
        product: Optional[Polynomial] = None
        while True:
            factor = self.parse_factor(exps)
            if isinstance(factor, Polynomial):
                product = factor if product is None else product * factor
            elif factor is not None:
                coeff *= factor
            if self.peek() != "*":
                break
            self.take()
        mono = tuple(exps)
        if product is None:
            terms[mono] = terms.get(mono, 0) + coeff
            return
        for m, c in product.terms.items():
            key = monomial_mul(m, mono)
            terms[key] = terms.get(key, 0) + c * coeff

    def parse_factor(self, exps: List[int]):
        """A number (int or Fraction), a parenthesised factor (Polynomial),
        or None for a variable, whose power is added into `exps`."""
        ch = self.peek()
        if ch == "(":
            self.take()
            inner = Polynomial(self.nvars, self.parse_expr())
            if self.peek() != ")":
                self.error("expected ')'")
            self.take()
            return inner ** self._exponent()
        if ch in ("x", "y"):
            self.take()
            index = self.read_int()
            if index >= self.nvars:
                self.error(f"variable index {index} out of range (nvars={self.nvars})")
            exps[index] += self._exponent()
            return None
        if ch.isdigit():
            num = self.read_int()
            if self.peek() == "/":
                self.take()
                den = self.read_int()
                if den == 0:
                    self.error("zero denominator")
                return Fraction(num, den)
            return num
        self.error("expected a coefficient, variable or '('")

    def _exponent(self) -> int:
        """The power after a variable or ')': the integer after '^', or 1."""
        if self.peek() == "^":
            self.take()
            return self.read_int()
        return 1


def parse_poly(text: str, nvars: int) -> Polynomial:
    """The oracle's reading of the text grammar: the Polynomial, or a
    PolyParseError with the message and position `legquad.poly.parse_poly`
    gives."""
    parser = _Parser(text, nvars)
    terms = parser.parse_expr()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.error("trailing input")
    return Polynomial(nvars, terms)
