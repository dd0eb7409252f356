"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a dict mapping exponent tuples to nonzero Fractions.  The
exponent tuple has one entry per ambient variable, so every monomial of a
polynomial carries the same length.  The zero polynomial stores no terms.

The global monomial order is graded reverse lexicographic with
x0 > x1 > ... ; it is fixed once here so that every downstream computation
(Groebner bases in particular) is deterministic.  The hot kernels (brackets,
closure spans, structure constants, Groebner steps) key monomials by the
ints of `MonomialCodec` instead, and convert back to tuples at their ends
(`MonomialCodec.row` and `MonomialCodec.polynomial`).

A monomial's code is its column in every sparse row over monomials
(brackets, `linalg.Echelon` spans, Groebner steps): codes increase down
grevlex, so a row's pivot is its leading monomial, products add codes,
and column k is monomial `unpack(k)`, with no map between the two.

`parse_poly` reads the text grammar below in one pass of one regex, which
splits a line into tokens, and a recursive descent over the token list that
builds the exponent-tuple terms directly; integers are ASCII digits only,
and a parenthesised factor too large to expand (`MAX_EXPANSION`) is refused.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from struct import Struct
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

Exponent = Tuple[int, ...]


class PolyParseError(ValueError):
    """Syntax error in the polynomial text grammar; carries the position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def grevlex_key(exps: Exponent):
    """Sort key under grevlex with x0 > x1 > ...; larger key = larger monomial."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def monomial_mul(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x + y for x, y in zip(a, b))


def field_bits(max_degree: int) -> int:
    """Bits per variable of the `MonomialCodec` that holds exponents up to
    `max_degree`: 8 or 16; ValueError when no codec holds them."""
    if max_degree >= 1 << 15:
        raise ValueError(f"degree {max_degree} is too large to pack into a monomial code")
    return 8 if max_degree < 1 << 7 else 16


class MonomialCodec:
    """Exponent vectors of `nvars` variables packed into one int each.

    The code of e is C(e) = sum_i e_i * 2^(B*i) - deg(e) * 2^(B*n), with a
    field of B bits per variable (after Monagan and Pearce, CASC 2007), and
    it is e's column in every sparse row (`row`, `polynomial`).  C is
    additive, so multiplying monomials adds their codes, and int order is
    reverse grevlex, so the least code of a row is its leading monomial.
    B is 8 or 16, the least that holds `max_degree`, so that `pack` and
    `unpack`, of the low B*n bits, are one bytes conversion each.  The top
    bit of every field is a guard that stays clear, which `dividing` reads;
    `pack` refuses an exponent that would reach it, so two exponent vectors
    never share a code.  Sums of codes are not checked: callers size the
    codec for the largest degree their products reach.
    """

    __slots__ = ("nvars", "limit", "units", "_bits", "_shift", "_mask", "_guards", "_struct")

    def __init__(self, nvars: int, max_degree: int):
        bits = field_bits(max_degree)
        self.nvars = nvars
        self.limit = (1 << (bits - 1)) - 1  # the largest exponent a field holds
        self._bits = bits
        self._shift = bits * nvars
        self._mask = (1 << self._shift) - 1
        self._guards = sum(1 << (bits * i + bits - 1) for i in range(nvars))
        self._struct = Struct(f"<{nvars}{'B' if bits == 8 else 'H'}")
        # the code of each variable
        self.units = [(1 << bits * i) - (1 << self._shift) for i in range(nvars)]

    def pack(self, exps: Exponent) -> int:
        if exps and max(exps) > self.limit:
            raise ValueError(f"exponent {max(exps)} is above {self.limit}, the field's largest")
        return int.from_bytes(self._struct.pack(*exps), "little") - (sum(exps) << self._shift)

    def unpack(self, code: int) -> Exponent:
        return self._struct.unpack((code & self._mask).to_bytes(self._struct.size, "little"))

    def degree(self, code: int) -> int:
        return -(code >> self._shift)

    def row(self, p: Polynomial) -> Dict[int, Fraction]:
        """The terms of p at their codes."""
        return {self.pack(m): c for m, c in p.terms.items()}

    def polynomial(self, row: Dict[int, Union[int, Fraction]], den: int = 1) -> Polynomial:
        """The polynomial row / den; the inverse of `row` at den = 1."""
        terms = {self.unpack(k): Fraction(c, den) for k, c in row.items() if c}
        return Polynomial._trusted(self.nvars, terms)

    def dividing(self, t: int, codes: Sequence[int]) -> Iterator[int]:
        """Positions, in order and lazily, of the codes that divide t.  The
        low B*n bits of t - a are those of t's exponent fields minus a's,
        whatever the degrees; a divides t when no field borrows, so that no
        guard bit is set."""
        guards = self._guards
        return (k for k, a in enumerate(codes) if not (t - a) & guards)

    def lcm(self, a: int, b: int) -> int:
        """Code of the least common multiple, field by field on the packed
        exponents.  With a's guard bits set, a field of (a | guards) - b
        cannot borrow from the next, and keeps its guard bit exactly when
        a's exponent is at least b's; those guard bits widen to a mask of
        the fields where a's exponent is the larger."""
        ea, eb = a & self._mask, b & self._mask
        ahead = ((ea | self._guards) - eb) & self._guards
        pick = ahead - (ahead >> (self._bits - 1))
        exps = eb ^ ((ea ^ eb) & pick)
        degree = sum(self._struct.unpack(exps.to_bytes(self._struct.size, "little")))
        return exps - (degree << self._shift)


class Polynomial:
    """Immutable sparse polynomial with Fraction coefficients.

    Do not mutate `terms` after construction; all arithmetic returns fresh
    objects, which keeps instances safe to share across threads.
    """

    __slots__ = ("terms", "nvars")

    def __init__(self, nvars: int, terms: Optional[Dict[Exponent, Fraction]] = None):
        self.nvars = nvars
        clean: Dict[Exponent, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise ValueError(f"exponent tuple {exps} does not match nvars={nvars}")
                c = Fraction(coeff)
                if c != 0:
                    clean[tuple(exps)] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, nvars: int, terms: Dict[Exponent, Fraction]) -> "Polynomial":
        """The ring's own results, `parse_poly`'s and those of
        `MonomialCodec.polynomial`: `terms` already maps exponent tuples of
        length `nvars` to nonzero Fractions, and is stored as it is."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    # ----- constructors -------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial(nvars)

    @staticmethod
    def constant(nvars: int, value) -> "Polynomial":
        return Polynomial(nvars, {(0,) * nvars: Fraction(value)})

    @staticmethod
    def variable(nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for nvars={nvars}")
        exps = [0] * nvars
        exps[index] = 1
        return Polynomial(nvars, {tuple(exps): Fraction(1)})

    # ----- ring operations ----------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError(f"nvars mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial._trusted(self.nvars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other)
        out: Dict[Exponent, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_mul(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial._trusted(self.nvars, out)

    __rmul__ = __mul__

    def scale(self, factor) -> "Polynomial":
        f = Fraction(factor)
        if f == 0:
            return Polynomial.zero(self.nvars)
        return Polynomial._trusted(self.nvars, {m: c * f for m, c in self.terms.items()})

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative exponent")
        result = Polynomial.constant(self.nvars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # ----- structure ------------------------------------------------------

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def homogeneous_degree(self) -> Optional[int]:
        """Common degree of all terms, or None when inhomogeneous or zero."""
        degs = {sum(m) for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_homogeneous(self) -> bool:
        return len({sum(m) for m in self.terms}) <= 1

    def sorted_terms(self) -> Iterator[Tuple[Exponent, Fraction]]:
        """Terms in descending grevlex order."""
        for m in sorted(self.terms, key=grevlex_key, reverse=True):
            yield m, self.terms[m]

    def leading_monomial(self) -> Exponent:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grevlex_key)

    # ----- calculus -------------------------------------------------------

    def partial_derivative(self, var: int) -> "Polynomial":
        """Exact formal partial derivative with respect to x_var."""
        if not 0 <= var < self.nvars:
            raise ValueError(f"variable index {var} out of range")
        out: Dict[Exponent, Fraction] = {}
        for m, c in self.terms.items():
            e = m[var]
            if e:
                dm = list(m)
                dm[var] = e - 1
                dm_t = tuple(dm)
                s = out.get(dm_t, 0) + c * e
                if s:
                    out[dm_t] = s
                else:
                    out.pop(dm_t, None)
        return Polynomial._trusted(self.nvars, out)

    # ----- text form -------------------------------------------------------

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {format_poly(self)!r})"

    def __str__(self) -> str:
        return format_poly(self)


# ---------------------------------------------------------------------------
# Parsing.  Grammar (whitespace insignificant, integers in ASCII digits):
#   expr   := [sign] term (sign term)*
#   term   := factor ('*' factor)*
#   factor := rational | variable ['^' int] | '(' expr ')' ['^' int]
#   rational := int ['/' int]
#   variable := ('x'|'y') int           (y<k> is an alias for x<k>)
#
# One regex splits a line into tokens: a variable with its index, an
# integer, or any other single character that is not whitespace.  The
# grammar is walked over that list; positions are recovered on errors only.
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"[xy][0-9]+|[0-9]+|\S")
_DIGITS = frozenset("0123456789")  # the first characters of integer tokens
MAX_EXPANSION = 50_000  # a parenthesised product's term bound times its last power


def _power_terms(p: Polynomial, k: int) -> int:
    """A bound on the terms of p^k: the multisets of k terms of p, or the
    monomials of degree at most k deg p in p's variables, if fewer."""
    if len(p.terms) < 2:
        return 1
    variables = sum(map(any, zip(*p.terms)))
    return min(math.comb(len(p.terms) + k - 1, k), math.comb(variables + k * p.degree(), variables))


class _Syntax(Exception):
    """(message, k, after): a syntax error at token k, at its start, or at
    its end when `after`; k past the last token is the end of the text."""


class _Reader:
    __slots__ = ("tokens", "k", "nvars")

    def __init__(self, tokens: List[str], nvars: int):
        self.tokens = tokens
        tokens.append("")  # the end of the text
        self.k = 0
        self.nvars = nvars

    def expr(self) -> Dict[Exponent, Fraction]:
        """The terms of an expression, summed in one dict; a term that
        cancels stays, as a zero, for `parse_poly` or the `Polynomial` of a
        parenthesised factor to drop."""
        terms: Dict[Exponent, Fraction] = {}
        tokens = self.tokens
        sign = 1
        t = tokens[self.k]
        if t == "+" or t == "-":
            self.k += 1
            sign = -1 if t == "-" else 1
        while True:
            self.term(terms, sign)
            t = tokens[self.k]
            if t == "+":
                sign = 1
            elif t == "-":
                sign = -1
            else:
                return terms
            self.k += 1

    def term(self, terms: Dict[Exponent, Fraction], sign: int) -> None:
        """Add sign * term to `terms`.  Numbers multiply into one coefficient
        and variables into one exponent vector; only parenthesised factors
        are multiplied as polynomials."""
        tokens, nvars = self.tokens, self.nvars
        k = self.k
        coeff = sign
        exps = [0] * nvars
        product: Optional[Polynomial] = None
        while True:
            t = tokens[k]
            head = t[:1]
            if head == "x" or head == "y":
                if len(t) == 1:  # whitespace before the index
                    k += 1
                    if tokens[k][:1] not in _DIGITS:
                        raise _Syntax("expected an integer", k)
                    t = "x" + tokens[k]
                index = int(t[1:])
                if index >= nvars:
                    raise _Syntax(f"variable index {index} out of range (nvars={nvars})", k, True)
                k += 1
                if tokens[k] == "^":
                    k, power = self.power(k)
                    exps[index] += power
                else:
                    exps[index] += 1
            elif head in _DIGITS:
                k += 1
                if tokens[k] == "/":
                    k += 1
                    if tokens[k][:1] not in _DIGITS:
                        raise _Syntax("expected an integer", k)
                    den = int(tokens[k])
                    if not den:
                        raise _Syntax("zero denominator", k, True)
                    coeff *= Fraction(int(t), den)
                    k += 1
                else:
                    coeff *= int(t)
            elif t == "(":
                self.k = k + 1
                inner = Polynomial(nvars, self.expr())
                k = self.k
                if tokens[k] != ")":
                    raise _Syntax("expected ')'", k)
                at = k + 1  # the power, or the token after the factor
                k, power = self.power(at)
                bound = _power_terms(inner, power) * (1 if product is None else len(product.terms))
                if bound * power > MAX_EXPANSION:
                    raise _Syntax(
                        f"too large to expand: up to {bound} terms times power {power} exceeds {MAX_EXPANSION}", at
                    )
                inner = inner ** power
                product = inner if product is None else product * inner
            else:
                raise _Syntax("expected a coefficient, variable or '('", k)
            if tokens[k] != "*":
                break
            k += 1
        self.k = k
        mono = tuple(exps)
        if product is None:
            terms[mono] = terms.get(mono, 0) + coeff
            return
        for m, c in product.terms.items():
            key = monomial_mul(m, mono)
            terms[key] = terms.get(key, 0) + c * coeff

    def power(self, k: int) -> Tuple[int, int]:
        """The token after the power that starts at token k, after a
        variable or ')', and that power: the integer after '^', or 1."""
        tokens = self.tokens
        if tokens[k] != "^":
            return k, 1
        if tokens[k + 1][:1] not in _DIGITS:
            raise _Syntax("expected an integer", k + 1)
        return k + 2, int(tokens[k + 1])


def _position(text: str, k: int, after: bool = False) -> int:
    """The start, or with `after` the end, of token k of `text`; the length
    of the text when it has no token k."""
    for i, match in enumerate(_TOKEN.finditer(text)):
        if i == k:
            return match.end() if after else match.start()
    return len(text)


def parse_poly(text: str, nvars: int) -> Polynomial:
    """Parse the text grammar into canonical sparse form.

    parse(format(p)) == p for every polynomial p.  A parenthesised factor
    p^k is expanded as it is read, once the terms of the product so far
    times a bound on those of p^k (`_power_terms`), times k, the length its
    coefficients grow to, are within MAX_EXPANSION = 50 000; the work grows
    with both.  Above it the text is refused at the power, before any work.
    """
    reader = _Reader(_TOKEN.findall(text), nvars)
    try:
        terms = reader.expr()
        if reader.tokens[reader.k]:
            raise _Syntax("trailing input", reader.k)
    except _Syntax as exc:
        message, *where = exc.args
        raise PolyParseError(message, _position(text, *where)) from None
    except RecursionError:  # one level of recursion per parenthesis
        raise PolyParseError("parentheses nested too deeply", _position(text, reader.k)) from None
    return Polynomial._trusted(
        nvars, {m: c if type(c) is Fraction else Fraction(c) for m, c in terms.items() if c}
    )


def _format_monomial(exps: Exponent) -> str:
    parts = []
    for i, e in enumerate(exps):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts)


def format_poly(p: Polynomial) -> str:
    """Canonical text form: descending grevlex, integer or a/b coefficients."""
    if not p.terms:
        return "0"
    chunks = []
    for m, c in p.sorted_terms():
        mono = _format_monomial(m)
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)

