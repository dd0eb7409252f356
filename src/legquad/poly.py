"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a dict mapping exponent tuples to nonzero Fractions.  The
exponent tuple has one entry per ambient variable, so every monomial of a
polynomial carries the same length.  The zero polynomial stores no terms.

The global monomial order is graded reverse lexicographic with
x0 > x1 > ... ; it is fixed once here so that every downstream computation
(Groebner bases in particular) is deterministic.  The hot kernels (brackets,
closure spans, structure constants, Groebner steps) key monomials by the
ints of `MonomialCodec` instead, and convert back to tuples at their ends.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from struct import Struct
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

Exponent = Tuple[int, ...]


class PolyParseError(ValueError):
    """Syntax error in the polynomial text grammar; carries the position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def grevlex_key(exps: Exponent):
    """Sort key under grevlex with x0 > x1 > ...; larger key = larger monomial."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def code_columns(codes: Iterable[int]) -> Dict[int, int]:
    """Column index of every distinct monomial code, largest (grevlex
    largest) first, so that row echelon forms pivot on leading monomials."""
    return {m: k for k, m in enumerate(sorted(set(codes), reverse=True))}


def monomials_of_degree(nvars: int, degree: int) -> List[Exponent]:
    """Every monomial of the given degree in nvars variables, largest
    grevlex monomial first."""
    supports = combinations_with_replacement(range(nvars), degree)
    monomials = [tuple(map(support.count, range(nvars))) for support in supports]
    return sorted(monomials, key=grevlex_key, reverse=True)


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

    The code of e is P(e) = deg(e) * 2^(B*n) - sum_i e_i * 2^(B*i), with a
    field of B bits per variable (Monagan and Pearce, CASC 2007).  P is
    additive, so multiplying monomials adds their codes and dividing
    subtracts them, and comparing codes as ints is the grevlex order of
    `grevlex_key`.  B is 8 or 16, the least that holds `max_degree`, so
    that `pack` and `unpack` are one bytes conversion each.  The top bit of
    every field is a guard that stays clear, which `dividing` reads; `pack`
    refuses an exponent that would reach it, so two exponent vectors never
    share a code.  Sums of codes are not checked: callers size the codec
    for the largest degree their products reach.
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
        self.units = [(1 << self._shift) - (1 << bits * i) for i in range(nvars)]

    def pack(self, exps: Exponent) -> int:
        if exps and max(exps) > self.limit:
            raise ValueError(f"exponent {max(exps)} is above {self.limit}, the field's largest")
        return (sum(exps) << self._shift) - int.from_bytes(self._struct.pack(*exps), "little")

    def unpack(self, code: int) -> Exponent:
        return self._struct.unpack((-code & self._mask).to_bytes(self._struct.size, "little"))

    def degree(self, code: int) -> int:
        return -(-code >> self._shift)

    def dividing(self, t: int, codes: Sequence[int]) -> Iterator[int]:
        """Positions, in order and lazily, of the codes that divide t.  The
        low B*n bits of a - t are those of t's exponent fields minus a's,
        whatever the degrees; a divides t when no field borrows, so that no
        guard bit is set."""
        guards = self._guards
        return (k for k, a in enumerate(codes) if not (a - t) & guards)

    def divisor(self, t: int, codes: Sequence[int]) -> Optional[int]:
        """Position of the first code that divides t, or None; the first
        entry of `dividing`."""
        guards = self._guards
        return next((k for k, a in enumerate(codes) if not (a - t) & guards), None)

    def lcm(self, a: int, b: int) -> int:
        """Code of the least common multiple, field by field on the packed
        exponents.  With a's guard bits set, a field of (a | guards) - b
        cannot borrow from the next, and keeps its guard bit exactly when
        a's exponent is at least b's; those guard bits widen to a mask of
        the fields where a's exponent is the larger."""
        ea, eb = -a & self._mask, -b & self._mask
        ahead = ((ea | self._guards) - eb) & self._guards
        pick = ahead - (ahead >> (self._bits - 1))
        exps = eb ^ ((ea ^ eb) & pick)
        degree = sum(self._struct.unpack(exps.to_bytes(self._struct.size, "little")))
        return (degree << self._shift) - exps


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
        return Polynomial(self.nvars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {m: -c for m, c in self.terms.items()})

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
        return Polynomial(self.nvars, out)

    __rmul__ = __mul__

    def scale(self, factor) -> "Polynomial":
        f = Fraction(factor)
        if f == 0:
            return Polynomial.zero(self.nvars)
        return Polynomial(self.nvars, {m: c * f for m, c in self.terms.items()})

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative exponent")
        result = Polynomial.constant(self.nvars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
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
        return Polynomial(self.nvars, out)

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at a rational point; point length must equal nvars."""
        if len(point) != self.nvars:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.nvars}")
        pt = [Fraction(x) for x in point]
        total = Fraction(0)
        for m, c in self.terms.items():
            value = c
            for x, e in zip(pt, m):
                if e:
                    value *= x ** e
            total += value
        return total

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Compose: replace x_i by images[i] (all over a common ring)."""
        if len(images) != self.nvars:
            raise ValueError("one image polynomial per variable is required")
        target_nvars = images[0].nvars
        result = Polynomial.zero(target_nvars)
        for m, c in self.terms.items():
            term = Polynomial.constant(target_nvars, c)
            for img, e in zip(images, m):
                for _ in range(e):
                    term = term * img
            result = result + term
        return result

    # ----- text form -------------------------------------------------------

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {format_poly(self)!r})"

    def __str__(self) -> str:
        return format_poly(self)


# ---------------------------------------------------------------------------
# Parsing.  Grammar (whitespace insignificant):
#   expr   := [sign] term (sign term)*
#   term   := factor ('*' factor)*
#   factor := rational | variable ['^' int] | '(' expr ')' ['^' int]
#   rational := int ['/' int]
#   variable := ('x'|'y') int           (y<k> is an alias for x<k>)
# ---------------------------------------------------------------------------


class _Parser:
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
    """Parse the text grammar into canonical sparse form.

    parse(format(p)) == p for every polynomial p.
    """
    parser = _Parser(text, nvars)
    terms = parser.parse_expr()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.error("trailing input")
    return Polynomial(nvars, terms)


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

