"""Symplectic vector space structure and the Poisson bracket on polynomials.

The induced dual form drives everything here: for a form with matrix J the
bracket of two polynomials is [f, g](x) = omega'(df_x, dg_x) where omega' is
the pullback of omega along the inverse of v -> omega(v, .).  In the fixed
matrix convention omega(v, w) = v^T J w that pullback has matrix -J^{-1}, so
for the standard block form it is J again.

Forms are data, not globals: several fixtures use non-standard matrices, so
every operation takes the form explicitly.  A form is stored once, as the
integer rows of J and of its dual, each over one denominator; the isotropy
identity of a parametrization reads the first and the bracket the second,
and the dense matrices are only read back, for JSON and for the tests.  A
form read from JSON has its numbers read exactly, from their literal text.

`bracket_terms` is the one differential bracket kernel: [f, g] is the
gradient of f against the Hamiltonian field X_g = W grad g, both integer
terms on monomial codes (`poly.MonomialCodec`) that `hamiltonian_terms`
builds once per polynomial, denominators cleared, so a pair multiplies ints
and adds codes only, the bracket is a row on codes, and for a quadric the
field is its sp-image.  `poisson_bracket` wraps it and rescales once.

A `VarietyPresentation` is a form with its generators and an optional
parametrization, the input every verdict reads; it lives beside the form so
that reading a variety file or a catalog entry loads no verdict engine.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import chain, compress
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from . import linalg
from .poly import MonomialCodec, Polynomial

Gradient = List[Tuple[int, int, int]]  # (variable, monomial code, integer coefficient)
Field = Dict[int, List[Tuple[int, int]]]  # row -> terms (monomial code, integer coefficient) summing to it


class SymplecticForm:
    """Even-dimensional nondegenerate skew form given by its matrix J.

    The form is stored once, sparse, as integer rows over one denominator:
    `rows[i]` lists a pair (j, a) per J_ij != 0, in column order, with
    J_ij = a / `den`, den the least common denominator of J's entries.  The
    bracket kernel reads the dual matrix, -J^{-1}, the same way
    (`dual_rows` over `dual_den`), each unit vector written in integers over
    J's rows, every one of them stored, by one tracked `linalg.Echelon`.
    Each distinct entry of a matrix is read once (`_rational`), and the
    checks run on the integer rows.

    `dual_matrix` may be supplied when a fixture's conventional bracket
    normalization differs from the computed dual by a nonzero scalar; the
    override is validated to be exactly such a multiple, so isotropy and
    ideal-membership verdicts are unaffected by it.  `matrix` and
    `dual_matrix` read the form and its dual back as fresh dense lists of
    Fractions.
    """

    __slots__ = ("dim", "rows", "den", "_scalar", "dual_rows", "dual_den")

    def __init__(self, matrix: Sequence[Sequence], dual_matrix: Optional[Sequence[Sequence]] = None):
        dense, den = _integer_rows(matrix)
        rows = _sparse(dense)
        if any(len(row) != len(dense) for row in dense) or not _is_skew(rows, dense):
            raise ValueError("symplectic form matrix must be skew-symmetric")
        self._build(rows, den, dual_matrix)

    def _build(self, rows: IntegerRows, den: int, dual_matrix: Optional[Sequence[Sequence]] = None) -> None:
        """Keep the integer rows of a skew matrix J over `den`, and its dual:
        computed, or `dual_matrix` once validated.  `__init__` ends here,
        and so does `pairing_form`, which builds the rows from its pairs."""
        dim = len(rows)
        if dim == 0 or dim % 2 != 0:
            raise ValueError(f"symplectic form needs a positive even dimension, got {dim}")
        if dual_matrix is None:
            span = linalg.Echelon(track=True)
            if not all(span.add(dict(row), den) for row in rows):
                raise ValueError("symplectic form matrix must be invertible")
            reads = [span.combination({i: 1}) for i in range(dim)]  # e_i = sum_j (c_j / s) J_j: every row is stored
            dual_den = lcm(*[s // gcd(s, *c.values()) for c, s in reads])
            dual_rows = [[(j, -x * dual_den // s) for j, x in c.items()] for c, s in reads]
            scalar = Fraction(1)
        else:
            dual_dense, dual_den = _integer_rows(dual_matrix)
            dual_rows = _sparse(dual_dense)
            square = len(dual_dense) == dim and all(len(row) == dim for row in dual_dense)
            product = _dual_scalar(rows, dual_rows) if square else None
            if product is None:
                raise ValueError("dual_matrix must be a nonzero scalar multiple of -J^{-1}")
            scalar = Fraction(product, den * dual_den)
        self.dim = dim
        self.rows = rows
        self.den = den
        self._scalar = scalar  # dual = -scalar * J^{-1}
        self.dual_rows = dual_rows
        self.dual_den = dual_den

    @property
    def half_dim(self) -> int:
        return self.dim // 2

    @property
    def matrix(self) -> List[List[Fraction]]:
        return _dense(self.rows, self.den, self.dim)

    @property
    def dual_matrix(self) -> List[List[Fraction]]:
        return _dense(self.dual_rows, self.dual_den, self.dim)

    def to_json(self) -> str:
        matrix = [[str(x) for x in row] for row in self.matrix]
        if self._scalar == 1:  # the computed dual
            return json.dumps(matrix)
        dual = [[str(x) for x in row] for row in self.dual_matrix]
        return json.dumps({"matrix": matrix, "dual": dual})

    @staticmethod
    def from_json(text: str) -> "SymplecticForm":
        """The form of `to_json`'s text: a matrix, or an object with its
        "matrix" and "dual".  An entry is a rational string or a JSON number,
        read exactly from its literal text; booleans, null, NaN and the
        infinities are refused."""
        data = json.loads(text, parse_float=_rational, parse_constant=_refuse_constant)
        matrices = (data["matrix"], data["dual"]) if isinstance(data, dict) else (data,)
        for matrix in matrices:
            kinds = set(map(type, chain.from_iterable(matrix)))
            if bool in kinds or type(None) in kinds:
                bad = next(x for x in chain.from_iterable(matrix) if x is None or type(x) is bool)
                raise ValueError(f"entry {json.dumps(bad)} is not a number")
        return SymplecticForm(*matrices)

    def __eq__(self, other) -> bool:
        return isinstance(other, SymplecticForm) and self.rows == other.rows and self.den == other.den

    def __repr__(self) -> str:
        return f"SymplecticForm(dim={self.dim})"


class VarietyPresentation:
    """A named variety: generators, symplectic form, optional parametrization."""

    def __init__(
        self,
        name: str,
        form: SymplecticForm,
        generators: Sequence[Polynomial],
        parametrization: Optional[Sequence[Polynomial]] = None,
    ):
        self.name = name
        self.form = form
        self.nvars = form.dim
        gens = [g for g in generators if not g.is_zero()]
        for g in gens:
            if g.nvars != self.nvars:
                raise ValueError("generator nvars must match the form dimension")
            if not g.is_homogeneous():
                raise ValueError(f"generator {g} is not homogeneous")
        self.generators = gens
        if parametrization is not None:
            parametrization = list(parametrization)
            if len(parametrization) != self.nvars:
                raise ValueError("parametrization must have one component per ambient coordinate")
        self.parametrization = parametrization

    @property
    def half_dim(self) -> int:
        return self.nvars // 2


IntegerRows = List[List[Tuple[int, int]]]  # row -> pairs (column, integer), nonzero, in column order

_INTEGER = re.compile(r"[-+]?[0-9]+")
# exponents of 10000 and above, which `Fraction` would expand digit by digit
_HUGE_EXPONENT = re.compile(r"[eE][-+]?0*[1-9][0-9_]{4,}")


def _rational(x) -> Union[int, Fraction]:
    """The value of a matrix entry, an int or a Fraction: ints and Fractions
    as they are, integer strings by `int`, and anything else by `Fraction`,
    which refuses it unless it is a number or a rational string; a string
    outside ASCII (`Fraction` reads any script's digits) and a decimal
    exponent of 10000 or more, which it would expand, are refused."""
    if type(x) is int or type(x) is Fraction:
        return x
    if type(x) is str:
        if not x.isascii():
            raise ValueError(f"entry {x!r} has a character outside ASCII")
        if _INTEGER.fullmatch(x):
            return int(x)
        if _HUGE_EXPONENT.search(x):
            raise ValueError(f"the exponent of {x!r} is too large")
    return Fraction(x)


def _refuse_constant(name: str):
    raise ValueError(f"entry {name} is not a finite number")


def _integer_rows(matrix: Sequence[Sequence]) -> Tuple[List[List[int]], int]:
    """(den * matrix as lists of integers, den) for den the least common
    denominator of its entries, each distinct entry read once, in the order
    of first appearance."""
    dense = [list(row) for row in matrix]
    values = {x: _rational(x) for x in dict.fromkeys(chain.from_iterable(dense))}
    den = lcm(*[v.denominator for v in values.values()])
    ints = {x: v.numerator * (den // v.denominator) for x, v in values.items()}
    return [list(map(ints.__getitem__, row)) for row in dense], den


def _sparse(dense: List[List[int]]) -> IntegerRows:
    return [list(zip(compress(range(len(row)), row), filter(None, row))) for row in dense]


def _is_skew(rows: IntegerRows, dense: List[List[int]]) -> bool:
    """Whether J_ji = -J_ij for every nonzero entry J_ij of a square matrix;
    a nonzero diagonal entry fails, as it is not its own negative."""
    return all(dense[j][i] == -a for i, row in enumerate(rows) for j, a in row)


def _dense(rows: IntegerRows, den: int, dim: int) -> List[List[Fraction]]:
    zero = Fraction(0)
    out = []
    for row in rows:
        entries = [zero] * dim
        for j, a in row:
            entries[j] = Fraction(a, den)
        out.append(entries)
    return out


def _dual_scalar(rows: IntegerRows, dual: IntegerRows) -> Optional[int]:
    """The integer c with A * B = -c * I when there is one and it is
    nonzero, else None, for the integer rows A and B of two square matrices
    of one size.  For A = a * J and B = b * dual, such a c exists exactly
    when J is invertible and dual = -(c / ab) * J^{-1}, so no inverse is
    needed to validate a dual."""
    scalar = None
    for i, row in enumerate(rows):
        product: Dict[int, int] = {}
        for j, a in row:
            for k, x in dual[j]:
                product[k] = product.get(k, 0) + a * x
        diagonal = -product.pop(i, 0)
        if any(product.values()) or not diagonal or (scalar is not None and diagonal != scalar):
            return None
        scalar = diagonal
    return scalar


def pairing_form(nvars: int, pairs: Iterable[Tuple[int, int, object]]) -> SymplecticForm:
    """The form on nvars coordinates whose matrix is the sum, over the
    triples (a, b, s) of `pairs`, of s at (a, b) and -s at (b, a), for
    0 <= a, b < nvars.  Its integer rows are built from the pairs, with no
    dense matrix."""
    entries: Dict[Tuple[int, int], Fraction] = {}
    for a, b, s in pairs:
        if not (0 <= a < nvars and 0 <= b < nvars):
            raise ValueError(f"pair ({a}, {b}) is outside the {nvars} coordinates")
        s = Fraction(s)
        entries[a, b] = entries.get((a, b), 0) + s
        entries[b, a] = entries.get((b, a), 0) - s
    ints, den = linalg.integral(entries)
    rows: IntegerRows = [[] for _ in range(nvars)]
    for (a, b), x in sorted(ints.items()):
        rows[a].append((b, x))
    form = SymplecticForm.__new__(SymplecticForm)
    form._build(rows, den)
    return form


def standard_form(n: int) -> SymplecticForm:
    """Block form [[0, Id_n], [-Id_n, 0]] on 2n coordinates."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return pairing_form(2 * n, ((i, n + i, 1) for i in range(n)))


def hamiltonian_terms(
    p: Polynomial, form: SymplecticForm, codec: MonomialCodec
) -> Tuple[Dict[int, int], int, Gradient, Field]:
    """(terms, den, gradient, field) of den * p, den > 0 least to make its
    coefficients integers, on the monomial codes of `codec`, which holds p:
    its terms (code -> integer), gradient (a triple (i, code, integer) per
    term of d(den * p)/dx_i) and dual_den times its Hamiltonian field
    W grad(den * p), row i -> terms (code, integer) that sum to it, one per
    gradient term and entry of W that meet there.  For a quadric x^T A x
    the field is 2 W A, entry (i, j) at x_j's code in row i."""
    ints, den = linalg.integral(p.terms)
    units = codec.units
    variables = range(form.dim)
    terms: Dict[int, int] = {}
    grad: Gradient = []
    field: Field = {}
    for m, a in ints.items():
        support = [(j, m[j]) for j in compress(variables, m)]
        code = sum([e * units[j] for j, e in support])
        terms[code] = a
        for j, e in support:
            dm, dc = code - units[j], a * e
            grad.append((j, dm, dc))
            for i, w in form.dual_rows[j]:  # W is skew: W_ij = -W_ji = -w
                field.setdefault(i, []).append((dm, -w * dc))
    return terms, den, grad, field


def bracket_terms(grad_f: Gradient, field_g: Field) -> Dict[int, int]:
    """Terms (monomial code -> integer) of d_f * d_g * dual_den * [f, g],
    where [f, g] = sum over i of (df/dx_i) (W grad g)_i for the dual matrix
    W, from the gradient of d_f * f and the field of d_g * g
    (`hamiltonian_terms`), whose codes add."""
    out: Dict[int, int] = {}
    get = out.get
    for i, m1, c1 in grad_f:
        if xg := field_g.get(i):
            for m2, c2 in xg:
                key = m1 + m2
                out[key] = get(key, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def poisson_bracket(f: Polynomial, g: Polynomial, form: SymplecticForm) -> Polynomial:
    """[f, g](x) = omega'(df_x, dg_x), computed exactly: of degree i + j - 2
    (or zero) for homogeneous inputs of degrees i and j."""
    if f.nvars != form.dim or g.nvars != form.dim:
        raise ValueError(f"polynomials must live on {form.dim} variables")
    codec = MonomialCodec(form.dim, 2 * max(f.degree(), g.degree(), 0))
    (_, den_f, grad_f, _), (_, den_g, _, field_g) = (hamiltonian_terms(p, form, codec) for p in (f, g))
    den = den_f * den_g * form.dual_den
    terms = bracket_terms(grad_f, field_g)
    return codec.polynomial(terms, den)
