"""Symplectic vector space structure and the Poisson bracket on polynomials.

The induced dual form drives everything here: for a form with matrix J the
bracket of two polynomials is [f, g](x) = omega'(df_x, dg_x) where omega' is
the pullback of omega along the inverse of v -> omega(v, .).  In the fixed
matrix convention omega(v, w) = v^T J w that pullback has matrix -J^{-1}, so
for the standard block form it is J again.

Forms are data, not globals: several fixtures use non-standard matrices, so
every operation takes the form explicitly.  A form is stored once, as the
sparse rows of J and the integer rows of its dual; the isotropy identity of
a parametrization reads the first and the bracket the second, and the dense
matrices are only read back, for JSON and for the tests.

`bracket_terms` is the one differential bracket kernel: [f, g] is the
gradient of f against the Hamiltonian field X_g = W grad g, both integer
terms on monomial columns (`poly`) that `hamiltonian_terms` builds once per
polynomial, denominators cleared, so a pair multiplies ints and adds
columns only, the bracket is a row on columns, and for a quadric the
field is its sp-image.  `poisson_bracket` wraps it and rescales once.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import compress
from math import lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import linalg
from .linalg import SparseVector
from .poly import MonomialCodec, Polynomial

Gradient = List[Tuple[int, int, int]]  # (variable, monomial column, integer coefficient)
Field = Dict[int, List[Tuple[int, int]]]  # row -> terms (monomial column, integer coefficient) summing to it


class SymplecticForm:
    """Even-dimensional nondegenerate skew form given by its matrix J.

    The form is stored once, sparse: `rows[i]` maps each column j with
    J_ij != 0 to that entry, a Fraction.  The bracket kernel reads the dual
    matrix, -J^{-1}, as integer rows (`dual_rows`, pairs (column, integer)
    in column order) over one common denominator (`dual_den`), each unit
    vector written over J's rows by one tracked `linalg.Echelon`.

    `dual_matrix` may be supplied when a fixture's conventional bracket
    normalization differs from the computed dual by a nonzero scalar; the
    override is validated to be exactly such a multiple, so isotropy and
    ideal-membership verdicts are unaffected by it.  `matrix` and
    `dual_matrix` read the form and its dual back as fresh dense lists of
    Fractions.
    """

    __slots__ = ("dim", "rows", "_scalar", "dual_rows", "dual_den")

    def __init__(self, matrix: Sequence[Sequence], dual_matrix: Optional[Sequence[Sequence]] = None):
        self._set_rows(*_sparse_rows(matrix), dual_matrix)

    def _set_rows(self, rows: List[SparseVector], square: bool, dual_matrix: Optional[Sequence[Sequence]]):
        """Check and store the rows of J, nonzero entries only, `square` when
        J has one column per row; then compute or check the dual."""
        dim = len(rows)
        if dim == 0 or dim % 2 != 0:
            raise ValueError(f"symplectic form needs a positive even dimension, got {dim}")
        if not square or not _is_skew(rows):
            raise ValueError("symplectic form matrix must be skew-symmetric")
        if dual_matrix is None:
            span = linalg.Echelon(track=True)
            if not all(span.add(row) for row in rows):
                raise ValueError("symplectic form matrix must be invertible")
            dual = [{j: -x for j, x in span.coefficients({i: 1}).items()} for i in range(dim)]
            scalar = Fraction(1)
        else:
            dual, dual_square = _sparse_rows(dual_matrix)
            scalar = _dual_scalar(rows, dual) if dual_square and len(dual) == dim else None
            if scalar is None:
                raise ValueError("dual_matrix must be a nonzero scalar multiple of -J^{-1}")
        self.dim = dim
        self.rows = rows
        self._scalar = scalar  # dual = -scalar * J^{-1}
        den = self.dual_den = lcm(*[w.denominator for row in dual for w in row.values()])
        self.dual_rows = [[(j, w.numerator * (den // w.denominator)) for j, w in row.items()] for row in dual]

    @property
    def half_dim(self) -> int:
        return self.dim // 2

    @property
    def matrix(self) -> List[List[Fraction]]:
        return _dense(self.rows, self.dim)

    @property
    def dual_matrix(self) -> List[List[Fraction]]:
        den = self.dual_den
        return _dense([{j: Fraction(w, den) for j, w in row} for row in self.dual_rows], self.dim)

    def to_json(self) -> str:
        matrix = [[str(x) for x in row] for row in self.matrix]
        if self._scalar == 1:  # the computed dual
            return json.dumps(matrix)
        dual = [[str(x) for x in row] for row in self.dual_matrix]
        return json.dumps({"matrix": matrix, "dual": dual})

    @staticmethod
    def from_json(text: str) -> "SymplecticForm":
        data = json.loads(text)
        parsed: Dict[object, Fraction] = {}  # each distinct entry string is parsed once
        if isinstance(data, dict):
            return SymplecticForm(
                _parse_entries(data["matrix"], parsed), _parse_entries(data["dual"], parsed)
            )
        return SymplecticForm(_parse_entries(data, parsed))

    def __eq__(self, other) -> bool:
        return isinstance(other, SymplecticForm) and self.rows == other.rows

    def __repr__(self) -> str:
        return f"SymplecticForm(dim={self.dim})"


def _sparse_rows(matrix: Sequence[Sequence]) -> Tuple[List[SparseVector], bool]:
    """The nonzero entries of each row as Fractions (entries that already
    are stay as they are), and whether every row has as many entries as the
    matrix has rows."""
    rows, widths = [], set()
    for row in matrix:
        entries = [x if type(x) is Fraction else Fraction(x) for x in row]
        widths.add(len(entries))
        rows.append({j: x for j, x in enumerate(entries) if x})
    return rows, widths <= {len(rows)}


def _is_skew(rows: List[SparseVector]) -> bool:
    """Whether J_ji = -J_ij for every nonzero entry J_ij of a square matrix;
    a nonzero diagonal entry fails, as it is not its own negative."""
    return all(rows[j].get(i) == -x for i, row in enumerate(rows) for j, x in row.items())


def _dense(rows: List[SparseVector], dim: int) -> List[List[Fraction]]:
    zero = Fraction(0)
    return [[row.get(j, zero) for j in range(dim)] for row in rows]


def _parse_entries(rows: Sequence[Sequence], parsed: Dict[object, Fraction]) -> List[List[Fraction]]:
    for x in {x for row in rows for x in row}.difference(parsed):
        parsed[x] = Fraction(x)
    return [[parsed[x] for x in row] for row in rows]


def _dual_scalar(rows: List[SparseVector], dual: List[SparseVector]) -> Optional[Fraction]:
    """The scalar c with J * dual = -c * I when there is one and it is
    nonzero, else None, for the sparse rows of two square matrices of one
    size.  Such a c exists exactly when J is invertible and
    dual = -c * J^{-1}, so no inverse is needed to validate a dual."""
    scalar = None
    for i, row in enumerate(rows):
        product: Dict[int, Fraction] = {}
        for j, a in row.items():
            for k, x in dual[j].items():
                product[k] = product.get(k, 0) + a * x
        diagonal = -product.pop(i, 0)
        if any(product.values()) or not diagonal or (scalar is not None and diagonal != scalar):
            return None
        scalar = diagonal
    return scalar


def pairing_form(nvars: int, pairs: Iterable[Tuple[int, int, object]]) -> SymplecticForm:
    """The form on nvars coordinates whose matrix is the sum, over the
    triples (a, b, s) of `pairs`, of s at (a, b) and -s at (b, a)."""
    rows: List[SparseVector] = [{} for _ in range(nvars)]
    for a, b, s in pairs:
        s = Fraction(s)
        rows[a][b] = rows[a].get(b, 0) + s
        rows[b][a] = rows[b].get(a, 0) - s
    form = SymplecticForm.__new__(SymplecticForm)  # the rows are read as they are, with no dense matrix
    form._set_rows([{j: x for j, x in row.items() if x} for row in rows], True, None)
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
    coefficients integers, on monomial columns (negated codes): its terms
    (column -> integer), gradient (a triple (i, column, integer) per term of
    d(den * p)/dx_i) and dual_den times its Hamiltonian field W grad(den *
    p), row i -> terms (column, integer) that sum to it, one per gradient
    term and entry of W that meet there.  For a quadric x^T A x the field is
    2 W A, entry (i, j) at x_j's column in row i.  `codec` holds p."""
    ints, den = linalg.integral(p.terms)
    units = codec.units
    variables = range(form.dim)
    terms: Dict[int, int] = {}
    grad: Gradient = []
    field: Field = {}
    for m, a in ints.items():
        support = [(j, m[j]) for j in compress(variables, m)]
        col = -sum([e * units[j] for j, e in support])
        terms[col] = a
        for j, e in support:
            dm, dc = col + units[j], a * e
            grad.append((j, dm, dc))
            for i, w in form.dual_rows[j]:  # W is skew: W_ij = -W_ji = -w
                field.setdefault(i, []).append((dm, -w * dc))
    return terms, den, grad, field


def bracket_terms(grad_f: Gradient, field_g: Field) -> Dict[int, int]:
    """Terms (monomial column -> integer) of d_f * d_g * dual_den * [f, g],
    where [f, g] = sum over i of (df/dx_i) (W grad g)_i for the dual matrix
    W, from the gradient of d_f * f and the field of d_g * g
    (`hamiltonian_terms`), whose columns add."""
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
    return Polynomial(form.dim, {codec.unpack(-k): Fraction(c, den) for k, c in terms.items()})
