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

`bracket_terms` is the one differential bracket kernel: it works on sparse
integer gradients (`gradient_terms`) keyed by `poly.MonomialCodec` codes, so
callers that bracket the same generators many times build each gradient
once, and a product of monomials is one int addition.  Each generator's
denominators are cleared once, in its gradient, and the dual matrix's once,
in the form, so the kernel multiplies ints only; its result is the bracket
times those denominators, which span tests never need to divide out.
`poisson_bracket` wraps it and rescales once.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import linalg
from .linalg import SparseVector
from .poly import MonomialCodec, Polynomial

GradientTerms = Dict[int, List[Tuple[int, int]]]  # variable -> (monomial code, integer coefficient)


class SymplecticForm:
    """Even-dimensional nondegenerate skew form given by its matrix J.

    The form is stored once, sparse: `rows[i]` maps each column j with
    J_ij != 0 to that entry, a Fraction.  The bracket kernel reads the dual
    matrix, -J^{-1}, as integer rows (`dual_rows`, pairs (column, integer)
    in column order) over one common denominator (`dual_den`).  Row i of
    J^{-1} is the combination of J's rows that gives the i-th unit vector,
    which one tracked `linalg.Echelon` over those rows writes down.

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


def gradient_terms(p: Polynomial, codec: MonomialCodec) -> Tuple[GradientTerms, int]:
    """Sparse gradient of den * p, for the least den > 0 that makes its
    coefficients integers: variable i -> the terms (monomial code, integer
    coefficient) of d(den * p)/dx_i, for every variable p involves; and den."""
    ints, den = linalg.integral(p.terms)
    units = codec.units
    out: GradientTerms = {}
    for m, a in ints.items():
        code = codec.pack(m)
        for i, e in enumerate(m):
            if e:
                out.setdefault(i, []).append((code - units[i], a * e))
    return out, den


def bracket_terms(
    grad_f: GradientTerms, grad_g: GradientTerms, form: SymplecticForm
) -> Dict[int, int]:
    """Terms (monomial code -> integer) of d_f * d_g * dual_den * [f, g], where
    [f, g] = sum over i, j of W_ij (df/dx_i)(dg/dx_j) for the dual matrix W,
    from the integer gradients of d_f * f and d_g * g."""
    out: Dict[int, int] = {}
    for i, df in grad_f.items():
        for j, w in form.dual_rows[i]:
            dg = grad_g.get(j)
            if dg is None:
                continue
            for m1, c1 in df:
                a = c1 * w
                for m2, c2 in dg:
                    key = m1 + m2
                    s = out.get(key, 0) + a * c2
                    if s:
                        out[key] = s
                    else:
                        del out[key]
    return out


def poisson_bracket(f: Polynomial, g: Polynomial, form: SymplecticForm) -> Polynomial:
    """[f, g](x) = omega'(df_x, dg_x), computed exactly.

    For homogeneous inputs of degrees i and j the result is homogeneous of
    degree i + j - 2 (or zero).
    """
    if f.nvars != form.dim or g.nvars != form.dim:
        raise ValueError(f"polynomials must live on {form.dim} variables")
    codec = MonomialCodec(form.dim, 2 * max(f.degree(), g.degree(), 0))
    (grad_f, den_f), (grad_g, den_g) = gradient_terms(f, codec), gradient_terms(g, codec)
    den = den_f * den_g * form.dual_den
    terms = bracket_terms(grad_f, grad_g, form)
    return Polynomial(form.dim, {codec.unpack(m): Fraction(c, den) for m, c in terms.items()})
