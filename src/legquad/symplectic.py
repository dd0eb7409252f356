"""Symplectic vector space structure and the Poisson bracket on polynomials.

The induced dual form drives everything here: for a form with matrix J the
bracket of two polynomials is [f, g](x) = omega'(df_x, dg_x) where omega' is
the pullback of omega along the inverse of v -> omega(v, .).  In the fixed
matrix convention omega(v, w) = v^T J w that pullback has matrix -J^{-1}, so
for the standard block form it is J again.

Forms are data, not globals: several fixtures use non-standard matrices, so
every operation takes the form explicitly.

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
from .linalg import Matrix
from .poly import MonomialCodec, Polynomial

GradientTerms = Dict[int, List[Tuple[int, int]]]  # variable -> (monomial code, integer coefficient)


class SymplecticForm:
    """Even-dimensional nondegenerate skew form given by its matrix.

    `dual_matrix` may be supplied when a fixture's conventional bracket
    normalization differs from the computed dual by a nonzero scalar; the
    override is validated to be exactly such a multiple, so isotropy and
    ideal-membership verdicts are unaffected by it.  The bracket kernel
    reads the dual matrix as integer rows (`dual_rows`) over one common
    denominator (`dual_den`).
    """

    __slots__ = ("dim", "matrix", "dual_matrix", "_scalar", "dual_rows", "dual_den")

    def __init__(self, matrix: Sequence[Sequence], dual_matrix: Optional[Sequence[Sequence]] = None):
        m = _fractions(matrix)
        dim = len(m)
        if dim == 0 or dim % 2 != 0:
            raise ValueError(f"symplectic form needs a positive even dimension, got {dim}")
        if not linalg.is_skew_symmetric(m):
            raise ValueError("symplectic form matrix must be skew-symmetric")
        if dual_matrix is None:
            try:
                dual = linalg.mat_scale(linalg.inverse(m), -1)
            except ValueError:
                raise ValueError("symplectic form matrix must be invertible") from None
            scalar = Fraction(1)
        else:
            dual = _fractions(dual_matrix)
            scalar = _dual_scalar(m, dual)
            if scalar is None:
                raise ValueError("dual_matrix must be a nonzero scalar multiple of -J^{-1}")
        self.dim = dim
        self.matrix = m
        self.dual_matrix = dual
        self._scalar = scalar  # dual = -scalar * J^{-1}
        den = self.dual_den = lcm(*[w.denominator for row in dual for w in row])
        self.dual_rows = [
            [(j, w.numerator * (den // w.denominator)) for j, w in enumerate(row) if w] for row in dual
        ]

    @property
    def half_dim(self) -> int:
        return self.dim // 2

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
        return isinstance(other, SymplecticForm) and self.matrix == other.matrix

    def __repr__(self) -> str:
        return f"SymplecticForm(dim={self.dim})"


def _fractions(rows: Sequence[Sequence]) -> Matrix:
    """A fresh matrix of Fractions; entries that already are stay as they are."""
    return [[x if type(x) is Fraction else Fraction(x) for x in row] for row in rows]


def _parse_entries(rows: Sequence[Sequence], parsed: Dict[object, Fraction]) -> Matrix:
    for x in {x for row in rows for x in row}.difference(parsed):
        parsed[x] = Fraction(x)
    return [[parsed[x] for x in row] for row in rows]


def _dual_scalar(matrix: Matrix, dual: Matrix) -> Optional[Fraction]:
    """The scalar c with J * dual = -c * I when there is one and it is
    nonzero, else None.  Such a c exists exactly when J is invertible and
    dual = -c * J^{-1}, so no inverse is needed to validate a dual."""
    n = len(matrix)
    if len(dual) != n or any(len(row) != n for row in dual):
        return None
    dual_rows = [[(k, x) for k, x in enumerate(row) if x] for row in dual]
    scalar = None
    for i, row in enumerate(matrix):
        product: Dict[int, Fraction] = {}
        for j, a in enumerate(row):
            if a:
                for k, x in dual_rows[j]:
                    product[k] = product.get(k, 0) + a * x
        diagonal = -product.pop(i, 0)
        if any(product.values()) or not diagonal or (scalar is not None and diagonal != scalar):
            return None
        scalar = diagonal
    return scalar


def pairing_form(nvars: int, pairs: Iterable[Tuple[int, int, object]]) -> SymplecticForm:
    """The form on nvars coordinates whose matrix is the sum, over the
    triples (a, b, s) of `pairs`, of s at (a, b) and -s at (b, a)."""
    m = linalg.zeros(nvars, nvars)
    for a, b, s in pairs:
        m[a][b] += s
        m[b][a] -= s
    return SymplecticForm(m)


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
