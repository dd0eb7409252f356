"""Symplectic vector space structure and the Poisson bracket on polynomials.

The induced dual form drives everything here: for a form with matrix J the
bracket of two polynomials is [f, g](x) = omega'(df_x, dg_x) where omega' is
the pullback of omega along the inverse of v -> omega(v, .).  In the fixed
matrix convention omega(v, w) = v^T J w that pullback has matrix -J^{-1}, so
for the standard block form it is J again.

Forms are data, not globals: several fixtures use non-standard matrices, so
every operation takes the form explicitly.

`bracket_terms` is the one differential bracket kernel: it works on sparse
gradients (`gradient_terms`), so callers that bracket the same generators
many times build each gradient once.  `poisson_bracket` wraps it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .linalg import Matrix
from .poly import Exponent, Polynomial

GradientTerms = Dict[int, List[Tuple[Exponent, Fraction]]]


class SymplecticForm:
    """Even-dimensional nondegenerate skew form given by its matrix.

    `dual_matrix` may be supplied when a fixture's conventional bracket
    normalization differs from the computed dual by a nonzero scalar; the
    override is validated to be exactly such a multiple, so isotropy and
    ideal-membership verdicts are unaffected by it.
    """

    __slots__ = ("dim", "matrix", "_dual", "dual_rows")

    def __init__(self, matrix: Sequence[Sequence], dual_matrix: Optional[Sequence[Sequence]] = None):
        m = linalg.mat(matrix)
        dim = len(m)
        if dim == 0 or dim % 2 != 0:
            raise ValueError(f"symplectic form needs a positive even dimension, got {dim}")
        if not linalg.is_skew_symmetric(m):
            raise ValueError("symplectic form matrix must be skew-symmetric")
        computed = linalg.mat_scale(_inverse_or_fail(m), -1)
        if dual_matrix is None:
            dual = computed
        else:
            dual = linalg.mat(dual_matrix)
            if not _is_scalar_multiple(dual, computed):
                raise ValueError("dual_matrix must be a nonzero scalar multiple of the computed dual")
        self.dim = dim
        self.matrix = m
        self._dual = dual
        # nonzero entries (j, w) of each dual-matrix row, for the bracket kernel
        self.dual_rows = [[(j, w) for j, w in enumerate(row) if w] for row in dual]

    @property
    def half_dim(self) -> int:
        return self.dim // 2

    @property
    def dual_matrix(self) -> Matrix:
        return self._dual

    def to_json(self) -> str:
        matrix = [[str(x) for x in row] for row in self.matrix]
        computed = linalg.mat_scale(_inverse_or_fail(self.matrix), -1)
        if self._dual == computed:
            return json.dumps(matrix)
        dual = [[str(x) for x in row] for row in self._dual]
        return json.dumps({"matrix": matrix, "dual": dual})

    @staticmethod
    def from_json(text: str) -> "SymplecticForm":
        data = json.loads(text)
        if isinstance(data, dict):
            matrix = [[Fraction(x) for x in row] for row in data["matrix"]]
            dual = [[Fraction(x) for x in row] for row in data["dual"]]
            return SymplecticForm(matrix, dual_matrix=dual)
        return SymplecticForm([[Fraction(x) for x in row] for row in data])

    def __eq__(self, other) -> bool:
        return isinstance(other, SymplecticForm) and self.matrix == other.matrix

    def __repr__(self) -> str:
        return f"SymplecticForm(dim={self.dim})"


def _inverse_or_fail(m: Matrix) -> Matrix:
    try:
        return linalg.inverse(m)
    except ValueError:
        raise ValueError("symplectic form matrix must be invertible") from None


def _is_scalar_multiple(a: Matrix, b: Matrix) -> bool:
    scalar = None
    for ra, rb in zip(a, b):
        for x, y in zip(ra, rb):
            if y == 0:
                if x != 0:
                    return False
                continue
            s = x / y
            if scalar is None:
                if s == 0:
                    return False
                scalar = s
            elif s != scalar:
                return False
    return scalar is not None


def standard_form(n: int) -> SymplecticForm:
    """Block form [[0, Id_n], [-Id_n, 0]] on 2n coordinates."""
    if n < 1:
        raise ValueError("n must be at least 1")
    m = linalg.zeros(2 * n, 2 * n)
    for i in range(n):
        m[i][n + i] = Fraction(1)
        m[n + i][i] = Fraction(-1)
    return SymplecticForm(m)


def dual_form(form: SymplecticForm) -> SymplecticForm:
    """The induced form on the dual space; equals the form itself for standard J."""
    return SymplecticForm(form.dual_matrix)


def gradient_terms(p: Polynomial) -> GradientTerms:
    """Sparse gradient: variable i -> the terms (monomial, coefficient) of
    dp/dx_i, for every variable p involves."""
    out: GradientTerms = {}
    for m, c in p.terms.items():
        for i, e in enumerate(m):
            if e:
                out.setdefault(i, []).append((m[:i] + (e - 1,) + m[i + 1 :], c * e))
    return out


def bracket_terms(
    grad_f: GradientTerms, grad_g: GradientTerms, form: SymplecticForm
) -> Dict[Exponent, Fraction]:
    """Terms of [f, g] = sum over i, j of W_ij (df/dx_i)(dg/dx_j), W the dual
    matrix, from the gradients of f and g."""
    out: Dict[Exponent, Fraction] = {}
    for i, df in grad_f.items():
        for j, w in form.dual_rows[i]:
            dg = grad_g.get(j)
            if dg is None:
                continue
            for m1, c1 in df:
                a = c1 * w
                for m2, c2 in dg:
                    key = tuple([x + y for x, y in zip(m1, m2)])
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
    return Polynomial(form.dim, bracket_terms(gradient_terms(f), gradient_terms(g), form))


# ---------------------------------------------------------------------------
# Quadrics as symmetric matrices and the dictionary with sp(V).
# ---------------------------------------------------------------------------


class QuadraticForm:
    """Symmetric matrix A representing the quadric x^T A x."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: Sequence[Sequence]):
        m = linalg.mat(matrix)
        if not linalg.is_symmetric(m):
            raise ValueError("quadratic form matrix must be symmetric")
        self.matrix = m

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def to_polynomial(self) -> Polynomial:
        n = self.dim
        terms = {}
        for i in range(n):
            for j in range(i, n):
                coeff = self.matrix[i][j] if i == j else 2 * self.matrix[i][j]
                if coeff:
                    exps = [0] * n
                    exps[i] += 1
                    exps[j] += 1
                    terms[tuple(exps)] = coeff
        return Polynomial(n, terms)

    @staticmethod
    def from_polynomial(p: Polynomial) -> "QuadraticForm":
        if p.terms and p.homogeneous_degree() != 2:
            raise ValueError("expected a homogeneous quadric")
        n = p.nvars
        m = linalg.zeros(n, n)
        for exps, c in p.terms.items():
            support = [i for i, e in enumerate(exps) if e]
            if len(support) == 1:
                i = support[0]
                m[i][i] = c
            else:
                i, j = support
                m[i][j] = c / 2
                m[j][i] = c / 2
        return QuadraticForm(m)

    def __eq__(self, other) -> bool:
        return isinstance(other, QuadraticForm) and self.matrix == other.matrix

    def __repr__(self) -> str:
        return f"QuadraticForm(dim={self.dim})"


class SpElement:
    """Matrix M with M^T J + J M = 0 for the ambient form's matrix J."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: Sequence[Sequence], form: Optional[SymplecticForm] = None):
        self.matrix = linalg.mat(matrix)
        if form is not None and not sp_membership(self.matrix, form):
            raise ValueError("matrix does not lie in sp for the given form")

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def __repr__(self) -> str:
        return f"SpElement(dim={self.dim})"


def sp_membership(m: Sequence[Sequence], form: SymplecticForm) -> bool:
    """True iff M^T J + J M = 0 exactly."""
    mm = linalg.mat(m)
    if len(mm) != form.dim:
        raise ValueError("dimension mismatch")
    j = form.matrix
    lhs = linalg.mat_add(linalg.mat_mul(linalg.transpose(mm), j), linalg.mat_mul(j, mm))
    return linalg.mat_eq_zero(lhs)


def quadric_to_sp(q: QuadraticForm, form: SymplecticForm) -> SpElement:
    """Lie algebra isomorphism Sym^2 V* -> sp(V): A -> 2 W A with W the dual matrix.

    For the standard block form this is multiplication by 2J.  The image
    always satisfies the sp membership identity and the map intertwines the
    quadric bracket with the matrix commutator.
    """
    if q.dim != form.dim:
        raise ValueError("dimension mismatch")
    image = linalg.mat_scale(linalg.mat_mul(form.dual_matrix, q.matrix), 2)
    return SpElement(image)


def quadric_bracket_matrix(a: QuadraticForm, b: QuadraticForm, form: SymplecticForm) -> QuadraticForm:
    """Bracket of two quadrics in matrix form: 2 (A W B - B W A).

    Equal to the matrix of poisson_bracket of the two quadric polynomials;
    the equality of the two routes is a test, not an assumption.
    """
    if a.dim != form.dim or b.dim != form.dim:
        raise ValueError("dimension mismatch")
    w = form.dual_matrix
    awb = linalg.mat_mul(linalg.mat_mul(a.matrix, w), b.matrix)
    bwa = linalg.mat_mul(linalg.mat_mul(b.matrix, w), a.matrix)
    return QuadraticForm(linalg.mat_scale(linalg.mat_sub(awb, bwa), 2))


def commutator(a: SpElement, b: SpElement) -> SpElement:
    return SpElement(linalg.mat_sub(linalg.mat_mul(a.matrix, b.matrix), linalg.mat_mul(b.matrix, a.matrix)))
