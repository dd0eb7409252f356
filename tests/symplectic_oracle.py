"""Test oracle for legquad.symplectic: quadrics as symmetric matrices and
the Lie algebra isomorphism with sp(V), in dense Fraction matrices.

A quadric x^T A x goes to 2 W A for the dual matrix W, and the bracket of
two quadrics to 2 (A W B - B W A).  Neither route shares the gradient
bracket kernel of `legquad.symplectic`, so the tests check the package's
brackets and sp-image entries against them.  `fraction_form` reads a form
and checks it on dense Fraction matrices, the oracle of the integer rows.
"""

from __future__ import annotations

from typing import Optional, Sequence

from legquad.poly import Polynomial
from legquad.symplectic import SymplecticForm

from linalg_oracle import (
    identity, inverse, is_symmetric, mat, mat_add, mat_eq_zero, mat_mul, mat_scale, mat_sub, transpose, zeros,
)


class QuadraticForm:
    """Symmetric matrix A representing the quadric x^T A x."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: Sequence[Sequence]):
        m = mat(matrix)
        if not is_symmetric(m):
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
        m = zeros(n, n)
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
        self.matrix = mat(matrix)
        if form is not None and not sp_membership(self.matrix, form):
            raise ValueError("matrix does not lie in sp for the given form")

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def __repr__(self) -> str:
        return f"SpElement(dim={self.dim})"


def fraction_form(matrix: Sequence[Sequence], dual_matrix: Optional[Sequence[Sequence]] = None):
    """(J, dual) as dense Fraction matrices, the dual computed as -J^{-1}
    when none is supplied, or None when `SymplecticForm` refuses them: J
    must be square, of positive even size, skew and invertible, and a
    supplied dual must be square of J's size with J * dual = -c * I, c != 0."""
    j = mat(matrix)
    n = len(j)
    if n == 0 or n % 2 or any(len(row) != n for row in j) or transpose(j) != mat_scale(j, -1):
        return None
    try:
        computed = mat_scale(inverse(j), -1)
    except ValueError:
        return None
    if dual_matrix is None:
        return j, computed
    dual = mat(dual_matrix)
    if len(dual) != n or any(len(row) != n for row in dual):
        return None
    product = mat_mul(j, dual)
    c = -product[0][0]
    return (j, dual) if c and product == mat_scale(identity(n), -c) else None


def dual_form(form: SymplecticForm) -> SymplecticForm:
    """The induced form on the dual space; equals the form itself for standard J."""
    return SymplecticForm(form.dual_matrix)


def sp_membership(m: Sequence[Sequence], form: SymplecticForm) -> bool:
    """True iff M^T J + J M = 0 exactly."""
    mm = mat(m)
    if len(mm) != form.dim:
        raise ValueError("dimension mismatch")
    j = form.matrix
    lhs = mat_add(mat_mul(transpose(mm), j), mat_mul(j, mm))
    return mat_eq_zero(lhs)


def quadric_to_sp(q: QuadraticForm, form: SymplecticForm) -> SpElement:
    """Lie algebra isomorphism Sym^2 V* -> sp(V): A -> 2 W A with W the dual matrix.

    For the standard block form this is multiplication by 2J.  The image
    always satisfies the sp membership identity and the map intertwines the
    quadric bracket with the matrix commutator.
    """
    if q.dim != form.dim:
        raise ValueError("dimension mismatch")
    image = mat_scale(mat_mul(form.dual_matrix, q.matrix), 2)
    return SpElement(image)


def quadric_bracket_matrix(a: QuadraticForm, b: QuadraticForm, form: SymplecticForm) -> QuadraticForm:
    """Bracket of two quadrics in matrix form: 2 (A W B - B W A).

    Equal to the matrix of poisson_bracket of the two quadric polynomials;
    the equality of the two routes is a test, not an assumption.
    """
    if a.dim != form.dim or b.dim != form.dim:
        raise ValueError("dimension mismatch")
    w = form.dual_matrix
    awb = mat_mul(mat_mul(a.matrix, w), b.matrix)
    bwa = mat_mul(mat_mul(b.matrix, w), a.matrix)
    return QuadraticForm(mat_scale(mat_sub(awb, bwa), 2))


def commutator(a: SpElement, b: SpElement) -> SpElement:
    return SpElement(mat_sub(mat_mul(a.matrix, b.matrix), mat_mul(b.matrix, a.matrix)))
