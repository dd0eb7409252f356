"""Test oracle for legquad.linalg: dense Gaussian elimination on Fractions.

This is the elimination the package used before its sparse integer kernel;
it shares no code with `legquad.linalg.Echelon`, so the two routes are
independent.  `solve`, `row_space_basis`, `inverse` and the canonical
kernel basis `nullspace` read their answers off this `rref`; they, `mat`,
`zeros`, `identity`, the matrix-vector, matrix and dot products, transpose,
sums and scaling and the symmetry test serve the tests and the other
oracles only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

Matrix = List[List[Fraction]]
Vector = List[Fraction]


def mat(rows: Sequence[Sequence]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def zeros(n: int, m: int) -> Matrix:
    return [[Fraction(0)] * m for _ in range(n)]


def identity(n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def mat_vec(a: Matrix, v: Sequence) -> Vector:
    vv = [Fraction(x) for x in v]
    return [sum((x * y for x, y in zip(row, vv)), Fraction(0)) for row in a]


def vec_dot(u: Sequence, v: Sequence) -> Fraction:
    return sum((Fraction(x) * Fraction(y) for x, y in zip(u, v)), Fraction(0))


def mat_scale(a: Matrix, c) -> Matrix:
    f = Fraction(c)
    return [[x * f for x in row] for row in a]


def rref(a: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot column list)."""
    m = [[Fraction(x) for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def det(a: Matrix) -> Fraction:
    """Exact determinant by fraction Gaussian elimination with sparse pivoting."""
    n = len(a)
    if n == 0:
        return Fraction(1)
    m = [[Fraction(x) for x in row] for row in a]
    result = Fraction(1)
    for c in range(n):
        pivot_row = None
        best = None
        for i in range(c, n):
            if m[i][c] != 0:
                weight = sum(1 for x in m[i] if x != 0)
                if best is None or weight < best:
                    best = weight
                    pivot_row = i
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            result = -result
        result *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                factor = m[i][c] * inv
                m[i] = [x - factor * y for x, y in zip(m[i], m[c])]
    return result


def solve(a: Matrix, b: Sequence) -> Optional[Vector]:
    """One exact solution of a x = b, or None when inconsistent."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [list(a[i]) + [Fraction(b[i])] for i in range(rows)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return x


def inverse(a: Matrix) -> Matrix:
    """The inverse, read off the RREF of [a | I]; ValueError when singular."""
    n = len(a)
    eye = identity(n)
    red, pivots = rref([list(a[i]) + eye[i] for i in range(n)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def row_space_basis(a: Matrix) -> Matrix:
    """Canonical (RREF) basis of the row space, zero rows dropped."""
    red, pivots = rref(a)
    return [red[i] for i in range(len(pivots))]


def nullspace(a: Matrix, ncols: Optional[int] = None) -> List[Vector]:
    """Canonical basis of the right kernel of `a` (vectors of length ncols),
    one vector per free column f in increasing order: 1 at f, and minus the
    RREF entry at f in each pivot column."""
    cols = ncols if ncols is not None else (len(a[0]) if a else 0)
    red, pivots = rref(a)
    basis = []
    for f in range(cols):
        if f not in pivots:
            v = [Fraction(0)] * cols
            v[f] = Fraction(1)
            for r, p in enumerate(pivots):
                v[p] = -red[r][f]
            basis.append(v)
    return basis


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_eq_zero(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


def is_symmetric(a: Matrix) -> bool:
    n = len(a)
    return all(len(row) == n for row in a) and all(
        a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n)
    )
