"""Exact linear algebra over the rationals, on one sparse elimination kernel.

A coordinate vector is a sparse dict, index -> nonzero Fraction
(`SparseVector`); `integral` scales one to integers.  Every row elimination
in the package runs on `Echelon`: sparse rows of integers, kept
fraction-free with their content divided out, which suits the sparse
systems the package solves (the Groebner bases and normal forms of
`groebner`, the quadric spans of `liealg` and `catalog`, ad-matrices,
centroid systems of d^3 rows in d^2 columns); `Echelon.kernel` and
`sparse_nullspace` give canonical kernel bases of sparse vectors.  Dense
matrices, lists of lists of Fractions, are left for the symplectic form
only: `rref` and `inverse` read the canonical RREF off `Echelon`, and
`mat_vec` and `vec_dot` pair the form with tangent vectors.  The dense
`nullspace`, matrix products, transposes and sums, `solve`,
`row_space_basis` and the symmetry test are test oracles
(`tests/linalg_oracle.py`).
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

Matrix = List[List[Fraction]]
Vector = List[Fraction]
SparseVector = Dict[int, Fraction]  # index -> nonzero value
SparseRow = Dict[int, int]


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


def integral(vec: Mapping) -> Tuple[SparseRow, int]:
    """(den * vec as integers, nonzero entries only, and den) for the least
    common denominator den of vec's entries, Fractions or ints."""
    den = lcm(*[x.denominator for x in vec.values()])
    if den == 1:
        return {k: x.numerator for k, x in vec.items() if x}, 1
    return {k: x.numerator * (den // x.denominator) for k, x in vec.items() if x}, den


def _eliminate(work: SparseRow, row: SparseRow, a: int, b: int) -> None:
    """work <- a * work - b * row, in place, dropping zeros."""
    if a != 1:
        for k in work:
            work[k] *= a
    for k, v in row.items():
        s = work.get(k, 0) - b * v
        if s:
            work[k] = s
        else:
            del work[k]


def _primitive(work: SparseRow, combo: Optional[SparseRow]) -> None:
    """Divide out the content, jointly with `combo`, and make the leading
    (smallest-column) entry of `work` positive."""
    parts = [work] if combo is None else [work, combo]
    g = gcd(*(v for part in parts for v in part.values()))
    if work[min(work)] < 0:
        g = -g
    if g != 1:
        for part in parts:
            for k in part:
                part[k] //= g


class Echelon:
    """Sparse row echelon form over Q, fraction-free, with optional
    coefficient recovery against the input rows.

    Rows map column to integer.  Each stored row has its content divided
    out (jointly with its coefficients, when they are tracked), a positive
    leading entry, and a leading column of its own.  A row stored by `add`
    has no entry in the leading column of an earlier row; `adopt` stores a
    row that is already in that form as it is, and the elimination clears
    pivot columns in increasing order, so the entries such a row keeps in
    other pivot columns are cleared after it.  `pivots` lists the leading
    columns in increasing order and is kept sorted as rows are inserted.
    With `track=True` each row also carries its integer coefficients over
    the (denominator-cleared) input rows, eliminated alongside it, so that
    `coefficients` can write a vector of the span in terms of the inputs.

    The elimination takes a row's pivot columns off a heap: it starts with
    the row's own, and each elimination pushes the pivot columns it adds,
    so a row on a tall system of short rows, such as a Groebner step after
    its reducers are adopted, touches only the pivots it meets.  Walking
    every pivot from the row's lead on instead, as the package once did,
    clears the same columns in the same order and stores the same rows.
    On a 2-vCPU Xeon host the walk took 9.4 s to check the segre-4 ideal
    with two products of three of its quadrics added, whose closure test
    spans its parts of degree 2, 6 and 10, against 0.83-0.93 s on the heap
    (best of five in-process passes).  Walking the pivots for rows with at
    most four pivots after their lead per entry, and taking the heap for
    the rest, measured no faster on the `catalog` benchmark (seed 47,
    ten alternating 35 s runs of each: median pass 1.101 s against 1.102 s,
    the heap alone faster in 5 of the 10), so the heap serves every row.
    """

    def __init__(self, track: bool = False):
        self.pivots: List[int] = []
        self.rows: Dict[int, SparseRow] = {}  # leading column -> row, in insertion order
        self._combos: Optional[Dict[int, SparseRow]] = {} if track else None
        self._denominators: List[int] = []

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def stored_inputs(self) -> List[int]:
        """The indices of the inputs stored as rows, in input order: those
        that enlarged the span, over which alone `coefficients` writes.
        Needs track=True.  A stored row's combination holds its own input
        and earlier stored ones only, so its largest index is its own."""
        return sorted(max(combo) for combo in self._combos.values())

    def _clear(self, work: SparseRow, p: int, combo: Optional[SparseRow]) -> int:
        """work <- a * work - b * (row of pivot p) with the least a > 0 that
        clears column p; the same step on `combo`; returns a."""
        row = self.rows[p]
        g = gcd(row[p], work[p])
        a, b = row[p] // g, work[p] // g
        _eliminate(work, row, a, b)
        if combo is not None:
            _eliminate(combo, self._combos[p], a, b)
        return a

    def _reduce(self, work: SparseRow, combo: Optional[SparseRow]) -> int:
        """Clear every pivot column of `work`, in increasing order, off the
        heap of the class docstring; returns the product m of the factors,
        so that work = m * (input) - (combination of stored rows)."""
        m = 1
        rows = self.rows
        heap = [k for k in work if k in rows]
        heapify(heap)
        while heap:
            p = heappop(heap)
            if p in work:  # a pushed column may have cancelled since
                added = [k for k in rows[p] if k not in work and k in rows]
                m *= self._clear(work, p, combo)
                for k in added:
                    heappush(heap, k)
        return m

    def add(self, vec: Mapping) -> bool:
        """Insert a row (column -> rational); False when it lies in the span."""
        work, den = integral(vec)
        combo = None
        if self._combos is not None:
            combo = {len(self._denominators): 1}
            self._denominators.append(den)
        self._reduce(work, combo)
        if not work:
            return False
        _primitive(work, combo)
        lead = min(work)
        insort(self.pivots, lead)
        self.rows[lead] = work
        if combo is not None:
            self._combos[lead] = combo
        return True

    def adopt(self, row: SparseRow) -> None:
        """Store a row that is already in stored form, with no elimination:
        integer entries with content 1 and a positive leading entry.  Its
        leading column must not be a pivot yet; its other entries may lie in
        pivot columns.  `row` is kept, not copied."""
        if not row or not all(type(x) is int and x for x in row.values()):
            raise ValueError("an adopted row has nonzero integer entries")
        lead = min(row)
        if row[lead] <= 0 or gcd(*row.values()) != 1:
            raise ValueError("an adopted row is primitive with a positive leading entry")
        if lead in self.rows:
            raise ValueError(f"column {lead} is already a pivot")
        insort(self.pivots, lead)
        self.rows[lead] = row
        if self._combos is not None:
            self._combos[lead] = {len(self._denominators): 1}
            self._denominators.append(1)

    def remainder(self, vec: Mapping) -> Dict[int, Fraction]:
        """vec minus a vector of the span, with no entry in a pivot column
        (zero exactly when vec lies in the span)."""
        work, den = integral(vec)
        m = self._reduce(work, None)
        return {k: Fraction(x, m * den) for k, x in work.items()}

    def contains(self, vec: Mapping) -> bool:
        return not self.remainder(vec)

    def coefficients(self, vec: Mapping, den: int = 1) -> Optional[Dict[int, Fraction]]:
        """vec / den as a combination of the input rows (input index ->
        nonzero coefficient), or None when it is outside the span.  Needs
        track=True."""
        work, d = integral(vec)
        den *= d
        combo: SparseRow = {}
        m = self._reduce(work, combo)
        if work:
            return None
        # m * den * (vec / den) = -sum_i combo[i] * (d_i * input_i)
        return {
            i: Fraction(-combo[i] * self._denominators[i], m * den) for i in sorted(combo)
        }

    def reduce_fully(self) -> None:
        """Clear each pivot column in the rows above it too, so that every
        row is its canonical reduced row echelon row times a positive integer.
        Tracked coefficients are not carried along, so `coefficients` is
        wrong afterwards."""
        for p in reversed(self.pivots):
            row = self.rows[p]
            later = [q for q in row if q != p and q in self.rows]
            for q in later:
                self._clear(row, q, None)
            if later:
                _primitive(row, None)

    def kernel(self, columns: Iterable[int]) -> List[SparseVector]:
        """Canonical basis of the vectors over `columns`, which hold every
        row entry, that every row annihilates: one per free column f, in the
        order given, with minus the reduced row's entry at f in each pivot
        column and 1 at f, in increasing column order, since a row's entries
        follow its pivot.  Runs `reduce_fully` first."""
        self.reduce_fully()
        basis: Dict[int, SparseVector] = {f: {} for f in columns if f not in self.rows}
        for p in self.pivots:
            row = self.rows[p]
            for f, x in row.items():
                if f != p:
                    basis[f][p] = Fraction(-x, row[p])
        for f, vec in basis.items():
            vec[f] = Fraction(1)
        return list(basis.values())


def rref(a: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot column list).

    The rows past the rank are zero, so the result has the shape of `a`.
    """
    cols = len(a[0]) if a else 0
    ech = Echelon()
    for row in a:
        ech.add({j: Fraction(x) for j, x in enumerate(row) if x})
    ech.reduce_fully()
    zero = Fraction(0)
    out = [
        [Fraction(row[j], row[p]) if j in row else zero for j in range(cols)]
        for p, row in sorted(ech.rows.items())
    ]
    out.extend([zero] * cols for _ in range(len(a) - len(out)))
    return out, ech.pivots


def sparse_nullspace(rows: Iterable[Mapping], columns: Iterable[int]) -> List[SparseVector]:
    """The right kernel of sparse rows (column -> integer or rational) over
    `columns`, which hold every entry of every row: `Echelon.kernel`'s
    canonical basis."""
    ech = Echelon()
    for row in rows:
        ech.add(row)
    return ech.kernel(columns)


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    eye = identity(n)
    red, pivots = rref([list(a[i]) + eye[i] for i in range(n)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def is_skew_symmetric(a: Matrix) -> bool:
    n = len(a)
    if any(len(row) != n for row in a):
        return False
    if any(a[i][i] != 0 for i in range(n)):
        return False
    return all(
        a[i][j] == -a[j][i] for i in range(n) for j in range(i + 1, n) if a[i][j] or a[j][i]
    )
